"""Exception hierarchy shared by all provgames modules."""


class ProvError(Exception):
    """Base class for all errors raised by this package."""


class VariantMismatch(ProvError):
    """A value does not belong to the semiring it was used with."""


class KindMismatch(ProvError):
    """Polynomial operands have different kinds or degree bounds."""


class IllegalProjection(ProvError):
    """The requested polynomial kind is not a quotient of the source kind."""


class DualityViolated(ProvError):
    """An assignment maps a complementary token pair to two nonzero values."""


class InfExponentUnsupported(ProvError):
    """The target semiring has no infimum of powers for this element."""


class NotOmegaContinuous(ProvError):
    """Operation requires an omega-continuous semiring."""


class NotFullyOmegaContinuous(ProvError):
    """Operation requires a fully omega-continuous semiring."""


class NoConvergence(ProvError):
    """No least fixed point exists: the Kleene iterates grow without bound.

    A message that names a variable of the equation system comes from a
    `template` with `{}` in its place; `variable` is that variable, and
    `naming` gives the same error under another name for it."""

    def __init__(self, template, variable=None):
        super().__init__(template if variable is None else template.format(repr(variable)))
        self.template = template
        self.variable = variable

    def naming(self, name):
        """The error with `name` in the variable's place in the message."""
        return NoConvergence(self.template.format(name))


class MalformedGame(ProvError):
    """A game graph violates a structural invariant."""


class CyclicGame(ProvError):
    """Operation requires an acyclic game graph."""


class BudgetExceeded(ProvError):
    """Strategy enumeration exceeded the node budget."""


class FormulaSyntaxError(ProvError):
    """Formula or file text does not match the grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class ArityError(ProvError):
    """A relation is used with the wrong number of arguments."""


class NotNNF(ProvError):
    """Formula must be in negation normal form."""


class NotPosLFP(ProvError):
    """Formula lies outside the positive least-fixed-point fragment."""


class NotSentence(ProvError):
    """Formula has free variables and cannot be evaluated."""


class NotModelDefining(ProvError):
    """Interpretation does not define a unique structure."""


class TrackedFalseLiteral(ProvError):
    """A literal selected for tracking is false in the given structure."""


class GameFileError(ProvError):
    """A game or interpretation file is malformed."""
