"""First-order and posLFP formulas with semiring-valued interpretations.

Covers the formula grammar and parser, negation normal form, interpretations
of instantiated literals, the model-checking game construction, and three
valuations.  The game-based one solves the equation system of the
model-checking game.  The direct fixed-point semantics compiles the formula
itself into an equation system, one variable per tuple the sentence reaches
of each lfp relation (nested fixed points join the same system), and solves
it with the same `kleene_lfp`; the compositional valuation of a first-order
sentence is the fixed-point-free case of that compiler, where every
subformula folds to a constant.  The two routes to a posLFP value share the
formula plan (`_game_plan`), which binds every variable, and the solver;
the plan is checked against evaluators written on the syntax tree: the
tests' `_reference_mc_game` and `_reference_direct`, and `model_check`.
"""

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from operator import itemgetter

from .errors import (
    ArityError,
    FormulaSyntaxError,
    MalformedGame,
    NoConvergence,
    NotModelDefining,
    NotNNF,
    NotPosLFP,
    NotSentence,
    ProvError,
    TrackedFalseLiteral,
)
from .games import TERMINAL, BasicValuation, GameGraph
from .monomials import negate_token
from .semirings import get_semiring
from .solver import (EquationSystem, _components, _support, _support_graph, build_system,
                     kleene_lfp)

# --- abstract syntax --------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple
    negated: bool = False


@dataclass(frozen=True)
class Eq:
    left: str
    right: str
    negated: bool = False


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Quant:
    kind: str  # 'exists' | 'forall'
    var: str
    sub: object


@dataclass(frozen=True)
class Fp:
    kind: str  # 'lfp' | 'gfp'
    rel: str
    params: tuple
    body: object
    args: tuple


def free_variables(formula):
    """Terms no quantifier or fixed point binds: free variables and constants."""
    return _free_sets(formula)[id(formula)]


def _free_sets(formula):
    """`free_variables` of every subformula by `id` (node `==` and `hash`
    recurse): list the subformulas in preorder, fill their sets in reverse."""
    order, todo = [], [formula]
    while todo:
        f = todo.pop()
        order.append(f)
        t = type(f)
        if t is And or t is Or:
            todo += (f.right, f.left)
        elif t is Quant or t is Not:
            todo.append(f.sub)
        elif t is Fp:
            todo.append(f.body)
    free = {}
    for f in reversed(order):
        t = type(f)
        if t is Atom:
            free[id(f)] = set(f.args)
        elif t is And or t is Or:
            free[id(f)] = free[id(f.left)] | free[id(f.right)]
        elif t is Quant:
            free[id(f)] = free[id(f.sub)] - {f.var}
        elif t is Eq:
            free[id(f)] = {f.left, f.right}
        elif t is Not:
            free[id(f)] = free[id(f.sub)]
        elif t is Fp:
            free[id(f)] = free[id(f.body)] - set(f.params) | set(f.args)
        else:
            raise ProvError(f"unknown formula node {f!r}")
    return free


# --- parser -----------------------------------------------------------------


#: Deepest formula nesting the parser accepts.  Every parenthesis, negation,
#: quantifier, fixed point and binary connective adds a level.  Only the
#: parser (and the `model_check` oracle) recurses per level; the other walks
#: keep explicit stacks.  The limit stays so that a deeper text is a syntax
#: error (exit 2, pinned by `test_formula_depth_limit`), not a RecursionError.
MAX_FORMULA_DEPTH = 100


class _FormulaParser:
    """Recursive-descent parser; `!` binds tighter than `&` than `|`, and a
    quantifier or fixed-point body extends as far right as possible.

    Each parsing method returns the formula with its nesting depth.  Every
    relation symbol must be used with one arity throughout: `uses` lists
    each (symbol, arity) as it is read, and the first clash with an earlier
    use raises once the text has parsed."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.open = 0  # nesting levels entered and not yet left
        self.uses = []

    def error(self, message):
        raise FormulaSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token):
        if not self.eat(token):
            self.error(f"expected {token!r}")

    def ident(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.error("expected identifier")
        return self.text[start:self.pos]

    def level(self, depth):
        """Return a node's nesting depth; raise if it exceeds the limit."""
        if depth > MAX_FORMULA_DEPTH:
            self.error(f"formula nested more than {MAX_FORMULA_DEPTH} levels deep")
        return depth

    def nested(self, parse):
        """Parse one level further in; returns the sub-formula and the depth
        of the node around it.  The level is checked on the way in, so that
        the parser's own recursion is bounded too."""
        self.open = self.level(self.open + 1)
        f, depth = parse()
        self.open -= 1
        return f, self.level(depth + 1)

    def parse(self):
        f, _ = self.disjunction()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        arities = {}
        for rel, arity in self.uses:
            if arities.setdefault(rel, arity) != arity:
                raise ArityError(f"relation {rel} used with arities {arities[rel]} and {arity}")
        return f

    def disjunction(self):
        f, depth = self.conjunction()
        while self.eat("|"):
            g, d = self.conjunction()
            f, depth = Or(f, g), self.level(max(depth, d) + 1)
        return f, depth

    def conjunction(self):
        f, depth = self.unary()
        while self.eat("&"):
            g, d = self.unary()
            f, depth = And(f, g), self.level(max(depth, d) + 1)
        return f, depth

    def unary(self):
        if self.eat("!"):
            f, depth = self.nested(self.unary)
            return Not(f), depth
        self.skip_ws()
        for kind in ("exists", "forall"):
            if self._keyword(kind):
                var = self.ident()
                self.expect(".")
                f, depth = self.nested(self.disjunction)
                return Quant(kind, var, f), depth
        if self.peek() == "(":
            self.expect("(")
            f, depth = self.nested(self.disjunction)
            self.expect(")")
            return f, depth
        if self.peek() == "[":
            return self.fixpoint()
        return self.atomic(), 0

    def _keyword(self, word):
        self.skip_ws()
        end = self.pos + len(word)
        if self.text.startswith(word, self.pos) and (
            end >= len(self.text)
            or not (self.text[end].isalnum() or self.text[end] == "_")
        ):
            self.pos = end
            return True
        return False

    def fixpoint(self):
        self.expect("[")
        if not (self._keyword("lfp") or self._keyword("gfp")):
            self.error("expected 'lfp' or 'gfp'")
        kind = "lfp" if self.text[self.pos - 3] == "l" else "gfp"
        rel = self.ident()
        params = self.term_list()
        self.uses.append((rel, len(params)))
        self.expect(".")
        body, depth = self.nested(self.disjunction)
        self.expect("]")
        args = self.term_list()
        if len(args) != len(params):
            raise ArityError(
                f"fixed-point relation {rel} bound with {len(params)} parameters "
                f"but applied to {len(args)} arguments"
            )
        return Fp(kind, rel, tuple(params), body, tuple(args)), depth

    def term_list(self):
        self.expect("(")
        terms = [self.ident()]
        while self.eat(","):
            terms.append(self.ident())
        self.expect(")")
        return tuple(terms)

    def atomic(self):
        left = self.ident()
        if self.peek() == "(":
            args = self.term_list()
            self.uses.append((left, len(args)))
            return Atom(left, args)
        if self.eat("!="):
            return Eq(left, self.ident(), negated=True)
        if self.eat("="):
            return Eq(left, self.ident())
        self.error("expected '(', '=' or '!=' after term")


def parse_formula(text):
    """Parse the text grammar into an AST, checking arity consistency."""
    return _FormulaParser(text).parse()


# --- negation normal form ---------------------------------------------------


def to_nnf(formula):
    """Push negation down to atoms; fixed points flip via lfp/gfp duality.

    A subformula is converted with whether it is negated and `flipped`, the
    symbols of the fixed points above it that were negated and not shadowed
    since, whose atoms flip too: not [lfp R. phi] = [gfp R. not phi[R := not
    R]].  Below a node's children, (constructor, n) rebuilds it from them."""
    done, todo = [], [(formula, False, frozenset())]
    while todo:
        entry = todo.pop()
        if len(entry) == 2:
            make, n = entry
            done[-n:] = [make(*done[-n:])]
            continue
        f, negate, flipped = entry
        if isinstance(f, Atom):
            done.append(Atom(f.rel, f.args, not f.negated) if negate != (f.rel in flipped) else f)
        elif isinstance(f, Eq):
            done.append(Eq(f.left, f.right, not f.negated) if negate else f)
        elif isinstance(f, Not):
            todo.append((f.sub, not negate, flipped))
        elif isinstance(f, (And, Or)):
            make = And if isinstance(f, And) != negate else Or
            todo += ((make, 2), (f.right, negate, flipped), (f.left, negate, flipped))
        elif isinstance(f, Quant):
            kind = ("forall" if f.kind == "exists" else "exists") if negate else f.kind
            todo += ((partial(Quant, kind, f.var), 1), (f.sub, negate, flipped))
        elif isinstance(f, Fp):
            # The binder shadows an outer one of the same symbol: its atoms
            # flip in the body exactly when this fixed point is negated.
            kind = ("gfp" if f.kind == "lfp" else "lfp") if negate else f.kind
            flipped = flipped | {f.rel} if negate else flipped - {f.rel}
            todo += ((partial(Fp, kind, f.rel, f.params, args=f.args), 1),
                     (f.body, negate, flipped))
        else:
            raise ProvError(f"unknown formula node {f!r}")
    return done[0]


# --- interpretations --------------------------------------------------------


class KInterpretation:
    """A total valuation of instantiated literals over a finite universe.

    literal keys are (rel, args, positive); unlisted literals are 0 unless
    model_default is set, in which case an unlisted negated literal whose
    positive partner is 0 defaults to 1 (yielding a model-defining map).
    """

    def __init__(self, handle, universe, arities, values, model_default=False):
        self.handle = handle
        self.universe = tuple(universe)
        self.arities = dict(arities)
        self.values = {}
        self.model_default = model_default
        for (rel, args, positive), value in values.items():
            if rel not in self.arities:
                self.arities[rel] = len(args)
            elif self.arities[rel] != len(args):
                raise ArityError(
                    f"relation {rel} used with arities {self.arities[rel]} and {len(args)}"
                )
            for a in args:
                if a not in self.universe:
                    raise ProvError(f"literal argument {a!r} is not a universe element")
            self.values[(rel, tuple(args), positive)] = value

    def literal(self, rel, args, positive=True):
        key = (rel, tuple(args), positive)
        if key in self.values:
            return self.values[key]
        if self.model_default and not positive:
            pos = self.values.get((rel, tuple(args), True), self.handle.zero)
            if pos == self.handle.zero:
                return self.handle.one
        return self.handle.zero

    def equality(self, a, b, negated=False):
        truth = (a == b) != negated
        return self.handle.one if truth else self.handle.zero

    def literals(self):
        """All instantiated literal keys of the vocabulary."""
        out = []
        for rel, arity in sorted(self.arities.items()):
            for args in _tuples(self.universe, arity):
                out.append((rel, args, True))
                out.append((rel, args, False))
        return out


def _tuples(universe, arity):
    return list(product(universe, repeat=arity))


def is_model_defining(pi):
    zero = pi.handle.zero
    for rel, arity in pi.arities.items():
        for args in _tuples(pi.universe, arity):
            pos = pi.literal(rel, args, True)
            neg = pi.literal(rel, args, False)
            if (pos == zero) == (neg == zero):
                return False
    return True


@dataclass(frozen=True)
class Structure:
    universe: tuple
    relations: dict = field(default_factory=dict)  # rel -> frozenset of tuples
    arities: dict = field(default_factory=dict)

    def holds(self, rel, args):
        return tuple(args) in self.relations.get(rel, frozenset())


def induced_structure(pi):
    if not is_model_defining(pi):
        raise NotModelDefining("interpretation does not determine a structure")
    zero = pi.handle.zero
    relations = {}
    for rel, arity in pi.arities.items():
        relations[rel] = frozenset(
            args for args in _tuples(pi.universe, arity)
            if pi.literal(rel, args, True) != zero
        )
    return Structure(pi.universe, relations, dict(pi.arities))


def make_tracking_interpretation(structure, tracked, handle=None):
    """Dual-token interpretation: tracked literals get fresh token pairs,
    untracked ones their Boolean truth value."""
    handle = handle or get_semiring("dualnat")
    values = {}
    arities = dict(structure.arities)
    for rel, args, positive in tracked:
        args = tuple(args)
        holds = structure.holds(rel, args)
        if holds != positive:
            lit = f"{'' if positive else '!'}{rel}({','.join(args)})"
            raise TrackedFalseLiteral(f"tracked literal {lit} is false in the structure")
        token = f"{rel}_{'_'.join(args)}" if args else rel
        values[(rel, args, positive)] = handle.token(
            token if positive else negate_token(token)
        )
    for rel, arity in arities.items():
        for args in _tuples(structure.universe, arity):
            for positive in (True, False):
                key = (rel, args, positive)
                if key in values:
                    continue
                truth = structure.holds(rel, args) == positive
                values[key] = handle.one if truth else handle.zero
    return KInterpretation(handle, structure.universe, arities, values)


# --- compiling formulas to equation systems ------------------------------------


class _Compiler:
    """Compiles a formula in negation normal form under an interpretation
    into one equation system (its callers convert to NNF once, up front).

    `compile(i, values)` compiles occurrence i of the formula's game plan
    under a values tuple, the key of a game position, to a right-hand side
    in the `EquationSystem` format: ('const', value) when it mentions no
    bound relation, else (op, [(coefficient, var), ...]), the sum of a
    Verifier position's successors or the product of a Falsifier one's.  A
    child with its parent's operator, or with a single term, is flattened
    into the parent; any other child gets an auxiliary variable `#k`.  The
    constants of a sum enter as one coefficient of the shared variable `1`;
    those of a product multiply the coefficient of its first term, and a
    zero one makes the product 0.

    Each key is compiled at most once, and not at all behind a stop, by a
    depth-first search with a stack of frames (key, operator, iterator over
    the successors' keys, their right-hand sides so far, stop).  Only keys
    of a `shared` occurrence can be reached twice: `compiled` keeps those.

    Without fixed points every right-hand side is a constant, and two laws
    settle a frame before its last successor: 0 * a = 0 in every semiring,
    and 1 + a = 1 in an absorptive one.  So a product frame stops at a
    constant equal to the handle's zero, and in an absorptive semiring a
    sum frame stops at one equal to its one; the remaining successors are
    never compiled.  The value is the full fold's.  Only a series kind's
    `truncated` marker can differ, and only where the full fold would mark
    a zero product: a zero factor left unmarked is exactly 0, so is the
    product, and an unmarked zero says so.  With fixed points no frame
    stops, since skipping an unfolding would change which tuples are
    reached, and so which components `kleene_lfp` solves or rejects.

    Every lfp occurrence is one relation instance, named on first use, with
    one variable `R(a,b)` per tuple the sentence reaches, the value of an
    unfolding position; nested fixed points join the same system (Bekic).
    `compile` only queues a tuple variable the first time it references it;
    `drain` compiles the queued bodies, which may queue more, until none is
    left.
    """

    ONE = "1"

    def __init__(self, pi, formula, fixpoints):
        self.pi = pi
        handle = self.handle = pi.handle
        self.occurrences = _game_plan(formula, pi.universe)
        self.fixpoints = fixpoints
        # operator -> the constant that settles its frame, or None
        self.stops = {"sum": None, "prod": None} if fixpoints else {
            "sum": handle.one if handle.flags.absorptive else None, "prod": handle.zero}
        self.equations = {}
        self.compiled = {}  # (occurrence index, values) -> right-hand side
        self.instances = {}  # body occurrence -> its relation instance name
        self.reached = set()  # tuple variables referenced so far
        self.pending = []  # (variable, body occurrence, args) not compiled yet

    def compile(self, i, values):
        pi, occurrences, compiled, stops = self.pi, self.occurrences, self.compiled, self.stops
        # The current frame; its parents wait on the stack, and the bottom
        # frame only collects the right-hand side of (i, values).  A frame
        # that meets its stop drops its remaining successors, so that the
        # next pass of the loop finishes it.
        key, op, successors, parts, stop = None, None, iter(((i, values),)), [], None
        stack = []
        while True:
            for child in successors:
                occ = occurrences[child[0]]
                rhs = compiled.get(child) if occ.shared else None
                if rhs is None:
                    kind = occ.kind
                    if kind == "unfold" and not self.fixpoints:
                        raise NotPosLFP("fo_eval handles first-order sentences only")
                    step = occ.step(child[1], pi.universe)
                    if kind == "branch" or kind == "quant":
                        stack.append((key, op, successors, parts, stop))
                        key = child if occ.shared else None
                        op = "sum" if occ.owner == 0 else "prod"
                        successors, parts, stop = iter(step), [], stops[op]
                        break
                    if kind == "unfold":
                        rhs = "sum", [(self.handle.one, self.tuple_var(occ, step))]
                    elif kind == "literal":
                        rhs = "const", pi.literal(occ.literal[0], step, occ.literal[1])
                    else:
                        rhs = "const", pi.equality(step[0], step[1], occ.literal)
                    if occ.shared:
                        compiled[child] = rhs
                parts.append(rhs)
                if stop is not None and rhs[1] == stop:
                    successors = ()
                    break
            else:
                if not stack:
                    return parts[0]
                rhs = self.combine(op, parts)
                if key is not None:
                    compiled[key] = rhs
                key, op, successors, parts, stop = stack.pop()
                parts.append(rhs)
                if stop is not None and rhs[1] == stop:
                    successors = ()

    def combine(self, op, parts):
        handle = self.handle
        fold, unit = (handle.add, handle.zero) if op == "sum" else (handle.mul, handle.one)
        const, terms = None, []
        for tag, body in parts:
            if tag == "const":
                const = body if const is None else fold(const, body)
            elif tag == op or len(body) == 1:
                terms.extend(body)
            else:
                terms.append((handle.one, self.auxiliary((tag, body))))
        if not terms:
            return "const", unit if const is None else const
        if const is None or const == unit:
            return op, terms
        if op == "sum":
            self.equations.setdefault(self.ONE, ("const", handle.one))
            return op, [(const, self.ONE)] + terms
        if const == handle.zero:
            return "const", const
        (coeff, var), *rest = terms
        return op, [(handle.mul(const, coeff), var)] + rest

    def auxiliary(self, rhs):
        var = f"#{len(self.equations)}"
        self.equations[var] = rhs
        return var

    def tuple_var(self, occ, args):
        """The variable of the tuple args of the instance that the unfolding
        occurrence occ enters, queued on first use.  The lfp occurrence, met
        first, names the instance: `R`, or `R#k` if an earlier one took `R`."""
        name = self.instances.get(occ.child)
        if name is None:
            taken = occ.rel in self.instances.values()
            name = f"{occ.rel}#{len(self.instances) + 1}" if taken else occ.rel
            self.instances[occ.child] = name
        var = f"{name}({','.join(args)})"
        if var not in self.reached:
            self.reached.add(var)
            self.pending.append((var, occ.child, args))
        return var

    def drain(self):
        """Compile the body of every queued tuple, and of every tuple those
        bodies reach, so that the equations mention only defined variables."""
        while self.pending:
            var, body, args = self.pending.pop()
            self.equations[var] = self.compile(body, args)


def fo_eval(pi, sentence):
    """Compositional semiring value of a first-order sentence.

    The search stops frames early (see `_Compiler`), so it may never reach
    an occurrence that raises.  The plan is scanned first for the fault a
    full search would raise first: it reaches the occurrences in plan order,
    each of them except those below an unfolding, which raises, and those
    below a quantifier over an empty universe."""
    compiler = _Compiler(pi, to_nnf(sentence), fixpoints=False)
    unreached = set()
    for occ in compiler.occurrences:
        if occ.parent in unreached or (not pi.universe and occ.parent is not None
                                       and occ.parent.kind == "quant"):
            unreached.add(occ)
        elif occ.kind == "unfold":
            raise NotPosLFP("fo_eval handles first-order sentences only")
        elif occ.error is not None:
            cls, message = occ.error
            raise cls(message)
    return compiler.compile(0, ())[1]


# --- model-checking games -----------------------------------------------------


class MCGame:
    """A model-checking game plus the bookkeeping to valuate it.

    Positions are the integers 0, 1, ... in first-visit order, so `root` is
    0.  A position is a subformula occurrence with values for the variables
    its subgame can depend on; `labels[p]` spells position p out as the pair
    (occurrence path, frozen environment), built on first use.  Terminals
    map to instantiated literals (rel, args, positive) or ('=', a, b,
    negated).
    """

    def __init__(self, game, root, terminal_literals, keys, occurrences):
        self.game = game
        self.root = root
        self.terminal_literals = terminal_literals
        self._keys = keys  # position -> (occurrence index, values)
        self._occurrences = occurrences

    @cached_property
    def labels(self):
        return [self._label(pos) for pos in range(len(self._keys))]

    def _label(self, pos):
        i, values = self._keys[pos]
        occ = self._occurrences[i]
        return occ.path, frozenset(zip(occ.variables, values))

    def describe(self, pos):
        """Position pos for a message: its occurrence path (child indices
        from the sentence down) and its binding, sorted by variable."""
        path, env = self._label(pos)
        binding = ", ".join(f"{var}={value}" for var, value in sorted(env))
        return f"position {path}" + (f" with {binding}" if binding else "")

    def basic_valuation(self, pi, player):
        handle = pi.handle
        f = {}
        for pos, lit in self.terminal_literals.items():
            if lit[0] == "=":
                _, a, b, negated = lit
                value = pi.equality(a, b, negated != (player == 1))
            else:
                rel, args, positive = lit
                f_positive = positive if player == 0 else not positive
                value = pi.literal(rel, args, f_positive)
            f[pos] = value
        return BasicValuation(handle, player, f)


class _Occurrence:
    """One subformula occurrence in the plan of a model-checking game.

    Its positions are keyed by values for `variables`, the environment
    entries the subgame can depend on.  `kind` says how a position's moves
    or literal follow from its values:

    * 'branch' (And, Or): one successor per `children` entry (occurrence,
      picker), whose values the picker takes from the parent's (None when
      the child keeps all of them);
    * 'quant': one successor per universe element a, with the values `pick`
      takes from the parent's, followed by a;
    * 'unfold' (an lfp of symbol `rel`, or an atom a fixed point binds):
      one successor, the body occurrence `child`, with the resolved arguments;
    * 'literal' (any other atom) and 'equality': a terminal.

    Arguments resolve by `pick` from the position's values followed by
    `constants`; an unfolding picks one argument per distinct parameter,
    the last one bound to it.  `error` is the (exception class, message)
    the occurrence raises when a game reaches it.  `shared` says that two
    positions can have one successor here: the move into it forgets a
    variable, or it is a fixed-point body, entered from its `Fp` position and
    from every unfolding of its symbol.  Any other occurrence has one parent
    occurrence, and the move from a parent position into it keeps every
    value (a quantifier adds one), so each of its positions has exactly one
    predecessor.

    `parent` is the parent occurrence (None for the whole formula) and
    `index` says which of its children this one is (0, or 1 for the right
    operand of a connective): the links `path` follows up.
    """

    __slots__ = ("parent", "index", "variables", "kind", "owner", "children", "child",
                 "pick", "constants", "literal", "rel", "error", "shared")

    def __init__(self, parent, index, variables):
        self.parent = parent
        self.index = index
        self.variables = variables
        self.error = None

    @property
    def path(self):
        """The child indices from the sentence down to this occurrence."""
        path, occ = [], self
        while occ.parent is not None:
            path.append(occ.index)
            occ = occ.parent
        return tuple(reversed(path))

    def step(self, values, universe):
        """The keys of the successors of the position with these values,
        for a branch or quantifier, or else its resolved arguments; raises
        the occurrence's error first."""
        if self.error is not None:
            cls, message = self.error
            raise cls(message)
        kind = self.kind
        if kind == "branch":
            return [(child, values if pick is None else pick(values))
                    for child, pick in self.children]
        if kind == "quant":
            outer = self.pick(values)
            return [(self.child, outer + (a,)) for a in universe]
        return self.pick(values + self.constants)

    def resolve(self, terms, members):
        """Set `constants` to the terms that are not variables, and return
        the index of each term into a position's values followed by them.
        A constant that is not a universe element sets `error`, unless an
        earlier check set it."""
        constants = []
        for t in terms:
            if t not in self.variables:
                constants.append(t)
                if t not in members and self.error is None:
                    self.error = (NotSentence, f"unbound variable {t!r}")
        self.constants = tuple(constants)
        return tuple(map((self.variables + self.constants).index, terms))


def _picker(indices):
    """The function, in C, from a tuple to the tuple of its entries at
    `indices`: `itemgetter` of them, or of a slice for fewer than two."""
    indices = tuple(indices)
    if len(indices) > 1:
        return itemgetter(*indices)
    start = indices[0] if indices else 0
    return itemgetter(slice(start, start + len(indices)))


def _game_plan(formula, universe):
    """The occurrences of an nnf formula in preorder, the whole formula
    first.  A fixed-point body sees only its parameters, and an atom is
    unfolded by the innermost fixed point around it that binds its symbol.
    A negation raises at once, any other fault at the positions it is in."""
    members = set(universe)
    free = _free_sets(formula)
    occurrences = []
    # (subformula, child index, variables, binders, parent occurrence, its picker)
    todo = [(formula, 0, (), {}, None, None)]
    while todo:
        f, index, variables, binders, parent, pick = todo.pop()
        number = len(occurrences)
        occ = _Occurrence(parent, index, variables)
        occurrences.append(occ)
        # Of the 'unfold' occurrences, only fixed points have children here.
        occ.shared = parent is not None and (
            parent.kind == "unfold"
            or len(variables) < len(parent.variables) + (parent.kind == "quant"))
        if parent is not None and parent.kind == "branch":
            parent.children.append((number, pick))
        elif parent is not None:
            parent.child = number
        if isinstance(f, Atom) and f.rel in binders:
            occ.kind, occ.owner = "unfold", 0
            occ.child, params = binders[f.rel]
            if f.negated:
                occ.error = (NotPosLFP, f"fixed-point relation {f.rel} occurs negatively")
            occ.pick = _picker(dict(zip(params, occ.resolve(f.args, members))).values())
        elif isinstance(f, Atom):
            occ.kind, occ.owner, occ.literal = "literal", TERMINAL, (f.rel, not f.negated)
            occ.pick = _picker(occ.resolve(f.args, members))
        elif isinstance(f, Eq):
            occ.kind, occ.owner, occ.literal = "equality", TERMINAL, f.negated
            occ.pick = _picker(occ.resolve((f.left, f.right), members))
        elif isinstance(f, (And, Or)):
            occ.kind, occ.owner = "branch", 0 if isinstance(f, Or) else 1
            occ.children = []
            for i, sub in ((1, f.right), (0, f.left)):
                keep = free[id(sub)]
                sub_variables = tuple(v for v in variables if v in keep)
                pick = (None if sub_variables == variables
                        else _picker(map(variables.index, sub_variables)))
                todo.append((sub, i, sub_variables, binders, occ, pick))
        elif isinstance(f, Quant):
            occ.kind, occ.owner = "quant", 0 if f.kind == "exists" else 1
            # The outer entries the body can see, without the one it shadows.
            # The bound variable stays even when the body ignores it:
            # collapsing the children would merge moves the owner can choose
            # between, undercounting in non-idempotent semirings.
            outer = tuple(v for v in variables if v in free[id(f)])
            occ.pick = _picker(map(variables.index, outer))
            todo.append((f.sub, 0, outer + (f.var,), binders, occ, None))
        elif isinstance(f, Fp):
            occ.kind, occ.owner, occ.rel = "unfold", 0, f.rel
            if f.kind != "lfp":
                occ.error = (NotPosLFP, "greatest fixed points are outside the fragment")
            binding = dict(zip(f.params, occ.resolve(f.args, members)))
            occ.pick = _picker(binding.values())
            # The body is planned next, so its index is the next one.
            body_binders = {**binders, f.rel: (number + 1, f.params)}
            todo.append((f.body, 0, tuple(binding), body_binders, occ, None))
        elif isinstance(f, Not):
            raise NotNNF("model-checking games require negation normal form")
        else:
            occ.error = (ProvError, f"unknown formula node {f!r}")
    return occurrences


def build_mc_game(universe, formula):
    """The game of an nnf formula over the universe, ready to value.

    Verifier (Player 0) owns disjunctions, existential quantifiers, and the
    unique-move unfolding positions of fixed points; Falsifier (Player 1)
    owns conjunctions and universal quantifiers.  A position is a subformula
    occurrence with values for the variables its subgame can depend on,
    keyed by (occurrence index, values tuple) after a plan made once per
    formula (`_game_plan`, which `_Compiler` shares).  An occurrence that is
    not in the fragment or not a sentence raises when the search reaches it.

    One depth-first search with an explicit stack builds the game ready to
    value, so deep unfoldings do not recurse.  It numbers positions densely
    in first-visit order (the root is 0), so every later layer hashes small
    integers, and appends each move once its target's subgame is built.
    Only the positions of a `shared` occurrence can be reached twice, so
    only their keys are looked up.  The search takes each position's
    successors in order, as `GameGraph.topological_order` does from position
    0, which reaches every position: so the order in which positions finish
    is that topological order, and a lookup that finds an unfinished
    position, one on the search path, closes a cycle.  The moves, the
    successor lists and that order go to the trusted `GameGraph._trusted`.
    """
    universe = tuple(universe)
    if len(set(universe)) != len(universe):
        raise MalformedGame("the universe lists an element twice")
    occurrences = _game_plan(formula, universe)
    shared = [occ.shared for occ in occurrences]
    ids = {}  # key of a shared occurrence -> position
    keys = []  # position -> (occurrence index, values)
    owners = {}
    successors = {}
    moves = []
    order = []  # positions in the order they finish
    finished = []  # position -> whether it has finished
    terminal_literals = {}
    cyclic = False
    # The current frame: a position, its successor list so far and an
    # iterator over the keys of its successors.  Its parents wait on the
    # stack; the bottom frame only enters the root.
    pos, out, todo = None, [], iter(((0, ()),))
    stack = []
    while True:
        for key in todo:
            i, values = key
            if shared[i]:
                child = ids.get(key)
                if child is not None:
                    cyclic = cyclic or not finished[child]
                    moves.append((pos, child))
                    out.append(child)
                    continue
                ids[key] = len(keys)
            child = len(keys)
            keys.append(key)
            occ = occurrences[i]
            step = occ.step(values, universe)
            owners[child] = occ.owner
            kind = occ.kind
            if kind == "branch" or kind == "quant" or kind == "unfold":
                finished.append(False)
                stack.append((pos, out, todo))
                pos, out = child, []
                successors[pos] = out
                todo = iter(((occ.child, step),) if kind == "unfold" else step)
                break
            # A terminal finishes at once.
            if kind == "literal":
                rel, positive = occ.literal
                terminal_literals[child] = (rel, step, positive)
            else:
                terminal_literals[child] = ("=", step[0], step[1], occ.literal)
            finished.append(True)
            successors[child] = []
            order.append(child)
            if pos is not None:
                moves.append((pos, child))
                out.append(child)
        else:
            if not stack:
                break
            finished[pos] = True
            order.append(pos)
            child = pos
            pos, out, todo = stack.pop()
            if pos is not None:
                moves.append((pos, child))
                out.append(child)
    game = GameGraph._trusted(owners, moves, successors, None if cyclic else order)
    return MCGame(game, 0, terminal_literals, keys, occurrences)


def game_eval(pi, sentence, player=0):
    """Value of the model-checking game at the root, for either player.

    The game is built whole, so its faults and positions do not depend on
    the values.  An acyclic game is valued at the root only (`_root_value`),
    a cyclic one by `kleene_lfp` on its whole equation system."""
    mc = build_mc_game(pi.universe, to_nnf(sentence))
    basic = mc.basic_valuation(pi, player)
    if mc.game.is_acyclic():
        return _root_value(mc, basic)
    if player == 1:
        raise NotPosLFP(
            "falsifier valuations of fixed-point games are outside the fragment"
        )
    system = build_system(mc.game, basic)
    try:
        return kleene_lfp(system)[mc.root]
    except NoConvergence as exc:
        if exc.variable is None:
            raise
        raise exc.naming(mc.describe(exc.variable)) from None


def _root_value(mc, basic):
    """The value `acyclic_valuation` gives the root of an acyclic game.

    One depth-first search with an explicit stack values the root and what
    it needs: each position folds its successors' values in order, as
    `EquationSystem.evaluate` does (a sum at the valuation player's
    positions, a product at the opponent's, the unit when there are none),
    and stops at the value that settles the fold, as `_Compiler` does: zero
    in a product, and one in a sum of an absorptive semiring.  Positions
    behind a stop are never valued; the others are valued once.  The game
    has no move values."""
    handle = basic.handle
    owners, successors = mc.game.owners, mc.game._succ
    # owner -> (fold, its unit, the value that settles it or None)
    rules = {basic.player: (handle.add, handle.zero,
                            handle.one if handle.flags.absorptive else None),
             1 - basic.player: (handle.mul, handle.one, handle.zero)}
    values = dict(basic.f)
    # The current frame: a position, an iterator over its successors, their
    # fold so far (None before the first) and its rule.  Its parents wait on
    # the stack; the bottom frame only collects the root's value.  A frame
    # that meets its stop drops its remaining successors.
    pos, todo, acc = None, iter((mc.root,)), None
    fold = unit = stop = None
    stack = []
    while True:
        for v in todo:
            value = values.get(v)
            if value is None:
                stack.append((pos, todo, acc, fold, unit, stop))
                pos, todo, acc = v, iter(successors[v]), None
                fold, unit, stop = rules[owners[v]]
                break
            acc = value if acc is None else fold(acc, value)
            if stop is not None and value == stop:
                todo = ()
                break
        else:
            if not stack:
                return acc
            value = values[pos] = unit if acc is None else acc
            pos, todo, acc, fold, unit, stop = stack.pop()
            acc = value if acc is None else fold(acc, value)
            if stop is not None and value == stop:
                todo = ()


# --- direct posLFP semantics --------------------------------------------------


def poslfp_eval_direct(pi, sentence):
    """Fixed-point semantics: the sentence's value in the least solution of
    the equation system it compiles to, found by `kleene_lfp`.

    Only the lfp tuples the sentence reaches are compiled (magic sets:
    Bancilhon, Maier, Sagiv and Ullman, PODS 1986), and the value is the one
    the system of every tuple would give.  A tuple's equation depends only
    on its instance and arguments, and the compiled set is closed under
    dependencies, so a strongly connected component of its dependency graph
    is one of the full system's, with the same equations; `kleene_lfp`
    solves each component from its already solved dependencies, so each
    gets the same value.  What changes is that a component the sentence
    never reaches is not solved, so it raises no `NoConvergence`, as in game
    mode, whose unfolding positions are exactly the reached tuples.
    """
    compiler = _Compiler(pi, to_nnf(sentence), fixpoints=True)
    for cls, message in (occ.error for occ in compiler.occurrences if occ.error):
        if cls is NotPosLFP:  # outside the fragment: raised first, in preorder
            raise cls(message)
    rhs = compiler.compile(0, ())
    compiler.drain()
    if rhs[0] == "const":
        return rhs[1]
    root = compiler.auxiliary(rhs)
    system = EquationSystem(pi.handle, compiler.equations)
    try:
        return kleene_lfp(system)[root]
    except NoConvergence as exc:
        if not str(exc.variable).startswith("#"):
            raise
        raise exc.naming(repr(_tuple_on_cycle(system, exc.variable))) from None


def _tuple_on_cycle(system, auxiliary):
    """A tuple variable to name in place of an auxiliary that a
    `NoConvergence` names: a member of the auxiliary's strongly connected
    component in the support graph, where the support method found it on a
    cycle, or else in the dependency graph, whose components the n+1 rule
    solves.  An auxiliary refers only to older ones, so every cycle passes
    through a tuple variable.  The tuple variable whose body made the
    auxiliary may lie on no cycle: the auxiliaries of a shared subformula
    serve several bodies."""
    dependencies = {var: [dep for _, dep in rhs[1]] if rhs[0] != "const" else ()
                    for var, rhs in system.equations.items()}
    for successors in (_support_graph(system, _support(system), system.equations), dependencies):
        for component in _components(successors)[0]:
            if auxiliary in component and len(component) > 1:
                return next(var for var in component if not var.startswith("#"))


def _resolve(term, env, universe):
    if term in env:
        return env[term]
    if term in universe:
        return term
    raise NotSentence(f"unbound variable {term!r}")


def model_check(structure, sentence):
    """Naive Boolean model checker (the test oracle for soundness)."""
    def ev(f, env, rel_env):
        if isinstance(f, Atom):
            args = tuple(_resolve(t, env, structure.universe) for t in f.args)
            if f.rel in rel_env:
                holds = args in rel_env[f.rel]
            else:
                holds = structure.holds(f.rel, args)
            return holds != f.negated
        if isinstance(f, Eq):
            a = _resolve(f.left, env, structure.universe)
            b = _resolve(f.right, env, structure.universe)
            return (a == b) != f.negated
        if isinstance(f, Not):
            return not ev(f.sub, env, rel_env)
        if isinstance(f, And):
            return ev(f.left, env, rel_env) and ev(f.right, env, rel_env)
        if isinstance(f, Or):
            return ev(f.left, env, rel_env) or ev(f.right, env, rel_env)
        if isinstance(f, Quant):
            results = (ev(f.sub, {**env, f.var: a}, rel_env) for a in structure.universe)
            return any(results) if f.kind == "exists" else all(results)
        if isinstance(f, Fp):
            current = set()
            tuples = _tuples(structure.universe, len(f.params))
            while True:
                nxt = {
                    args for args in tuples
                    if ev(f.body, dict(zip(f.params, args)), {**rel_env, f.rel: current})
                }
                if nxt == current:
                    break
                current = nxt
            args = tuple(_resolve(t, env, structure.universe) for t in f.args)
            if f.kind == "lfp":
                return args in current
            raise NotPosLFP("greatest fixed points are outside the fragment")
        raise ProvError(f"unknown formula node {f!r}")

    return ev(sentence, {}, {})
