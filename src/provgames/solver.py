"""Polynomial equation systems for games and Kleene fixed-point iteration.

Least fixed points start at 0, greatest fixed points at the top element
(which for truncated power-series semirings depends on the token alphabet).
When plain iteration does not stabilize within the budget, we keep
iterating while capping runaway values after every step (the capping is
applied only to variables that are still moving, so values that already
settled are never touched), and finally verify the result by one exact
application of the system.

Each step is a Jacobi step: every equation is applied to the previous
iterate.  A right-hand side is a function of its dependencies' values
alone, so when none of them changed since the step before, its value is
the one that step produced and is reused instead of evaluated again.
"Unchanged" means an equal value with an equal `truncated` marker (the
marker is not part of polynomial equality, but products and sums carry
it), so every iterate, marker included, is the one full evaluation gives.
In the saturation phase the reused value is the raw output from before
capping.  The first step of each phase, the verifying application and the
marker settling always evaluate every equation.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import NoConvergence, NotFullyOmegaContinuous, ProvError
from .poly import Polynomial
from .semirings import PolySemiring


@dataclass
class SolverConfig:
    max_iterations: int = None  # default 4*|vars| + 16
    saturation_threshold: int = None  # default 2*|vars| + 2

    def iterations_for(self, n_vars):
        if self.max_iterations is not None:
            return self.max_iterations
        return 4 * n_vars + 16

    def threshold_for(self, n_vars):
        if self.saturation_threshold is not None:
            return self.saturation_threshold
        return 2 * n_vars + 2


@dataclass
class SolveResult:
    values: dict
    iterations: int
    saturated: bool
    verified: bool
    threshold: int = None
    evaluations: int = 0  # non-constant right-hand sides actually evaluated

    def __getitem__(self, var):
        return self.values[var]


class EquationSystem:
    """A system x_v = rhs_v with right-hand sides built from +, * and constants.

    rhs entries are ('const', value) or (op, [(coefficient, var), ...]) with
    op in {'sum', 'prod'}.  `evaluations` counts the non-constant right-hand
    sides evaluated so far.
    """

    def __init__(self, handle, equations):
        self.handle = handle
        self.equations = dict(equations)
        self.evaluations = 0
        for var, rhs in self.equations.items():
            tag = rhs[0]
            if tag == "const":
                continue
            if tag not in ("sum", "prod"):
                raise ProvError(f"bad equation tag {tag!r} for {var!r}")
            for _, dep in rhs[1]:
                if dep not in self.equations:
                    raise ProvError(f"equation for {var!r} uses unknown variable {dep!r}")

    @cached_property
    def _deps(self):
        """The dependencies of each non-constant equation, built on the
        first incremental step (one pass of `evaluate` needs none)."""
        return {var: frozenset(dep for _, dep in rhs[1])
                for var, rhs in self.equations.items() if rhs[0] != "const"}

    @property
    def variables(self):
        return list(self.equations)

    def apply(self, assignment, previous=None):
        """One Jacobi step.  `previous` is the step before, as the pair
        (assignment it was applied to, output it produced); an equation
        whose dependencies are all unchanged since then reuses that output."""
        changed = None
        if previous is not None:
            before, reused = previous
            changed = {var for var, value in assignment.items()
                       if not _unchanged(value, before[var])}
        out = {}
        evaluated = 0
        for var, rhs in self.equations.items():
            if rhs[0] == "const":
                out[var] = rhs[1]
                continue
            if changed is not None and changed.isdisjoint(self._deps[var]):
                out[var] = reused[var]
                continue
            evaluated += 1
            out[var] = self.evaluate(var, assignment)
        self.evaluations += evaluated
        return out

    def evaluate(self, var, assignment):
        """The value of var's right-hand side under the assignment, which
        needs to cover only var's dependencies: zero + c*x + ... for a sum,
        one * (c*x) * ... for a product."""
        tag, body = self.equations[var]
        if tag == "const":
            return body
        handle = self.handle
        if tag == "sum":
            acc = handle.zero
            for coeff, dep in body:
                acc = handle.add(acc, handle.mul(coeff, assignment[dep]))
        else:
            acc = handle.one
            for coeff, dep in body:
                acc = handle.mul(acc, handle.mul(coeff, assignment[dep]))
        return acc

    def tokens(self):
        """All indeterminates occurring in polynomial constants/coefficients."""
        toks = set()

        def collect(value):
            if isinstance(value, Polynomial):
                for m in value.monos:
                    toks.update(m.tokens())

        for rhs in self.equations.values():
            if rhs[0] == "const":
                collect(rhs[1])
            else:
                for coeff, _ in rhs[1]:
                    collect(coeff)
        return toks


def build_system(game, basic):
    """The equation system of the game: sums at the valuation owner's
    positions, products at the opponent's, constants at terminals."""
    handle = basic.handle
    equations = {}
    for v in game.owners:
        if game.is_terminal(v):
            equations[v] = ("const", basic.terminal_value(v))
        else:
            parts = tuple((basic.move_value((v, w)), w) for w in game.successors(v))
            op = "sum" if game.owner(v) == basic.player else "prod"
            equations[v] = (op, parts)
    return EquationSystem(handle, equations)


def _iterate(system, start, direction, config):
    handle = system.handle
    n = len(system.equations)
    max_iter = config.iterations_for(n)
    threshold = config.threshold_for(n)
    descending = direction == "gfp"

    # Multiplicative cycles can square values every round, so counts would
    # reach astronomical sizes long before max_iter; once anything blows past
    # this cap we skip straight to the saturation phase.
    blowup = max(threshold + 1, 1 << 20)

    evaluated_before = system.evaluations
    current = dict(start)
    previous = None
    iterations = 0
    for _ in range(max_iter):
        nxt = system.apply(current, previous)
        iterations += 1
        for var in current:
            lo, hi = (nxt[var], current[var]) if descending else (current[var], nxt[var])
            if not handle.leq(lo, hi):
                raise ProvError(
                    f"iteration not monotone at {var!r}; equation system is outside "
                    "the supported fragment for this semiring"
                )
        moved = [x for var, x in nxt.items() if x is not current[var] and x != current[var]]
        if not moved:
            current = _settle_metadata(system, nxt)
            return SolveResult(current, iterations, saturated=False, verified=True,
                               threshold=threshold,
                               evaluations=system.evaluations - evaluated_before)
        previous = (current, nxt)
        current = nxt
        if not descending and _blown_up(handle, moved, blowup, direction):
            break

    # Saturation: keep iterating, but cap values that are still changing.
    # A diverging variable may grow by one unit only once per cycle length,
    # so this phase gets a budget proportional to the threshold as well
    # (bounded so that absurd thresholds cannot stall the solver).
    # Steps reuse the raw output from before capping: that is what the
    # equations produced, whereas the capped values are only the next input.
    for attempt in range(2):
        state = dict(current)
        previous = None
        for _ in range(min(max_iter + threshold * n, 100_000)):
            raw = system.apply(state, previous)
            iterations += 1
            moving = [var for var, x in raw.items() if x is not state[var] and x != state[var]]
            if not moving:
                break
            nxt = dict(raw)
            for var in moving:
                nxt[var] = handle.saturate(raw[var], threshold, direction)
            if nxt == state:
                break
            previous = (state, raw)
            state = nxt
        else:
            threshold *= 2
            continue
        if system.apply(state) == state:
            state = _settle_metadata(system, state)
            return SolveResult(state, iterations, saturated=True, verified=True,
                               threshold=threshold,
                               evaluations=system.evaluations - evaluated_before)
        threshold *= 2
    raise NoConvergence(
        f"no fixed point within budget (iterations={iterations}, "
        f"final threshold={threshold})"
    )


def _blown_up(handle, values, cap, direction):
    """True when saturating at cap would change anything (values exploded).

    The solver passes only the values that changed in the last step: an
    unchanged value was checked in the step before and did not blow up."""
    try:
        return any(handle.saturate(v, cap, direction) != v for v in values)
    except NoConvergence:
        # No saturation policy means no way to cap; let iteration run its
        # full budget and report divergence through the usual path.
        return False


def _unchanged(a, b):
    """Same value and same truncated marker: the solver's notion of a
    value that did not change between two iterates."""
    return a is b or (
        a == b and getattr(a, "truncated", None) == getattr(b, "truncated", None)
    )


def _settle_metadata(system, assignment):
    """Equality of polynomials ignores the truncated marker, so once the
    values converge we keep applying until the markers converge too."""
    current = assignment
    for _ in range(len(system.equations) + 1):
        nxt = system.apply(current)
        if all(_unchanged(nxt[var], value) for var, value in current.items()):
            return current
        current = nxt
    return current


def _lfp_support(system):
    """The variables whose least-fixed-point value is nonzero, in a positive
    semiring (no zero sums, no zero divisors): a constant is nonzero when it
    is, a sum once one term with a nonzero coefficient has a nonzero
    variable, a product once every factor's coefficient and variable are."""
    zero = system.handle.zero
    users = {var: [] for var in system.equations}
    missing = {}
    ready = []
    for var, (tag, body) in system.equations.items():
        if tag == "const":
            if body != zero:
                ready.append(var)
            continue
        live = {dep for coeff, dep in body if coeff != zero}
        if tag == "prod":
            if any(coeff == zero for coeff, _ in body):
                continue
            missing[var] = len(live)
            if not live:
                ready.append(var)
        else:
            missing[var] = 1
        for dep in live:
            users[dep].append(var)
    support = set()
    while ready:
        var = ready.pop()
        if var in support:
            continue
        support.add(var)
        for user in users[var]:
            missing[user] -= 1
            if missing[user] == 0:
                ready.append(user)
    return support


def _support_cycle_variable(system):
    """A variable of the lfp support on a cycle of support variables (one
    reached through nonzero coefficients only), or None when there is none."""
    zero = system.handle.zero
    support = _lfp_support(system)
    succ = {
        var: [dep for coeff, dep in rhs[1] if coeff != zero and dep in support]
        for var, rhs in system.equations.items()
        if var in support and rhs[0] != "const"
    }
    state = {}  # 1 while on the depth-first path, 2 when finished
    for root in succ:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            var, deps = stack[-1]
            for dep in deps:
                if state.get(dep) == 1:
                    return dep
                if dep not in state:
                    state[dep] = 1
                    stack.append((dep, iter(succ.get(dep, ()))))
                    break
            else:
                state[var] = 2
                stack.pop()
    return None


def kleene_lfp(system, config=None):
    """Least fixed point by ascending Kleene iteration from 0.

    In nat and natpoly (the semirings that are positive, not idempotent and
    not omega-continuous) the lfp does not exist when a variable x of its
    support lies on a cycle of support variables, so that case fails at
    once.  Such a cycle contains a sum (a cycle of products never becomes
    nonzero), and a derivation tree of x can go round it any number of
    times, so x has infinitely many derivation trees, all with nonzero
    values.  The k-th Kleene iterate at x is the sum of the values of its
    trees of height at most k; mapping every token to 1 (a homomorphism onto
    N that keeps nonzero values nonzero) turns these sums into unbounded
    natural numbers.  Every fixed point lies above every iterate, and values
    bounded in the natural order have bounded coefficient sums, so no fixed
    point exists.
    """
    config = config or SolverConfig()
    flags = system.handle.flags
    if flags.positive and not (flags.omega_continuous or flags.idempotent_add):
        var = _support_cycle_variable(system)
        if var is not None:
            raise NoConvergence(
                f"no least fixed point: {var!r} is nonzero and lies on a cycle of "
                f"nonzero variables, so its value grows without bound in "
                f"{system.handle.name}"
            )
    start = {var: system.handle.zero for var in system.equations}
    return _iterate(system, start, "lfp", config)


def kleene_gfp(system, config=None):
    """Greatest fixed point by descending iteration from the top element."""
    config = config or SolverConfig()
    handle = system.handle
    if not handle.flags.fully_omega_continuous:
        raise NotFullyOmegaContinuous(
            f"semiring {handle.name!r} does not support greatest fixed points"
        )
    if handle.top is not None:
        top = handle.top
    elif isinstance(handle, PolySemiring):
        top = handle.top_for_tokens(system.tokens())
    else:
        raise NotFullyOmegaContinuous(f"no top element for semiring {handle.name!r}")
    start = {var: top for var in system.equations}
    return _iterate(system, start, "gfp", config)


def solve_game(game, basic, fixpoint="mu", config=None):
    """Game valuation as the mu (lfp) or nu (gfp) solution of its system."""
    system = build_system(game, basic)
    if fixpoint == "mu":
        return kleene_lfp(system, config)
    if fixpoint == "nu":
        return kleene_gfp(system, config)
    raise ProvError(f"unknown fixpoint selector {fixpoint!r}")
