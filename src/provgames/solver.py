"""Polynomial equation systems for games and their least and greatest
fixed points.

The solver splits a system into strongly connected components of its
dependency graph (one iterative Tarjan pass) and solves them bottom-up, so
that every component sees its dependencies already solved, as constants.
A component without a cycle needs one evaluation.  A cyclic component of
n variables is solved exactly where a theorem applies:

* Absorptive semirings, least fixed point: plain Kleene iteration from 0.
  The k-th iterate at x is the sum of the values of x's derivation trees of
  height at most k.  A tree with a variable repeated on a path is absorbed
  by the tree that cuts out the part between the repetitions (its value is
  the pruned tree's value times more factors, and a + a*b = a), so the
  trees of height at most n already give the sum: the n-th iterate is the
  lfp and step n+1 repeats it.  A component that has not repeated after
  n+1 steps raises `ProvError`.
* Absorptive, fully omega-continuous semirings, greatest fixed point: the
  closed form x = f^n((f^n(T))^inf), with T the top element and the
  infinitary power taken per variable; see Naaf, "Computing least and
  greatest fixed points in absorptive semirings" (RAMiCS 2021).  Both
  phases stop early when an iterate repeats, which in the first phase is
  the gfp itself (a fixed point that is a Kleene iterate from the top lies
  above every fixed point); the second phase must repeat within n+1 steps
  or the solver raises `ProvError`.  For the antichain polynomials the
  infinitary power is (m_1 + ... + m_k)^inf = m_1^inf + ... + m_k^inf: a
  product of powers of several m_i is absorbed by a power of one of them,
  so only the single-monomial chains m_i^e survive in the limit, and their
  limit sets every exponent of m_i to inf (`PolySemiring.pow_inf`).
* Positive semirings that are not idempotent (nat, natpoly, natinf), least
  fixed point: the lfp support (the variables whose lfp value is nonzero)
  comes from a linear worklist.  A support variable on a cycle of support
  variables (edges through nonzero coefficients) has infinitely many
  derivation trees, all with nonzero value (see `kleene_lfp`), so in natinf,
  where every nonzero value is at least 1, its value is inf; in nat and
  natpoly no lfp exists and the solver raises `NoConvergence` naming it.
  Every other variable is zero (outside the support) or comes from one
  evaluation in the order of the support graph's components.
* Everything else (truncated series, dualnat, natinf nu, the nu of any
  other semiring that is not absorptive) keeps the numeric path
  `_iterate` on the whole system, described below.

The exact paths end with one full application of the system, which must
reproduce the result (`verified`).  There `iterations` counts the Kleene
steps made inside cyclic components (summed over components; evaluations
of acyclic ones do not count) and `saturated` says that an infinite limit
was used: the infinitary power changed an iterate, or a support cycle was
set to inf.  `SolverConfig` bounds only the numeric path.

The numeric path starts least fixed points at 0 and greatest fixed points
at the top element (which for truncated power-series semirings depends on
the token alphabet).  It has one saturation rule, `_cap`: coefficients of
a truncated series (series:D, seriesdual:D) at or above a threshold become
inf, and any other value stays as it is; descending iteration caps
nothing.  Ascending iteration leaves plain iteration early once a value
would be capped at 2^20 (multiplicative cycles can square values every
round).  When plain iteration does not stabilize within the budget, it
keeps iterating while capping the variables that are still moving at the
threshold 2*|vars| + 2 (values that already settled are never touched),
doubles the threshold once if that does not settle, and finally verifies
the result by one exact application of the system.

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

    def iterations_for(self, n_vars):
        if self.max_iterations is not None:
            return self.max_iterations
        return 4 * n_vars + 16


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

    def apply(self, assignment, previous=None, variables=None):
        """One Jacobi step on `variables` (default: all of them), whose
        equations may read any variable of the assignment; the others must
        not change between steps.  `previous` is the step before, as the
        pair (assignment it was applied to, output it produced); an equation
        whose dependencies are all unchanged since then reuses that output."""
        equations = self.equations
        if variables is None:
            variables = equations
        changed = None
        if previous is not None:
            before, reused = previous
            changed = {var for var in variables
                       if not _unchanged(assignment[var], before[var])}
        out = {}
        evaluated = 0
        for var in variables:
            rhs = equations[var]
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
    threshold = 2 * n + 2
    descending = direction == "gfp"

    # Multiplicative cycles can square values every round, so counts would
    # reach astronomical sizes long before max_iter; once anything blows past
    # this cap we skip straight to the saturation phase.  Only the values
    # that changed in the last step are checked: an unchanged value was
    # checked in the step before and did not blow up.
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
        if not descending and any(_cap(x, blowup) is not x for x in moved):
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
            if not descending:
                for var in moving:
                    nxt[var] = _cap(raw[var], threshold)
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


def _cap(value, threshold):
    """The numeric path's one saturation rule: the coefficients >= threshold
    of a truncated series become inf (the value itself when there are none);
    any other value is its own limit."""
    if isinstance(value, Polynomial) and value.kind.inf_coefficients:
        return value.cap_coefficients(threshold)
    return value


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


def _components(successors):
    """The strongly connected components of the graph var -> successors[var]
    (every successor is itself a key), by Tarjan's algorithm with an
    explicit stack, and the first variable the search found on a cycle (the
    target of its first edge back into the current search path; None when
    the graph has no cycle).  Each component is a list that starts with the
    variable the search reached first, and comes after every component it
    reaches, so solving them in this order sees every dependency solved."""
    index = {}
    low = {}
    stack = []
    on_stack = set()
    components = []
    first_on_cycle = None
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        path = [(root, iter(successors[root]))]
        while path:
            var, deps = path[-1]
            for dep in deps:
                if dep not in index:
                    index[dep] = low[dep] = len(index)
                    stack.append(dep)
                    on_stack.add(dep)
                    path.append((dep, iter(successors[dep])))
                    break
                if dep in on_stack:
                    # The first such edge leads back into the search path: a
                    # vertex on the stack but off the path has a smaller
                    # low link only through an earlier edge of this kind.
                    if first_on_cycle is None:
                        first_on_cycle = dep
                    if index[dep] < low[var]:
                        low[var] = index[dep]
            else:
                path.pop()
                if path and low[var] < low[path[-1][0]]:
                    low[path[-1][0]] = low[var]
                if low[var] == index[var]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == var:
                            break
                    component.reverse()
                    components.append(component)
    return components, first_on_cycle


def _is_cyclic(component, successors):
    return len(component) > 1 or component[0] in successors[component[0]]


def _kleene_steps(system, values, component, limit):
    """Up to `limit` incremental Jacobi steps on the component's equations,
    written into `values`, stopping when an iterate repeats.  Returns the
    number of steps and whether the last one repeated its input."""
    previous = None
    for step in range(1, limit + 1):
        current = {var: values[var] for var in component}
        out = system.apply(values, previous, component)
        if all(_unchanged(out[var], current[var]) for var in component):
            return step, True
        values.update(out)
        previous = (current, out)
    return limit, False


def _absorptive_fixpoint(system, start, descending):
    """Exact lfp (from start = 0) or gfp (from start = top) of a system over
    an absorptive semiring, one strongly connected component at a time (see
    the module docstring).  Returns (values, iterations, saturated)."""
    handle = system.handle
    successors = {var: [dep for _, dep in rhs[1]] if rhs[0] != "const" else ()
                  for var, rhs in system.equations.items()}
    values = dict.fromkeys(system.equations)
    iterations = 0
    saturated = False
    for component in _components(successors)[0]:
        if not _is_cyclic(component, successors):
            var = component[0]
            if system.equations[var][0] != "const":
                system.evaluations += 1
            values[var] = system.evaluate(var, values)
            continue
        n = len(component)
        values.update(dict.fromkeys(component, start))
        if descending:
            steps, repeated = _kleene_steps(system, values, component, n)
            iterations += steps
            if repeated:
                continue
            for var in component:
                value = values[var]
                values[var] = handle.pow_inf(value)
                saturated = saturated or not _unchanged(values[var], value)
        steps, repeated = _kleene_steps(system, values, component, n + 1)
        iterations += steps
        if not repeated:
            raise ProvError(
                f"no fixed point after {n + 1} steps on a component of {n} variables "
                f"containing {component[0]!r}; equation system is outside the supported "
                f"fragment for {handle.name}"
            )
    return values, iterations, saturated


def _support_lfp(system):
    """Exact lfp in a positive semiring that is not idempotent (see
    `kleene_lfp`).  Returns (values, saturated)."""
    handle = system.handle
    zero = handle.zero
    support = _lfp_support(system)
    successors = {
        var: [dep for coeff, dep in rhs[1] if coeff != zero and dep in support]
        if rhs[0] != "const" else ()
        for var, rhs in system.equations.items() if var in support
    }
    components, on_cycle = _components(successors)
    if on_cycle is not None and not handle.flags.omega_continuous:
        raise NoConvergence(
            f"no least fixed point: {on_cycle!r} is nonzero and lies on a cycle of "
            f"nonzero variables, so its value grows without bound in {handle.name}"
        )
    values = dict.fromkeys(system.equations, zero)
    for component in components:
        if _is_cyclic(component, successors):
            values.update(dict.fromkeys(component, handle.top))
            continue
        var = component[0]
        if system.equations[var][0] != "const":
            system.evaluations += 1
        values[var] = system.evaluate(var, values)
    return values, on_cycle is not None


def _exact_result(system, values, iterations, saturated, evaluated_before):
    """The SolveResult of an exact method, after one full application of
    the system has reproduced the values."""
    out = system.apply(values)
    for var, value in values.items():
        if not _unchanged(out[var], value):
            raise ProvError(f"exact solution is not a fixed point at {var!r}")
    return SolveResult(values, iterations, saturated=saturated, verified=True,
                       evaluations=system.evaluations - evaluated_before)


def kleene_lfp(system, config=None):
    """Least fixed point, exact where the semiring allows (see the module
    docstring), otherwise by ascending Kleene iteration from 0.

    In a positive semiring (no zero sums, no zero divisors) that is not
    idempotent (nat, natpoly, natinf) a variable x of the lfp support on a
    cycle of support variables has no finite value.  Such a cycle contains
    a sum (a cycle of products never becomes nonzero), and a derivation tree
    of x can go round it any number of times, so x has infinitely many
    derivation trees, all with nonzero values.  The k-th Kleene iterate at x
    is the sum of the values of its trees of height at most k; mapping every
    token to 1 (a homomorphism onto N that keeps nonzero values nonzero)
    turns these sums into unbounded natural numbers.  So in natinf the
    iterates at x climb to inf, while in nat and natpoly no fixed point
    exists: every fixed point lies above every iterate, and values bounded
    in the natural order have bounded coefficient sums.

    dualnat keeps the numeric path and its budget.  Complementary tokens
    multiply to 0 there (p * ~p = 0), so it is not positive: a product of
    nonzero values can vanish, the trees that go round a cycle of nonzero
    variables may all have value 0, and the support argument above does not
    apply as it stands.
    """
    handle = system.handle
    flags = handle.flags
    evaluated_before = system.evaluations
    if flags.absorptive:
        values, iterations, saturated = _absorptive_fixpoint(system, handle.zero, False)
    elif flags.positive and not flags.idempotent_add:
        values, saturated = _support_lfp(system)
        iterations = 0
    else:
        start = {var: handle.zero for var in system.equations}
        return _iterate(system, start, "lfp", config or SolverConfig())
    return _exact_result(system, values, iterations, saturated, evaluated_before)


def kleene_gfp(system, config=None):
    """Greatest fixed point: the closed form of the module docstring in an
    absorptive semiring, otherwise descending iteration from the top."""
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
    if handle.flags.absorptive:
        evaluated_before = system.evaluations
        values, iterations, saturated = _absorptive_fixpoint(system, top, True)
        return _exact_result(system, values, iterations, saturated, evaluated_before)
    start = {var: top for var in system.equations}
    return _iterate(system, start, "gfp", config or SolverConfig())


def solve_game(game, basic, fixpoint="mu", config=None):
    """Game valuation as the mu (lfp) or nu (gfp) solution of its system."""
    system = build_system(game, basic)
    if fixpoint == "mu":
        return kleene_lfp(system, config)
    if fixpoint == "nu":
        return kleene_gfp(system, config)
    raise ProvError(f"unknown fixpoint selector {fixpoint!r}")
