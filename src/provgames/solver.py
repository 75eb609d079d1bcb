"""Polynomial equation systems for games and their least and greatest
fixed points.

One driver splits a system into the strongly connected components of its
dependency graph (one iterative Tarjan pass) and solves them bottom-up,
each reading its solved dependencies as constants: by Bekic's lemma
("Definable operations in general algebras, and the theory of automata and
flowcharts", 1969), the least (greatest) solutions of the components make
up the system's lfp (gfp).  A component without a cycle needs one
evaluation; a cyclic one of n variables gets the method of its semiring and
direction argued below (none: `ProvError`), and the support and degree
methods walk the components of a graph on its members the same way.

* Absorptive semirings, lfp: sweeps from 0 (see below).  The k-th Kleene
  iterate at x sums the values of x's derivation trees of height at most k.
  A tree with a variable repeated on a path is absorbed by the tree that
  cuts out the part between the repetitions (a + a*b = a), so the n-th
  iterate is the lfp and sweep n+1 changes nothing; otherwise the solver
  raises `ProvError`.
* Absorptive, fully omega-continuous semirings, gfp: the closed form
  x = f^n((f^n(T))^inf), T the top element, the infinitary power taken per
  variable (Naaf, "Computing least and greatest fixed points in absorptive
  semirings", RAMiCS 2021).  Both phases stop when an iterate repeats; in
  the first that is the gfp itself (a fixed point that is a Kleene iterate
  from the top lies above every fixed point), and the second must repeat
  within n+1 steps.  For the antichain polynomials
  (m_1 + ... + m_k)^inf = m_1^inf + ... + m_k^inf: a product of powers of
  several m_i is absorbed by a power of one of them, and m^inf sets every
  exponent of m to inf (`PolySemiring.pow_inf`).
* Positive semirings that are not idempotent (nat, natpoly, natinf), lfp:
  the support (the variables whose lfp is nonzero) comes from a linear
  worklist.  A support variable on a cycle of support variables (edges
  through nonzero coefficients) is inf in natinf, and in nat and natpoly no
  lfp exists (`NoConvergence` names it; see `kleene_lfp`).  Every other
  variable is 0 or one evaluation.
* natinf, gfp: the same with the greatest support S, the greatest set
  where a constant is nonzero, a sum has a term with a nonzero coefficient
  and a variable in S, and a product only nonzero coefficients and
  variables in S.  The nonzero variables of any fixed point form such a
  set, so every fixed point is 0 outside S.  Every variable of S evaluates
  to a nonzero value (natinf has no zero sums or zero divisors), so with inf
  on the cycles of S the evaluations give a fixed point, and it is the
  greatest: any fixed point is 0 outside S, at most inf on the cycles, and
  then fixed by the same evaluations.
* dualnat and boolpoly, lfp: the n+1 rule.  If no iterate repeats within
  n+1 steps, no fixed point exists and `NoConvergence` names the component.
  Sums do not cancel (coefficients in N; boolpoly adds by union), so a
  change at step n+1 comes from a tree of height n+1 with a nonzero value,
  in boolpoly with a monomial no lower tree has, and one of its paths
  repeats a variable.  In dualnat, pumping the segment between the
  repetitions keeps the tree's tokens and so its value nonzero (only
  complementary tokens multiply to 0), and infinitely many trees each add
  at least 1 to the coefficient sum.  In boolpoly, cutting such segments
  until the height is at most n would put the new monomial in the n-th
  iterate unless a cut segment carries a non-unit monomial, whose pumps
  have unbounded degree.  So the iterates are unbounded, and every fixed
  point lies above them.  See Khamis, Ngo, Pichler, Suciu and Wang,
  "Convergence of Datalog over (pre-)semirings" (PODS 2022).
* whypoly, lfp: sweeps until one changes nothing, which happens within
  n*(|T|+1)+1 sweeps, since the iterates repeat within as many steps, T the
  system's tokens.  A tree contributes the union of the token sets it
  picks.  Take a tree with the fewest nodes for a set S.  Along a path the
  sets of the subtrees shrink, so they take at most |S|+1 values, and no
  two nodes have the same variable and the same set (putting the lower
  subtree in place of the upper keeps S).  The values over T form a finite
  lattice, so the lfp is the union of all trees' sets, and each of them
  comes from a tree of height at most n*(|T|+1).
* series:D and seriesdual:D, lfp and gfp: degree levels, Newton's method on
  a graded semiring (Esparza, Kiefer and Luttenberger, "Newtonian program
  analysis", JACM 2010).  With x^(k) the part of x of degree k, the degree-k
  part of f(x) is J*x^(k) + [f(x^(<k))]^(k), J the Jacobian at x^(0): a
  sum's entry is the constant term of the coefficient, a product's that
  times the level-0 values of the other factors, in N u {inf}.  Level 0 is
  the natinf system of the constant terms, solved by the support method.
  Level k >= 1 is y = J*y + [f(x^(<k))]^(k), a natinf system per monomial,
  solved in one pass over the components of J (edges through nonzero
  entries), each reading the level k of those before it through f.  The
  least solution puts inf on every monomial fed into a cyclic component
  (each trip round adds the input again); the greatest puts inf on every
  monomial of degree k over T (no complementary pair in seriesdual), the
  degree-k slice of the top, at every variable that reaches a cycle of J
  (`high`, solved variables included), after a `ProvError` if that slice
  can have more than `MAX_TOP_SLICE` monomials.  The rest is one evaluation
  each.  Taking the least solution on every level gives a fixed point W, so
  the lfp L lies below W; L's level 0 solves level 0, so it equals W's,
  then L's level 1 solves W's level-1 system, and so on: L = W.  The gfp
  likewise.

Kleene iteration on a cyclic component is chaotic iteration in the sense of
Cousot and Cousot ("Automatic synthesis of optimal invariant assertions",
1977): `_kleene` is one worklist loop with two schedules.  The least fixed
points of the absorptive semirings and of whypoly take Gauss-Seidel sweeps,
which write each new value at once.  Start from x = 0, which lies below
f(0) and below every fixed point y.  A write x_v := f_v(x) keeps x <= y, as
f_v(x) <= f_v(y) = y_v, and keeps x <= f(x): it does not lower x_v, which
lay below f_v(x), and raising x raises f(x).  So x only climbs.  When a
sweep visits a member, its value is f_v of the current x, which lies above
the x the sweep before ended with; so by induction x lies above the k-th
Kleene iterate f^k(0) after sweep k.  A sweep that changes nothing ends at
a fixed point below every fixed point, the lfp.  If the iterates repeat by
step m, f^(m-1)(0) is the lfp, x equals it after sweep m-1, and sweep m
changes nothing, so the bounds above hold for sweeps.  They would also make
a sweep n+1 that still changes a value a proof that no fixed point exists.
But the n+1 rule mostly ends that way, and there one sweep can carry a
value round a whole cycle, so sweep k reaches derivation trees about k
times as high as the cycle is long, and the values grow that much faster
than the Kleene iterates; so the n+1 rule takes Jacobi steps, and so do the
two phases of the closed form for the gfp, which needs the iterates f^k
themselves.  A Jacobi step writes the changed values after the round, and
the next round evaluates their users; every other member would reproduce
its value, so every iterate, marker included, is the one full evaluation
gives.

The driver ends with one full application of the system, which must
reproduce the result (`verified`).  `iterations` counts the sweeps and the
Jacobi steps inside cyclic components, summed over components.  `saturated`
says that an infinite limit was used: the infinitary power changed an
iterate, or a least fixed point set a cyclic component to inf (a support
cycle, or a cycle of J fed a monomial); inf taken from the top element is
not one.

A truncated series is marked `truncated` when it lost monomials above the
degree bound.  Sums and products mark their result when an operand is
marked or a product drops a monomial, so at a fixed point a variable is
marked exactly when it depends, through a chain of equations, on an
equation whose evaluation at the solution drops a monomial or reads a
marked constant or coefficient.  The degree levels evaluate the members at
their unmarked solution; each reaches every other, so one mark marks all.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import combinations_with_replacement
from math import comb

from .errors import NoConvergence, NotFullyOmegaContinuous, ProvError
from .games import TERMINAL
from .infinity import INF, ext_add
from .monomials import ONE_MONOMIAL, Monomial
from .poly import BOOLPOLY, DUALNAT, WHYPOLY, Polynomial
from .semirings import NatInfSemiring

_NATINF = NatInfSemiring()

# The most monomials of degree D over the tokens T that the series gfp builds
# its top from: C(|T|+D-1, D), 17 550 for 24 tokens and 766 480 for 64 at D = 4.
MAX_TOP_SLICE = 20_000


@dataclass
class SolveResult:
    values: dict
    iterations: int
    saturated: bool
    verified: bool
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

    @classmethod
    def _trusted(cls, handle, equations):
        """Trusted constructor: takes `equations` over without the checks of
        `__init__`, for `build_system` and the degree levels, which built them."""
        system = object.__new__(cls)
        system.handle = handle
        system.equations = equations
        system.evaluations = 0
        return system

    def apply(self, assignment):
        """One full application of the system: every right-hand side
        evaluated under the assignment."""
        return {var: self.evaluate(var, assignment) for var in self.equations}

    def evaluate(self, var, assignment):
        """The value of var's right-hand side under the assignment, which
        needs to cover only var's dependencies: c*x + ... for a sum,
        (c*x) * ... for a product, zero or one when the body is empty.

        A term whose coefficient is the handle's own `one` is its value, and
        the fold starts from the first term: this is the full fold
        zero + 1*x + ... or one * (1*x) * ... with its unit steps left out.
        It gives the same values and `truncated` markers, since in every
        shipped semiring zero + a and one * a equal a, and a polynomial
        returns a itself when the other operand is an unmarked zero or one
        (the handles' `zero` and `one` are unmarked)."""
        tag, body = self.equations[var]
        if tag == "const":
            return body
        self.evaluations += 1
        handle = self.handle
        if not body:
            return handle.zero if tag == "sum" else handle.one
        one, mul = handle.one, handle.mul
        return reduce(handle.add if tag == "sum" else mul,
                      [assignment[dep] if coeff is one else mul(coeff, assignment[dep])
                       for coeff, dep in body])

    def tokens(self):
        """All indeterminates occurring in polynomial constants/coefficients."""
        values = [body for tag, body in self.equations.values() if tag == "const"]
        values += [coeff for tag, body in self.equations.values() if tag != "const"
                   for coeff, _ in body]
        return {t for value in values if isinstance(value, Polynomial)
                for m in value.monos for t in m.tokens()}


def build_system(game, basic):
    """The equation system of the game: sums at the valuation owner's
    positions, products at the opponent's, constants at terminals.  It reads
    the graph's owners and successor lists and the valuation's terminal and
    move values directly, since it visits every position and move.  Every
    tag is 'const', 'sum' or 'prod', and every move of a `GameGraph` ends at
    a position, which has an equation: the checks `EquationSystem` skips."""
    handle, player, f, h = basic.handle, basic.player, basic.f, basic.h
    one = handle.one
    successors = game._succ
    equations = {}
    for v, owner in game.owners.items():
        if owner == TERMINAL:
            equations[v] = ("const", f[v])
        else:
            parts = (tuple([(h.get((v, w), one), w) for w in successors[v]]) if h
                     else tuple([(one, w) for w in successors[v]]))
            equations[v] = ("sum" if owner == player else "prod", parts)
    return EquationSystem._trusted(handle, equations)


def _unchanged(a, b):
    """Same value and same truncated marker: the solver's notion of a
    value that did not change between two iterates."""
    return a is b or (
        a == b and getattr(a, "truncated", None) == getattr(b, "truncated", None)
    )


def _components(successors):
    """The strongly connected components of the graph var -> successors[var]
    (every successor is itself a key), by Tarjan's algorithm with an
    explicit stack, and the first variable the search found on a cycle (the
    target of its first edge back into the current search path; None when
    the graph has no cycle).  Each component is a list of its members in the
    order the search reached them, and comes after every component it
    reaches, so solving them in this order sees every dependency solved."""
    index = {}  # a finished vertex's index is `done`, above every other
    low = []  # by index
    stack = []
    components = []
    first_on_cycle = None
    done = len(successors)
    for root in successors:
        if root in index:
            continue
        index[root] = len(low)
        low.append(len(low))
        stack.append(root)
        path = [(root, index[root], iter(successors[root]))]
        while path:
            var, at_var, deps = path[-1]
            for dep in deps:
                at = index.get(dep)
                if at is None:
                    index[dep] = at = len(low)
                    low.append(at)
                    stack.append(dep)
                    path.append((dep, at, iter(successors[dep])))
                    break
                if at < done:
                    # The first edge to a vertex on the stack leads back into
                    # the search path: a vertex on the stack but off the path
                    # has a smaller low link only through an earlier such edge.
                    if first_on_cycle is None:
                        first_on_cycle = dep
                    if at < low[at_var]:
                        low[at_var] = at
            else:
                path.pop()
                if path and low[at_var] < low[path[-1][1]]:
                    low[path[-1][1]] = low[at_var]
                if low[at_var] == at_var:
                    at = len(stack) - 1
                    while stack[at] is not var:
                        at -= 1
                    component = stack[at:]
                    del stack[at:]
                    for member in component:
                        index[member] = done
                    components.append(component)
    return components, first_on_cycle


def _is_cyclic(component, successors):
    return len(component) > 1 or component[0] in successors[component[0]]


class _Solve:
    """What a solve computes once for all its components, when first needed."""

    def __init__(self, system):
        self.system = system
        self.high = set()  # series gfp: the variables known to reach a cycle of J

    @cached_property
    def tokens(self):
        return sorted(self.system.tokens())

    @cached_property
    def top_slices(self):
        """For k = 1..D, at index k - 1, coefficient inf on every monomial of
        degree k over the tokens (without a complementary pair in a dual
        kind): the degree-k part of the greatest element over them."""
        handle, tokens = self.system.handle, self.tokens
        kind, degree = handle.kind, handle.kind.degree_bound
        count = comb(len(tokens) + degree - 1, degree)
        if count > MAX_TOP_SLICE:
            raise ProvError(f"the greatest fixed point in {handle.name} needs up to {count} "
                            f"monomials of degree {degree} over {len(tokens)} tokens, "
                            f"more than {MAX_TOP_SLICE}")
        slices = []
        for k in range(1, degree + 1):
            monos = map(Monomial, map(Counter, combinations_with_replacement(tokens, k)))
            slices.append({m: INF for m in monos
                           if not (kind.dual and m.has_complementary_pair())})
        return slices


def _kleene(system, values, component, limit, in_place):
    """Up to `limit` rounds of Kleene iteration on the component's equations
    in `values`, stopping after a round that changes nothing.  A round takes
    the members in the reverse of the order the search reached them,
    dependencies first, and evaluates one only when a dependency in the
    component changed since its own last evaluation (else its value is its
    right-hand side already).  `in_place` writes each new value at once (a
    Gauss-Seidel sweep); otherwise the round is a Jacobi step, which writes
    its changes after the round.  Returns the number of rounds and whether
    the last one changed nothing."""
    users = {var: [] for var in component}
    for var in component:
        for _, dep in system.equations[var][1]:
            if dep in users:
                users[dep].append(var)
    order = component[::-1]
    pending = set(component)
    for count in range(1, limit + 1):
        changed = {}
        for var in order:
            if var in pending:
                pending.discard(var)
                value = system.evaluate(var, values)
                if not _unchanged(value, values[var]):
                    changed[var] = value
                    if in_place:
                        values[var] = value
                        pending.update(users[var])
        if not changed:
            return count, True
        if not in_place:
            # After the round, not during it: a user later in the order would
            # be evaluated now, on the old values, and leave the worklist.
            values.update(changed)
            for var in changed:
                pending.update(users[var])
    return limit, False


def _kleene_method(solve, values, component, descending, may_diverge=False, whypoly=False):
    """Kleene iteration from 0 within n*factor + 1 sweeps, factor |T|+1 for
    whypoly and 1 elsewhere.  With `descending`, Naaf's closed form in
    Jacobi steps: n steps from the top, the infinitary power, then at most
    n + 1 steps.  With `may_diverge` (the n+1 rule), Jacobi steps, and a
    component that still changes has no fixed point: `NoConvergence`.
    Elsewhere the method's argument rules that out (`ProvError`)."""
    system = solve.system
    handle = system.handle
    n = len(component)
    values.update(dict.fromkeys(component, handle.top if descending else handle.zero))
    in_place = not (descending or may_diverge)
    iterations, saturated = 0, False
    if descending:
        iterations, repeated = _kleene(system, values, component, n, in_place)
        if repeated:
            return iterations, False
        powered = {var: handle.pow_inf(values[var]) for var in component}
        saturated = not all(_unchanged(powered[var], values[var]) for var in component)
        values.update(powered)
    limit = n * (len(solve.tokens) + 1 if whypoly else 1) + 1
    steps, repeated = _kleene(system, values, component, limit, in_place)
    iterations += steps
    if not repeated:
        template = (f"no fixed point: the component of {n} variables containing {{}} "
                    f"still changes after {steps} steps in {handle.name}")
        if may_diverge:
            raise NoConvergence(template, component[0])
        raise ProvError(template.format(repr(component[0])))
    return iterations, saturated


def _support(system, greatest=False, variables=None, values=None):
    """The lfp support of a system over a positive semiring (no zero sums,
    no zero divisors): the least set of variables where a constant is
    nonzero, a sum has one term with a nonzero coefficient and a variable in
    the set, and a product has only nonzero coefficients and variables in the
    set.  With `greatest`, the greatest such set: its complement is the
    least set where a constant is zero, a sum has every variable behind a
    nonzero coefficient in it, and a product a zero coefficient or one
    variable in it, so one worklist computes both, with the roles of sums
    and products exchanged.  Given `variables`, the set among them, with
    every other dependency a constant read from `values`."""
    zero = system.handle.zero
    equations = system.equations
    users = {var: [] for var in (equations if variables is None else variables)}
    missing = {}
    ready = []
    for var in users:
        tag, body = equations[var]
        if tag == "const":
            if (body == zero) == greatest:
                ready.append(var)
            continue
        live = [dep for coeff, dep in body if coeff != zero]
        if tag == "prod" and len(live) < len(body):  # a zero coefficient
            if greatest:
                ready.append(var)
            continue
        # A dependency that occurs twice counts twice, here and in `users`.
        missing[var] = len(live) if (tag == "prod") != greatest else 1
        for dep in live:
            if dep in users:
                users[dep].append(var)
            elif (values[dep] == zero) == greatest:
                missing[var] -= 1
        if missing[var] <= 0:
            ready.append(var)
    found = set()
    while ready:
        var = ready.pop()
        if var in found:
            continue
        found.add(var)
        for user in users[var]:
            missing[user] -= 1
            if missing[user] == 0:
                ready.append(user)
    return set(users) - found if greatest else found


def _support_method(solve, values, component, descending):
    """Zero outside the component's support (the greatest one with
    `descending`), top on the cycles of its support graph, and one
    evaluation elsewhere: the lfp and, in natinf, the gfp (see the module
    docstring).  Saturated: a least fixed point with top on a cycle."""
    system = solve.system
    handle = system.handle
    zero = handle.zero
    support = _support(system, descending, component, values)
    successors = _support_graph(system, support, component)
    parts, on_cycle = _components(successors)
    if on_cycle is not None and not handle.flags.omega_continuous:
        raise NoConvergence(
            "no least fixed point: {} is nonzero and lies on a cycle of "
            f"nonzero variables, so its value grows without bound in {handle.name}",
            # Named by one search over the whole system's support graph, so
            # that the name does not depend on the component that met a cycle.
            _components(_support_graph(system, _support(system), system.equations))[1])
    values.update(dict.fromkeys(component, zero))
    for part in parts:
        if _is_cyclic(part, successors):
            values.update(dict.fromkeys(part, handle.top))
        else:
            values[part[0]] = system.evaluate(part[0], values)
    return 0, on_cycle is not None and not descending


def _support_graph(system, support, variables):
    """The support graph on those of `variables` in `support`, in their
    order: edges through nonzero coefficients into the support."""
    zero = system.handle.zero
    equations = system.equations
    return {var: [dep for coeff, dep in equations[var][1] if coeff != zero and dep in support]
            if equations[var][0] != "const" else () for var in variables if var in support}


def _constant_term(value):
    return value.monos.get(ONE_MONOMIAL, 0)


def _degree_levels(solve, values, component, descending):
    """The component's exact lfp or gfp in a truncated series by degree
    levels, with the truncated markers of the module docstring.  Level k
    evaluates the components of J in order, each after level k of those
    before it is written, so the degree-k part of its values is its input."""
    system = solve.system
    kind = system.handle.kind
    equations = system.equations
    members = set(component)
    base = EquationSystem._trusted(_NATINF, {var: (equations[var][0], [
        (_constant_term(coeff), dep) for coeff, dep in equations[var][1]]) for var in component})
    level0 = {dep: _constant_term(values[dep])
              for var in component for _, dep in equations[var][1] if dep not in members}
    _, saturated = _support_method(_Solve(base), level0, component, descending)
    system.evaluations += base.evaluations
    jacobian = {}  # the edges of J: its nonzero entries
    for var in component:
        tag, body = equations[var]
        factors = [_constant_term(coeff) != 0 and level0[dep] != 0 for coeff, dep in body]
        jacobian[var] = [dep for i, (coeff, dep) in enumerate(body) if _constant_term(coeff) != 0
                         and (tag == "sum" or all(factors[:i] + factors[i + 1:]))]
    inner = {var: [dep for dep in deps if dep in members] for var, deps in jacobian.items()}
    parts = _components(inner)[0]
    cyclic = [_is_cyclic(part, inner) for part in parts]
    for part, cycle in zip(parts, cyclic):
        if descending and (cycle or any(solve.high.intersection(jacobian[var]) for var in part)):
            solve.high.update(part)
    for var in component:
        monos = {ONE_MONOMIAL: level0[var]} if level0[var] != 0 else {}
        values[var] = Polynomial._canonical(kind, monos, False)
    for k in range(1, kind.degree_bound + 1):
        for part, cycle in zip(parts, cyclic):
            if part[0] in solve.high:
                fed = solve.top_slices[k - 1]
            else:
                fed = {}
                for var in part:
                    for m, c in system.evaluate(var, values).monos.items():
                        if m.degree() == k:
                            fed[m] = ext_add(fed.get(m, 0), c)
                if cycle and fed:
                    fed = dict.fromkeys(fed, INF)
                    saturated = True
            for var in part:
                values[var] = Polynomial._canonical(kind, {**values[var].monos, **fed}, False)
    # One evaluation at the unmarked solution finds the marks.  A member that
    # reads a marked value marks the members that reach it: all of them.
    marked = any(system.evaluate(var, values).truncated for var in component)
    values.update({var: Polynomial._canonical(kind, values[var].monos, marked)
                   for var in component})
    return 0, saturated


def _method_class(handle):
    """The semiring's class in `_METHODS`, as the module docstring sorts them."""
    flags, kind = handle.flags, getattr(handle, "kind", None)
    if kind is not None and kind.degree_bound is not None:  # series:D, seriesdual:D
        return "series"
    if flags.absorptive:
        return "absorptive"
    if flags.positive and not flags.idempotent_add:  # nat, natpoly, natinf
        return "support"
    return {DUALNAT: "n+1", BOOLPOLY: "n+1", WHYPOLY: "whypoly"}.get(kind)


# The method of a cyclic component by semiring class and direction (True for
# the gfp): method(solve, values, component, descending) writes the values of
# the component and returns its iterations and whether it saturated.
_METHODS = {
    ("absorptive", False): _kleene_method, ("absorptive", True): _kleene_method,
    ("support", False): _support_method, ("support", True): _support_method,
    ("n+1", False): partial(_kleene_method, may_diverge=True),
    ("whypoly", False): partial(_kleene_method, whypoly=True),
    ("series", False): _degree_levels, ("series", True): _degree_levels,
}


def _exact_result(system, method, descending):
    """The SolveResult of the driver: the components of the variables other
    than constants bottom-up, an acyclic one evaluated, a cyclic one by the
    method, then one full application that must reproduce the values."""
    evaluated_before = system.evaluations
    equations = system.equations
    values = {var: rhs[1] if rhs[0] == "const" else None for var, rhs in equations.items()}
    successors = {var: [dep for _, dep in rhs[1] if equations[dep][0] != "const"]
                  for var, rhs in equations.items() if rhs[0] != "const"}
    solve = _Solve(system)
    iterations, saturated = 0, False
    for component in _components(successors)[0]:
        if _is_cyclic(component, successors):
            steps, saturates = method(solve, values, component, descending)
            iterations += steps
            saturated = saturated or saturates
        else:
            values[component[0]] = system.evaluate(component[0], values)
    out = system.apply(values)
    for var, value in values.items():
        if not _unchanged(out[var], value):
            raise ProvError(f"exact solution is not a fixed point at {var!r}")
    return SolveResult(values, iterations, saturated=saturated, verified=True,
                       evaluations=system.evaluations - evaluated_before)


def kleene_lfp(system):
    """Least fixed point, by the method of the module docstring that the
    semiring admits.

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

    dualnat is not positive (p * ~p = 0), so a product of nonzero values
    can vanish and the support argument does not apply; the n+1 rule does,
    because pumping a tree keeps its tokens and so its value nonzero.
    """
    handle = system.handle
    method = _METHODS.get((_method_class(handle), False))
    if method is None:
        raise ProvError(f"no least-fixed-point method for semiring {handle.name!r}")
    return _exact_result(system, method, False)


def kleene_gfp(system):
    """Greatest fixed point, by the method of the module docstring that the
    semiring admits."""
    handle = system.handle
    if not handle.flags.fully_omega_continuous:
        raise NotFullyOmegaContinuous(
            f"semiring {handle.name!r} does not support greatest fixed points"
        )
    method = _METHODS.get((_method_class(handle), True))
    if method is None:
        raise NotFullyOmegaContinuous(f"no greatest-fixed-point method for semiring "
                                      f"{handle.name!r}")
    return _exact_result(system, method, True)


def solve_game(game, basic, fixpoint="mu"):
    """Game valuation as the mu (lfp) or nu (gfp) solution of its system."""
    system = build_system(game, basic)
    if fixpoint == "mu":
        return kleene_lfp(system)
    if fixpoint == "nu":
        return kleene_gfp(system)
    raise ProvError(f"unknown fixpoint selector {fixpoint!r}")
