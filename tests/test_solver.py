"""Fixpoint solver: paper regressions, truncation coherence, exact methods
per component against the numeric reference."""

import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from provgames import solver
from provgames.errors import NoConvergence, NotFullyOmegaContinuous, ProvError
from provgames.games import TERMINAL, BasicValuation, GameGraph, acyclic_valuation, truncate
from provgames.infinity import INF
from provgames.logic import KInterpretation, build_mc_game, parse_formula
from provgames.monomials import Monomial
from provgames.poly import Polynomial, series_geom, specialize
from provgames.semirings import (
    SHIPPED_SELECTORS,
    CapabilityFlags,
    NaturalSemiring,
    PolySemiring,
    get_semiring,
)
from provgames.solver import (
    EquationSystem,
    SolveResult,
    build_system,
    kleene_gfp,
    kleene_lfp,
    solve_game,
)

from genutil import (
    make_rng,
    random_basic_valuation,
    random_cyclic_game,
    reference_blown_up,
    reference_saturate,
    token_valuation,
)

SORPINF = get_semiring("sorpinf")


def reach_game():
    return GameGraph(
        {"v": 0, "w": 1, "s": TERMINAL, "t": TERMINAL},
        [("v", "s"), ("v", "w"), ("w", "v"), ("w", "t")],
    )


def safety_game():
    return GameGraph(
        {"v": 0, "w": 1, "z": 1, "s": TERMINAL, "t": TERMINAL},
        [("v", "w"), ("v", "z"), ("w", "v"), ("w", "s"), ("z", "v"), ("z", "t")],
    )


def test_reach_lfp_and_gfp():
    basic = token_valuation(reach_game(), SORPINF)
    mu = solve_game(reach_game(), basic, "mu")
    assert mu["v"] == SORPINF.parse_value("s")
    assert mu["w"] == SORPINF.parse_value("s*t")
    nu = solve_game(reach_game(), basic, "nu")
    assert nu["v"] == SORPINF.parse_value("s + t^inf")
    assert nu["w"] == SORPINF.parse_value("s*t + t^inf")


def test_safety_lfp_and_gfp():
    basic = token_valuation(safety_game(), SORPINF)
    mu = solve_game(safety_game(), basic, "mu")
    assert all(mu[x] == SORPINF.zero for x in ("v", "w", "z"))
    nu = solve_game(safety_game(), basic, "nu")
    assert nu["v"] == SORPINF.parse_value("s^inf + t^inf")
    assert nu["w"] == SORPINF.parse_value("s^inf + s*t^inf")
    assert nu["z"] == SORPINF.parse_value("s^inf*t + t^inf")


def test_safety_gfp_specializations_disagree():
    # Exact route: solve in the absorptive semiring, then specialize.
    ni = get_semiring("natinf")
    basic = BasicValuation(ni, 0, {"s": 2, "t": 0})
    nu = solve_game(safety_game(), basic, "nu")
    assert nu["v"] is INF and nu["w"] is INF and nu["z"] == 0
    # Truncated-series route: the gfp collapses to 0 everywhere.
    ser = get_semiring("series:6")
    basic_ser = token_valuation(safety_game(), ser)
    nu_ser = solve_game(safety_game(), basic_ser, "nu")
    assert all(nu_ser[x] == ser.zero for x in ("v", "w", "z"))


def test_series_lfp_matches_geometric_sum():
    ser = get_semiring("series:4")
    basic = token_valuation(reach_game(), ser)
    mu = solve_game(reach_game(), basic, "mu")
    assert mu["v"] == ser.parse_value("s + s*t + s*t^2 + s*t^3")
    assert mu["v"].truncated


def test_gfp_needs_fully_omega_continuous():
    nat = get_semiring("nat")
    basic = BasicValuation(nat, 0, {"s": 1, "t": 1})
    with pytest.raises(NotFullyOmegaContinuous):
        solve_game(reach_game(), basic, "nu")


def test_lfp_divergence_without_saturation_policy():
    nat = get_semiring("nat")
    basic = BasicValuation(nat, 0, {"s": 1, "t": 1})
    with pytest.raises(NoConvergence):
        solve_game(reach_game(), basic, "mu")


def test_natinf_lfp_saturates_to_infinity():
    ni = get_semiring("natinf")
    basic = BasicValuation(ni, 0, {"s": 1, "t": 1})
    result = solve_game(reach_game(), basic, "mu")
    assert result["v"] is INF and result["w"] is INF
    assert result.saturated and result.verified


def test_viterbi_gfp_drains_to_zero_on_discounted_cycle():
    from fractions import Fraction

    vi = get_semiring("viterbi")
    g = GameGraph({"v": 0, "t": TERMINAL}, [("v", "v2t") if False else ("v", "t")])
    # A self-reinforcing two-position cycle with a discounting move value.
    g = GameGraph({"a": 0, "b": 1, "t": TERMINAL},
                  [("a", "b"), ("b", "a"), ("b", "t")])
    basic = BasicValuation(vi, 0, {"t": Fraction(1)},
                           {("a", "b"): Fraction(1, 2)})
    nu = solve_game(g, basic, "nu")
    assert nu["a"] == 0 and nu["b"] == 0


def test_truncation_coherence_lfp_and_gfp():
    """The n-th Kleene iterate equals the truncation's acyclic valuation."""
    rng = make_rng(salt=5)
    checked = 0
    for _ in range(40):
        g = random_cyclic_game(rng, max_positions=5)
        basic = token_valuation(g, SORPINF)
        system = build_system(g, basic)
        for boundary, start_of in (
            ("zero", lambda: {x: SORPINF.zero for x in system.equations}),
            ("one", lambda: {x: SORPINF.one for x in system.equations}),
        ):
            current = start_of()
            for n in range(1, 9):
                current = system.apply(current)
                tg, tb, _ = truncate(g, basic, n, boundary=boundary)
                tvals = acyclic_valuation(tg, tb)
                for v in g.positions:
                    assert tvals[(v,)] == current[v], (boundary, n, v)
                checked += 1
    assert checked >= 80


def test_monotonicity_assertion_fires_on_bad_system():
    ni = get_semiring("natinf")
    # x = x is fine; seed a non-monotone rhs via a bogus constant change:
    # the solver only iterates monotone systems, so feed one whose first
    # apply moves down from a nonzero start by abusing gfp from top=INF
    # over an equation with constant 3; descending chain INF >= 3 >= 3 is
    # monotone, so this must succeed.
    system = EquationSystem(ni, {"x": ("const", 3)})
    result = kleene_gfp(system)
    assert result.values["x"] == 3


def test_solver_reports_iterations():
    basic = token_valuation(reach_game(), SORPINF)
    result = solve_game(reach_game(), basic, "mu")
    assert result.iterations > 0
    assert not result.saturated and result.verified
    nu = solve_game(reach_game(), basic, "nu")
    assert nu.saturated and nu.verified


def test_solve_game_rejects_unknown_mode():
    basic = token_valuation(reach_game(), SORPINF)
    with pytest.raises(ProvError):
        solve_game(reach_game(), basic, "xi")


def test_every_shipped_selector_has_an_exact_method():
    # reach.game is cyclic.  Each selector solves it, proves that it has no
    # lfp, or has no gfp at all; none is left without a method.
    for selector in SHIPPED_SELECTORS:
        handle = get_semiring(selector)
        if isinstance(handle, PolySemiring):
            basic = token_valuation(reach_game(), handle)
        else:
            basic = BasicValuation(handle, 0, {"s": handle.one, "t": handle.one})
        for fixpoint in ("mu", "nu"):
            try:
                assert solve_game(reach_game(), basic, fixpoint).verified
            except NoConvergence:
                assert fixpoint == "mu" and selector in ("nat", "natpoly", "dualnat", "boolpoly")
            except NotFullyOmegaContinuous:
                assert fixpoint == "nu" and not handle.flags.fully_omega_continuous

    class Unknown(NaturalSemiring):  # not positive, absorptive or polynomial
        name = "unknown"
        flags = CapabilityFlags(positive=False)

    with pytest.raises(ProvError, match="^no least-fixed-point method for semiring 'unknown'$"):
        kleene_lfp(EquationSystem(Unknown(), {"x": ("sum", [(1, "x")])}))


def test_dualnat_lfp_without_fixed_point_names_its_component():
    # reach.game: v = s + w, w = v*t.  Going round the cycle multiplies by t,
    # so the iterates never repeat and the n+1 rule ends after 3 steps.
    dualnat = get_semiring("dualnat")
    basic = token_valuation(reach_game(), dualnat)
    start = time.perf_counter()
    with pytest.raises(NoConvergence) as exc:
        solve_game(reach_game(), basic, "mu")
    assert time.perf_counter() - start < 1.0
    message = str(exc.value)
    assert "\n" not in message
    assert re.fullmatch(r"no fixed point: the component of 2 variables containing '[vw]' "
                        r"still changes after 3 steps in dualnat", message)


def _f11(constant, degree):
    """ROADMAP F11: v = c + w and w = p*v, so v = c*(1 + p + ... + p^D) with
    every coefficient finite."""
    game = GameGraph({"v": 0, "w": 1, "s": TERMINAL, "t": TERMINAL},
                     [("v", "t"), ("v", "w"), ("w", "v"), ("w", "s")])
    series = get_semiring(f"series:{degree}")
    c = series.parse_value(str(constant))
    p = series.token("p")
    result = solve_game(game, BasicValuation(series, 0, {"t": c, "s": p}), "mu")
    assert not result.saturated and result.verified
    assert result["v"] == series_geom(c, p, degree)
    assert result["w"] == p * result["v"]
    assert result["v"].truncated and result["w"].truncated


def test_series_lfp_with_a_large_constant_has_no_false_divergence():
    # The numeric path capped the settled constant of a variable that was
    # still moving, and ended in NoConvergence.
    _f11(50, 40)


def test_series_lfp_with_finite_coefficients_is_not_saturated():
    # The numeric path reached this value only in its saturation phase, and
    # reported saturated = true with no infinite coefficient.
    _f11(13, 30)


# --- incremental steps against full evaluation ----------------------------


def _reference_value(system, var, assignment):
    """The full fold zero + c*x + ... or one * (c*x) * ... of var's
    right-hand side."""
    handle = system.handle
    tag, body = system.equations[var]
    if tag == "const":
        return body
    if tag == "sum":
        acc = handle.zero
        for coeff, dep in body:
            acc = handle.add(acc, handle.mul(coeff, assignment[dep]))
        return acc
    acc = handle.one
    for coeff, dep in body:
        acc = handle.mul(acc, handle.mul(coeff, assignment[dep]))
    return acc


def _reference_apply(system, assignment):
    """EquationSystem.apply as a full Jacobi step: every equation evaluated."""
    return {var: _reference_value(system, var, assignment) for var in system.equations}


def _reference_fingerprint(assignment):
    return {var: (value, getattr(value, "truncated", None))
            for var, value in assignment.items()}


def _reference_settle(system, assignment):
    current = assignment
    for _ in range(len(system.equations) + 1):
        nxt = _reference_apply(system, current)
        if _reference_fingerprint(nxt) == _reference_fingerprint(current):
            return current
        current = nxt
    return current


class _OutOfTime(Exception):
    pass


def _reference_iterate(system, start, direction, deadline=None):
    """The numeric solver loop the exact methods replaced, with every step a
    full evaluation and the blow-up check on every value: Kleene iteration
    within 4*|vars| + 16 steps, then a saturation phase with the threshold
    2*|vars| + 2, doubled twice.  Past the perf_counter deadline, if one is
    given, it raises _OutOfTime."""
    handle = system.handle
    n = len(system.equations)
    max_iter = 4 * n + 16
    threshold = 2 * n + 2
    descending = direction == "gfp"
    blowup = max(threshold + 1, 1 << 20)
    current = dict(start)
    iterations = 0
    for _ in range(max_iter):
        _check_deadline(deadline)
        nxt = _reference_apply(system, current)
        iterations += 1
        for var in current:
            lo, hi = (nxt[var], current[var]) if descending else (current[var], nxt[var])
            if not handle.leq(lo, hi):
                raise ProvError(
                    f"iteration not monotone at {var!r}; equation system is outside "
                    "the supported fragment for this semiring"
                )
        if nxt == current:
            current = _reference_settle(system, nxt)
            return SolveResult(current, iterations, saturated=False, verified=True)
        current = nxt
        if not descending and reference_blown_up(handle, current.values(), blowup, direction):
            break
    for attempt in range(2):
        state = dict(current)
        for _ in range(min(max_iter + threshold * n, 100_000)):
            _check_deadline(deadline)
            nxt = _reference_apply(system, state)
            iterations += 1
            moving = {var for var in state if nxt[var] != state[var]}
            if not moving:
                break
            for var in moving:
                nxt[var] = reference_saturate(handle, nxt[var], threshold, direction)
            if nxt == state:
                break
            state = nxt
        else:
            threshold *= 2
            continue
        if _reference_apply(system, state) == state:
            state = _reference_settle(system, state)
            return SolveResult(state, iterations, saturated=True, verified=True)
        threshold *= 2
    raise NoConvergence(
        f"no fixed point within budget (iterations={iterations}, "
        f"final threshold={threshold})"
    )


def _check_deadline(deadline):
    if deadline is not None and time.perf_counter() > deadline:
        raise _OutOfTime


def _reference_start(system, fixpoint):
    """0, or the top element; a truncated series has inf on every monomial
    of degree <= D over the system's tokens."""
    handle = system.handle
    if fixpoint == "mu":
        return handle.zero
    if handle.top is not None:
        return handle.top
    tokens = sorted(system.tokens())
    monos = {Monomial(Counter(combo)): INF for d in range(handle.kind.degree_bound + 1)
             for combo in combinations_with_replacement(tokens, d)}
    return Polynomial(handle.kind, monos)


def _reference_solve(system, fixpoint, deadline=None):
    """The numeric solver as it was before fixed points were solved exactly
    per component: Kleene iteration, then saturation, on the whole system."""
    start = _reference_start(system, fixpoint)
    return _reference_iterate(system, {var: start for var in system.equations},
                              "lfp" if fixpoint == "mu" else "gfp", deadline)


def alternating_cycle_game(n):
    """v0 -> v1 -> ... -> v(n-1) -> v0 with alternating owners; each vi
    also moves to its terminal ti (2n positions)."""
    v = [f"v{i}" for i in range(n)]
    t = [f"t{i}" for i in range(n)]
    owners = {v[i]: i % 2 for i in range(n)}
    owners.update({x: TERMINAL for x in t})
    return GameGraph(owners, [(v[i], v[(i + 1) % n]) for i in range(n)] + list(zip(v, t)))


REFERENCE_SEMIRINGS = ("bool", "natinf", "tropical", "viterbi", "sorp", "sorpinf",
                       "sorpinfdual", "series:4", "dualnat", "boolpoly", "whypoly")
# The semirings where a least fixed point need not exist.
NO_LFP = ("dualnat", "boolpoly")


def _solver_valuation(rng, game, handle, selector, fixpoint, player):
    if selector == "series:4" and fixpoint == "nu":
        # The reference's top element grows steeply with the alphabet, so
        # this one draws its terminal tokens from three names.
        f = {t: handle.token(f"k{i % 3}") for i, t in enumerate(sorted(game.terminals))}
        return BasicValuation(handle, player, f)
    if selector in ("sorpinfdual", "dualnat"):
        f = {t: handle.token(("~" if rng.random() < 0.5 else "") + f"k{t}")
             for t in game.terminals}
        return BasicValuation(handle, player, f)
    if isinstance(handle, PolySemiring):
        return token_valuation(game, handle, player)
    # Full sample pools with move weights: inf constants, and viterbi
    # fractions on cycles (F9), which the numeric reference may not finish.
    return random_basic_valuation(rng, game, handle, player)


def _dualnat_cancelling_cycle():
    """dualnat mu takes Jacobi steps on the cycle (the n+1 rule).  The
    terminals t1 and t7 carry p and ~p, so going round the cycle multiplies
    by p*~p = 0 and the lfp exists."""
    dualnat = get_semiring("dualnat")
    game = alternating_cycle_game(8)
    f = {f"t{i}": dualnat.token(f"t{i}") for i in range(8)}
    f.update(t1=dualnat.token("p"), t7=dualnat.token("~p"))
    return build_system(game, BasicValuation(dualnat, 0, f))


def _sorpinf_cycle():
    """Naaf's closed form for sorpinf nu takes Jacobi steps on the cycle: n
    from the top, then n+1 after the infinitary power."""
    game = alternating_cycle_game(8)
    return build_system(game, token_valuation(game, SORPINF))


def _jacobi_rounds(system, values, component, limit):
    """Up to `limit` full-evaluation Jacobi steps on the component's
    equations in `values`, stopping when an iterate repeats.  Returns the
    number of steps, whether the last one repeated its input, and the
    evaluations an incremental step needs: all members on the first step,
    later the members with a dependency that changed value or marker in the
    step before."""
    deps = {var: {dep for _, dep in system.equations[var][1]} for var in component}
    changed = None
    evaluations = 0
    for step in range(1, limit + 1):
        out = {var: _reference_value(system, var, values) for var in component}
        evaluations += sum(changed is None or bool(deps[var] & changed) for var in component)
        before, after = _reference_fingerprint(values), _reference_fingerprint(out)
        changed = {var for var in component if after[var] != before[var]}
        if not changed:
            return step, True, evaluations
        values.update(out)
    return limit, False, evaluations


@pytest.mark.parametrize("make_system, fixpoint, steps, share", [
    (_dualnat_cancelling_cycle, "mu", 8, 0.6),
    (_sorpinf_cycle, "nu", 17, 0.8),
])
def test_incremental_steps_skip_unchanged_equations(make_system, fixpoint, steps, share,
                                                     monkeypatch):
    system = make_system()
    kleene = solver._kleene
    replayed = []

    def replaying(system, values, component, limit, in_place):
        # Replay each call from a copy of its start, then check that the
        # loop reached the same iterate by as many steps and evaluations.
        assert not in_place
        start = dict(values)
        before = system.evaluations
        out = kleene(system, values, component, limit, in_place)
        *expected, evaluations = _jacobi_rounds(system, start, component, limit)
        assert out == tuple(expected)
        assert _reference_fingerprint(start) == _reference_fingerprint(values)
        assert system.evaluations - before == evaluations
        replayed.append(evaluations)
        return out

    monkeypatch.setattr(solver, "_kleene", replaying)
    result = (kleene_lfp if fixpoint == "mu" else kleene_gfp)(system)
    non_constant = [var for var, rhs in system.equations.items() if rhs[0] != "const"]
    assert result.saturated == (fixpoint == "nu") and result.iterations == steps
    assert result.evaluations < share * (result.iterations + 1) * len(non_constant)
    # Every non-constant equation is on the cycle; the last application
    # verifies the solution.
    assert result.evaluations == sum(replayed) + len(non_constant)
    assert result.values == _reference_solve(system, fixpoint).values


def _jacobi_replay(system, fixpoint):
    """The n+1 rule (mu) or Naaf's closed form (nu) of the module docstring
    by full-evaluation Jacobi steps per component, in component order:
    (values, iterations, evaluations, saturated), or None when a component
    of the n+1 rule still changes.  The evaluations are those of
    _jacobi_rounds, one per non-constant acyclic equation and one per
    non-constant equation for the verifying application."""
    handle = system.handle
    successors = {var: [dep for _, dep in rhs[1]] if rhs[0] != "const" else ()
                  for var, rhs in system.equations.items()}
    values = {}
    iterations = 0
    evaluations = sum(rhs[0] != "const" for rhs in system.equations.values())
    saturated = False
    for component in solver._components(successors)[0]:
        if not solver._is_cyclic(component, successors):
            var = component[0]
            values[var] = _reference_value(system, var, values)
            evaluations += system.equations[var][0] != "const"
            continue
        n = len(component)
        values.update(dict.fromkeys(component, handle.top if fixpoint == "nu" else handle.zero))
        if fixpoint == "nu":
            steps, repeated, count = _jacobi_rounds(system, values, component, n)
            iterations += steps
            evaluations += count
            if repeated:
                continue
            before = _reference_fingerprint(values)
            values.update({var: handle.pow_inf(values[var]) for var in component})
            saturated = saturated or _reference_fingerprint(values) != before
        steps, repeated, count = _jacobi_rounds(system, values, component, n + 1)
        iterations += steps
        evaluations += count
        if not repeated:
            return None
    return values, iterations, evaluations, saturated


# The selectors whose gfp takes Naaf's closed form.
NAAF = [s for s in SHIPPED_SELECTORS
        if get_semiring(s).flags.absorptive and get_semiring(s).flags.fully_omega_continuous]


@pytest.mark.parametrize("selector, fixpoint", [(s, "nu") for s in NAAF] +
                         [(s, "mu") for s in NO_LFP])
def test_jacobi_methods_match_a_full_evaluation_replay(selector, fixpoint):
    handle = get_semiring(selector)
    rng = make_rng(salt=59)
    corpus = [random_cyclic_game(rng, max_positions=8, max_out=3) for _ in range(40)]
    corpus += [alternating_cycle_game(n) for n in (2, 5, 8)]
    replayed = 0
    for game in corpus:
        basic = _solver_valuation(rng, game, handle, selector, fixpoint, rng.randint(0, 1))
        system = build_system(game, basic)
        expected = _jacobi_replay(system, fixpoint)
        case = (game.owners, game.moves)
        if expected is None:
            with pytest.raises(NoConvergence):
                solve_game(game, basic, fixpoint)
            continue
        result = solve_game(game, basic, fixpoint)
        values, iterations, evaluations, saturated = expected
        assert _reference_fingerprint(result.values) == _reference_fingerprint(values), case
        assert (result.iterations, result.evaluations, result.saturated) == (
            iterations, evaluations, saturated), case
        replayed += result.iterations > 0
    assert replayed > 10


def _evaluate_pool(handle):
    """Sample values of the semiring; for truncated series also products
    past the degree bound and values marked truncated."""
    pool = list(handle.sample_values())
    if isinstance(handle, PolySemiring) and handle.kind.degree_bound is not None:
        p = handle.token("p")
        power = handle.one
        for _ in range(handle.kind.degree_bound + 1):
            power = handle.mul(power, p)
        assert power.truncated
        pool += [power] + [Polynomial(handle.kind, dict(value.monos), truncated=True)
                           for value in (handle.zero, handle.one, handle.add(p, handle.one))]
    return pool


@pytest.mark.parametrize("selector", SHIPPED_SELECTORS + ["series:2", "seriesdual:2"])
def test_evaluate_matches_the_full_fold(selector):
    # evaluate leaves out the unit steps of zero + c*x + ... and
    # one * (c*x) * ...; the full fold is _reference_apply.
    handle = get_semiring(selector)
    rng = make_rng(salt=41)
    pool = _evaluate_pool(handle)
    variables = [f"x{i}" for i in range(8)]
    for _ in range(40):
        equations = {}
        for var in variables:
            if rng.random() < 0.15:
                equations[var] = ("const", rng.choice(pool))
                continue
            body = [(handle.one if rng.random() < 0.5 else rng.choice(pool), rng.choice(variables))
                    for _ in range(rng.randrange(4))]
            equations[var] = (rng.choice(("sum", "prod")), body)
        system = EquationSystem(handle, equations)
        assignment = {var: rng.choice(pool) for var in variables}
        expected = _reference_apply(system, assignment)
        for var in variables:
            value = system.evaluate(var, assignment)
            assert value == expected[var]
            assert getattr(value, "truncated", None) == getattr(expected[var], "truncated", None)


# --- exact fixed points per strongly connected component ------------------


def _assert_verified_fixpoint(system, result, fixpoint):
    """The result is a fixed point, and a gfp lies at or below f^n(top)."""
    assert result.verified
    assert _reference_apply(system, result.values) == result.values
    if fixpoint == "nu":
        bound = dict.fromkeys(system.equations, _reference_start(system, "nu"))
        for _ in system.equations:
            bound = _reference_apply(system, bound)
        assert all(system.handle.leq(x, bound[var]) for var, x in result.values.items())


# The pairs the numeric loop decided before each got an exact method.
MOVED = {("natinf", "nu"), ("series:4", "mu"), ("series:4", "nu"), ("dualnat", "mu"),
         ("boolpoly", "mu"), ("whypoly", "mu")}


def _marked(values):
    return {var for var, x in values.items() if getattr(x, "truncated", False)}


def _least_markers(system, values):
    """The markers of the module docstring's rule at a fixed point: the
    least marker assignment that full evaluation reproduces, reached by
    evaluating from the unmarked values."""
    unmarked = {var: Polynomial(x.kind, x.monos) if isinstance(x, Polynomial) else x
                for var, x in values.items()}
    return _marked(_reference_settle(system, unmarked))


def test_exact_solver_matches_reference():
    """Where the numeric reference converges, the exact solver gives the
    same values and `verified`.  Its markers are the least ones full
    evaluation reproduces at those values, which in least fixed points are
    the reference's.  In dualnat and boolpoly the exact solver finds no lfp
    exactly where the reference fails or runs out of time; elsewhere, where
    the reference fails, the exact result is still a verified fixed point.
    `saturated` may differ only one way, and not on the pairs the numeric
    loop decided: the exact solver used an infinite limit (an inf-power
    that changed an iterate, or inf on a support cycle) where plain
    iteration happened to reach the same values within the reference's
    budget."""
    rng = make_rng(salt=37)
    corpus = [random_cyclic_game(rng, max_positions=8) for _ in range(40)]
    corpus += [alternating_cycle_game(n) for n in (2, 4, 6, 8)]
    agreed = flag_differs = reference_failed = no_lfp = pairs = nu_markers_differ = 0
    for selector in REFERENCE_SEMIRINGS:
        handle = get_semiring(selector)
        for fixpoint in ("mu", "nu"):
            if fixpoint == "nu" and not handle.flags.fully_omega_continuous:
                continue
            pairs += 1
            for game in corpus:
                basic = _solver_valuation(rng, game, handle, selector, fixpoint,
                                          rng.randint(0, 1))
                system = build_system(game, basic)
                case = (selector, fixpoint, game.owners, game.moves)
                try:
                    got = solve_game(game, basic, fixpoint)
                except NoConvergence:
                    assert selector in NO_LFP, case
                    with pytest.raises((_OutOfTime, NoConvergence)):
                        _reference_solve(system, fixpoint, time.perf_counter() + 0.5)
                    no_lfp += 1
                    continue
                _assert_verified_fixpoint(system, got, fixpoint)
                try:
                    expected = _reference_solve(system, fixpoint,
                                                time.perf_counter() + 0.5)
                except (_OutOfTime, NoConvergence):
                    assert selector not in NO_LFP, case
                    reference_failed += 1
                    continue
                assert got.values == expected.values, case
                assert _marked(got.values) == _least_markers(system, expected.values), case
                if fixpoint == "mu":
                    assert _marked(got.values) == _marked(expected.values), case
                else:
                    # The reference also kept the markers of the products
                    # of the top on its way down.
                    nu_markers_differ += _marked(got.values) != _marked(expected.values)
                assert got.verified == expected.verified, case
                if got.saturated == expected.saturated:
                    agreed += 1
                    continue
                assert got.saturated and not expected.saturated, case
                assert (selector, fixpoint) not in MOVED, case
                flag_differs += 1
    assert agreed > 20 * flag_differs
    assert no_lfp > 0 and nu_markers_differ > 0
    assert agreed + flag_differs + reference_failed + no_lfp == pairs * len(corpus)


def test_series_gfp_marks_exactly_what_depends_on_a_dropped_monomial():
    # x = p*x has the single fixed point 0, which drops nothing, so it is
    # unmarked (iteration down from the top marks it on the way).  In
    # y = q + p*y the product drops p^4*q at the solution, which marks y
    # and z = r*y, which reads it, and not u = q, which does not.
    series = get_semiring("series:4")
    p, q, r = (series.token(t) for t in "pqr")
    system = EquationSystem(series, {
        "x": ("sum", [(p, "x")]),
        "y": ("sum", [(series.one, "c"), (p, "y")]),
        "c": ("const", q),
        "z": ("prod", [(r, "y")]),
        "u": ("sum", [(series.one, "c")]),
    })
    result = kleene_gfp(system)
    assert result.verified
    assert result["x"] == series.zero and not result["x"].truncated
    assert result["y"] == series.parse_value("q + p*q + p^2*q + p^3*q")
    assert result["z"] == r * result["y"]
    assert result["y"].truncated and result["z"].truncated
    assert not result["u"].truncated and not result["c"].truncated
    assert _marked(_reference_solve(system, "nu").values) == {"x", "y", "z"}


def _jacobi_steps(monkeypatch):
    """Make ascending components take the incremental Jacobi steps of the
    descending phases in place of sweeps: the schedule the sweeps replaced."""
    kleene = solver._kleene

    def jacobi(system, values, component, limit, in_place):
        return kleene(system, values, component, limit, False)

    monkeypatch.setattr(solver, "_kleene", jacobi)


def _counting_sweeps(monkeypatch, counts):
    """Record the rounds of each ascending component in counts."""
    kleene = solver._kleene

    def counting(system, values, component, limit, in_place):
        out = kleene(system, values, component, limit, in_place)
        counts[tuple(component)] = out[0]
        return out

    monkeypatch.setattr(solver, "_kleene", counting)


def test_whypoly_components_repeat_within_the_bound(monkeypatch):
    """Every cyclic component of the seeded corpus is quiet within
    n*(|T|+1)+1 sweeps, the bound of the module docstring, and within the
    Jacobi steps it would take; some need more than the n+1 Jacobi steps of
    the rule for dualnat and boolpoly."""
    whypoly = get_semiring("whypoly")
    rng = make_rng(salt=47)
    components = beyond_n_plus_1 = 0
    for _ in range(300):
        game = random_cyclic_game(rng, max_positions=10, max_out=3)
        basic = token_valuation(game, whypoly, rng.randint(0, 1))
        system = build_system(game, basic)
        sweeps, steps = {}, {}
        with monkeypatch.context() as patch:
            _counting_sweeps(patch, sweeps)
            result = kleene_lfp(system)
        with monkeypatch.context() as patch:
            _jacobi_steps(patch)
            _counting_sweeps(patch, steps)
            jacobi = kleene_lfp(system)
        assert result.iterations == sum(sweeps.values())
        assert sweeps.keys() == steps.keys()
        bound = len(system.tokens()) + 1
        for component, count in sweeps.items():
            assert count <= steps[component] <= len(component) * bound + 1, (game.owners,
                                                                             game.moves)
            beyond_n_plus_1 += steps[component] > len(component) + 1
        components += len(sweeps)
        assert result.values == jacobi.values
        assert result.values == _reference_solve(system, "mu").values
    assert components > 200 and beyond_n_plus_1 > 10


# --- Gauss-Seidel sweeps for ascending components ---------------------------

# The selectors whose least fixed points come from sweeps.
SWEPT = ("bool", "tropical", "viterbi", "minmax:lo<mid<hi", "access", "posbool", "sorp",
         "sorpinf", "sorpinfdual", "whypoly")


@pytest.mark.parametrize("selector", SWEPT)
def test_sweeps_match_jacobi_steps_and_the_reference(selector, monkeypatch):
    """On seeded cyclic games the sweeps give the values of the Jacobi steps
    they replaced and of the numeric reference, in no more iterations."""
    handle = get_semiring(selector)
    rng = make_rng(salt=53)
    corpus = [random_cyclic_game(rng, max_positions=8, max_out=3) for _ in range(30)]
    corpus += [alternating_cycle_game(n) for n in (2, 5, 8)]
    compared = 0
    for game in corpus:
        basic = _solver_valuation(rng, game, handle, selector, "mu", rng.randint(0, 1))
        system = build_system(game, basic)
        got = kleene_lfp(system)
        with monkeypatch.context() as patch:
            _jacobi_steps(patch)
            steps = kleene_lfp(system)
        case = (game.owners, game.moves)
        assert got.values == steps.values and got.verified, case
        assert got.iterations <= steps.iterations and not got.saturated, case
        try:
            expected = _reference_solve(system, "mu", time.perf_counter() + 0.5)
        except (_OutOfTime, NoConvergence):
            continue
        assert got.values == expected.values, case
        compared += 1
    assert compared > 20


@pytest.mark.parametrize("selector", NO_LFP)
def test_n_plus_1_rule_without_fixed_point_ends_fast_on_a_long_cycle(selector):
    # The rule takes Jacobi steps: sweeps would carry each value round the
    # cycle once per sweep, and take about a minute here.
    handle = get_semiring(selector)
    game = alternating_cycle_game(64)
    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="still changes after 65 steps"):
        solve_game(game, token_valuation(game, handle), "mu")
    assert time.perf_counter() - start < 5.0


def test_sorpinf_lfp_of_a_cycle_game_takes_three_sweeps():
    # Jacobi steps carry a value one move per step, 65 steps on this cycle.
    game = alternating_cycle_game(64)
    result = solve_game(game, token_valuation(game, SORPINF), "mu")
    assert result.iterations <= 3 and result.evaluations <= 4 * 64
    assert result.verified and not result.saturated
    assert result["v0"] == _cycle_at_v0(SORPINF, 64)[0]


@pytest.mark.parametrize("n", (20, 40))
def test_transitive_closure_game_takes_linearly_many_evaluations(n):
    # One cyclic component of about 2n^2 positions, on which Jacobi steps
    # took about 4n steps.
    bool_ = get_semiring("bool")
    universe = tuple(f"a{i}" for i in range(n))
    pi = KInterpretation(bool_, universe, {"E": 2},
                         {("E", (a, b), True): 1 for a, b in zip(universe, universe[1:])})
    sentence = parse_formula(f"[lfp R(x,y). E(x,y) | exists z.(E(x,z) & R(z,y))](a0,a{n - 1})")
    mc = build_mc_game(universe, sentence)
    system = build_system(mc.game, mc.basic_valuation(pi, 0))
    result = kleene_lfp(system)
    assert result[mc.root] == 1
    assert result.iterations <= 3
    assert result.evaluations <= 2 * len(system.equations)


def test_natinf_lfp_of_a_large_constant_is_exact():
    # F3: the blow-up cap of the numeric path used to end this in
    # NoConvergence; the support path evaluates it once.
    f3 = GameGraph({"v": 0, "t": TERMINAL}, [("v", "t")])
    natinf = get_semiring("natinf")
    result = solve_game(f3, BasicValuation(natinf, 0, {"t": 2 ** 21}), "mu")
    assert result.values == {"v": 2097152, "t": 2097152}
    assert result.verified and not result.saturated


def test_tropical_gfp_with_a_costly_cycle_is_exact():
    # F4: v = min(w, 100), w = 1 + v has the single fixed point v=100,
    # w=101, which descending iteration from 0 reaches only after 100 steps.
    f4 = GameGraph({"v": 0, "w": 0, "t": TERMINAL}, [("v", "w"), ("w", "v"), ("v", "t")])
    tropical = get_semiring("tropical")
    basic = BasicValuation(tropical, 0, {"t": Fraction(100)}, {("w", "v"): Fraction(1)})
    result = solve_game(f4, basic, "nu")
    assert result.values == {"v": 100, "w": 101, "t": 100}
    assert result.verified and result.saturated


def test_viterbi_gfp_with_fractions_on_a_cycle_ends():
    # F9: the 5-position game of the make_rng(salt=31) corpus at the default
    # seed, valued for player 1.  Descending iteration multiplies exact
    # fractions whose length grows every step and never reaches the limit.
    game = GameGraph(
        {"n0": 0, "n1": 1, "n2": 0, "n3": 0, "n4": TERMINAL},
        [("n0", "n1"), ("n0", "n3"), ("n1", "n3"), ("n1", "n0"), ("n2", "n3"),
         ("n3", "n2"), ("n3", "n0")],
    )
    viterbi = get_semiring("viterbi")
    h = {("n0", "n3"): Fraction(3, 4), ("n2", "n3"): Fraction(1, 2),
         ("n3", "n2"): Fraction(1, 2), ("n3", "n0"): Fraction(1)}
    basic = BasicValuation(viterbi, 1, {"n4": Fraction(1)}, h)
    system = build_system(game, basic)
    with pytest.raises(_OutOfTime):
        _reference_solve(system, "nu", time.perf_counter() + 0.5)
    start = time.perf_counter()
    result = solve_game(game, basic, "nu")
    assert time.perf_counter() - start < 1.0
    _assert_verified_fixpoint(system, result, "nu")
    assert result.values == {"n0": 0, "n1": 0, "n2": 0, "n3": 0, "n4": 1}


def _cycle_at_v0(handle, n):
    """ROADMAP F1's closed forms, (lfp, gfp): the lfp is t0 + t1*t2 +
    t1*t3*t4 + ..., and the gfp adds the infinite play t1^inf * t3^inf *
    ... * t(n-1)^inf."""
    value = handle.token("t0")
    odd = handle.one
    for k in range(1, n - 1, 2):
        odd = odd * handle.token(f"t{k}")
        value = value + odd * handle.token(f"t{k + 1}")
    odd = odd * handle.token(f"t{n - 1}")
    return value, value + handle.pow_inf(odd)


@pytest.mark.parametrize("positions", (32, 64, 128))
def test_sorpinf_gfp_of_cycle_games_takes_linearly_many_steps(positions, monkeypatch):
    n = positions // 2
    game = alternating_cycle_game(n)
    system = build_system(game, token_valuation(game, SORPINF))
    component_steps = []
    kleene = solver._kleene

    def counting(system, values, component, limit, in_place):
        out = kleene(system, values, component, limit, in_place)
        component_steps.append((len(component), out[0]))
        return out

    monkeypatch.setattr(solver, "_kleene", counting)
    result = kleene_gfp(system)
    # One cyclic component, the n cycle positions; the terminals are constants.
    assert {size for size, _ in component_steps} == {n}
    assert sum(steps for _, steps in component_steps) == result.iterations <= 2 * (n + 1)
    assert result.verified and result.saturated
    assert result["v0"] == _cycle_at_v0(SORPINF, n)[1]


def test_a_self_loop_is_a_cycle():
    # x = s + t*x: one variable whose equation reads itself.
    for selector, mu, nu in (("sorpinf", "s", "s + t^inf"), ("natinf", "inf", "inf"),
                             ("tropical", "2", "2")):
        handle = get_semiring(selector)
        if selector == "sorpinf":
            s, t = handle.token("s"), handle.token("t")
        else:
            s, t = handle.parse_value("2"), handle.parse_value("1")
        system = EquationSystem(handle, {"x": ("sum", [(s, "one"), (t, "x")]),
                                         "one": ("const", handle.one)})
        lfp, gfp = kleene_lfp(system), kleene_gfp(system)
        assert handle.format_value(lfp["x"]) == mu, selector
        assert handle.format_value(gfp["x"]) == nu, selector
        assert lfp.verified and gfp.verified


def test_components_come_after_their_dependencies():
    from provgames.solver import _components

    successors = {"r": ["x"], "x": ["b"], "b": ["x", "c"], "c": ["d"], "d": ["c"],
                  "e": ["e"], "f": []}
    components, first_on_cycle = _components(successors)
    assert sorted(map(sorted, components)) == [["b", "x"], ["c", "d"], ["e"], ["f"], ["r"]]
    position = {var: i for i, comp in enumerate(components) for var in comp}
    for var, deps in successors.items():
        assert all(position[dep] <= position[var] for dep in deps)
    # The search closes x <- b before it reaches the cycle c <-> d, which
    # it finishes first.
    assert components.index(["c", "d"]) < components.index(["x", "b"])
    assert first_on_cycle == "x"
    # No recursion: a 5000-long chain and a 5000-long cycle.
    chain = {i: [i + 1] for i in range(5000)} | {5000: []}
    assert [len(c) for c in _components(chain)[0]] == [1] * 5001
    assert _components(chain)[1] is None
    cycle = {i: [(i + 1) % 5000] for i in range(5000)}
    assert _components(cycle) == ([list(range(5000))], 0)


# --- least fixed points that do not exist ---------------------------------


def test_natpoly_lfp_fails_fast_on_a_nonzero_cycle():
    natpoly = get_semiring("natpoly")
    game = alternating_cycle_game(8)  # 16 positions
    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="'v0' is nonzero and lies on a cycle"):
        solve_game(game, token_valuation(game, natpoly), "mu")
    assert time.perf_counter() - start < 1.0


def test_natpoly_lfp_solves_when_the_cycle_is_outside_the_support():
    natpoly = get_semiring("natpoly")
    game = alternating_cycle_game(8)
    # The sum positions (even i) see only zero terminals, so the whole cycle is 0.
    f = {f"t{i}": natpoly.token(f"t{i}") if i % 2 else natpoly.zero for i in range(8)}
    result = solve_game(game, BasicValuation(natpoly, 0, f), "mu")
    assert all(result[f"v{i}"] == natpoly.zero for i in range(8))
    assert result.verified and not result.saturated
    # Neither is a cycle closed through a zero coefficient of a sum, nor one
    # through a product with a zero factor.
    one, zero, s, t = natpoly.one, natpoly.zero, natpoly.token("s"), natpoly.token("t")
    for back, w_factors, w_value in ((zero, [(one, "v"), (one, "t")], s * t),
                                     (one, [(zero, "t"), (one, "v")], zero)):
        system = EquationSystem(natpoly, {
            "v": ("sum", [(one, "s"), (back, "w")]),
            "w": ("prod", w_factors),
            "s": ("const", s),
            "t": ("const", t),
        })
        result = kleene_lfp(system)
        assert result["v"] == s and result["w"] == w_value


def test_nat_lfp_exists_exactly_when_the_natinf_lfp_is_finite():
    # nat and natinf have the same Kleene iterates; the nat lfp exists
    # exactly when they stay bounded, i.e. when the natinf lfp has no inf.
    nat, natinf = get_semiring("nat"), get_semiring("natinf")
    rng = make_rng(salt=41)
    fired = 0
    for _ in range(150):
        game = random_cyclic_game(rng)
        basic = random_basic_valuation(rng, game, nat, pool=[1, 2])
        limit = solve_game(game, BasicValuation(natinf, 0, basic.f, basic.h), "mu")
        infinite = {v for v, x in limit.values.items() if x is INF}
        if infinite:
            fired += 1
            with pytest.raises(NoConvergence, match="lies on a cycle") as exc:
                solve_game(game, basic, "mu")
            assert any(f"{v!r} is nonzero" in str(exc.value) for v in infinite)
        else:
            assert solve_game(game, basic, "mu").values == limit.values
    assert 10 < fired < 140


def _reference_support_cycle_variable(system):
    """The variable the nat/natpoly fail-fast named before the shared
    Tarjan: the target of the first edge back into the path of a
    depth-first search over the support graph."""
    from provgames.solver import _support

    zero = system.handle.zero
    support = _support(system)
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


def test_nat_lfp_names_the_same_cycle_variable_as_before():
    nat = get_semiring("nat")
    rng = make_rng(salt=43)
    named = 0
    for _ in range(400):
        game = random_cyclic_game(rng, max_positions=10, max_out=3)
        basic = random_basic_valuation(rng, game, nat, rng.randint(0, 1), pool=[1, 2])
        system = build_system(game, basic)
        var = _reference_support_cycle_variable(system)
        if var is None:
            kleene_lfp(system)
            continue
        message = re.escape(f"no least fixed point: {var!r} is nonzero")
        with pytest.raises(NoConvergence, match="^" + message):
            kleene_lfp(system)
        named += 1
    assert named > 50


# --- components that read solved cyclic components --------------------------


def _natinf_chain_of_cycles():
    """Cyclic components that read cyclic components solved before them.
    a reads only the zero constant c0 round its cycle; b reads a; d reads b
    through a product; f has the finite lfp 3 (its product reads c0); g and
    h read f; z is 0 in both directions (a product with c0); y reads z
    through a product."""
    natinf = get_semiring("natinf")
    return EquationSystem(natinf, {
        "c0": ("const", 0), "c1": ("const", 3),
        "a1": ("sum", [(1, "a2"), (1, "c0")]), "a2": ("sum", [(1, "a1")]),
        "b1": ("sum", [(1, "a1"), (1, "b2")]), "b2": ("prod", [(1, "b1"), (2, "c1")]),
        "d1": ("sum", [(1, "c1"), (1, "d2")]), "d2": ("prod", [(1, "d1"), (1, "b1")]),
        "f1": ("sum", [(1, "c1"), (1, "f2")]), "f2": ("prod", [(1, "f1"), (1, "c0")]),
        "g1": ("prod", [(1, "f1"), (1, "g2")]), "g2": ("sum", [(1, "g1"), (1, "c1")]),
        "h1": ("sum", [(2, "f1"), (1, "h2")]), "h2": ("prod", [(1, "h1"), (1, "c0")]),
        "z1": ("prod", [(1, "z2"), (1, "c0")]), "z2": ("sum", [(1, "z1")]),
        "y1": ("prod", [(1, "z2"), (1, "y2")]), "y2": ("sum", [(1, "y1"), (1, "c1")]),
    })


@pytest.mark.parametrize("fixpoint, expected", [
    # mu: b and y read a zero dependency, g and h a nonzero one.
    ("mu", dict(a1=0, a2=0, b1=0, b2=0, d1=3, d2=0, f1=3, f2=0, g1=INF, g2=INF,
                h1=6, h2=0, z1=0, z2=0, y1=0, y2=3)),
    # nu: y reads a zero dependency; b, d, g and h nonzero ones.
    ("nu", dict(a1=INF, a2=INF, b1=INF, b2=INF, d1=INF, d2=INF, f1=3, f2=0, g1=INF,
                g2=INF, h1=6, h2=0, z1=0, z2=0, y1=0, y2=3)),
])
def test_natinf_support_reads_solved_cyclic_components(fixpoint, expected):
    system = _natinf_chain_of_cycles()
    successors = {var: [dep for _, dep in rhs[1]] if rhs[0] != "const" else ()
                  for var, rhs in system.equations.items()}
    assert sum(solver._is_cyclic(c, successors) for c in solver._components(successors)[0]) == 8
    result = (kleene_lfp if fixpoint == "mu" else kleene_gfp)(system)
    assert {var: result[var] for var in expected} == expected
    assert result.values == _reference_solve(system, fixpoint).values
    assert result.verified and result.saturated == (fixpoint == "mu")


def test_series_gfp_carries_high_into_a_later_component():
    # a = a + p*c reaches a cycle of J; b1 = a + q*b2, b2 = b1 is a cycle of
    # the dependency graph but not of J (q has no constant term), and b1's
    # J-edge to a makes it, and b2 through b1, reach one too.
    series = get_semiring("series:2")
    p, q = series.token("p"), series.token("q")
    one = series.one
    system = EquationSystem(series, {
        "c": ("const", one),
        "a": ("sum", [(one, "a"), (p, "c")]),
        "b1": ("sum", [(one, "a"), (q, "b2")]),
        "b2": ("prod", [(one, "b1")]),
    })
    result = kleene_gfp(system)
    top = series.parse_value("inf + inf*p + inf*q + inf*p^2 + inf*p*q + inf*q^2")
    assert result["a"] == result["b1"] == result["b2"] == top
    assert result.values == _reference_solve(system, "nu").values
    assert _marked(result.values) == _least_markers(system, result.values)
    # Both components take the top slices without evaluating their levels.
    # The evaluations: a and b1 at the solution, where q*b2 drops monomials
    # and marks b; b1 and b2 in b's level-0 system; three to verify.
    assert _marked(result.values) == {"b1", "b2"}
    assert result.evaluations == 2 + 2 + 3


def test_series_lfp_mark_crosses_into_a_later_component():
    # a1 = q + p*a2, a2 = a1 drops p^2*q at its solution q + p*q; b1 = a1 + b2
    # and b2 = b1*0 drop nothing themselves and are marked through a1.  u is
    # a cycle that reads nothing marked.
    series = get_semiring("series:2")
    p, q, r = (series.token(t) for t in "pqr")
    one, zero = series.one, series.zero
    system = EquationSystem(series, {
        "cq": ("const", q), "cz": ("const", zero), "cr": ("const", r),
        "a1": ("sum", [(one, "cq"), (p, "a2")]), "a2": ("sum", [(one, "a1")]),
        "b1": ("sum", [(one, "a1"), (one, "b2")]), "b2": ("prod", [(one, "b1"), (one, "cz")]),
        "u1": ("sum", [(one, "cr"), (one, "u2")]), "u2": ("prod", [(one, "u1"), (one, "cz")]),
    })
    result = kleene_lfp(system)
    assert result["a1"] == result["b1"] == series.parse_value("q + p*q")
    assert result["b2"] == zero and result["u1"] == r
    assert _marked(result.values) == {"a1", "a2", "b1", "b2"}
    assert _marked(result.values) == _marked(_reference_solve(system, "mu").values)
    assert result.values == _reference_solve(system, "mu").values


# --- the universal absorptive semiring ---------------------------------------

ABSORPTIVE_TARGETS = ("bool", "tropical", "viterbi", "minmax:lo<mid<hi", "access", "posbool")


def test_sorpinf_solve_specializes_to_every_absorptive_target():
    """sorpinf is universal among the absorptive, fully omega-continuous
    semirings (Dannert, Graedel, Naaf and Tannen, "Semiring provenance for
    fixed-point logic", CSL 2021), and homomorphisms commute with their
    least and greatest fixed points.  So one sorpinf solve, specialized at
    nonzero sample values, equals the solve in each target, for mu and nu,
    with tokens on the terminals and on about 40% of the moves: 3 600
    comparisons, about 0.5 s."""
    rng = make_rng(salt=77)
    targets = [get_semiring(selector) for selector in ABSORPTIVE_TARGETS]
    compared = 0
    for _ in range(300):
        game = random_cyclic_game(rng, max_positions=8, max_out=3)
        player = rng.randint(0, 1)
        names = {e: f"m{i}" for i, e in enumerate(game.moves) if rng.random() < 0.4}
        universal = BasicValuation(SORPINF, player, {t: SORPINF.token(t) for t in game.terminals},
                                   {e: SORPINF.token(name) for e, name in names.items()})
        for fixpoint in ("mu", "nu"):
            values = solve_game(game, universal, fixpoint).values
            for target in targets:
                pool = [x for x in target.sample_values() if x != target.zero]
                assignment = {name: rng.choice(pool)
                              for name in [*game.terminals, *names.values()]}
                direct = BasicValuation(target, player,
                                        {t: assignment[t] for t in game.terminals},
                                        {e: assignment[name] for e, name in names.items()})
                expected = solve_game(game, direct, fixpoint).values
                case = (target.name, fixpoint, game.owners, game.moves, assignment)
                assert {var: specialize(x, target, assignment)
                        for var, x in values.items()} == expected, case
                compared += 1
    assert compared == 300 * 2 * len(targets)
