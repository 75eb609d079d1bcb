"""Fixpoint solver: paper regressions, truncation coherence, saturation."""

import time
from fractions import Fraction

import pytest

from provgames.errors import NoConvergence, NotFullyOmegaContinuous, ProvError
from provgames.games import TERMINAL, BasicValuation, GameGraph, acyclic_valuation, truncate
from provgames.infinity import INF
from provgames.semirings import PolySemiring, get_semiring
from provgames.solver import (
    EquationSystem,
    SolveResult,
    SolverConfig,
    build_system,
    kleene_gfp,
    kleene_lfp,
    solve_game,
)

from genutil import make_rng, random_basic_valuation, random_cyclic_game, token_valuation

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


def test_max_iter_override_surfaces_no_convergence():
    ni = get_semiring("natinf")
    basic = BasicValuation(ni, 0, {"s": 1, "t": 1})
    with pytest.raises(NoConvergence):
        solve_game(reach_game(), basic, "mu",
                   SolverConfig(max_iterations=1, saturation_threshold=10**9))


# --- incremental steps against full evaluation ----------------------------


def _reference_apply(system, assignment):
    """EquationSystem.apply as a full Jacobi step: every equation evaluated."""
    handle = system.handle
    out = {}
    for var, rhs in system.equations.items():
        if rhs[0] == "const":
            out[var] = rhs[1]
        elif rhs[0] == "sum":
            acc = handle.zero
            for coeff, dep in rhs[1]:
                acc = handle.add(acc, handle.mul(coeff, assignment[dep]))
            out[var] = acc
        else:
            acc = handle.one
            for coeff, dep in rhs[1]:
                acc = handle.mul(acc, handle.mul(coeff, assignment[dep]))
            out[var] = acc
    return out


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


def _reference_blown_up(handle, values, cap, direction):
    try:
        return any(handle.saturate(v, cap, direction) != v for v in values)
    except NoConvergence:
        return False


def _reference_iterate(system, start, direction, config):
    """The solver loop with every step a full evaluation and the blow-up
    check on every value."""
    handle = system.handle
    n = len(system.equations)
    max_iter = config.iterations_for(n)
    threshold = config.threshold_for(n)
    descending = direction == "gfp"
    blowup = max(threshold + 1, 1 << 20)
    current = dict(start)
    iterations = 0
    for _ in range(max_iter):
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
            return SolveResult(current, iterations, saturated=False, verified=True,
                               threshold=threshold)
        current = nxt
        if not descending and _reference_blown_up(handle, current.values(), blowup, direction):
            break
    for attempt in range(2):
        state = dict(current)
        for _ in range(min(max_iter + threshold * n, 100_000)):
            nxt = _reference_apply(system, state)
            iterations += 1
            moving = {var for var in state if nxt[var] != state[var]}
            if not moving:
                break
            for var in moving:
                nxt[var] = handle.saturate(nxt[var], threshold, direction)
            if nxt == state:
                break
            state = nxt
        else:
            threshold *= 2
            continue
        if _reference_apply(system, state) == state:
            state = _reference_settle(system, state)
            return SolveResult(state, iterations, saturated=True, verified=True,
                               threshold=threshold)
        threshold *= 2
    raise NoConvergence(
        f"no fixed point within budget (iterations={iterations}, "
        f"final threshold={threshold})"
    )


def _reference_solve(system, fixpoint):
    handle = system.handle
    if fixpoint == "mu":
        start = handle.zero
    elif handle.top is not None:
        start = handle.top
    else:
        start = handle.top_for_tokens(system.tokens())
    return _reference_iterate(system, {var: start for var in system.equations},
                              "lfp" if fixpoint == "mu" else "gfp", SolverConfig())


def _outcome(solve):
    try:
        result = solve()
    except ProvError as exc:
        return type(exc), str(exc)
    markers = {var: getattr(x, "truncated", None) for var, x in result.values.items()}
    return (result.values, markers, result.iterations, result.saturated,
            result.verified, result.threshold)


def alternating_cycle_game(n):
    """v0 -> v1 -> ... -> v(n-1) -> v0 with alternating owners; each vi
    also moves to its terminal ti (2n positions)."""
    v = [f"v{i}" for i in range(n)]
    t = [f"t{i}" for i in range(n)]
    owners = {v[i]: i % 2 for i in range(n)}
    owners.update({x: TERMINAL for x in t})
    return GameGraph(owners, [(v[i], v[(i + 1) % n]) for i in range(n)] + list(zip(v, t)))


INCREMENTAL_SEMIRINGS = ("bool", "natinf", "tropical", "viterbi", "sorp", "sorpinf",
                         "sorpinfdual", "series:4")


def _solver_valuation(rng, game, handle, selector, fixpoint, player):
    if selector == "series:4" and fixpoint == "nu":
        # top_for_tokens grows steeply with the alphabet, so this one
        # draws its terminal tokens from three names.
        f = {t: handle.token(f"k{i % 3}") for i, t in enumerate(sorted(game.terminals))}
        return BasicValuation(handle, player, f)
    if selector == "sorpinfdual":
        f = {t: handle.token(("~" if rng.random() < 0.5 else "") + f"k{t}")
             for t in game.terminals}
        return BasicValuation(handle, player, f)
    if isinstance(handle, PolySemiring):
        return token_valuation(game, handle, player)
    if selector == "viterbi" and fixpoint == "nu":
        # Descending through a product on a cycle, exact fractions other
        # than 0 and 1 grow in length geometrically and never reach the
        # limit, so such a solve does not end in a test's time.
        return random_basic_valuation(rng, game, handle, player, pool=[Fraction(1)])
    return random_basic_valuation(rng, game, handle, player)


def test_incremental_solver_matches_full_evaluation():
    rng = make_rng(salt=31)
    corpus = [random_cyclic_game(rng, max_positions=6) for _ in range(30)]
    corpus += [alternating_cycle_game(n) for n in (4, 6, 8)]
    compared = 0
    for selector in INCREMENTAL_SEMIRINGS:
        handle = get_semiring(selector)
        for fixpoint in ("mu", "nu"):
            if fixpoint == "nu" and not handle.flags.fully_omega_continuous:
                continue
            for game in corpus:
                basic = _solver_valuation(rng, game, handle, selector, fixpoint,
                                         rng.randint(0, 1))
                system = build_system(game, basic)
                expected = _outcome(lambda: _reference_solve(system, fixpoint))
                got = _outcome(lambda: solve_game(game, basic, fixpoint))
                assert got == expected, (selector, fixpoint, game.owners)
                compared += 1
    assert compared == 15 * len(corpus)


def test_incremental_solver_f3_f4_outcomes_unchanged():
    f3 = GameGraph({"v": 0, "t": TERMINAL}, [("v", "t")])
    f4 = GameGraph({"v": 0, "w": 0, "t": TERMINAL}, [("v", "w"), ("w", "v"), ("v", "t")])
    natinf, tropical = get_semiring("natinf"), get_semiring("tropical")
    for game, basic, fixpoint in (
        (f3, BasicValuation(natinf, 0, {"t": 2 ** 21}), "mu"),
        (f4, BasicValuation(tropical, 0, {"t": Fraction(100)}, {("w", "v"): Fraction(1)}),
         "nu"),
    ):
        system = build_system(game, basic)
        expected = _outcome(lambda: _reference_solve(system, fixpoint))
        assert expected[0] is NoConvergence
        assert _outcome(lambda: solve_game(game, basic, fixpoint)) == expected


def test_incremental_steps_skip_unchanged_equations():
    game = alternating_cycle_game(8)
    system = build_system(game, token_valuation(game, SORPINF))
    calls = []
    full_apply = system.apply

    def counting_apply(*args):
        calls.append(args)
        return full_apply(*args)

    system.apply = counting_apply
    result = kleene_gfp(system)
    non_constant = [(var, {dep for _, dep in rhs[1]})
                    for var, rhs in system.equations.items() if rhs[0] != "const"]
    assert result.saturated and result.iterations == 274
    assert len(calls) > result.iterations
    assert result.evaluations < 0.6 * len(calls) * len(non_constant)
    # Replay: a step with a previous one evaluates exactly the equations
    # with a dependency that changed value or marker; any other step, all.
    expected = 0
    for assignment, previous in ((args + (None,))[:2] for args in calls):
        if previous is None:
            expected += len(non_constant)
            continue
        before = _reference_fingerprint(previous[0])
        changed = {var for var, mark in _reference_fingerprint(assignment).items()
                   if mark != before[var]}
        expected += sum(bool(deps & changed) for _, deps in non_constant)
    assert result.evaluations == expected
    assert result.values == _reference_solve(system, "nu").values


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
        # A finite nat lfp is reached within |positions| + 1 steps.
        config = SolverConfig(max_iterations=len(game.owners) + 2)
        if infinite:
            fired += 1
            with pytest.raises(NoConvergence, match="lies on a cycle") as exc:
                solve_game(game, basic, "mu", config)
            assert any(f"{v!r} is nonzero" in str(exc.value) for v in infinite)
        else:
            assert solve_game(game, basic, "mu", config).values == limit.values
    assert 10 < fired < 140
