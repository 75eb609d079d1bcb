"""Games: strategy sums, play products, separation, bisimulation, truncation."""

import re

import pytest

from provgames.errors import BudgetExceeded, CyclicGame, MalformedGame, ProvError
from provgames.games import (
    TERMINAL,
    BasicValuation,
    GameGraph,
    Objective,
    Strategy,
    absorption_dominant_flags,
    absorption_dominates,
    acyclic_valuation,
    check_separating,
    count_strategies,
    enumerate_strategies,
    play_values,
    strategy_value,
    truncate,
    validate_game,
    verify_counting_bisim,
    winning_region,
)
from provgames.infinity import INF
from provgames.semirings import get_semiring
from provgames.solver import solve_game

from genutil import (
    make_rng,
    random_acyclic_game,
    random_basic_valuation,
    random_cyclic_game,
    token_valuation,
)

NATPOLY = get_semiring("natpoly")


def absdom_game():
    return GameGraph(
        {"u": 1, "v": 1, "w": 1, "z": 0, "s": TERMINAL, "t": TERMINAL},
        [("u", "v"), ("u", "w"), ("v", "z"), ("w", "z"), ("z", "s"), ("z", "t")],
    )


def reach_game():
    return GameGraph(
        {"v": 0, "w": 1, "s": TERMINAL, "t": TERMINAL},
        [("v", "s"), ("v", "w"), ("w", "v"), ("w", "t")],
    )


def test_validate_game_reports():
    g = absdom_game()
    report = validate_game(g)
    assert report == {"positions": 6, "moves": 6, "acyclic": True, "unreachable": []}
    assert not validate_game(reach_game())["acyclic"]


def recursive_topological_order(game):
    """Recursive depth-first reference for GameGraph.topological_order."""
    state, order = {}, []

    def visit(v):
        if state.get(v) == "done":
            return True
        if state.get(v) == "active":
            return False
        state[v] = "active"
        if not all(visit(w) for w in game.successors(v)):
            return False
        state[v] = "done"
        order.append(v)
        return True

    return order if all(visit(v) for v in game.owners) else None


def test_topological_order_matches_recursive_dfs():
    rng = make_rng(salt=11)
    games = [random_acyclic_game(rng, max_positions=16) for _ in range(150)]
    games += [random_cyclic_game(rng, max_positions=10) for _ in range(150)]
    assert any(g.is_acyclic() for g in games[150:])
    assert any(not g.is_acyclic() for g in games[150:])
    for g in games:
        expected = recursive_topological_order(g)
        order = g.topological_order()
        assert order == expected
        if order is not None:
            order.reverse()  # callers get a copy of the cached order
        assert g.topological_order() == expected


def test_topological_order_of_long_chain():
    n = 5000
    owners = {f"v{i}": i % 2 for i in range(n)}
    owners["t"] = TERMINAL
    moves = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)] + [(f"v{n - 1}", "t")]
    order = GameGraph(owners, moves).topological_order()
    assert order == ["t"] + [f"v{i}" for i in reversed(range(n))]
    cyclic = GameGraph(owners, moves + [(f"v{n - 1}", "v0")])
    assert cyclic.topological_order() is None


def test_malformed_games_rejected():
    with pytest.raises(MalformedGame):
        GameGraph({"v": 0}, []).check_structure()  # non-terminal without moves
    with pytest.raises(MalformedGame):
        g = GameGraph({"v": 0, "t": TERMINAL, "u": TERMINAL},
                      [("v", "t"), ("t", "u")])
        g.check_structure()  # terminal with a move
    with pytest.raises(MalformedGame):
        GameGraph({"v": 0, "t": TERMINAL}, [("v", "t"), ("v", "t")])


def test_malformed_moves_name_the_first_offender():
    owners = {"v": 0, "w": 1, "t": TERMINAL}
    with pytest.raises(MalformedGame, match=r"^parallel move 'v' -> 't'$"):
        GameGraph(owners, [("v", "w"), ("v", "t"), ("w", "t"), ("v", "t"), ("v", "x")])
    with pytest.raises(MalformedGame, match=r"^move 'w' -> 'x' uses unknown position$"):
        GameGraph(owners, [("v", "w"), ("w", "x"), ("v", "w"), ("y", "t")])
    with pytest.raises(MalformedGame, match=r"^move 'y' -> 't' uses unknown position$"):
        GameGraph(owners, [("v", "w"), ("y", "t")])
    game = GameGraph(owners, [["v", "w"], ("w", "t")])
    assert game.moves == [("v", "w"), ("w", "t")]


def test_backward_induction_example():
    g = absdom_game()
    basic = token_valuation(g, NATPOLY)
    values = acyclic_valuation(g, basic)
    assert values["u"] == NATPOLY.parse_value("s^2 + 2*s*t + t^2")
    assert values["z"] == NATPOLY.parse_value("s + t")


def test_strategy_census_example():
    g = absdom_game()
    basic = token_valuation(g, NATPOLY)
    strategies = enumerate_strategies(g, 0, "u")
    values = sorted(NATPOLY.format_value(strategy_value(s, g, basic))
                    for s in strategies)
    assert values == ["s*t", "s*t", "s^2", "t^2"]
    assert all(absorption_dominant_flags(strategies, g))


def test_strategy_sum_theorem_on_corpus():
    rng = make_rng(salt=1)
    for _ in range(120):
        g = random_acyclic_game(rng)
        basic = token_valuation(g, NATPOLY)
        values = acyclic_valuation(g, basic)
        for root in g.positions:
            if g.is_terminal(root):
                continue
            total = NATPOLY.zero
            for s in enumerate_strategies(g, 0, root):
                total = NATPOLY.add(total, strategy_value(s, g, basic))
            assert total == values[root]


def test_play_product_lemma_with_trivial_h():
    rng = make_rng(salt=2)
    for _ in range(60):
        g = random_acyclic_game(rng, max_positions=9)
        basic = token_valuation(g, NATPOLY)  # h = 1 everywhere
        for root in g.positions:
            if g.is_terminal(root):
                continue
            for s in enumerate_strategies(g, 0, root):
                product = NATPOLY.one
                for pv in play_values(s, g, basic):
                    product = NATPOLY.mul(product, pv)
                assert product == strategy_value(s, g, basic)


def test_play_product_counterexample():
    # Player 1 moves v -> w (value a for Player 0), then to s or t (value 1).
    g = GameGraph(
        {"v": 1, "w": 1, "s": TERMINAL, "t": TERMINAL},
        [("v", "w"), ("w", "s"), ("w", "t")],
    )
    a = NATPOLY.token("a")
    basic = BasicValuation(NATPOLY, 0, {"s": NATPOLY.one, "t": NATPOLY.one},
                           {("v", "w"): a})
    (s,) = enumerate_strategies(g, 0, "v")
    assert strategy_value(s, g, basic) == a
    product = NATPOLY.one
    for pv in play_values(s, g, basic):
        product = NATPOLY.mul(product, pv)
    assert product == NATPOLY.mul(a, a)
    assert product != strategy_value(s, g, basic)


def test_enumeration_budget_on_cyclic_game():
    g = reach_game()
    basic = token_valuation(g, NATPOLY)
    with pytest.raises(BudgetExceeded):
        enumerate_strategies(g, 0, "v", max_nodes=500)
    with pytest.raises(CyclicGame):
        acyclic_valuation(g, basic)


def recursive_strategy_node_sets(game, player, root, max_nodes):
    """The node sets of enumerate_strategies as its recursive expansion
    produced them, with the same node budget."""
    budget = [max_nodes]

    def expand(path):
        v = path[-1]
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded(f"strategy enumeration exceeded {max_nodes} nodes")
        if game.is_terminal(v):
            return [[path]]
        if game.owner(v) == player:
            result = []
            for w in game.successors(v):
                for sub in expand(path + (w,)):
                    result.append([path] + sub)
            return result
        parts = [[path]]
        for w in game.successors(v):
            subs = expand(path + (w,))
            parts = [acc + sub for acc in parts for sub in subs]
        return parts

    return expand((root,))


def test_enumeration_matches_recursive_expansion():
    rng = make_rng(salt=13)
    compared = exceeded = several = 0
    for _ in range(200):
        g = random_acyclic_game(rng, max_positions=12) if rng.random() < 0.8 \
            else random_cyclic_game(rng, max_positions=6)
        player, root = rng.randint(0, 1), sorted(g.owners)[0]
        max_nodes = rng.choice((5, 40, 100_000 if g.is_acyclic() else 300))
        try:
            expected = [Strategy.from_paths(player, root, node_set, g) for node_set in
                        recursive_strategy_node_sets(g, player, root, max_nodes)]
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded, match=str(exc)):
                enumerate_strategies(g, player, root, max_nodes)
            exceeded += 1
            continue
        assert enumerate_strategies(g, player, root, max_nodes) == expected
        compared += 1
        several += len(expected) > 2
    assert compared > 60 and exceeded > 20 and several > 20


def test_strategy_count_matches_enumeration():
    # With and without a depth, and with budgets that enumeration exceeds:
    # count_strategies raises the same error wherever enumeration does.
    # Counts above 5000 are not listed; a few such games take seconds.
    rng = make_rng(salt=29)
    counted = exceeded = several = 0
    for _ in range(100):
        g = random_acyclic_game(rng, max_positions=10) if rng.random() < 0.5 \
            else random_cyclic_game(rng, max_positions=6, max_out=3)
        roots = [v for v in sorted(g.owners) if not g.is_terminal(v)]
        for root in roots[:2]:
            player = rng.randint(0, 1)
            depths = (None, 1, 2, 4) if g.is_acyclic() else (None, 1, 3, 5, 7)
            for depth in depths:
                max_nodes = rng.choice((30, 400))
                try:
                    count = count_strategies(g, player, root, max_nodes, depth)
                except BudgetExceeded as exc:
                    with pytest.raises(BudgetExceeded, match=str(exc)):
                        enumerate_strategies(g, player, root, max_nodes, depth)
                    exceeded += 1
                    continue
                if count <= 5000:
                    assert len(enumerate_strategies(g, player, root, max_nodes, depth)) == count
                    counted += 1
                    several += count > 2
    assert counted > 600 and exceeded > 40 and several > 100


def test_strategy_count_of_a_game_whose_strategies_outgrow_its_nodes():
    # F17: w multiplies the counts of v and u, each 1 + w's count one move
    # later, so the count squares every two moves while the nodes double.
    g = GameGraph({"v": 0, "u": 0, "w": 1, "t": TERMINAL},
                  [("v", "t"), ("v", "w"), ("u", "t"), ("u", "w"), ("w", "v"), ("w", "u")])
    assert [count_strategies(g, 0, "v", depth=d) for d in range(1, 13)] == \
        [1, 2, 2, 5, 5, 26, 26, 677, 677, 458330, 458330, 210066388901]
    assert len(enumerate_strategies(g, 0, "v", depth=9)) == 677
    with pytest.raises(BudgetExceeded):
        count_strategies(g, 0, "v")
    with pytest.raises(ProvError):
        count_strategies(g, 0, "v", depth=0)


def test_enumeration_of_long_chain():
    n = 1500
    owners = {f"p{i}": i % 2 for i in range(n)}
    owners[f"p{n}"] = TERMINAL
    g = GameGraph(owners, [(f"p{i}", f"p{i + 1}") for i in range(n)])
    (s,) = enumerate_strategies(g, 0, "p0")
    assert s.outcome_counts(g) == {f"p{n}": 1} and len(s.paths) == n + 1
    with pytest.raises(BudgetExceeded, match="exceeded 1000 nodes"):
        enumerate_strategies(g, 0, "p0", max_nodes=1000)


def test_truncated_strategy_values():
    si = get_semiring("sorpinf")
    g = reach_game()
    basic = token_valuation(g, si)
    strategies = enumerate_strategies(g, 0, "v", depth=6)
    mus = {si.format_value(strategy_value(s, g, basic, "mu")) for s in strategies}
    assert "s" in mus and "0" in mus
    infinite = [s for s in strategies if s.admits_infinite]
    assert infinite and all(
        strategy_value(s, g, basic, "mu") == si.zero for s in infinite
    )


def test_infinite_strategy_nu_value():
    si = get_semiring("sorpinf")
    g = reach_game()
    basic = token_valuation(g, si)
    always_w = Strategy(owner=0, root="v", position_counts={"t": INF},
                        move_counts={}, admits_infinite=True)
    assert strategy_value(always_w, g, basic, "mu") == si.zero
    assert strategy_value(always_w, g, basic, "nu") == si.parse_value("t^inf")


def test_absorption_dominance_matches_nu_mu_order():
    si = get_semiring("sorpinf")
    g = reach_game()
    basic = token_valuation(g, si)
    strategies = enumerate_strategies(g, 0, "v", depth=5)
    for s1 in strategies:
        for s2 in strategies:
            dominates = absorption_dominates(s1, s2, g)
            nu1 = strategy_value(s1, g, basic, "nu")
            nu2 = strategy_value(s2, g, basic, "nu")
            mu1 = strategy_value(s1, g, basic, "mu")
            mu2 = strategy_value(s2, g, basic, "mu")
            if dominates:
                assert si.leq(nu2, nu1)
                assert si.leq(mu2, mu1)


def test_dominant_flags_match_the_pairwise_definition():
    # Maximal under strict absorption, by absorption_dominates on each pair.
    rng = make_rng(salt=71)
    flagged = 0
    for _ in range(100):
        game = random_cyclic_game(rng, max_positions=6, max_out=3)
        root = rng.choice([v for v in game.owners if not game.is_terminal(v)])
        strategies = enumerate_strategies(game, rng.randint(0, 1), root, depth=5)
        expected = [not any(absorption_dominates(other, s, game)
                            and not absorption_dominates(s, other, game)
                            for other in strategies if other is not s)
                    for s in strategies]
        assert absorption_dominant_flags(strategies, game) == expected
        flagged += not all(expected)
    assert flagged > 10


def _reference_truncated_strategies(game, basic, player, root, n, max_nodes=100_000):
    """Reference for enumerate_strategies with depth n: the strategies of
    the whole n-truncation from (root,), with the counts of its path
    positions projected back to the original positions."""
    tgame, _, cutoffs = truncate(game, basic, n)
    strategies = []
    for s in enumerate_strategies(tgame, player, (root,), max_nodes):
        position_counts = {}
        move_counts = {}
        cut = 0
        for path_pos, c in s.position_counts.items():
            if path_pos in cutoffs:
                cut += c
                continue
            v = path_pos[-1]
            position_counts[v] = position_counts.get(v, 0) + c
        for (p1, p2), c in s.move_counts.items():
            e = (p1[-1], p2[-1])
            move_counts[e] = move_counts.get(e, 0) + c
        strategies.append(Strategy(owner=player, root=root, position_counts=position_counts,
                                   move_counts=move_counts, admits_infinite=cut > 0))
    return strategies


def test_depth_bound_matches_truncate_then_project():
    rng = make_rng(salt=17)
    compared = several = cut = exceeded = rejected = 0
    for _ in range(300):
        g = random_cyclic_game(rng, max_positions=7, max_out=3) if rng.random() < 0.7 \
            else random_acyclic_game(rng, max_positions=9)
        basic = random_basic_valuation(rng, g, NATPOLY)
        player = rng.randint(0, 1)
        root = rng.choice([v for v in sorted(g.owners)
                           if rng.random() < 0.1 or not g.is_terminal(v)])
        depth = rng.choice((-1, 0, 1, 2, 3, 4, 5))
        max_nodes = rng.choice((4, 12, 5000))
        try:
            expected = _reference_truncated_strategies(g, basic, player, root, depth, max_nodes)
        except ProvError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                enumerate_strategies(g, player, root, max_nodes, depth=depth)
            exceeded += isinstance(exc, BudgetExceeded)
            rejected += depth < 1
            continue
        strategies = enumerate_strategies(g, player, root, max_nodes, depth=depth)

        def view(s):
            return (s.owner, s.root, s.position_counts, s.move_counts, s.admits_infinite,
                    strategy_value(s, g, basic, "mu"))

        assert list(map(view, strategies)) == list(map(view, expected))
        compared += 1
        several += len(strategies) > 1
        cut += any(s.admits_infinite for s in strategies)
    assert compared > 150 and several > 40 and cut > 80 and exceeded > 10 and rejected > 50


def test_play_values_of_depth_cut_strategies():
    # From v, Player 0 moves to s or to w; Player 1 at w plays both v and t.
    # With depth 4, the play v w v w is cut.
    g = reach_game()
    a, s, t = (NATPOLY.token(x) for x in "ast")
    basic = BasicValuation(NATPOLY, 0, {"s": s, "t": t}, {("w", "t"): a})
    strategies = enumerate_strategies(g, 0, "v", depth=4)
    assert [x.admits_infinite for x in strategies] == [False, False, True]
    assert [play_values(x, g, basic) for x in strategies] == [
        [s], [NATPOLY.mul(a, t), s], [NATPOLY.mul(a, t)]]


def test_truncation_boundary_values():
    si = get_semiring("sorpinf")
    g = reach_game()
    basic = token_valuation(g, si)
    tg, tb, cutoffs = truncate(g, basic, 3, boundary="one")
    assert cutoffs and all(tb.terminal_value(c) == si.one for c in cutoffs)
    tg0, tb0, cutoffs0 = truncate(g, basic, 3, boundary="zero")
    assert all(tb0.terminal_value(c) == si.zero for c in cutoffs0)
    assert tg.is_acyclic() and tg0.is_acyclic()


def test_separation_propagates_on_random_games():
    rng = make_rng(salt=3)
    nat = get_semiring("nat")
    for _ in range(80):
        g = random_acyclic_game(rng, max_positions=8)
        # Separating terminal pair: f1(t) = 0 wherever f0(t) != 0.
        f0, f1 = {}, {}
        for t in g.terminals:
            if rng.random() < 0.5:
                f0[t], f1[t] = rng.randint(1, 3), 0
            else:
                f0[t], f1[t] = 0, rng.randint(1, 3)
        b0 = BasicValuation(nat, 0, f0)
        b1 = BasicValuation(nat, 1, f1)
        assert check_separating(g, b0, b1, "separating")["all"]
        assert check_separating(g, b0, b1, "weak")["all"]


def test_strong_separation_fails_without_positivity():
    dn = get_semiring("dualnat")
    g = GameGraph({"v": 0, "t1": TERMINAL, "t2": TERMINAL},
                  [("v", "t1"), ("v", "t2")])
    b0 = BasicValuation(dn, 0, {"t1": dn.zero, "t2": dn.zero})
    b1 = BasicValuation(dn, 1, {"t1": dn.token("p"), "t2": dn.token("~p")})
    report = check_separating(g, b0, b1, "strong")
    assert report["verdicts"]["t1"] and report["verdicts"]["t2"]
    # At v: f1(v) = p * ~p = 0 and f0(v) = 0, so f0 + f1 = 0.
    assert not report["verdicts"]["v"]


def test_strong_separation_propagates_on_positive_handle():
    rng = make_rng(salt=4)
    nat = get_semiring("nat")
    for _ in range(60):
        g = random_acyclic_game(rng, max_positions=8)
        f0, f1 = {}, {}
        for t in g.terminals:
            if rng.random() < 0.5:
                f0[t], f1[t] = rng.randint(1, 3), 0
            else:
                f0[t], f1[t] = 0, rng.randint(1, 3)
        b0 = BasicValuation(nat, 0, f0)
        b1 = BasicValuation(nat, 1, f1)
        assert check_separating(g, b0, b1, "strong")["all"]


def test_counting_bisimulation_preserves_valuations():
    # Two copies of the same game with renamed positions.
    g1 = absdom_game()
    rename = {v: v.upper() for v in g1.owners}
    g2 = GameGraph({rename[v]: o for v, o in g1.owners.items()},
                   [(rename[u], rename[v]) for u, v in g1.moves])
    b1 = token_valuation(g1, NATPOLY)
    b2 = BasicValuation(NATPOLY, 0,
                        {rename[t]: NATPOLY.token(t) for t in g1.terminals})
    relation = [(v, rename[v]) for v in g1.owners]
    report = verify_counting_bisim(g1, g2, relation, basics={0: (b1, b2)})
    assert report["valid"]
    v1 = acyclic_valuation(g1, b1)
    v2 = acyclic_valuation(g2, b2)
    for v, w in relation:
        assert v1[v] == v2[w]


def test_counting_bisim_detects_owner_and_count_mismatch():
    g1 = GameGraph({"v": 0, "t": TERMINAL}, [("v", "t")])
    g2 = GameGraph({"v": 1, "t": TERMINAL}, [("v", "t")])
    report = verify_counting_bisim(g1, g2, [("v", "v"), ("t", "t")])
    assert not report["valid"]
    g3 = GameGraph({"v": 0, "t": TERMINAL, "u": TERMINAL},
                   [("v", "t"), ("v", "u")])
    report = verify_counting_bisim(g1, g3, [("v", "v"), ("t", "t"), ("t", "u")])
    assert not report["valid"]


def test_winning_regions_against_solver():
    bool_sr = get_semiring("bool")
    g = reach_game()
    basic_reach = BasicValuation(bool_sr, 0, {"s": 1, "t": 0})
    result = solve_game(g, basic_reach, "mu")
    region = winning_region(g, Objective("reachability", frozenset({"s"})), 0)
    for v in g.positions:
        assert (result[v] != 0) == (v in region)
    basic_safe = BasicValuation(bool_sr, 0, {"s": 1, "t": 0})
    result = solve_game(g, basic_safe, "nu")
    region = winning_region(g, Objective("safety", frozenset({"t"})), 0)
    for v in g.positions:
        assert (result[v] != 0) == (v in region)


def test_strategy_value_rejects_infinite_in_acyclic_mode():
    si = get_semiring("sorpinf")
    g = reach_game()
    basic = token_valuation(g, si)
    s = Strategy(owner=0, root="v", position_counts={"t": INF},
                 move_counts={}, admits_infinite=True)
    with pytest.raises(ProvError):
        strategy_value(s, g, basic, "acyclic")
