"""CLI behavior: output shape, determinism, round-trips, exit codes."""

import random
import re
import time

import pytest

from provgames import cli, gamefile, solver
from provgames.cli import main
from provgames.gamefile import parse_game_file
from provgames.games import acyclic_valuation
from provgames.logic import MAX_FORMULA_DEPTH
from provgames.poly import parse_poly, specialize
from provgames.semirings import get_semiring

FIXTURES = "fixtures"
REACH = f"{FIXTURES}/reach.game"
SAFETY = f"{FIXTURES}/safety.game"
ABSDOM = f"{FIXTURES}/absdom.game"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_game_mu_reach(capsys):
    code, out, _ = run(capsys, "eval-game", REACH, "--fixpoint", "mu",
                       "--semiring", "sorpinf")
    assert code == 0
    assert "v: s" in out.splitlines()
    assert "w: s*t" in out.splitlines()


def test_eval_game_nu_reach(capsys):
    code, out, _ = run(capsys, "eval-game", REACH, "--fixpoint", "nu",
                       "--semiring", "sorpinf")
    assert code == 0
    lines = out.splitlines()
    assert "v: s + t^inf" in lines
    assert "w: s*t + t^inf" in lines


def test_eval_game_acyclic_default(capsys, tmp_path):
    path = tmp_path / "line.game"
    path.write_text(
        "position v player0\nposition s terminal\nposition t terminal\n"
        "move v s\nmove v t\n"
    )
    code, out, _ = run(capsys, "eval-game", str(path), "--semiring", "natpoly")
    assert code == 0
    assert "v: s + t" in out.splitlines()


def test_eval_game_specialized(capsys):
    code, out, _ = run(capsys, "eval-game", SAFETY, "--fixpoint", "nu",
                       "--semiring", "sorpinf", "--into", "natinf",
                       "--assign", "s=2", "--assign", "t=0")
    assert code == 0
    lines = out.splitlines()
    assert "v: inf" in lines and "w: inf" in lines and "z: 0" in lines


def test_output_is_deterministic(capsys):
    argv = ("eval-game", SAFETY, "--fixpoint", "nu", "--semiring", "sorpinf",
            "--format", "structured")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert first.startswith("schema: 1\n")
    assert "command: eval-game" in first


def test_emitted_polynomials_reparse(capsys):
    handle = get_semiring("sorpinf")
    _, out, _ = run(capsys, "eval-game", SAFETY, "--fixpoint", "nu",
                    "--semiring", "sorpinf")
    for line in out.splitlines():
        pos, _, text = line.partition(": ")
        value = parse_poly(handle.kind, text)
        assert handle.format_value(value) == text


def test_solve_system_reports(capsys):
    code, out, _ = run(capsys, "solve-system", REACH, "--fixpoint", "nu",
                       "--semiring", "sorpinf", "--format", "structured")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "schema: 1"
    assert "fixpoint: nu" in lines
    assert any(l.startswith("iterations: ") for l in lines)
    assert "saturated: true" in lines
    assert "verified: true" in lines


def test_eval_formula_inline_compositional(capsys, tmp_path):
    interp = tmp_path / "pi.interp"
    interp.write_text("universe a b\nR(a) = p\nR(b) = q\n")
    code, out, _ = run(capsys, "eval-formula", "exists x. R(x)", str(interp),
                       "--inline", "--mode", "compositional",
                       "--semiring", "natpoly")
    assert code == 0
    assert out.splitlines() == ["value: p + q"]


def test_eval_formula_modes_agree(capsys, tmp_path):
    interp = tmp_path / "pi.interp"
    interp.write_text("universe a b\nE(a,b) = 1\nE(b,a) = 1\n")
    tc = "[lfp R(x,y). E(x,y) | exists z.(E(x,z) & R(z,y))](a,a)"
    results = {}
    for mode in ("game", "direct"):
        code, out, _ = run(capsys, "eval-formula", tc, str(interp),
                           "--inline", "--mode", mode, "--semiring", "natinf")
        assert code == 0
        results[mode] = out
    assert results["game"] == results["direct"] == "value: inf\n"


def test_eval_formula_player_one(capsys, tmp_path):
    interp = tmp_path / "pi.interp"
    interp.write_text("universe a b\nR(a) = 1\nR(b) = 0\n!R(a) = 0\n!R(b) = 1\n")
    code, out, _ = run(capsys, "eval-formula", "forall x. R(x)", str(interp),
                       "--inline", "--player", "1", "--semiring", "bool")
    assert code == 0
    assert out == "value: true\n"


def test_check_laws(capsys):
    code, out, _ = run(capsys, "check", "laws", "--semiring", "sorp")
    assert code == 0
    assert out.splitlines()[-1] == "result: pass"


def test_check_game(capsys):
    code, out, _ = run(capsys, "check", "game", REACH)
    assert code == 0
    lines = out.splitlines()
    assert "acyclic: false" in lines
    assert "unreachable: -" in lines


def test_check_separation_modes(capsys):
    code, out, _ = run(capsys, "check", "separation", ABSDOM,
                       "--semiring", "sorpinf", "--mode", "weak")
    assert code == 0
    assert out.splitlines()[-1].startswith("all: ")


def test_census_absdom(capsys):
    code, out, _ = run(capsys, "census", ABSDOM, "--from", "u", "--player", "0",
                       "--semiring", "natpoly")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "strategies: 4"
    assert sorted(lines[1:]) == [
        "strategy: s*t [dominant]",
        "strategy: s*t [dominant]",
        "strategy: s^2 [dominant]",
        "strategy: t^2 [dominant]",
    ]


def test_census_specializes_with_assign_and_into(capsys):
    # s*t, s*t, s^2 and t^2 under s=2, t=3 in natinf; with t unassigned the
    # values cannot be specialized, which census reports like eval-game.
    census = ("census", ABSDOM, "--from", "u", "--player", "0")
    code, out, err = run(capsys, *census, "--assign", "s=2", "--into", "natinf")
    assert (code, out) == (3, "")
    assert err == "error: token 't' has no assigned value\n"
    code, out, _ = run(capsys, *census, "--assign", "s=2", "--assign", "t=3",
                       "--into", "natinf")
    assert code == 0
    assert out.splitlines() == [
        "strategies: 4",
        "strategy: 4 [dominant]",
        "strategy: 6 [dominant]",
        "strategy: 6 [dominant]",
        "strategy: 9 [dominant]",
    ]


def test_census_truncated(capsys):
    code, out, _ = run(capsys, "census", REACH, "--from", "v", "--player", "0",
                       "--depth", "3", "--semiring", "sorpinf")
    assert code == 0
    assert out.splitlines()[0].startswith("strategies: ")


# --- exit codes -----------------------------------------------------------


def test_exit_usage_on_bad_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval-game", REACH, "--fixpoint", "sideways"])
    assert exc.value.code == 1


@pytest.mark.parametrize("selector, flag", [
    # --max-iter bounded only the retired numeric solver.
    ("dualnat", "--max-iter"),
    # --trunc-degree repeated the D of a series:D or seriesdual:D selector.
    ("series:4", "--trunc-degree"),
])
def test_exit_usage_on_retired_flag(capsys, selector, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve-system", REACH, "--semiring", selector, flag, "7"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err


def test_exit_usage_on_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def _usage_error(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr().err


def test_consecutive_calls_share_no_state(capsys):
    plain = ("eval-game", SAFETY, "--fixpoint", "nu", "--semiring", "sorpinf")
    expected = run(capsys, *plain)
    code, out, _ = run(capsys, *plain, "--format", "structured", "--into", "natinf",
                       "--assign", "s=2", "--assign", "t=0")
    assert code == 0 and "v: inf" in out.splitlines()
    assert run(capsys, *plain) == expected
    args = cli._parser().parse_args(list(plain))
    assert (args.assign, args.into, args.format) == ([], None, "text")
    assert cli._parser() is cli._parser()


def test_usage_error_after_a_successful_call(capsys):
    bad = ["eval-game", REACH, "--fixpoint", "sideways"]
    fresh = _usage_error(capsys, cli.build_parser().parse_args, bad)
    code, _, _ = run(capsys, "eval-game", REACH, "--fixpoint", "mu", "--semiring", "sorpinf")
    assert code == 0
    assert _usage_error(capsys, main, bad) == fresh
    assert fresh[0] == 1 and "invalid choice: 'sideways'" in fresh[1]


def test_exit_parse_on_bad_game_file(capsys, tmp_path):
    bad = tmp_path / "bad.game"
    bad.write_text("position v player7\n")
    code, _, err = run(capsys, "eval-game", str(bad))
    assert code == 2
    assert "error:" in err


def test_exit_parse_on_missing_file(capsys):
    code, _, err = run(capsys, "eval-game", "fixtures/absent.game")
    assert code == 2


def test_exit_parse_on_bad_formula(capsys, tmp_path):
    interp = tmp_path / "pi.interp"
    interp.write_text("universe a\nR(a) = 1\n")
    code, _, err = run(capsys, "eval-formula", "R(a) | |", str(interp),
                       "--inline", "--semiring", "bool")
    assert code == 2


def _nested_formulas(depth):
    """Formulas nested exactly `depth` levels deep, one per kind of level."""
    return {
        "parentheses": "(" * depth + "E(a,a)" + ")" * depth,
        "negations": "!" * depth + "E(a,a)",
        "quantifiers": "".join(f"exists x{i}. " for i in range(depth)) + "E(a,a)",
        "conjunctions": " & ".join(["E(a,a)"] * (depth + 1)),
    }


@pytest.mark.parametrize("shape,value", [
    ("parentheses", "p"), ("negations", "p"), ("quantifiers", "p"),
    ("conjunctions", f"p^{MAX_FORMULA_DEPTH + 1}"),
])
def test_formula_depth_limit(capsys, tmp_path, shape, value):
    interp = tmp_path / "pi.interp"
    interp.write_text("universe a\nE(a,a) = p\n!E(a,a) = ~p\n")
    at_limit = _nested_formulas(MAX_FORMULA_DEPTH)[shape]
    for mode in ("game", "compositional", "direct"):
        code, out, _ = run(capsys, "eval-formula", at_limit, str(interp), "--inline",
                           "--semiring", "sorpinfdual", "--mode", mode)
        assert (code, out) == (0, f"value: {value}\n")
    for depth in (MAX_FORMULA_DEPTH + 1, 1200):
        code, out, err = run(capsys, "eval-formula", _nested_formulas(depth)[shape],
                             str(interp), "--inline", "--semiring", "sorpinfdual")
        assert (code, out) == (2, "")
        assert err.startswith("error: formula nested more than") and err.count("\n") == 1


def test_eval_game_on_long_chain(capsys, tmp_path):
    n = 1200
    lines = [f"position v{i} player{i % 2}" for i in range(n)] + ["position t terminal"]
    lines += [f"move v{i} v{i + 1}" for i in range(n - 1)] + [f"move v{n - 1} t"]
    path = tmp_path / "chain.game"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "eval-game", str(path), "--semiring", "sorpinf")
    assert code == 0
    assert sorted(out.splitlines()) == sorted(f"v{i}: t" for i in range(n))


def test_census_on_long_chain(capsys, tmp_path):
    n = 1500
    lines = [f"position p{i} player{i % 2}" for i in range(n)] + [f"position p{n} terminal"]
    lines += [f"move p{i} p{i + 1}" for i in range(n)]
    path = tmp_path / "chain.game"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "census", str(path), "--from", "p0", "--player", "0")
    if code == 3:
        assert out == "" and err.count("\n") == 1 and "max_nodes" in err
    else:
        assert (code, err) == (0, "")
        assert out == f"strategies: 1\nstrategy: p{n} [dominant]\n"


def test_census_depth_cuts_plays_from_the_root(capsys, tmp_path):
    # The plays from v outgrow the node budget long before depth 40, and
    # census reaches it in well under a second.
    path = tmp_path / "loop.game"
    path.write_text("position v player0\nposition w player1\nposition t terminal\n"
                    "move v v\nmove v w\nmove w v\nmove w t\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "census", str(path), "--from", "v", "--depth", "40")
    assert (code, out, err) == (3, "", "error: strategy enumeration exceeded 100000 nodes\n")
    assert time.perf_counter() - start < 10


F17_GAME = ("position v player0\nposition u player0\nposition w player1\n"
            "position t terminal\nmove v t\nmove v w\nmove u t\nmove u w\n"
            "move w v\nmove w u\n")


@pytest.mark.parametrize("depth, count", ((10, 458330), (12, 210066388901)))
def test_census_counts_before_it_builds(capsys, tmp_path, depth, count):
    # Few nodes but doubly exponentially many strategies: w takes the
    # product of v's and u's counts.  census names the count and exits.
    path = tmp_path / "f17.game"
    path.write_text(F17_GAME)
    start = time.perf_counter()
    code, out, err = run(capsys, "census", str(path), "--from", "v", "--depth", str(depth))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == (f"error: census would list {count} strategies, "
                   f"more than {cli.CENSUS_LIMIT}\n")


def test_series_gfp_counts_the_top_slice_before_it_builds(capsys, tmp_path):
    # An all-player0 cycle of 64 positions, each with its own terminal: the
    # gfp needs the degree-4 monomials over 64 tokens, C(67, 4) of them.
    n = 64
    lines = [f"position v{i} player0" for i in range(n)]
    lines += [f"position t{i} terminal" for i in range(n)]
    lines += [f"move v{i} v{(i + 1) % n}" for i in range(n)]
    lines += [f"move v{i} t{i}" for i in range(n)]
    path = tmp_path / "cycle.game"
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "solve-system", str(path), "--semiring", "series:4",
                         "--fixpoint", "nu")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == ("error: the greatest fixed point in series(D=4) needs up to 766480 "
                   f"monomials of degree 4 over 64 tokens, more than {solver.MAX_TOP_SLICE}\n")


def test_census_lists_up_to_its_limit(capsys, tmp_path):
    path = tmp_path / "f17.game"
    path.write_text(F17_GAME)
    code, out, err = run(capsys, "census", str(path), "--from", "v", "--depth", "9")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "strategies: 677"
    assert len(out.splitlines()) == 678


def test_census_gives_the_order_of_a_huge_count(capsys, tmp_path):
    # Player 1 moves to one of 300 choices of two terminals each: 2^300
    # strategies on 901 nodes.
    lines = ["position r player1", "position a terminal", "position b terminal"]
    lines += [f"position c{i} player0" for i in range(300)]
    lines += [f"move r c{i}" for i in range(300)]
    lines += [f"move c{i} {x}" for i in range(300) for x in "ab"]
    path = tmp_path / "star.game"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "census", str(path), "--from", "r")
    assert (code, out) == (3, "")
    assert err == f"error: census would list at least 2^300 strategies, more than {cli.CENSUS_LIMIT}\n"


@pytest.mark.parametrize("argv", (
    ("eval-game", REACH, "--fixpoint", "mu", "--semiring", "sorpinf"),
    ("solve-system", REACH, "--semiring", "sorpinf"),
    ("check", "game", REACH),
    ("census", ABSDOM, "--from", "u"),
))
def test_each_command_builds_the_game_graph_once(capsys, monkeypatch, argv):
    built = []

    class CountingGraph(gamefile.GameGraph):
        def __init__(self, owners, moves):
            built.append(owners)
            super().__init__(owners, moves)

    monkeypatch.setattr(gamefile, "GameGraph", CountingGraph)
    code, _, _ = run(capsys, *argv)
    assert (code, len(built)) == (0, 1)


def test_exit_semantic_on_bad_census_root(capsys):
    code, _, err = run(capsys, "census", REACH, "--from", "nope")
    assert code == 3


def test_exit_semantic_on_gfp_without_support(capsys):
    code, _, err = run(capsys, "eval-game", REACH, "--fixpoint", "nu",
                       "--semiring", "nat")
    assert code == 3


def test_exit_no_convergence(capsys):
    code, _, err = run(capsys, "eval-game", REACH, "--fixpoint", "mu",
                       "--semiring", "nat")
    assert code == 4
    assert "error:" in err


def test_assign_requires_into(capsys):
    code, _, err = run(capsys, "eval-game", REACH, "--fixpoint", "mu",
                       "--semiring", "sorpinf", "--assign", "s=1")
    assert code == 3


def test_exit_internal_on_unexpected_exception(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setitem(cli._COMMANDS, "eval-game", broken)
    code, out, err = run(capsys, "eval-game", REACH)
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom second line\n"


def test_direct_mode_fails_fast_without_least_fixed_point(capsys, tmp_path):
    # The cycle b->d->b gives R(b,d) infinitely many derivations, so natpoly
    # has no least fixed point; the direct mode says so at once.
    interp = tmp_path / "pi.interp"
    interp.write_text("universe a b c d\nE(a,b) = p\nE(b,d) = q\nE(d,b) = r\nE(b,c) = s\n")
    tc = "[lfp R(x,y). E(x,y) | exists z.(E(x,z) & R(z,y))](a,d)"
    start = time.perf_counter()
    code, out, err = run(capsys, "eval-formula", tc, str(interp), "--inline",
                         "--semiring", "natpoly", "--mode", "direct")
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_NO_CONVERGENCE == 4
    assert out == ""
    assert err.count("\n") == 1
    assert re.match(r"error: no least fixed point: 'R\([a-d],[a-d]\)' ", err)


@pytest.mark.parametrize("selector, message", [
    ("dualnat", "no fixed point: the component of 28 variables containing position (0,) "
                "with x=a, y=d still changes after 29 steps in dualnat"),
    ("natpoly", "no least fixed point: position (0, 1, 0, 1) with y=d, z=b is nonzero and "
                "lies on a cycle of nonzero variables, so its value grows without bound in "
                "natpoly"),
])
def test_game_mode_names_a_position_by_its_subformula_and_binding(capsys, selector, message):
    # The game's positions are numbered internally; the message spells one
    # out as its occurrence path in the sentence and its variable binding.
    code, out, err = run(capsys, "eval-formula", f"{FIXTURES}/tc.formula",
                         f"{FIXTURES}/graph-tokens.interp", "--model-default",
                         "--semiring", selector, "--mode", "game")
    assert code == cli.EXIT_NO_CONVERGENCE
    assert out == ""
    assert err == f"error: {message}\n"


def _layered_game(rng, layers, width, products):
    """Game file text of an acyclic layered game: every position of a
    product layer (and some others) belongs to player 1 and has two moves,
    terminal values are tokens written plain or negated, and some moves
    carry a token."""
    grid = [[f"p{l}_{i}" for i in range(width)] for l in range(layers)]
    leaves = [f"t{i}" for i in range(width)]
    lines = [f"position {t} terminal" for t in leaves]
    for l, row in enumerate(grid):
        nxt = grid[l + 1] if l + 1 < layers else leaves
        for v in row:
            owner = 1 if (l in products or rng.random() < 0.3) else 0
            lines.append(f"position {v} player{owner}")
            for w in rng.sample(nxt, 2 if (owner == 0 or l in products) else 1):
                token = f"  h0=x{rng.randrange(2)}" if rng.random() < 0.15 else ""
                lines.append(f"move {v} {w}{token}")
    lines += [f"value0 {t} = {'~' if rng.random() < 0.5 else ''}s{rng.randrange(3)}"
              for t in leaves]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("selector", ("natpoly", "dualnat", "sorp"))
def test_eval_game_prints_each_value_as_format_value(capsys, tmp_path, selector):
    text = _layered_game(random.Random(5), layers=6, width=6, products={2, 4})
    path = tmp_path / "layered.game"
    path.write_text(text)
    handle = get_semiring(selector)
    gf = parse_game_file(text)
    game = gf.graph()
    values = acyclic_valuation(game, gf.basic_valuation(handle, 0))
    assert max(len(values[v].monos) for v in game.owners) >= 10
    target = get_semiring("natinf")
    tokens = ["s0", "s1", "s2", "x0", "x1"]
    assignment = {t: target.parse_value(str(i + 1)) for i, t in enumerate(tokens)}
    assignment.update({"~" + t: target.zero for t in tokens})
    assign = [a for t, v in assignment.items() for a in ("--assign", f"{t}={v}")]
    for fmt in ("text", "structured"):
        for extra, h, convert in (
                ((), handle, lambda v: v),
                (("--into", "natinf", *assign), target,
                 lambda v: specialize(v, target, assignment))):
            code, out, _ = run(capsys, "eval-game", str(path), "--semiring", selector,
                               "--format", fmt, *extra)
            assert code == 0
            printed = [line for line in out.splitlines()
                       if line.partition(": ")[0] in game.owners]
            shown = sorted(v for v in game.owners
                           if fmt == "structured" or not game.is_terminal(v))
            assert printed == [f"{v}: {h.format_value(convert(values[v]))}" for v in shown]
