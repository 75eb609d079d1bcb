"""Golden CLI snapshot: replay a fixed command set in-process and compare
exit code, stdout and stderr byte for byte with `tests/golden/cli.txt`.

The commands are `eval-game` (default mode, `--fixpoint mu`, `--fixpoint nu`)
and `solve-system --format structured` (mu and nu) on every game fixture
but `pump.game`, over each semiring in SEMIRINGS and MORE_SEMIRINGS, and
`eval-formula --model-default` in each of its three modes on every
`fixtures/*.formula` (transitive closure, a nested lfp whose inner body uses
the outer relation, a first-order sentence with negation), over each
semiring in FORMULA_SEMIRINGS: the numeric ones read `fixtures/graph.interp`,
the polynomial ones `fixtures/graph-tokens.interp`, the same graph with one
token per literal.  natpoly and dualnat are left out of the formula
commands: the graph's cycle has no least fixed point there, so they would
record only the exit-4 message.  `pump.game`, a cycle whose product is 1, is
solved (mu and nu) in the truncated series of PUMP_SEMIRINGS, where its
least fixed point puts inf on the monomials fed into the cycle (the degree
levels of the solver), and `check laws` runs on every shipped semiring
selector.
The entries of MORE_SEMIRINGS, `pump.game` and `check laws` come last, in
the order they were appended to the snapshot.  To record the current
behaviour as the new snapshot (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from provgames.cli import main
from provgames.semirings import SHIPPED_SELECTORS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.txt"
SEMIRINGS = ["bool", "natinf", "tropical", "sorp", "sorpinf", "sorpinfdual",
             "series:4", "posbool", "natpoly", "dualnat"]
MORE_SEMIRINGS = ["seriesdual:4", "boolpoly", "whypoly"]
FORMULA_SEMIRINGS = {"bool": "graph.interp", "natinf": "graph.interp",
                     "tropical": "graph.interp", "sorp": "graph-tokens.interp",
                     "sorpinf": "graph-tokens.interp", "posbool": "graph-tokens.interp"}
PUMP = "fixtures/pump.game"
PUMP_SEMIRINGS = ["series:4", "seriesdual:4"]


def _solve_system(path, sr):
    return [("solve-system", path, "--semiring", sr, "--fixpoint", fp, "--format", "structured")
            for fp in ("mu", "nu")]


def _game_commands(paths, semirings):
    out = []
    for path in paths:
        for sr in semirings:
            out.append(("eval-game", path, "--semiring", sr))
            for fp in ("mu", "nu"):
                out.append(("eval-game", path, "--semiring", sr, "--fixpoint", fp))
            out += _solve_system(path, sr)
    return out


def commands():
    games = [f"fixtures/{game.name}" for game in sorted((ROOT / "fixtures").glob("*.game"))]
    games.remove(PUMP)
    out = _game_commands(games, SEMIRINGS)
    for formula in sorted((ROOT / "fixtures").glob("*.formula")):
        for sr, interp in FORMULA_SEMIRINGS.items():
            for mode in ("game", "compositional", "direct"):
                out.append(("eval-formula", f"fixtures/{formula.name}", f"fixtures/{interp}",
                            "--semiring", sr, "--mode", mode, "--model-default"))
    out += _game_commands(games, MORE_SEMIRINGS)
    for sr in PUMP_SEMIRINGS:
        out += _solve_system(PUMP, sr)
    out += [("check", "laws", "--semiring", sr) for sr in SHIPPED_SELECTORS]
    return out


def _stream(tag, text):
    lines = [f"{tag}| {line}" for line in text.splitlines(keepends=True)]
    if lines and not lines[-1].endswith("\n"):
        lines[-1] += "\n\\ no newline at end\n"
    return "".join(lines)


def replay(argv):
    """The snapshot entry of one command, run in-process from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (f"$ provgames {' '.join(argv)}\nexit: {code}\n"
            + _stream("out", out.getvalue()) + _stream("err", err.getvalue()))


def _recorded():
    entries = {}
    for block in GOLDEN.read_text(encoding="utf-8").split("\n$ "):
        block = block if block.startswith("$ ") else "$ " + block
        head = block.split("\n", 1)[0]
        entries[head] = block if block.endswith("\n") else block + "\n"
    return entries


@pytest.fixture(scope="module")
def recorded():
    return _recorded()


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_cli_output_matches_snapshot(argv, recorded, monkeypatch):
    monkeypatch.chdir(ROOT)
    entry = replay(argv)
    head = entry.split("\n", 1)[0]
    assert head in recorded, f"no snapshot entry for {head!r}"
    assert entry == recorded[head]


def test_snapshot_covers_exactly_the_commands(recorded):
    heads = [f"$ provgames {' '.join(argv)}" for argv in commands()]
    assert sorted(heads) == sorted(recorded)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(replay(argv) for argv in commands()), encoding="utf-8")
