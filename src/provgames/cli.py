"""Command-line front end.

Commands: eval-game, eval-formula, solve-system, check, census.
Exit codes: 0 success, 1 usage error, 2 input parse error, 3 semantic
error, 4 no convergence, 5 internal error (an unexpected exception).
Output is deterministic byte-for-byte for a fixed request; the structured
format is line-oriented `key: value` pairs under a schema version header.
"""

import argparse
import functools
import os
import sys

from .errors import (
    FormulaSyntaxError,
    GameFileError,
    NoConvergence,
    ProvError,
)
from .gamefile import parse_game_file, parse_interpretation_file
from .games import (
    absorption_dominant_flags,
    acyclic_valuation,
    check_separating,
    count_strategies,
    enumerate_strategies,
    strategy_value,
    validate_game,
)
from .logic import (
    fo_eval,
    game_eval,
    parse_formula,
    poslfp_eval_direct,
)
from .poly import Polynomial, specialize
from .semirings import SHIPPED_SELECTORS, get_semiring, sr_check_laws
from .solver import build_system, kleene_gfp, kleene_lfp

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INTERNAL = 5

# census lists at most this many strategies; above it, it exits 3 and says
# how many there are (counting them builds none, see `count_strategies`).
# Marking the dominant ones compares every pair: 1000 strategies take 0.7-1 s.
CENSUS_LIMIT = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(sub):
    sub.add_argument("--semiring", default="natpoly",
                     help="semiring selector, e.g. sorpinf, series:4, minmax:a<b<c")
    sub.add_argument("--format", choices=("text", "structured"), default="text")
    sub.add_argument("--assign", action="append", default=[], metavar="TOK=VALUE",
                     help="specialize polynomial results after solving")
    sub.add_argument("--into", default=None, metavar="SEMIRING",
                     help="target semiring for --assign specialization")


def build_parser():
    parser = _Parser(prog="provgames")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-game", help="valuate a game file")
    p.add_argument("game")
    p.add_argument("--fixpoint", choices=("mu", "nu"), default=None,
                   help="fixed-point mode; default is backward induction (acyclic)")
    p.add_argument("--player", type=int, choices=(0, 1), default=0)
    _add_common(p)

    p = sub.add_parser("eval-formula", help="evaluate a formula under an interpretation")
    p.add_argument("formula", help="formula file, or literal text with --inline")
    p.add_argument("interpretation")
    p.add_argument("--inline", action="store_true")
    p.add_argument("--mode", choices=("game", "compositional", "direct"), default="game")
    p.add_argument("--player", type=int, choices=(0, 1), default=0)
    p.add_argument("--model-default", action="store_true")
    _add_common(p)

    p = sub.add_parser("solve-system", help="solve a game's equation system")
    p.add_argument("game")
    p.add_argument("--fixpoint", choices=("mu", "nu"), default="mu")
    p.add_argument("--player", type=int, choices=(0, 1), default=0)
    _add_common(p)

    p = sub.add_parser("check", help="run a report")
    p.add_argument("what", choices=("laws", "game", "separation"))
    p.add_argument("game", nargs="?")
    p.add_argument("--mode", choices=("separating", "weak", "strong"),
                   default="separating")
    _add_common(p)

    p = sub.add_parser("census", help="enumerate strategies with values and dominance")
    p.add_argument("game")
    p.add_argument("--from", dest="root", required=True)
    p.add_argument("--player", type=int, choices=(0, 1), default=0)
    p.add_argument("--depth", type=int, default=None,
                   help="keep plays of fewer moves (default on cyclic games: "
                        "the number of positions)")
    _add_common(p)

    return parser


def _emit(lines, fmt):
    if fmt == "structured":
        print(f"schema: {SCHEMA_VERSION}")
    for line in lines:
        print(line)


def _named(names, texts):
    """The `name: text` lines, each put in place of its text, so that a
    large output is not held twice."""
    for i, name in enumerate(names):
        texts[i] = f"{name}: {texts[i]}"
    return texts


def _format(values, handle, args):
    """The printed text of each value: its `--assign` specialization into
    the `--into` semiring when asked for, formatted as one batch."""
    if not args.assign or not values:
        return handle.format_values(values)
    if args.into is None:
        raise ProvError("--assign requires --into <semiring>")
    if not all(isinstance(value, Polynomial) for value in values):
        raise ProvError("--assign needs a polynomial semiring result")
    target = get_semiring(args.into)
    assignment = {}
    for entry in args.assign:
        tok, _, raw = entry.partition("=")
        if not raw:
            raise ProvError(f"bad --assign entry {entry!r}")
        assignment[tok] = target.parse_value(raw)
    return target.format_values([specialize(value, target, assignment) for value in values])


def _sort_key(name):
    return str(name)


def cmd_eval_game(args):
    handle = get_semiring(args.semiring)
    gf = parse_game_file(_read_path(args.game))
    game = gf.graph()
    basic = gf.basic_valuation(handle, args.player)
    if args.fixpoint is None and game.is_acyclic():
        values = acyclic_valuation(game, basic)
        meta = []
    else:
        system = build_system(game, basic)
        solve = kleene_lfp if (args.fixpoint or "mu") == "mu" else kleene_gfp
        result = solve(system)
        values = result.values
        meta = [f"iterations: {result.iterations}",
                f"saturated: {str(result.saturated).lower()}"]
    shown = [v for v in sorted(game.owners, key=_sort_key)
             if not (game.is_terminal(v) and args.format == "text")]
    lines = _named(shown, _format([values[v] for v in shown], handle, args))
    if args.format == "structured":
        lines = [f"command: eval-game", f"semiring: {handle.name}"] + meta + lines
    _emit(lines, args.format)
    return EXIT_OK


def _read_path(path):
    if not os.path.exists(path):
        raise GameFileError(f"no such file: {path}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cmd_eval_formula(args):
    handle = get_semiring(args.semiring)
    text = args.formula if args.inline else _read_path(args.formula).strip()
    formula = parse_formula(text)
    interp_file = parse_interpretation_file(_read_path(args.interpretation))
    pi = interp_file.interpretation(handle, model_default=args.model_default)
    if args.mode == "compositional":
        value = fo_eval(pi, formula)
    elif args.mode == "direct":
        value = poslfp_eval_direct(pi, formula)
    else:
        value = game_eval(pi, formula, args.player)
    (text,) = _format([value], handle, args)
    lines = [f"value: {text}"]
    if args.format == "structured":
        lines = ["command: eval-formula", f"semiring: {handle.name}",
                 f"mode: {args.mode}"] + lines
    _emit(lines, args.format)
    return EXIT_OK


def cmd_solve_system(args):
    handle = get_semiring(args.semiring)
    gf = parse_game_file(_read_path(args.game))
    game = gf.graph()
    basic = gf.basic_valuation(handle, args.player)
    system = build_system(game, basic)
    solve = kleene_lfp if args.fixpoint == "mu" else kleene_gfp
    result = solve(system)
    lines = [
        f"fixpoint: {args.fixpoint}",
        f"iterations: {result.iterations}",
        f"saturated: {str(result.saturated).lower()}",
        f"verified: {str(result.verified).lower()}",
    ]
    positions = sorted(game.owners, key=_sort_key)
    lines += _named(positions, _format([result.values[v] for v in positions], handle, args))
    if args.format == "structured":
        lines = ["command: solve-system", f"semiring: {handle.name}"] + lines
    _emit(lines, args.format)
    return EXIT_OK


def cmd_check(args):
    handle = get_semiring(args.semiring)
    lines = []
    if args.what == "laws":
        failures = []
        for flag in sorted(vars(handle.flags)):
            if not getattr(handle.flags, flag):
                continue
            bad = sr_check_laws(handle, handle.sample_values(), flag)
            status = "ok" if not bad else f"FAIL ({len(bad)} witnesses)"
            lines.append(f"{flag}: {status}")
            failures.extend(bad)
        lines.append(f"result: {'pass' if not failures else 'fail'}")
        _emit(lines, args.format)
        return EXIT_OK if not failures else EXIT_SEMANTIC
    if args.game is None:
        raise ProvError(f"check {args.what} needs a game file")
    gf = parse_game_file(_read_path(args.game))
    game = gf.graph()
    if args.what == "game":
        report = validate_game(game)
        for key in ("positions", "moves", "acyclic"):
            lines.append(f"{key}: {str(report[key]).lower()}")
        lines.append(f"unreachable: {', '.join(report['unreachable']) or '-'}")
        _emit(lines, args.format)
        return EXIT_OK
    # separation
    b0 = gf.basic_valuation(handle, 0)
    b1 = gf.basic_valuation(handle, 1)
    report = check_separating(game, b0, b1, mode=args.mode)
    for v in sorted(report["verdicts"], key=_sort_key):
        lines.append(f"{v}: {str(report['verdicts'][v]).lower()}")
    lines.append(f"all: {str(report['all']).lower()}")
    _emit(lines, args.format)
    return EXIT_OK


def cmd_census(args):
    handle = get_semiring(args.semiring)
    gf = parse_game_file(_read_path(args.game))
    game = gf.graph()
    basic = gf.basic_valuation(handle, args.player)
    if args.root not in game.owners:
        raise ProvError(f"unknown position {args.root!r}")
    depth = args.depth or len(game.owners)
    if args.depth is None and game.is_acyclic():
        depth = None
    count = count_strategies(game, args.player, args.root, depth=depth)
    if count > CENSUS_LIMIT:
        # A count past 2^256 is shown by its order of magnitude.
        shown = count if count.bit_length() <= 256 else f"at least 2^{count.bit_length() - 1}"
        raise ProvError(f"census would list {shown} strategies, more than {CENSUS_LIMIT}")
    strategies = enumerate_strategies(game, args.player, args.root, depth=depth)
    texts = _format([strategy_value(s, game, basic, "mu") for s in strategies], handle, args)
    entries = sorted(zip(texts, strategies), key=lambda e: e[0])
    flags = absorption_dominant_flags([s for _, s in entries], game)
    lines = [f"strategies: {len(entries)}"]
    for (text, s), dominant in zip(entries, flags):
        tag = "dominant" if dominant else "absorbed"
        extra = " (admits infinite play)" if s.admits_infinite else ""
        lines.append(f"strategy: {text} [{tag}]{extra}")
    if args.format == "structured":
        lines = ["command: census", f"semiring: {handle.name}",
                 f"player: {args.player}"] + lines
    _emit(lines, args.format)
    return EXIT_OK


_COMMANDS = {
    "eval-game": cmd_eval_game,
    "eval-formula": cmd_eval_formula,
    "solve-system": cmd_solve_system,
    "check": cmd_check,
    "census": cmd_census,
}


@functools.cache
def _parser():
    """The parser, built once per process: parsing leaves no state in it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GameFileError, FormulaSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ProvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
