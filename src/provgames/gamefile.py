"""Plain-text input formats: game files, interpretation files, formula files.

Game file, line oriented, '#' comments:

    position v player0
    position w player1
    position s terminal
    move v s
    move v w  h0=2  h1=1/2
    value0 s = s
    value1 s = 0

Terminal and move values are kept as raw strings and only parsed once a
semiring is chosen.  A terminal without an explicit value defaults to the
token named after it (polynomial semirings) or to 1.

Interpretation file:

    universe a b
    E(a,b) = p
    !E(a,b) = ~p
"""

import re

from .errors import GameFileError, ProvError
from .games import TERMINAL, BasicValuation, GameGraph
from .logic import KInterpretation
from .semirings import PolySemiring

_OWNERS = {"player0": 0, "player1": 1, "terminal": TERMINAL}


class GameFile:
    def __init__(self, game, values, move_values):
        self._graph = game  # its structure checked
        self.values = values  # (player, position) -> raw string
        self.move_values = move_values  # (player, (u, v)) -> raw string

    def graph(self):
        return self._graph

    def basic_valuation(self, handle, player):
        f = {}
        for v, owner in self._graph.owners.items():
            if owner != TERMINAL:
                continue
            raw = self.values.get((player, v))
            if raw is not None:
                f[v] = handle.parse_value(raw)
            elif isinstance(handle, PolySemiring):
                f[v] = handle.token(v)
            else:
                f[v] = handle.one
        h = {}
        for (p, edge), raw in self.move_values.items():
            if p == player:
                h[edge] = handle.parse_value(raw)
        return BasicValuation(handle, player, f, h)


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_game_file(text):
    owners = {}
    moves = []
    values = {}
    move_values = {}
    for lineno, line in _lines(text):
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "position":
                name, owner = parts[1], parts[2]
                if owner not in _OWNERS:
                    raise GameFileError(
                        f"line {lineno}: owner must be one of {sorted(_OWNERS)}"
                    )
                if name in owners:
                    raise GameFileError(f"line {lineno}: duplicate position {name!r}")
                owners[name] = _OWNERS[owner]
            elif kind == "move":
                u, v = parts[1], parts[2]
                moves.append((u, v))
                for extra in parts[3:]:
                    key, _, raw = extra.partition("=")
                    if key not in ("h0", "h1") or not raw:
                        raise GameFileError(f"line {lineno}: bad move annotation {extra!r}")
                    move_values[(int(key[1]), (u, v))] = raw
            elif kind in ("value0", "value1"):
                m = re.match(r"value([01])\s+(\S+)\s*=\s*(.+)$", line)
                if not m:
                    raise GameFileError(f"line {lineno}: expected 'value0 <pos> = <value>'")
                player, name, raw = int(m.group(1)), m.group(2), m.group(3).strip()
                if name not in owners or owners[name] != TERMINAL:
                    raise GameFileError(f"line {lineno}: {name!r} is not a terminal")
                values[(player, name)] = raw
            else:
                raise GameFileError(f"line {lineno}: unknown directive {kind!r}")
        except IndexError:
            raise GameFileError(f"line {lineno}: too few fields in {line!r}") from None
    if not owners:
        raise GameFileError("game file declares no positions")
    try:
        game = GameGraph(owners, moves)
        game.check_structure()
    except ProvError as exc:
        raise GameFileError(str(exc)) from None
    return GameFile(game, values, move_values)


class InterpretationFile:
    def __init__(self, universe, literals):
        self.universe = universe
        self.literals = literals  # (rel, args, positive) -> raw string

    def interpretation(self, handle, model_default=False):
        values = {
            key: handle.parse_value(raw) for key, raw in self.literals.items()
        }
        return KInterpretation(handle, self.universe, {}, values,
                               model_default=model_default)


_LIT_RE = re.compile(r"^(!?)(\w+)\(([\w\s,]*)\)\s*=\s*(.+)$")


def parse_interpretation_file(text):
    universe = None
    literals = {}
    for lineno, line in _lines(text):
        if line.startswith("universe"):
            if universe is not None:
                raise GameFileError(f"line {lineno}: duplicate universe line")
            universe = tuple(line.split()[1:])
            if not universe:
                raise GameFileError(f"line {lineno}: empty universe")
            continue
        m = _LIT_RE.match(line)
        if not m:
            raise GameFileError(f"line {lineno}: expected 'R(a,b) = value'")
        neg, rel, args_text, raw = m.groups()
        args = tuple(a.strip() for a in args_text.split(",")) if args_text.strip() else ()
        key = (rel, args, not neg)
        if key in literals:
            raise GameFileError(f"line {lineno}: duplicate literal entry")
        literals[key] = raw.strip()
    if universe is None:
        raise GameFileError("interpretation file has no universe line")
    for rel, args, _ in literals:
        for a in args:
            if a not in universe:
                raise GameFileError(
                    f"literal argument {a!r} of {rel} is not in the universe"
                )
    return InterpretationFile(universe, literals)
