"""The benchmark's three workloads: their inputs, operations and checks.

Every input is generated here, before set-up, from two random streams.  The
shape of each input (graph structure, sizes, which literals carry tokens) is
drawn from SHAPE_SEED, a constant, so every --seed does the same amount of
work and runs stay comparable.  --seed draws everything that leaves the work
unchanged: the names of positions, elements and tokens, the order of lines
in every input file, terminal truth values and weights, tracked literals,
and the integer points at which printed polynomials are checked.

An operation is one timed call into the program (or one timed group of
short CLI calls).  Its result is reduced to a canonical key; the first key
of each operation is checked against the oracles, later keys must equal it.
"""

import contextlib
import importlib
import io
import os
import random
from dataclasses import dataclass
from numbers import Rational

import oracles as orc
from oracles import INF, expect

SHAPE_SEED = 20190719
ALPHABET = "abcdefghjkmnpqrstuvwxyz23456789"


@dataclass
class Op:
    name: str
    run: object  # ctx -> result; raises on failure
    key: object  # result -> hashable canonical form
    check: object  # key -> None; raises CheckFailed
    fault: str = None  # known fault this operation exposes, if any
    first: object = None  # key of the first result, checked once at the end


class Names:
    """Distinct random identifiers that cannot clash with keywords."""

    def __init__(self, rng):
        self.rng = rng
        self.taken = set()

    def __call__(self, prefix):
        while True:
            name = prefix + "".join(self.rng.choice(ALPHABET) for _ in range(5))
            if name not in self.taken:
                self.taken.add(name)
                return name


def number(x):
    if isinstance(x, Rational):
        return x
    expect(str(x) == "inf", f"unexpected value {x!r}")
    return INF


def canon(value):
    """The oracles' representation of a program value."""
    monos = getattr(value, "monos", None)
    if monos is None:
        return number(value)
    return frozenset(
        (tuple((t, number(e)) for t, e in m.exps), number(c)) for m, c in monos.items()
    )


def poly_of(key):
    return dict(key) if isinstance(key, frozenset) else key


def canon_values(result):
    return tuple(sorted((str(v), canon(x)) for v, x in result.values.items()))


def game_text(rng, owners, edges, values, moves=()):
    """Game file text; owners {name: 'player0'|'player1'|'terminal'}."""
    positions = [f"position {v} {o}" for v, o in owners.items()]
    rng.shuffle(positions)
    notes = dict(moves)
    lines = [f"move {u} {w}" + (f" h0={notes[(u, w)]}" if (u, w) in notes else "")
             for u, w in edges]
    rng.shuffle(lines)
    values = [f"value0 {t} = {x}" for t, x in values.items()]
    rng.shuffle(values)
    return "\n".join(positions + lines + values) + "\n"


# --- cycle-fixpoint -------------------------------------------------------------------

# The sizes make a cost ladder without gaps around the median operation, and
# 25 operations per pass put the 50th and 90th percentiles in the middle of
# one operation's samples instead of between two operations.
CYCLES = [  # (semiring, fixpoint, cycle lengths n; a game has 2n positions)
    ("sorpinf", "mu", (8, 12, 16, 20, 24, 32)),
    ("natinf", "mu", (32, 64, 96, 128)),
    ("series:4", "mu", (24, 32, 40, 48, 56, 64)),
    ("sorpinf", "nu", (4, 6, 8)),
    ("sorpinfdual", "nu", (4, 6, 8)),
]
BOOL_GAMES = 3
BOOL_POSITIONS, BOOL_TERMINALS = 120, 30

F3_TEXT = "position v player0\nposition t terminal\nmove v t\nvalue0 t = 2097152\n"
F4_TEXT = ("position v player0\nposition w player0\nposition t terminal\n"
           "move v w\nmove w v h0=1\nmove v t\nvalue0 t = 100\n")


def _cycle_game(rng, names, selector, n):
    v = [names("v") for _ in range(n)]
    t = [names("t") for _ in range(n)]
    owners = {v[i]: f"player{i % 2}" for i in range(n)}
    owners.update({x: "terminal" for x in t})
    edges = [(v[i], v[(i + 1) % n]) for i in range(n)] + list(zip(v, t))
    if selector == "natinf":
        values = {x: str(rng.randint(1, 3)) for x in t}
    else:
        values = {x: names("k") for x in t}
        if selector == "sorpinfdual":
            values = {x: ("~" + k if rng.random() < 0.5 else k) for x, k in values.items()}
    return game_text(rng, owners, edges, values), v, t, values


def _bool_shapes():
    shape_rng = random.Random(SHAPE_SEED)
    shapes = []
    for _ in range(BOOL_GAMES):
        inner = BOOL_POSITIONS - BOOL_TERMINALS
        owners = [shape_rng.randint(0, 1) for _ in range(inner)]
        edges = set()
        for u in range(inner):
            for w in shape_rng.sample(range(BOOL_POSITIONS), shape_rng.randint(1, 3)):
                if w != u:
                    edges.add((u, w))
            if not any(a == u for a, _ in edges):
                edges.add((u, (u + 1) % BOOL_POSITIONS))
        shapes.append((owners, sorted(edges)))
    return shapes


def cycle_inputs(seed, workdir, root):
    rng = random.Random(seed)
    names = Names(rng)
    games = []  # (label, selector, fixpoint, text, expected {position: poly})
    for selector, fixpoint, sizes in CYCLES:
        for n in sizes:
            text, v, t, values = _cycle_game(rng, names, selector, n)
            games.append((f"{selector}-{fixpoint}-{2 * n}", selector, fixpoint, text,
                          (v, t, values)))
    for i, (owners, edges) in enumerate(_bool_shapes()):
        pos = [names("p") for _ in range(BOOL_POSITIONS)]
        own = {pos[u]: f"player{o}" for u, o in enumerate(owners)}
        own.update({pos[u]: "terminal" for u in range(len(owners), BOOL_POSITIONS)})
        truth = {x: rng.choice(("true", "false")) for x, o in own.items() if o == "terminal"}
        text = game_text(rng, own, [(pos[a], pos[b]) for a, b in edges], truth)
        games.append((f"bool-mu-random{i}", "bool", "mu", text, None))
    games.append(("F3-natinf-mu", "natinf", "mu", F3_TEXT, None))
    games.append(("F4-tropical-nu", "tropical", "nu", F4_TEXT, None))
    return games


def cycle_setup(games):
    pg = importlib.import_module("provgames")
    gamefile = importlib.import_module("provgames.gamefile")
    handles = {sel: pg.get_semiring(sel) for sel in {g[1] for g in games}}
    parsed = []
    for _, selector, _, text, _ in games:
        gf = gamefile.parse_game_file(text)
        parsed.append((gf.graph(), gf.basic_valuation(handles[selector], 0)))
    return {"pg": pg, "games": parsed}


def _cycle_expected(label, selector, fixpoint, text, info):
    if label.startswith("F3"):
        return {"v": 2097152, "t": 2097152}
    if label.startswith("F4"):
        return {"v": 100, "w": 101, "t": 100}
    owners, succ, values, _ = orc.read_game(text)
    if selector == "bool":
        win = orc.attractor(owners, succ, {t for t, x in values.items() if x == "true"})
        return {v: int(v in win) for v in owners}
    v, t, values = info
    if selector == "natinf":
        expected = {x: INF for x in v}
        expected.update({x: int(values[x]) for x in t})
        return expected
    kind = orc.series(4) if selector == "series:4" else orc.SORPINF
    tokens = [values[x] for x in t]
    cycle = orc.cycle_values(tokens, fixpoint, kind)
    expected = {v[i]: cycle[i] for i in range(len(v))}
    expected.update({x: orc.token(values[x]) for x in t})
    return expected


def cycle_ops(games):
    """One operation per game; the short bool solves form one grouped operation."""
    def solve(ctx, i):
        graph, basic = ctx["games"][i]
        return ctx["pg"].solve_game(graph, basic, games[i][2])

    def check(i, key):
        got = {v: poly_of(x) for v, x in key}
        expect(got == _cycle_expected(*games[i]), f"{games[i][0]}: values differ from the oracle")

    grouped = [i for i, game in enumerate(games) if game[1] == "bool"]
    ops = []
    for i, (label, *_) in enumerate(games):
        if i not in grouped:
            ops.append(Op(label, lambda ctx, i=i: solve(ctx, i), canon_values,
                          lambda key, i=i: check(i, key), label[:2] if label[0] == "F" else None))
    ops.append(Op(f"bool-mu-random-x{len(grouped)}",
                  lambda ctx: tuple(solve(ctx, i) for i in grouped),
                  lambda results: tuple(canon_values(r) for r in results),
                  lambda keys: [check(i, key) for i, key in zip(grouped, keys)]))
    return ops


# --- model-check ----------------------------------------------------------------------

TC_TEXT = "[lfp R(x,y). E(x,y) | exists z.(E(x,z) & R(z,y))](a0,b)"
TC_SEMIRINGS = ("bool", "natinf", "sorp")
TC_SHAPES = [("path", 8), ("path", 12), ("sparse", 8), ("sparse", 8), ("sparse", 12)]
FO_SIZES = (6, 10, 14)
FO_SENTENCES = [
    ("forall", "x", ("forall", "y", ("or", ("!E", "x", "y"),
     ("exists", "z", ("and", ("E", "y", "z"), ("!E", "z", "x")))))),
    ("forall", "x", ("exists", "y", ("and", ("E", "x", "y"), ("!E", "y", "x")))),
    ("exists", "x", ("forall", "y", ("or", ("=", "x", "y"), ("!E", "y", "x")))),
]
TRACKED_POSITIVE, TRACKED_NEGATIVE = 3, 2


def _tc_shapes():
    shape_rng = random.Random(SHAPE_SEED + 1)
    shapes = []
    for kind, n in TC_SHAPES:
        if kind == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        else:
            edges = set()
            while len(edges) < n + n // 2:
                u, w = shape_rng.sample(range(n), 2)
                edges.add((u, w))
            edges = sorted(edges)
            if n - 1 not in orc.reachable(edges, 0):
                mid = shape_rng.randrange(1, n - 1)
                edges = sorted(set(edges) | {(0, mid), (mid, n - 1)})
        shapes.append((f"{kind}{n}", n, edges))
    return shapes


def _fo_shapes():
    shape_rng = random.Random(SHAPE_SEED + 2)
    shapes = []
    for n in FO_SIZES:
        edges = set()
        for u in range(n):
            for w in shape_rng.sample([w for w in range(n) if w != u], 2):
                edges.add((u, w))
        shapes.append((n, sorted(edges)))
    return shapes


def model_inputs(seed, workdir, root):
    rng = random.Random(seed)
    names = Names(rng)
    tc = []
    for label, n, edges in _tc_shapes():
        elems = ["a0"] + [names("u") for _ in range(n - 2)] + ["b"]
        named = [(elems[u], elems[w]) for u, w in edges]
        tokens = {e: names("e") for e in named}
        universe = list(elems)
        rng.shuffle(universe)
        files = {}
        for sel in TC_SEMIRINGS:
            lines = [f"E({u},{w}) = {tokens[(u, w)] if sel == 'sorp' else 1}"
                     for u, w in named]
            rng.shuffle(lines)
            files[sel] = "universe " + " ".join(universe) + "\n" + "\n".join(lines) + "\n"
        tc.append((label, named, tokens, files))
    fo = []
    for n, edges in _fo_shapes():
        elems = [names("u") for _ in range(n)]
        universe = list(elems)
        rng.shuffle(universe)
        named = {(elems[u], elems[w]) for u, w in edges}
        non_edges = [(a, b) for a in elems for b in elems if (a, b) not in named]
        tracked = [("E", e, True) for e in rng.sample(sorted(named), TRACKED_POSITIVE)]
        tracked += [("E", e, False) for e in rng.sample(non_edges, TRACKED_NEGATIVE)]
        fo.append((f"fo{n}", tuple(universe), named, tracked))
    return {"tc": tc, "fo": fo}


def model_setup(inputs):
    pg = importlib.import_module("provgames")
    gamefile = importlib.import_module("provgames.gamefile")
    handles = {sel: pg.get_semiring(sel) for sel in TC_SEMIRINGS + ("sorpinfdual",)}
    tc_formula = pg.parse_formula(TC_TEXT)
    tc = []
    for _, _, _, files in inputs["tc"]:
        tc.append({sel: gamefile.parse_interpretation_file(files[sel])
                   .interpretation(handles[sel]) for sel in TC_SEMIRINGS})
    sentences = [pg.parse_formula(orc.to_text(f)) for f in FO_SENTENCES]
    negations = [pg.logic.Not(f) for f in sentences]
    fo = []
    for _, universe, edges, tracked in inputs["fo"]:
        structure = pg.Structure(universe, {"E": frozenset(edges)}, {"E": 2})
        fo.append(pg.make_tracking_interpretation(structure, tracked, handles["sorpinfdual"]))
    return {"pg": pg, "tc_formula": tc_formula, "tc": tc, "sentences": sentences,
            "negations": negations, "fo": fo}


def _tc_expected(selector, edges, tokens):
    if selector == "bool":
        return int("b" in orc.reachable(edges, "a0"))
    if selector == "natinf":
        return orc.walk_count(edges, "a0", "b")
    paths = orc.minimal_sets(orc.simple_path_edge_sets(edges, "a0", "b"))
    return {tuple(sorted((tokens[e], 1) for e in path)): 1 for path in paths}


def _fo_expected(sentence, universe, edges, tracked):
    kind = orc.SORPINFDUAL
    tracked = set(tracked)

    def literal(rel, args, positive):
        if (rel, args, positive) in tracked:
            name = f"{rel}_{'_'.join(args)}"
            return orc.token(name if positive else "~" + name)
        return dict(orc.ONE) if ((args in edges) == positive) else {}

    value = orc.fo_value(sentence, universe, literal, lambda a, b: orc.p_add(a, b, kind),
                         lambda a, b: orc.p_mul(a, b, kind), {}, dict(orc.ONE))
    truth = orc.fo_truth(sentence, universe, {("E", e) for e in edges})
    expect(bool(value) == truth, "oracle: tokens sent to true must give the truth value")
    return value


def _check_fo(key, args, what):
    expect(poly_of(key) == _fo_expected(*args), f"{what}: wrong value")


def model_ops(inputs):
    ops = []
    for i, (label, edges, tokens, _) in enumerate(inputs["tc"]):
        for sel in TC_SEMIRINGS:
            expected = (sel, edges, tokens)
            for evaluator in ("game_eval", "poslfp_eval_direct"):
                def run(ctx, i=i, sel=sel, evaluator=evaluator):
                    return getattr(ctx["pg"], evaluator)(ctx["tc"][i][sel], ctx["tc_formula"])

                def check(key, expected=expected, name=f"tc-{label}-{sel}-{evaluator}"):
                    expect(poly_of(key) == _tc_expected(*expected), f"{name}: wrong value")

                ops.append(Op(f"tc-{label}-{sel}-{evaluator}", run, canon, check))
    for i, (label, universe, edges, tracked) in enumerate(inputs["fo"]):
        for j, sentence in enumerate(FO_SENTENCES):
            name = f"{label}-s{j}"
            pos = (sentence, universe, edges, tracked)
            neg = (orc.negate(sentence), universe, edges, tracked)

            def game(ctx, i=i, j=j, player=0):
                return ctx["pg"].game_eval(ctx["fo"][i], ctx["sentences"][j], player)

            def compositional(ctx, i=i, j=j):
                pi = ctx["fo"][i]
                return (ctx["pg"].fo_eval(pi, ctx["sentences"][j]),
                        ctx["pg"].fo_eval(pi, ctx["negations"][j]))

            def check_both(key, name=name, pos=pos, neg=neg):
                _check_fo(key[0], pos, f"{name} fo_eval(f)")
                _check_fo(key[1], neg, f"{name} fo_eval(!f)")

            ops.append(Op(f"{name}-game0", game, canon,
                          lambda key, a=pos, n=name: _check_fo(key, a, f"{n} player 0")))
            ops.append(Op(f"{name}-game1", lambda ctx, g=game: g(ctx, player=1), canon,
                          lambda key, a=neg, n=name: _check_fo(key, a, f"{n} player 1")))
            ops.append(Op(f"{name}-fo_eval", compositional,
                          lambda r: (canon(r[0]), canon(r[1])), check_both))
    return ops


# --- cli-batch ------------------------------------------------------------------------

# Short commands (eval-formula, census) are more than half of a pass, so the
# median operation is one of them: the 60-100 ms eval-game calls vary most
# with the load of the host.  35 operations keep both percentiles in the
# middle of one operation's samples.
LAYERED = [(7, 12, {3}), (8, 14, {4}), (10, 12, {2, 7})]  # layers, width, product layers
CENSUS_GAMES = 4
FORMULA_UNIVERSE, FORMULA_INTERPS = 5, 5
CLI_FORMULAS = [
    ("exists", "x", ("exists", "y", ("and", ("E", "x", "y"), ("R", "y")))),
    ("forall", "x", ("or", ("!R", "x"), ("exists", "y", ("E", "x", "y")))),
    ("exists", "x", ("and", ("R", "x"), ("forall", "y", ("or", ("=", "x", "y"),
                                                        ("!E", "y", "x"))))),
    ("exists", "x", ("and", ("R", "x"), ("exists", "y", ("and", ("E", "x", "y"),
                                                         ("!R", "y"))))),
]
FIXTURES = ("absdom.game", "playprod.game", "reach.game", "safety.game")
CHAIN_POSITIONS = 1200


def _layered_shape(shape_rng, layers, width, products, terminal_tokens):
    owners, edges, moves = {}, [], {}
    grid = [[(l, i) for i in range(width)] for l in range(layers)]
    leaves = [("t", i) for i in range(width)]
    for l, row in enumerate(grid):
        for v in row:
            owners[v] = 1 if (l in products or shape_rng.random() < 0.3) else 0
    for l, row in enumerate(grid):
        nxt = grid[l + 1] if l + 1 < layers else leaves
        for v in row:
            fan = 2 if (owners[v] == 0 or l in products) else 1
            for w in shape_rng.sample(nxt, fan):
                edges.append((v, w))
                if shape_rng.random() < 0.15:
                    moves[(v, w)] = ("x", shape_rng.randrange(2))
    values = {t: (shape_rng.randrange(terminal_tokens), shape_rng.random() < 0.5)
              for t in leaves}
    return owners, edges, moves, values


def _cli_shapes():
    shape_rng = random.Random(SHAPE_SEED + 3)
    layered = [_layered_shape(shape_rng, *spec, 3) for spec in LAYERED]
    census = [_layered_shape(shape_rng, 4, 4, {1}, 3) for _ in range(CENSUS_GAMES)]
    interps = []
    for _ in range(FORMULA_INTERPS):
        lits = {}
        n = FORMULA_UNIVERSE
        for a in range(n):
            for args, rel in [((a,), "R")] + [((a, b), "E") for b in range(n)]:
                for positive in (True, False):
                    roll = shape_rng.random()
                    if roll < 0.3:
                        lits[(rel, args, positive)] = ("tok", shape_rng.randrange(3))
                    elif roll < 0.45:
                        lits[(rel, args, positive)] = ("one", None)
        interps.append(lits)
    return layered, census, interps


def _named_game(rng, names, shape, token_names):
    owners_s, edges_s, moves_s, values_s = shape
    label = {v: names("p") for v in owners_s}
    label.update({t: names("t") for t in values_s})
    owners = {label[v]: f"player{o}" for v, o in owners_s.items()}
    owners.update({label[t]: "terminal" for t in values_s})
    edges = [(label[u], label[w]) for u, w in edges_s]
    moves = {(label[u], label[w]): token_names["x"][i] for (u, w), (_, i) in moves_s.items()}
    values = {label[t]: ("~" if neg else "") + token_names["s"][i]
              for t, (i, neg) in values_s.items()}
    root = label[next(iter(owners_s))]
    return game_text(rng, owners, edges, values, moves), root


def cli_inputs(seed, workdir, root):
    rng = random.Random(seed)
    names = Names(rng)
    layered_s, census_s, interps_s = _cli_shapes()
    tokens = {"s": [names("s") for _ in range(3)], "x": [names("x") for _ in range(2)]}
    files = {}

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        files[path] = text
        return path

    layered = [write(f"layered{i}.game", _named_game(rng, names, s, tokens)[0])
               for i, s in enumerate(layered_s)]
    census = []
    for i, s in enumerate(census_s):
        text, start = _named_game(rng, names, s, tokens)
        census.append((write(f"census{i}.game", text), start))
    interps = []
    for i, lits in enumerate(interps_s):
        elems = [names("e") for _ in range(FORMULA_UNIVERSE)]
        pool = [names("q") for _ in range(3)]
        lines = []
        for (rel, args, positive), (what, k) in lits.items():
            value = "1" if what == "one" else ("" if positive else "~") + pool[k]
            lines.append(f"{'' if positive else '!'}{rel}({','.join(elems[a] for a in args)})"
                         f" = {value}")
        rng.shuffle(lines)
        universe = list(elems)
        rng.shuffle(universe)
        interps.append(write(f"interp{i}.interp",
                             "universe " + " ".join(universe) + "\n" + "\n".join(lines) + "\n"))
    chain = [f"position c{i} player0" for i in range(CHAIN_POSITIONS - 1)]
    chain += [f"position c{CHAIN_POSITIONS - 1} terminal"]
    chain += [f"move c{i} c{i + 1}" for i in range(CHAIN_POSITIONS - 1)]
    chain_path = write("chain.game", "\n".join(chain) + "\n")
    fixtures = [os.path.join(root, "fixtures", name) for name in FIXTURES]
    for path in fixtures:
        with open(path, encoding="utf-8") as fh:
            files[path] = fh.read()
    return {"layered": layered, "census": census, "interps": interps, "chain": chain_path,
            "fixtures": fixtures, "files": files, "points_rng": random.Random(seed + 1)}


def cli_setup(inputs):
    pg = importlib.import_module("provgames")
    cli = importlib.import_module("provgames.cli")
    for sel in ("natpoly", "dualnat", "sorp", "sorpinf"):
        pg.get_semiring(sel)
    return {"pg": pg, "cli": cli, "output_bytes": 0}


class CliFailed(Exception):
    """The CLI returned a non-zero exit status."""


def run_cli(ctx, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        status = ctx["cli"].main(argv)
    if status != 0:
        raise CliFailed(f"exit status {status}: {err.getvalue().strip()[:200]}")
    text = out.getvalue()
    ctx["output_bytes"] += len(text.encode())
    return text


def _printed(text):
    lines = {}
    for line in text.splitlines():
        name, _, value = line.partition(": ")
        lines[name] = value
    return lines


def _point(rng, tokens, dual):
    point = {t: rng.randint(1, 4) for t in tokens}
    if dual:
        for t in tokens:
            if not t.startswith("~") and "~" + t in point:
                point[rng.choice((t, "~" + t))] = 0
    return point


def _game_tokens(values, moves):
    """Tokens of the game's values, with the complement of each."""
    toks = orc.tokens_of(list(values.values()) + list(moves.values()))
    return toks | {t[1:] if t.startswith("~") else "~" + t for t in toks}


def _check_eval_game(text, game_file, selector, rng):
    owners, succ, values, moves = orc.read_game(game_file)
    printed = _printed(text)
    expect(set(printed) == {v for v, o in owners.items() if o != "terminal"},
           "eval-game printed another set of positions")
    if selector == "sorp":
        kind = orc.SORP
        bi = orc.backward_induction(
            owners, succ, lambda v: orc.normalize(orc.read_poly(values[v]), kind),
            lambda v, w: orc.normalize(orc.read_poly(moves.get((v, w), "1")), kind),
            lambda a, b: orc.p_add(a, b, kind), lambda a, b: orc.p_mul(a, b, kind),
            {}, dict(orc.ONE))
        for v, value in printed.items():
            expect(orc.read_poly(value) == bi[v], f"sorp value of {v} differs")
        return
    dual = selector == "dualnat"
    polys = {v: orc.read_poly(value) for v, value in printed.items()}
    if dual:
        expect(not any(orc.complementary(m) for p in polys.values() for m in p),
               "dualnat printed a monomial with a complementary pair")
    for _ in range(2):
        point = _point(rng, _game_tokens(values, moves), dual)
        bi = orc.backward_induction(
            owners, succ, lambda v: orc.evaluate(orc.read_poly(values[v]), point),
            lambda v, w: orc.evaluate(orc.read_poly(moves.get((v, w), "1")), point),
            lambda a, b: a + b, lambda a, b: a * b, 0, 1)
        for v, p in polys.items():
            expect(orc.evaluate(p, point) == bi[v], f"{selector} value of {v} differs")


def _check_census(outputs, game_file, start):
    owners, succ, _, _ = orc.read_game(game_file)
    census, values = outputs
    lines = census.splitlines()
    expect(lines[0] == f"strategies: {orc.strategy_count(owners, succ, start)}",
           "census strategy count differs from the sum/product count")
    total = {}
    for line in lines[1:]:
        body = line[len("strategy: "):line.rindex(" [")]
        total = orc.p_add(total, orc.read_poly(body), orc.NATPOLY)
    expect(total == orc.read_poly(_printed(values)[start]),
           "strategy values do not sum to the eval-game value")


def _check_formula(outputs, formula, interp_text, rng):
    game, compositional = outputs
    expect(game == compositional, "game and compositional modes disagree")
    expect(game.startswith("value: "), "eval-formula printed no value")
    value = orc.read_poly(game[len("value: "):])
    lines = interp_text.splitlines()
    universe = tuple(lines[0].split()[1:])
    lits = {}
    for line in lines[1:]:
        lhs, _, rhs = line.partition(" = ")
        rel, _, args = lhs.partition("(")
        lits[(rel.lstrip("!"), tuple(args.rstrip(")").split(",")), not rel.startswith("!"))] = rhs
    toks = orc.tokens_of(lits.values())
    for _ in range(2):
        point = {t: rng.randint(1, 4) for t in toks}
        expected = orc.fo_value(
            formula, universe,
            lambda rel, args, pos: orc.evaluate(orc.read_poly(lits[(rel, args, pos)]), point)
            if (rel, args, pos) in lits else 0,
            lambda a, b: a + b, lambda a, b: a * b, 0, 1)
        expect(orc.evaluate(value, point) == expected, "eval-formula value differs")


def _check_fixtures(outputs, fixtures, files):
    kind = orc.SORPINF
    for k, path in enumerate(fixtures):
        owners, succ, values, moves = orc.read_game(files[path])
        leaf = {t: orc.read_poly(values.get(t, t)) for t, o in owners.items() if o == "terminal"}
        solved = {}
        for fixpoint, text in zip(("mu", "nu"), outputs[2 * k: 2 * k + 2]):
            printed = _printed(text)
            expect(printed.get("verified") == "true", f"{path}: {fixpoint} not verified")
            sol = {v: orc.read_poly(printed[v]) for v in owners}
            for v, o in owners.items():
                if o == "terminal":
                    expect(sol[v] == leaf[v], f"{path}: terminal {v} changed")
                    continue
                parts = [orc.p_mul(orc.read_poly(moves.get((v, w), "1")), sol[w], kind)
                         for w in succ[v]]
                rhs = orc.p_sum(parts, kind) if o == "player0" else orc.p_prod(parts, kind)
                expect(sol[v] == rhs, f"{path}: {fixpoint} value of {v} is no fixed point")
            solved[fixpoint] = sol
        win = orc.attractor(owners, succ, {t for t, p in leaf.items() if p})
        for v in owners:
            expect(bool(solved["mu"][v]) == (v in win), f"{path}: mu support of {v}")
            expect(bool(solved["nu"][v]), f"{path}: nu value of {v} is 0")
            expect(orc.p_add(solved["mu"][v], solved["nu"][v], kind) == solved["nu"][v],
                   f"{path}: mu value of {v} is not below the nu value")


def cli_ops(inputs):
    files = inputs["files"]
    rng = inputs["points_rng"]
    ops = []
    for i, path in enumerate(inputs["layered"]):
        for sel in ("natpoly", "dualnat", "sorp"):
            argv = ["eval-game", path, "--semiring", sel]
            ops.append(Op(f"eval-game-layered{i}-{sel}", lambda ctx, a=argv: run_cli(ctx, a),
                          str, lambda key, p=path, s=sel: _check_eval_game(key, files[p], s, rng)))

    def run_group(ctx, argvs):
        return tuple(run_cli(ctx, a) for a in argvs)

    for i, (path, start) in enumerate(inputs["census"]):
        argvs = [["census", path, "--from", start], ["eval-game", path]]
        ops.append(Op(f"census{i}", lambda ctx, a=argvs: run_group(ctx, a), tuple,
                      lambda key, p=path, r=start: _check_census(key, files[p], r)))
    for i, path in enumerate(inputs["interps"]):
        for j, formula in enumerate(CLI_FORMULAS):
            argvs = [["eval-formula", orc.to_text(formula), path, "--inline", "--mode", mode]
                     for mode in ("game", "compositional")]
            ops.append(Op(f"eval-formula-interp{i}-f{j}",
                          lambda ctx, a=argvs: run_group(ctx, a), tuple,
                          lambda key, f=formula, p=path: _check_formula(key, f, files[p], rng)))
    argvs = [["solve-system", p, "--fixpoint", fp, "--semiring", "sorpinf"]
             for p in inputs["fixtures"] for fp in ("mu", "nu")]
    ops.append(Op("solve-system-fixtures", lambda ctx: run_group(ctx, argvs), tuple,
                  lambda key: _check_fixtures(key, inputs["fixtures"], files)))
    chain = inputs["chain"]

    def check_chain(key):
        printed = _printed(key)
        last = f"c{CHAIN_POSITIONS - 1}"
        expect(all(printed[f"c{i}"] == last for i in range(CHAIN_POSITIONS - 1)),
               "chain values must all be the terminal's token")

    ops.append(Op("F5-eval-game-chain", lambda ctx: run_cli(ctx, ["eval-game", chain]), str,
                  check_chain, fault="F5"))
    return ops


WORKLOADS = {  # name -> (make inputs, set up, operations)
    "cycle-fixpoint": (cycle_inputs, cycle_setup, cycle_ops),
    "model-check": (model_inputs, model_setup, model_ops),
    "cli-batch": (cli_inputs, cli_setup, cli_ops),
}
