"""Independent oracles for the benchmark's workloads.

Nothing here imports provgames.  Values are kept in the benchmark's own
representation: a polynomial is a dict {monomial: coefficient}, where a
monomial is a sorted tuple of (token, exponent) pairs and INF (a float)
stands for an infinite exponent or coefficient.  A Kind says which quotient
is in force, mirroring the semirings the workloads use.

Run this file to execute the oracles' self-tests.
"""

from collections import deque
from dataclasses import dataclass

INF = float("inf")


class CheckFailed(Exception):
    """A value computed by the program disagrees with an oracle."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- polynomial arithmetic ---------------------------------------------------


@dataclass(frozen=True)
class Kind:
    coefficients: bool = True
    antichain: bool = False
    dual: bool = False
    degree: int = None


NATPOLY = Kind()
DUALNAT = Kind(dual=True)
SORP = Kind(coefficients=False, antichain=True)
SORPINF = SORP
SORPINFDUAL = Kind(coefficients=False, antichain=True, dual=True)


def series(degree):
    return Kind(degree=degree)


ONE = {(): 1}


def token(name):
    return {((name, 1),): 1}


def mono_mul(m1, m2):
    exps = dict(m1)
    for t, e in m2:
        exps[t] = exps.get(t, 0) + e
    return tuple(sorted(exps.items()))


def mono_degree(m):
    return sum(e for _, e in m)


def complementary(m):
    toks = {t for t, _ in m}
    return any(("~" + t) in toks for t in toks if not t.startswith("~"))


def _absorbed_by(m, other):
    """True when `other` has pointwise smaller-or-equal exponents than m."""
    mine = dict(m)
    return all(e <= mine.get(t, 0) for t, e in other)


def normalize(poly, kind):
    out = {}
    for m, c in poly.items():
        if c == 0:
            continue
        if kind.dual and complementary(m):
            continue
        if kind.degree is not None and mono_degree(m) > kind.degree:
            continue
        out[m] = out.get(m, 0) + c
    if not kind.coefficients:
        out = {m: 1 for m in out}
    if kind.antichain:
        monos = list(out)
        out = {
            m: 1 for m in monos
            if not any(o != m and _absorbed_by(m, o) for o in monos)
        }
    return out


def p_add(a, b, kind):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return normalize(out, kind)


def p_mul(a, b, kind):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return normalize(out, kind)


def p_sum(polys, kind):
    acc = {}
    for p in polys:
        acc = p_add(acc, p, kind)
    return acc


def p_prod(polys, kind):
    acc = dict(ONE)
    for p in polys:
        acc = p_mul(acc, p, kind)
    return acc


def evaluate(poly, point):
    """Value of a finite polynomial at an integer point {token: int}."""
    total = 0
    for m, c in poly.items():
        term = c
        for t, e in m:
            term *= point[t] ** e
        total += term
    return total


def read_poly(text):
    """Parse printed polynomial syntax such as '2*s^2*t + s*~p + inf*t^inf'."""
    text = text.strip()
    poly = {}
    if text == "0":
        return poly
    for term in text.split("+"):
        coeff = 1
        exps = {}
        for factor in term.strip().split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            elif factor == "inf":
                coeff = INF
            else:
                name, _, exp = factor.partition("^")
                e = INF if exp == "inf" else int(exp or 1)
                exps[name] = exps.get(name, 0) + e
        m = tuple(sorted(exps.items()))
        expect(m not in poly, f"monomial printed twice in {text[:80]!r}")
        poly[m] = coeff
    return poly


def tokens_of(texts):
    """Every token in the printed polynomials `texts`."""
    return {t for text in texts for m in read_poly(text) for t, _ in m}


# --- game files -----------------------------------------------------------------


def read_game(text):
    """(owners, successors in file order, terminal value text, move value text)."""
    owners, succ, values, moves = {}, {}, {}, {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "position":
            owners[parts[1]] = parts[2]
            succ[parts[1]] = []
        elif parts[0] == "move":
            succ[parts[1]].append(parts[2])
            for note in parts[3:]:
                key, _, value = note.partition("=")
                if key == "h0":
                    moves[(parts[1], parts[2])] = value
        elif parts[0] == "value0":
            values[parts[1]] = " ".join(parts[3:])
    return owners, succ, values, moves


def backward_induction(owners, succ, leaf, edge, add, mul, zero, one):
    """Player-0 valuation of an acyclic game by memoised backward induction."""
    value = {}
    order = []
    seen = set()
    for root in owners:
        stack = [(root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                order.append(v)
            elif v not in seen:
                seen.add(v)
                stack.append((v, True))
                stack.extend((w, False) for w in succ[v] if w not in seen)
    for v in order:
        if owners[v] == "terminal":
            value[v] = leaf(v)
            continue
        parts = [mul(edge(v, w), value[w]) for w in succ[v]]
        acc = zero if owners[v] == "player0" else one
        for p in parts:
            acc = add(acc, p) if owners[v] == "player0" else mul(acc, p)
        value[v] = acc
    return value


def strategy_count(owners, succ, root, player="player0"):
    memo = {}

    def count(v):
        if v not in memo:
            if owners[v] == "terminal":
                memo[v] = 1
            elif owners[v] == player:
                memo[v] = sum(count(w) for w in succ[v])
            else:
                memo[v] = 1
                for w in succ[v]:
                    memo[v] *= count(w)
        return memo[v]

    return count(root)


def attractor(owners, succ, winning_terminals):
    """Positions from which player 0 forces a play into winning_terminals."""
    win = set(winning_terminals)
    changed = True
    while changed:
        changed = False
        for v, o in owners.items():
            if v in win or o == "terminal":
                continue
            hits = [w in win for w in succ[v]]
            if (o == "player0" and any(hits)) or (o == "player1" and all(hits)):
                win.add(v)
                changed = True
    return win


# --- cycle games --------------------------------------------------------------------


def cycle_values(tokens, fixpoint, kind):
    """Valuation of the alternating cycle game with terminal tokens t_i.

    At an even position k the least value is the sum over even j of
    (prod of t_{k+i} over odd i < j) * t_{k+j}; the greatest value adds the
    product of t_i^inf over the odd i.  An odd position k is t_k times the
    value of position k+1.  Returns [value of v_0, ..., value of v_{n-1}].
    """
    n = len(tokens)
    odd_product = {tuple(sorted((tokens[i], 1) for i in range(1, n, 2))): 1}
    values = [None] * n
    for k in range(0, n, 2):
        acc = {}
        for j in range(0, n, 2):
            term = p_prod([token(tokens[(k + i) % n]) for i in range(1, j, 2)], kind)
            acc = p_add(acc, p_mul(term, token(tokens[(k + j) % n]), kind), kind)
        if fixpoint == "nu":
            inf_term = {tuple(sorted((tokens[i], INF) for i in range(1, n, 2))): 1}
            acc = p_add(acc, inf_term, kind)
        elif kind.degree is not None:
            geometric, power = dict(ONE), dict(ONE)
            while power:
                power = p_mul(power, odd_product, kind)
                geometric = p_add(geometric, power, kind)
            acc = p_mul(acc, geometric, kind)
        values[k] = acc
    for k in range(1, n, 2):
        values[k] = p_mul(token(tokens[k]), values[(k + 1) % n], kind)
    return values


# --- digraphs -----------------------------------------------------------------------


def reachable(edges, source):
    """Nodes reachable from source by one or more edges."""
    succ = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    seen = set()
    queue = deque(succ.get(source, ()))
    while queue:
        v = queue.popleft()
        if v not in seen:
            seen.add(v)
            queue.extend(succ.get(v, ()))
    return seen


def walk_count(edges, source, target):
    """Number of walks of length >= 1 from source to target; INF if infinite."""
    succ = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    from_source = reachable(edges, source) | {source}
    to_target = {u for u in from_source if u == target or target in reachable(edges, u)}
    for c in to_target:
        if c in reachable(edges, c):
            return INF
    memo = {}

    def count(x):
        if x not in memo:
            memo[x] = sum(
                (1 if z == target else 0) + (count(z) if z in to_target else 0)
                for z in succ.get(x, ())
            )
        return memo[x]

    return count(source)


def simple_path_edge_sets(edges, source, target):
    """Edge sets of the simple source->target paths, as a set of frozensets."""
    succ = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    found = set()
    stack = [(source, (source,), ())]
    while stack:
        v, visited, used = stack.pop()
        for w in succ.get(v, ()):
            if w == target:
                found.add(frozenset(used + ((v, w),)))
            elif w not in visited:
                stack.append((w, visited + (w,), used + ((v, w),)))
    return found


def minimal_sets(sets):
    return {s for s in sets if not any(o < s for o in sets)}


# --- first-order sentences ----------------------------------------------------------
# Formulas are tuples in negation normal form:
#   ("E", x, y) / ("!E", x, y) / ("R", x) / ("!R", x)   literals
#   ("=", x, y) / ("!=", x, y)                          (in)equality
#   ("and", f, g) / ("or", f, g)
#   ("exists", var, f) / ("forall", var, f)


def negate(f):
    tag = f[0]
    if tag in ("and", "or"):
        return ("or" if tag == "and" else "and", negate(f[1]), negate(f[2]))
    if tag in ("exists", "forall"):
        return ("forall" if tag == "exists" else "exists", f[1], negate(f[2]))
    if tag.startswith("!"):
        return (tag[1:],) + f[1:]
    return ("!" + tag,) + f[1:]


def to_text(f):
    """Formula syntax accepted by provgames.parse_formula."""
    tag = f[0]
    if tag in ("and", "or"):
        op = " & " if tag == "and" else " | "
        return f"({to_text(f[1])}{op}{to_text(f[2])})"
    if tag in ("exists", "forall"):
        return f"{tag} {f[1]}. {to_text(f[2])}"
    if tag in ("=", "!="):
        return f"{f[1]} {tag} {f[2]}"
    return f"{tag}({','.join(f[1:])})"


def fo_value(f, universe, literal, add, mul, zero, one, env=None):
    """Compositional value; literal(rel, args, positive) gives literal values."""
    env = env or {}
    tag = f[0]
    if tag in ("and", "or"):
        a = fo_value(f[1], universe, literal, add, mul, zero, one, env)
        b = fo_value(f[2], universe, literal, add, mul, zero, one, env)
        return mul(a, b) if tag == "and" else add(a, b)
    if tag in ("exists", "forall"):
        acc = zero if tag == "exists" else one
        for a in universe:
            sub = fo_value(f[2], universe, literal, add, mul, zero, one, {**env, f[1]: a})
            acc = add(acc, sub) if tag == "exists" else mul(acc, sub)
        return acc
    args = tuple(env.get(t, t) for t in f[1:])
    if tag in ("=", "!="):
        return one if (args[0] == args[1]) == (tag == "=") else zero
    return literal(tag.lstrip("!"), args, not tag.startswith("!"))


def fo_truth(f, universe, facts):
    """Boolean truth of f, where facts is a set of (rel, args) that hold."""
    def literal(rel, args, positive):
        return ((rel, args) in facts) == positive
    return fo_value(f, universe, literal, lambda a, b: a or b,
                    lambda a, b: a and b, False, True)


# --- self-tests ----------------------------------------------------------------------


def selftest():
    """Small hand-checked cases for every oracle; raises CheckFailed."""
    t = [f"t{i}" for i in range(6)]
    mu = cycle_values(t, "mu", SORPINF)
    expect(mu[0] == read_poly("t0 + t1*t2 + t1*t3*t4"), "cycle mu at v0")
    expect(mu[1] == read_poly("t1*t2 + t1*t3*t4 + t1*t3*t5*t0"), "cycle mu at v1")
    nu = cycle_values(t[:2], "nu", SORPINF)
    expect(nu == [read_poly("t0 + t1^inf"), read_poly("t0*t1 + t1^inf")], "cycle nu (reach.game)")
    s = cycle_values(t[:2], "mu", series(3))
    expect(s[0] == read_poly("t0 + t0*t1 + t0*t1^2"), "series geometric factor")
    expect(normalize(read_poly("s*~s + 2*s"), DUALNAT) == read_poly("2*s"), "dual erasure")
    expect(normalize(read_poly("s + s*t + t^inf*s"), SORPINF) == read_poly("s"), "absorption")
    expect(read_poly("2*s^2*t + s*~p + inf*t^inf")[(("t", INF),)] == INF, "reader")
    expect(evaluate(read_poly("2*s^2*t + 3"), {"s": 2, "t": 5}) == 43, "evaluate")

    owners = {"v": "player0", "w": "player1", "s": "terminal", "t": "terminal"}
    succ = {"v": ["s", "w"], "w": ["v", "t"], "s": [], "t": []}
    expect(attractor(owners, succ, {"t"}) == {"t"}, "attractor: w can escape to v")
    expect(attractor(owners, succ, {"s"}) == {"s", "v"}, "attractor through a choice")
    dag_owners = {"u": "player1", "z": "player0", "s": "terminal", "t": "terminal"}
    dag_succ = {"u": ["z", "s"], "z": ["s", "t"], "s": [], "t": []}
    expect(strategy_count(dag_owners, dag_succ, "u") == 2, "strategy count")
    vals = backward_induction(dag_owners, dag_succ, lambda v: 3 if v == "s" else 5,
                              lambda v, w: 1, lambda a, b: a + b, lambda a, b: a * b, 0, 1)
    expect(vals["u"] == (3 + 5) * 3, "integer backward induction")
    text = "position v player0\nposition s terminal\nmove v s h0=a\nvalue0 s = 2*x\n"
    expect(read_game(text) == ({"v": "player0", "s": "terminal"}, {"v": ["s"], "s": []},
                               {"s": "2*x"}, {("v", "s"): "a"}), "game reader")

    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")]
    expect(reachable(edges, "a") == {"a", "b", "c"}, "reachability")
    expect(walk_count(edges, "a", "c") == INF, "walks through a cycle")
    expect(walk_count([("a", "b"), ("b", "c"), ("a", "c")], "a", "c") == 2, "walk count")
    expect(simple_path_edge_sets(edges, "a", "c") == {
        frozenset({("a", "b"), ("b", "c")}), frozenset({("a", "c")})}, "simple paths")
    expect(minimal_sets({frozenset("ab"), frozenset("a")}) == {frozenset("a")}, "minimal sets")

    f = ("forall", "x", ("or", ("!E", "x", "x"), ("exists", "y", ("E", "x", "y"))))
    expect(to_text(f) == "forall x. (!E(x,x) | exists y. E(x,y))", "formula text")
    expect(negate(negate(f)) == f, "negation is an involution")
    facts = {("E", ("a", "b")), ("E", ("b", "b"))}
    g = ("forall", "x", ("exists", "y", ("E", "x", "y")))
    expect(fo_truth(g, ("a", "b"), facts), "every element has a successor")
    expect(not fo_truth(g, ("a", "b"), {("E", ("a", "b"))}), "b has no successor")
    expect(fo_truth(f, ("a", "b"), {("E", ("a", "b"))}), "b has no self-loop")
    count = fo_value(("exists", "x", ("exists", "y", ("E", "x", "y"))), ("a", "b"),
                     lambda rel, args, pos: 2 if (rel, args) in facts else 0,
                     lambda a, b: a + b, lambda a, b: a * b, 0, 1)
    expect(count == 4, "compositional sum")


if __name__ == "__main__":
    selftest()
    print("oracle self-tests passed")
