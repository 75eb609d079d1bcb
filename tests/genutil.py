"""Seeded random generators for games, formulas, and interpretations, and
the saturation policies of the numeric solver that the test references
keep: Kleene iteration followed by a saturation phase, which the solver
replaced by exact methods per strongly connected component.

The seed comes from PROV_SEED (default 20240817) so failures reproduce.
"""

import os
import random
from fractions import Fraction

from provgames.errors import NoConvergence
from provgames.games import TERMINAL, BasicValuation, GameGraph
from provgames.infinity import INF
from provgames.logic import And, Atom, Eq, Fp, KInterpretation, Not, Or, Quant
from provgames.poly import Polynomial
from provgames.semirings import NatInfSemiring, PolySemiring

DEFAULT_SEED = 20240817


def make_rng(salt=0):
    seed = int(os.environ.get("PROV_SEED", DEFAULT_SEED))
    return random.Random(seed + salt)


def random_acyclic_game(rng, max_positions=12, max_out=3):
    """Layered DAG whose non-terminals all reach a terminal."""
    n = rng.randint(3, max_positions)
    names = [f"n{i}" for i in range(n)]
    n_terminals = rng.randint(1, max(1, n // 3))
    terminals = names[-n_terminals:]
    interior = names[:-n_terminals]
    owners = {t: TERMINAL for t in terminals}
    moves = []
    for i, v in enumerate(interior):
        owners[v] = rng.randint(0, 1)
        later = names[i + 1:]
        out = rng.randint(1, min(max_out, len(later)))
        for w in rng.sample(later, out):
            moves.append((v, w))
    return GameGraph(owners, moves)


def random_cyclic_game(rng, max_positions=6, max_out=2):
    """Random graph, possibly cyclic, where non-terminals keep a successor."""
    n = rng.randint(3, max_positions)
    names = [f"n{i}" for i in range(n)]
    n_terminals = rng.randint(1, max(1, n // 2))
    terminals = names[-n_terminals:]
    interior = names[:-n_terminals]
    owners = {t: TERMINAL for t in terminals}
    moves = []
    for v in interior:
        owners[v] = rng.randint(0, 1)
        out = rng.randint(1, max_out)
        targets = rng.sample(names, min(out, len(names)))
        if all(w == v for w in targets):
            targets = [rng.choice([w for w in names if w != v])]
        for w in dict.fromkeys(targets):
            if w != v:
                moves.append((v, w))
    return GameGraph(owners, moves)


def token_valuation(game, handle, player=0):
    """f(t) = token named after the terminal, h = 1."""
    return BasicValuation(
        handle, player, {t: handle.token(t) for t in game.terminals}
    )


def random_basic_valuation(rng, game, handle, player=0, pool=None):
    pool = pool or [v for v in handle.sample_values() if v != handle.zero]
    f = {t: rng.choice(pool + [handle.zero]) for t in game.terminals}
    h = {}
    for e in game.moves:
        if rng.random() < 0.4:
            h[e] = rng.choice(pool)
    return BasicValuation(handle, player, f, h)


# --- formulas ---------------------------------------------------------------

RELS = {"R": 1, "E": 2}


def random_fo_formula(rng, universe, depth=4, rels=RELS):
    variables = []

    def gen(d):
        if d <= 0 or rng.random() < 0.25:
            return leaf()
        choice = rng.randrange(4)
        if choice == 0:
            return And(gen(d - 1), gen(d - 1))
        if choice == 1:
            return Or(gen(d - 1), gen(d - 1))
        if choice == 2:
            return Not(gen(d - 1))
        var = f"x{len(variables)}"
        variables.append(var)
        kind = rng.choice(("exists", "forall"))
        sub = gen(d - 1)
        variables.pop()
        return Quant(kind, var, sub)

    def term():
        if variables and rng.random() < 0.6:
            return rng.choice(variables)
        return rng.choice(universe)

    def leaf():
        if rng.random() < 0.15:
            return Eq(term(), term(), negated=rng.random() < 0.5)
        rel = rng.choice(list(rels))
        args = tuple(term() for _ in range(rels[rel]))
        return Atom(rel, args, negated=rng.random() < 0.3)

    return gen(depth)


def random_poslfp_formula(rng, universe, rels=RELS):
    """A sentence with one lfp whose body uses the bound relation positively."""
    arity = rng.choice((1, 2))
    params = tuple(f"p{i}" for i in range(arity))

    def body(d):
        if d <= 0 or rng.random() < 0.3:
            return leaf()
        choice = rng.randrange(3)
        if choice == 0:
            return And(body(d - 1), body(d - 1))
        if choice == 1:
            return Or(body(d - 1), body(d - 1))
        var = f"z{d}"
        sub = body_with_var(d - 1, var)
        return Quant(rng.choice(("exists", "forall")), var, sub)

    extra_vars = []

    def body_with_var(d, var):
        extra_vars.append(var)
        result = body(d)
        extra_vars.pop()
        return result

    def term():
        options = list(params) + extra_vars + list(universe)
        return rng.choice(options)

    def leaf():
        r = rng.random()
        if r < 0.35:
            return Atom("F", tuple(term() for _ in range(arity)))
        if r < 0.55:
            return Eq(term(), term(), negated=rng.random() < 0.5)
        rel = rng.choice(list(rels))
        return Atom(rel, tuple(term() for _ in range(rels[rel])),
                    negated=rng.random() < 0.3)

    args = tuple(rng.choice(universe) for _ in range(arity))
    return Fp("lfp", "F", params, Or(leaf(), body(2)), args)


def random_interpretation(rng, handle, universe, rels=RELS, pool=None,
                          model_defining=False):
    pool = pool or [v for v in handle.sample_values() if v != handle.zero]
    values = {}
    for rel, arity in rels.items():
        for args in _tuples(universe, arity):
            if model_defining:
                if rng.random() < 0.5:
                    values[(rel, args, True)] = rng.choice(pool)
                    values[(rel, args, False)] = handle.zero
                else:
                    values[(rel, args, True)] = handle.zero
                    values[(rel, args, False)] = rng.choice(pool)
            else:
                values[(rel, args, True)] = rng.choice(pool + [handle.zero])
                values[(rel, args, False)] = rng.choice(pool + [handle.zero])
    return KInterpretation(handle, universe, dict(rels), values)


def _tuples(universe, arity):
    if arity == 0:
        return [()]
    shorter = _tuples(universe, arity - 1)
    return [t + (a,) for t in shorter for a in universe]


# --- saturation policies of the numeric solver ----------------------------


def cap_exponents(p, threshold):
    """Exponents >= threshold become INF (no copy when none is that large)."""
    if not any(e is not INF and e >= threshold for m in p.monos for _, e in m):
        return p
    return Polynomial(p.kind, {m.cap_at(threshold): c for m, c in p.monos.items()},
                      p.truncated)


def cap_coefficients(p, threshold):
    """Coefficients >= threshold become INF (no copy when none is that large)."""
    if not any(c is not INF and c >= threshold for c in p.monos.values()):
        return p
    return Polynomial(p.kind, {m: INF if c is INF or c >= threshold else c
                               for m, c in p.monos.items()}, p.truncated)


def reference_saturate(handle, a, threshold, direction):
    """The `saturate` hook of the semiring handles as it was while every
    fixed point went through Kleene iteration and saturation; its last rule
    capped the coefficients of truncated series in lfp.  A semiring without
    a policy raised NoConvergence."""
    if direction == "gfp":
        if handle.name == "tropical":
            return INF if a is not INF and a >= threshold else a
        if handle.name == "viterbi":
            return Fraction(0)
        if getattr(handle, "kind", None) is not None and handle.kind.inf_exponents:
            return cap_exponents(a, threshold)
    elif handle.name == "natinf":
        return INF if a is not INF and a >= threshold else a
    if isinstance(handle, PolySemiring):
        if direction == "lfp" and handle.kind.inf_coefficients:
            return cap_coefficients(a, threshold)
        return a
    if isinstance(handle, NatInfSemiring):
        return a
    raise NoConvergence(
        f"semiring {handle.name} has no saturation policy for {direction}"
    )


def reference_blown_up(handle, values, cap, direction):
    """True when saturating at cap would change any of the values."""
    try:
        return any(reference_saturate(handle, v, cap, direction) != v for v in values)
    except NoConvergence:
        return False
