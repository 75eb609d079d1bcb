"""Logic: parser, nnf, games, agreement suites, tracking interpretations."""

import pytest

from provgames.errors import (
    ArityError,
    FormulaSyntaxError,
    NotModelDefining,
    NotPosLFP,
    NotSentence,
    TrackedFalseLiteral,
)
from provgames.games import TERMINAL
from provgames.infinity import INF
from provgames.logic import (
    And,
    Atom,
    Eq,
    Fp,
    KInterpretation,
    Not,
    Or,
    Quant,
    Structure,
    _resolve,
    build_mc_game,
    check_poslfp,
    fo_eval,
    free_variables,
    game_eval,
    induced_structure,
    is_model_defining,
    make_tracking_interpretation,
    model_check,
    parse_formula,
    poslfp_eval_direct,
    to_nnf,
)
from provgames.semirings import get_semiring

from genutil import (
    RELS,
    make_rng,
    random_fo_formula,
    random_interpretation,
    random_poslfp_formula,
)

BOOL = get_semiring("bool")
DUALNAT = get_semiring("dualnat")

TC = "[lfp R(x,y). E(x,y) | exists z.(E(x,z) & R(z,y))]"


# --- parser -------------------------------------------------------------


def test_parse_disjunction_root():
    f = parse_formula("E(x,y) | exists z. (E(x,z) & R(z,y))")
    assert isinstance(f, Or)
    assert isinstance(f.right, Quant) and f.right.kind == "exists"


def test_parse_lfp():
    f = parse_formula(f"{TC}(u,v)")
    assert isinstance(f, Fp) and f.kind == "lfp"
    assert f.params == ("x", "y") and f.args == ("u", "v")


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse_formula("R(x) & !R(x,y)")
    with pytest.raises(ArityError):
        parse_formula("[lfp R(x). P(x)](a,b)")


def test_parse_syntax_error_has_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("E(x,y) | | R(x)")
    assert exc.value.position is not None


def test_parse_equalities_and_precedence():
    f = parse_formula("a = b | a != b & !P(a)")
    # '&' binds tighter than '|', '!' tighter than '&'.
    assert isinstance(f, Or) and isinstance(f.right, And)
    assert f.right.left == Eq("a", "b", negated=True)
    assert f.right.right == Not(Atom("P", ("a",)))


# --- nnf ----------------------------------------------------------------


def test_nnf_de_morgan():
    f = to_nnf(parse_formula("!(R(a) & !S(b))"))
    assert f == Or(Atom("R", ("a",), True), Atom("S", ("b",), False))


def test_nnf_quantifier_flip():
    f = to_nnf(parse_formula("!forall x. R(x)"))
    assert f == Quant("exists", "x", Atom("R", ("x",), True))


def test_nnf_lfp_duality_then_rejection():
    f = to_nnf(Not(parse_formula(f"{TC}(a,b)")))
    assert isinstance(f, Fp) and f.kind == "gfp"
    # The bound relation occurrences are also negated in the dual body.
    with pytest.raises(NotPosLFP):
        check_poslfp(f)
    pi = KInterpretation(BOOL, ("a", "b"), {"E": 2}, {})
    with pytest.raises(NotPosLFP):
        game_eval(pi, Not(parse_formula(f"{TC}(a,b)")))


def test_nnf_idempotent_on_random_formulas():
    rng = make_rng(salt=6)
    for _ in range(120):
        f = random_fo_formula(rng, ("a", "b"), depth=4)
        nnf = to_nnf(f)
        assert to_nnf(nnf) == nnf


# --- game construction ---------------------------------------------------


def test_exists_game_shape():
    mc = build_mc_game(("a", "b"), parse_formula("exists x. R(x)"))
    g = mc.game
    assert len(g.owners) == 3
    assert g.owner(mc.root) == 0
    assert sorted(mc.terminal_literals.values()) == [
        ("R", ("a",), True), ("R", ("b",), True)
    ]


def test_occurrences_are_distinct_positions():
    mc = build_mc_game(("a",), parse_formula("P(a) | (P(a) & Q(a))"))
    assert len(mc.game.owners) == 5
    lits = list(mc.terminal_literals.values())
    assert lits.count(("P", ("a",), True)) == 2


def test_lfp_game_is_cyclic():
    mc = build_mc_game(("a", "b"), parse_formula(f"{TC}(a,b)"))
    assert not mc.game.is_acyclic()


def _reference_mc_game(universe, formula):
    """build_mc_game as it was before supports were computed once per
    subformula: free_variables once per environment entry, at every
    position.  Returns (owners, moves, terminal_literals)."""
    owners, moves, terminal_literals = {}, [], {}

    def build(f, path, env, binders):
        pos = (path, env)
        if pos in owners:
            return pos
        e = dict(env)
        if isinstance(f, Atom) and f.rel in binders:
            owners[pos] = 0
            body_path, params, body = binders[f.rel]
            args = tuple(_resolve(t, e, universe) for t in f.args)
            moves.append((pos, build(body, body_path, frozenset(zip(params, args)), binders)))
            return pos
        if isinstance(f, (Atom, Eq)):
            owners[pos] = TERMINAL
            if isinstance(f, Atom):
                args = tuple(_resolve(t, e, universe) for t in f.args)
                terminal_literals[pos] = (f.rel, args, not f.negated)
            else:
                terminal_literals[pos] = ("=", _resolve(f.left, e, universe),
                                          _resolve(f.right, e, universe), f.negated)
            return pos
        if isinstance(f, (And, Or)):
            owners[pos] = 0 if isinstance(f, Or) else 1
            for i, sub in enumerate((f.left, f.right)):
                relevant = frozenset((k, v) for k, v in env if k in free_variables(sub))
                moves.append((pos, build(sub, path + (i,), relevant, binders)))
            return pos
        if isinstance(f, Quant):
            owners[pos] = 0 if f.kind == "exists" else 1
            for a in universe:
                relevant = frozenset(
                    (k, v) for k, v in {**e, f.var: a}.items()
                    if k == f.var or k in free_variables(f.sub)
                )
                moves.append((pos, build(f.sub, path + (0,), relevant, binders)))
            return pos
        owners[pos] = 0
        args = tuple(_resolve(t, e, universe) for t in f.args)
        body_path = path + (0,)
        new_binders = {**binders, f.rel: (body_path, f.params, f.body)}
        moves.append((pos, build(f.body, body_path, frozenset(zip(f.params, args)),
                                 new_binders)))
        return pos

    build(formula, (), frozenset(), {})
    return owners, moves, terminal_literals


def test_mc_game_matches_reference_on_corpus():
    rng = make_rng(salt=21)
    count = 0
    for universe in (("a", "b"), ("a", "b", "c")):
        for _ in range(60):
            for f in (to_nnf(random_fo_formula(rng, universe, depth=4)),
                      to_nnf(random_poslfp_formula(rng, universe))):
                mc = build_mc_game(universe, f)
                owners, moves, literals = _reference_mc_game(universe, f)
                assert mc.game.owners == owners
                assert mc.game.moves == moves
                assert mc.terminal_literals == literals
                count += 1
    assert count == 240


# --- evaluation -----------------------------------------------------------


def _interp_rq():
    p, q = DUALNAT.token("p"), DUALNAT.token("q")
    return KInterpretation(
        DUALNAT, ("a", "b"), {"R": 1},
        {("R", ("a",), True): p, ("R", ("b",), True): q},
    ), p, q


def test_fo_eval_quantifiers():
    pi, p, q = _interp_rq()
    assert fo_eval(pi, parse_formula("exists x. R(x)")) == DUALNAT.add(p, q)
    assert fo_eval(pi, parse_formula("forall x. R(x)")) == DUALNAT.mul(p, q)


def test_fo_eval_tracking_never_forms_complementary_monomials():
    p, q = DUALNAT.token("p"), DUALNAT.token("q")
    pbar = DUALNAT.token("~p")
    pi = KInterpretation(
        DUALNAT, ("a", "b"), {"R": 1},
        {("R", ("a",), True): p, ("R", ("a",), False): pbar,
         ("R", ("b",), True): q},
    )
    val = fo_eval(pi, parse_formula("!R(a) | (R(a) & R(b))"))
    assert val == DUALNAT.add(pbar, DUALNAT.mul(p, q))
    # And multiplying the two alternatives erases the cross terms entirely.
    assert DUALNAT.mul(pbar, p) == DUALNAT.zero


def test_fo_eval_requires_sentence():
    pi, _, _ = _interp_rq()
    with pytest.raises(NotSentence):
        fo_eval(pi, parse_formula("R(x)"))


def test_game_agrees_with_compositional_on_corpus():
    rng = make_rng(salt=7)
    universe = ("a", "b")
    handles = [BOOL, get_semiring("nat"), get_semiring("viterbi"), DUALNAT]
    count = 0
    for handle in handles:
        for _ in range(60):
            f = random_fo_formula(rng, universe, depth=3)
            pi = random_interpretation(rng, handle, universe)
            assert game_eval(pi, f, 0) == fo_eval(pi, f)
            assert game_eval(pi, f, 1) == fo_eval(pi, Not(f))
            count += 1
    assert count >= 200


def test_game_agrees_with_direct_on_poslfp_corpus():
    rng = make_rng(salt=8)
    universe = ("a", "b")
    count = 0
    for handle in (BOOL, get_semiring("natinf")):
        for _ in range(60):
            f = random_poslfp_formula(rng, universe)
            pi = random_interpretation(
                rng, handle, universe,
                rels={**RELS, "F": len(f.params)},
            )
            assert game_eval(pi, f, 0) == poslfp_eval_direct(pi, f)
            count += 1
    assert count >= 100


def test_boolean_soundness_against_model_checker():
    rng = make_rng(salt=9)
    universe = ("a", "b")
    for _ in range(150):
        f = random_fo_formula(rng, universe, depth=3)
        pi = random_interpretation(rng, BOOL, universe, model_defining=True)
        structure = induced_structure(pi)
        assert (fo_eval(pi, f) != 0) == model_check(structure, f)


def test_transitive_closure_examples():
    pi = KInterpretation(BOOL, ("a", "b"), {"E": 2}, {("E", ("a", "b"), True): 1})
    assert game_eval(pi, parse_formula(f"{TC}(a,b)")) == 1
    assert game_eval(pi, parse_formula(f"{TC}(b,a)")) == 0
    assert poslfp_eval_direct(pi, parse_formula(f"{TC}(a,b)")) == 1


def test_path_counting_diverges_on_cycle():
    ni = get_semiring("natinf")
    pi = KInterpretation(
        ni, ("a", "b"), {"E": 2},
        {("E", ("a", "b"), True): 1, ("E", ("b", "a"), True): 1},
    )
    f = parse_formula(f"{TC}(a,a)")
    assert poslfp_eval_direct(pi, f) is INF
    assert game_eval(pi, f) is INF


def test_empty_fixpoint_is_zero():
    pi = KInterpretation(BOOL, ("a",), {"P": 1}, {})
    f = parse_formula("[lfp R(x). R(x) & x != x](a)")
    assert poslfp_eval_direct(pi, f) == 0
    assert game_eval(pi, f) == 0


def test_nested_lfp():
    # Reachability via an inner one-step relation defined by an inner lfp.
    pi = KInterpretation(BOOL, ("a", "b"), {"E": 2}, {("E", ("a", "b"), True): 1})
    f = parse_formula(
        "[lfp R(x,y). [lfp S(u,v). E(u,v)](x,y) | exists z.(E(x,z) & R(z,y))](a,b)"
    )
    assert poslfp_eval_direct(pi, f) == 1
    assert game_eval(pi, f) == 1


# --- interpretations -------------------------------------------------------


def test_model_defining_verdicts():
    p, pbar = DUALNAT.token("p"), DUALNAT.token("~p")
    base = {("R", ("a",), True): p}
    pi = KInterpretation(DUALNAT, ("a",), {"R": 1}, base, model_default=True)
    assert is_model_defining(pi)
    pi_bad = KInterpretation(
        DUALNAT, ("a",), {"R": 1},
        {("R", ("a",), True): p, ("R", ("a",), False): pbar},
    )
    assert not is_model_defining(pi_bad)
    pi_zero = KInterpretation(DUALNAT, ("a",), {"R": 1}, {})
    assert not is_model_defining(pi_zero)
    with pytest.raises(NotModelDefining):
        induced_structure(pi_zero)


def test_tracking_interpretation():
    s = Structure(("a", "b"), {"R": frozenset({("a",)})}, {"R": 1})
    pi = make_tracking_interpretation(
        s, {("R", ("a",), True), ("R", ("b",), False)}
    )
    assert pi.literal("R", ("a",), True) == DUALNAT.token("R_a")
    assert pi.literal("R", ("b",), False) == DUALNAT.token("~R_b")
    assert pi.literal("R", ("a",), False) == DUALNAT.zero
    assert pi.literal("R", ("b",), True) == DUALNAT.zero
    assert is_model_defining(pi)


def test_tracking_duality_hygiene():
    s = Structure(("a", "b"), {"R": frozenset({("a",)})}, {"R": 1})
    pi = make_tracking_interpretation(s, {("R", ("a",), True)})
    for rel, args, positive in pi.literals():
        pos = pi.literal(rel, args, True)
        neg = pi.literal(rel, args, False)
        assert pos == pi.handle.zero or neg == pi.handle.zero


def test_tracking_empty_set_is_boolean():
    s = Structure(("a",), {"R": frozenset({("a",)})}, {"R": 1})
    pi = make_tracking_interpretation(s, set())
    assert pi.literal("R", ("a",), True) == pi.handle.one
    assert pi.literal("R", ("a",), False) == pi.handle.zero


def test_tracking_false_literal_rejected():
    s = Structure(("a",), {"R": frozenset()}, {"R": 1})
    with pytest.raises(TrackedFalseLiteral):
        make_tracking_interpretation(s, {("R", ("a",), True)})


def test_nnf_preserves_boolean_semantics():
    rng = make_rng(salt=10)
    universe = ("a", "b")
    for _ in range(100):
        f = random_fo_formula(rng, universe, depth=3)
        pi = random_interpretation(rng, BOOL, universe, model_defining=True)
        structure = induced_structure(pi)
        assert model_check(structure, f) == model_check(structure, to_nnf(f))
