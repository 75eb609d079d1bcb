"""Logic: parser, nnf, games, agreement suites, tracking interpretations."""

import time
import tracemalloc

import pytest

from provgames import logic
from provgames.errors import (
    ArityError,
    FormulaSyntaxError,
    MalformedGame,
    NoConvergence,
    NotModelDefining,
    NotNNF,
    NotPosLFP,
    NotSentence,
    ProvError,
    TrackedFalseLiteral,
)
from provgames.games import TERMINAL, GameGraph
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
    _Compiler,
    _resolve,
    _tuples,
    build_mc_game,
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
    reference_blown_up,
    reference_saturate,
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


def _reference_check_arities(formula, arities=None):
    """The arity check as it was before the parser made it: a walk of the
    parsed tree in preorder, raising the first clash."""
    arities = arities if arities is not None else {}

    def walk(f):
        if isinstance(f, Atom):
            known = arities.setdefault(f.rel, len(f.args))
            if known != len(f.args):
                raise ArityError(
                    f"relation {f.rel} used with arities {known} and {len(f.args)}"
                )
        elif isinstance(f, Eq):
            pass
        elif isinstance(f, Not):
            walk(f.sub)
        elif isinstance(f, (And, Or)):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Quant):
            walk(f.sub)
        elif isinstance(f, Fp):
            known = arities.setdefault(f.rel, len(f.params))
            if known != len(f.params):
                raise ArityError(
                    f"relation {f.rel} used with arities {known} and {len(f.params)}"
                )
            walk(f.body)

    walk(formula)
    return arities


class _Discard(list):
    def append(self, item):
        pass


class _ParserWithoutArities(logic._FormulaParser):
    """The parser with no uses of relation symbols to check."""

    def __init__(self, text):
        super().__init__(text)
        self.uses = _Discard()


def _reference_parse(text):
    """Parse without the parser's arity check, then walk the tree."""
    formula = _ParserWithoutArities(text).parse()
    _reference_check_arities(formula)
    return formula


def _text(f):
    """Formula f in the text grammar, every composite part in parentheses."""
    if isinstance(f, Atom):
        return f"{'!' if f.negated else ''}{f.rel}({','.join(f.args)})"
    if isinstance(f, Eq):
        return f"{f.left} {'!=' if f.negated else '='} {f.right}"
    if isinstance(f, Not):
        return f"!({_text(f.sub)})"
    if isinstance(f, (And, Or)):
        return f"({_text(f.left)} {'&' if isinstance(f, And) else '|'} {_text(f.right)})"
    if isinstance(f, Quant):
        return f"({f.kind} {f.var}. {_text(f.sub)})"
    return (f"[{f.kind} {f.rel}({','.join(f.params)}). {_text(f.body)}]"
            f"({','.join(f.args)})")


def _with_arity_clashes(rng, f):
    """f with about a third of its atoms given one argument more or fewer."""
    if isinstance(f, Atom) and rng.random() < 0.3:
        longer = len(f.args) == 1 or rng.random() < 0.5
        return Atom(f.rel, f.args + ("a",) if longer else f.args[:-1], f.negated)
    if isinstance(f, (And, Or)):
        return type(f)(_with_arity_clashes(rng, f.left), _with_arity_clashes(rng, f.right))
    if isinstance(f, Not):
        return Not(_with_arity_clashes(rng, f.sub))
    if isinstance(f, Quant):
        return Quant(f.kind, f.var, _with_arity_clashes(rng, f.sub))
    if isinstance(f, Fp):
        return Fp(f.kind, f.rel, f.params, _with_arity_clashes(rng, f.body), f.args)
    return f


def _parse_outcome(parse, text):
    """The parsed formula, or the type and message of the ProvError raised."""
    try:
        return parse(text)
    except ProvError as exc:
        return type(exc), str(exc)


def test_parser_raises_the_first_arity_clash_after_the_parse():
    rng = make_rng(salt=63)
    universe = ("a", "b")
    clashes = 0
    for _ in range(300):
        f = rng.choice((random_fo_formula(rng, universe, depth=4),
                        random_poslfp_formula(rng, universe)))
        text = _text(_with_arity_clashes(rng, f))
        variants = (text, text + " & (E(a,a) |", text + " | E(a))")
        outcomes = [_parse_outcome(_reference_parse, variant) for variant in variants]
        for variant, expected in zip(variants, outcomes):
            assert _parse_outcome(parse_formula, variant) == expected, variant
        if isinstance(outcomes[0], tuple) and outcomes[0][0] is ArityError:
            # A syntax error after the clash wins.
            clashes += 1
            assert outcomes[1][0] is outcomes[2][0] is FormulaSyntaxError
    assert clashes >= 100


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
        _reference_check_poslfp(f)
    pi = KInterpretation(BOOL, ("a", "b"), {"E": 2}, {})
    for evaluate in (game_eval, poslfp_eval_direct):
        with pytest.raises(NotPosLFP):
            evaluate(pi, Not(parse_formula(f"{TC}(a,b)")))


def _reference_check_poslfp(formula):
    """The fragment check as it was before the formula plan made it: reject
    gfp operators and negative bound-relation occurrences, first in
    preorder."""
    def walk(f, bound_rels):
        if isinstance(f, Atom):
            if f.negated and f.rel in bound_rels:
                raise NotPosLFP(f"fixed-point relation {f.rel} occurs negatively")
        elif isinstance(f, Eq):
            pass
        elif isinstance(f, Not):
            raise NotNNF("positivity check expects negation normal form")
        elif isinstance(f, (And, Or)):
            walk(f.left, bound_rels)
            walk(f.right, bound_rels)
        elif isinstance(f, Quant):
            walk(f.sub, bound_rels)
        else:
            if f.kind != "lfp":
                raise NotPosLFP("greatest fixed points are outside the fragment")
            walk(f.body, bound_rels | {f.rel})

    walk(formula, frozenset())


def test_nnf_idempotent_on_random_formulas():
    rng = make_rng(salt=6)
    for _ in range(120):
        f = random_fo_formula(rng, ("a", "b"), depth=4)
        nnf = to_nnf(f)
        assert to_nnf(nnf) == nnf


def _reference_negate_rel_atoms(formula, rel):
    """Substitute R / !R for the given fixed-point relation symbol."""
    if isinstance(formula, Atom):
        if formula.rel == rel:
            return Atom(formula.rel, formula.args, not formula.negated)
        return formula
    if isinstance(formula, Eq):
        return formula
    if isinstance(formula, Not):
        return Not(_reference_negate_rel_atoms(formula.sub, rel))
    if isinstance(formula, (And, Or)):
        return type(formula)(_reference_negate_rel_atoms(formula.left, rel),
                             _reference_negate_rel_atoms(formula.right, rel))
    if isinstance(formula, Quant):
        return Quant(formula.kind, formula.var, _reference_negate_rel_atoms(formula.sub, rel))
    if formula.rel == rel:
        # The inner binder shadows the outer relation symbol.
        return formula
    return Fp(formula.kind, formula.rel, formula.params,
              _reference_negate_rel_atoms(formula.body, rel), formula.args)


def _reference_to_nnf(formula, negate=False):
    """The two-pass conversion: a negated fixed point substitutes !R for R
    in its body, then converts the negated body."""
    if isinstance(formula, Atom):
        return Atom(formula.rel, formula.args, formula.negated != negate)
    if isinstance(formula, Eq):
        return Eq(formula.left, formula.right, formula.negated != negate)
    if isinstance(formula, Not):
        return _reference_to_nnf(formula.sub, not negate)
    if isinstance(formula, (And, Or)):
        left = _reference_to_nnf(formula.left, negate)
        right = _reference_to_nnf(formula.right, negate)
        return ({And: Or, Or: And}[type(formula)] if negate else type(formula))(left, right)
    if isinstance(formula, Quant):
        kind = {"exists": "forall", "forall": "exists"}[formula.kind] if negate else formula.kind
        return Quant(kind, formula.var, _reference_to_nnf(formula.sub, negate))
    if not negate:
        return Fp(formula.kind, formula.rel, formula.params,
                  _reference_to_nnf(formula.body), formula.args)
    body = _reference_to_nnf(Not(_reference_negate_rel_atoms(formula.body, formula.rel)))
    return Fp("gfp" if formula.kind == "lfp" else "lfp", formula.rel, formula.params, body,
              formula.args)


def _under_fixed_points(rng, f):
    """f under one to three fixed points, each perhaps negated, binding R
    (which random formulas read, so an inner binder shadows an outer one)
    or F, with the bound symbol also read beside f."""
    for _ in range(rng.randint(1, 3)):
        rel = rng.choice(("R", "F"))
        if rng.random() < 0.3:
            f = Not(f)
        body = rng.choice((And, Or))(Atom(rel, ("x0",), rng.random() < 0.3), f)
        f = Fp(rng.choice(("lfp", "gfp")), rel, ("x0",), body, ("a",))
        if rng.random() < 0.6:
            f = Not(f)
        if rng.random() < 0.3:
            f = rng.choice((And, Or))(f, Atom(rel, ("b",)))
    return f


def test_nnf_in_one_pass_matches_the_two_pass_conversion():
    rng = make_rng(salt=61)
    universe = ("a", "b")
    for _ in range(1500):
        f = _under_fixed_points(rng, rng.choice((random_fo_formula(rng, universe, depth=4),
                                                 random_poslfp_formula(rng, universe))))
        assert to_nnf(f) == _reference_to_nnf(f), f
        assert to_nnf(Not(f)) == _reference_to_nnf(Not(f)), f


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
                labels = mc.labels
                assert list(mc.game.owners) == list(range(len(labels)))
                assert mc.root == 0 and labels[0] == ((), frozenset())
                assert len(set(labels)) == len(labels)
                assert {labels[v]: o for v, o in mc.game.owners.items()} == owners
                assert [(labels[u], labels[w]) for u, w in mc.game.moves] == moves
                assert {labels[v]: lit for v, lit in mc.terminal_literals.items()} == literals
                count += 1
    assert count == 240


def test_mc_game_hands_over_the_graph_its_search_built():
    # build_mc_game hands its successor lists and finish order to the trusted
    # constructor; the checked one, with a search of its own, must agree.
    rng = make_rng(salt=22)
    games = cyclic = 0
    for universe in (("a", "b"), ("a", "b", "c")):
        for _ in range(150):
            for f in (to_nnf(random_fo_formula(rng, universe, depth=4)),
                      to_nnf(random_poslfp_formula(rng, universe))):
                try:
                    mc = build_mc_game(universe, f)
                except ProvError:
                    continue
                rebuilt = GameGraph(mc.game.owners, mc.game.moves)
                assert mc.game.topological_order() == rebuilt.topological_order()
                assert mc.game.is_acyclic() == rebuilt.is_acyclic()
                for v in rebuilt.owners:
                    assert mc.game.successors(v) == rebuilt.successors(v)
                games += 1
                cyclic += not rebuilt.is_acyclic()
    assert (games, cyclic) == (600, 209)


def test_a_fixed_point_body_reached_twice_is_one_position():
    # The body with x = a is entered from the Fp position 0 and from the
    # unfolding of R(x) inside it, which closes the cycle.
    mc = build_mc_game(("a", "b"), parse_formula("[lfp R(x). P(x) | R(x)](a)"))
    game = mc.game
    assert len(game.owners) == 4
    assert game.successors(0) == game.successors(3) == [1]
    assert mc.labels[1] == ((0,), frozenset({("x", "a")}))
    assert mc.labels[3] == ((0, 1), frozenset({("x", "a")}))
    assert game.topological_order() is None and not game.is_acyclic()
    assert GameGraph(game.owners, game.moves).topological_order() is None


def test_a_universe_with_a_repeated_element_is_rejected():
    with pytest.raises(MalformedGame, match="^the universe lists an element twice$"):
        build_mc_game(("a", "b", "a"), parse_formula("exists x. R(x)"))


def test_quantifier_environments_keep_every_move():
    nat = get_semiring("nat")
    r = {"a": 2, "b": 3, "c": 5}
    not_r = {"a": 7, "b": 11, "c": 13}
    values = {("Q", (), True): 4, ("Q", (), False): 6}
    for a in r:
        values[("R", (a,), True)] = r[a]
        values[("R", (a,), False)] = not_r[a]
    pi = KInterpretation(nat, tuple(r), {"R": 1, "Q": 0}, values)
    shadowing = parse_formula("exists x. exists x. R(x)")
    vacuous = Quant("exists", "x", Atom("Q", ()))  # the parser has no nullary atoms
    for f, value, negated in ((shadowing, 3 * sum(r.values()), (7 * 11 * 13) ** 3),
                              (vacuous, 3 * 4, 6 ** 3)):
        assert game_eval(pi, f, 0) == fo_eval(pi, f) == value
        assert game_eval(pi, f, 1) == fo_eval(pi, Not(f)) == negated


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


def _size(f):
    """Number of nodes of a first-order formula."""
    if isinstance(f, (Atom, Eq)):
        return 1
    if isinstance(f, (And, Or)):
        return 1 + _size(f.left) + _size(f.right)
    return 1 + _size(f.sub)


def test_fo_eval_converts_to_nnf_once(monkeypatch):
    f = parse_formula("forall z. exists x. !(R(x) & !(exists y. (E(x,y) & !E(y,z))))")
    universe = ("a", "b", "c")
    pi = random_interpretation(make_rng(salt=13), DUALNAT, universe)
    expected = game_eval(pi, f, 0)
    calls = []
    real = logic.to_nnf

    def counting(formula):
        calls.append(formula)
        return real(formula)

    monkeypatch.setattr(logic, "to_nnf", counting)
    assert fo_eval(pi, f) == expected
    # One conversion visits each node once, whatever the universe's size;
    # converting again under each quantifier binding would not.
    assert 0 < len(calls) <= _size(f)


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


def test_direct_mode_ignores_a_diverging_tuple_it_never_reaches():
    # The cycle c->d->c gives R(c,d) infinitely many derivations, so natpoly
    # has no value for it; TC(a,b) reaches only the tuples R(z,b).
    natpoly = get_semiring("natpoly")
    p, q, r = (natpoly.token(t) for t in "pqr")
    edges = {("a", "b"): r, ("c", "d"): p, ("d", "c"): q}
    pi = KInterpretation(natpoly, ("a", "b", "c", "d"), {"E": 2},
                         {("E", e, True): value for e, value in edges.items()})
    reached = parse_formula(f"{TC}(a,b)")
    assert poslfp_eval_direct(pi, reached) == game_eval(pi, reached) == r
    diverging = parse_formula(f"{TC}(c,d)")
    for evaluate in (poslfp_eval_direct, game_eval):
        with pytest.raises(NoConvergence):
            evaluate(pi, diverging)


def test_an_atom_is_unfolded_by_the_fixed_point_around_it():
    # S(x) in R's body is the interpretation's S, also when the game reaches
    # R's body by unfolding R(y) inside the inner fixed point that binds S.
    natinf = get_semiring("natinf")
    pi = KInterpretation(natinf, ("a", "b"), {"S": 1, "E": 2},
                         {("S", ("b",), True): 5, ("E", ("a", "b"), True): 1})
    f = parse_formula("[lfp R(x). S(x) | exists z. (E(x,z) & [lfp S(y). R(y)](z))](a)")
    assert poslfp_eval_direct(pi, f) == game_eval(pi, f) == 5


def test_a_repeated_parameter_binds_its_last_argument_in_both_modes():
    # [lfp R(x,x). E(x,x)](u,b) reads E(b,b) for every u, as dict(zip(...)).
    natinf = get_semiring("natinf")
    pi = KInterpretation(natinf, ("a", "b"), {"E": 2},
                         {("E", ("a", "a"), True): 3, ("E", ("b", "b"), True): 5})
    f = parse_formula("exists u. [lfp R(x,x). E(x,x)](u,b)")
    assert poslfp_eval_direct(pi, f) == game_eval(pi, f) == 10


def test_game_raises_when_it_reaches_an_occurrence_outside_the_fragment():
    pi = KInterpretation(BOOL, ("a", "b"), {"E": 2}, {("E", ("a", "b"), True): 1})
    with pytest.raises(NotSentence, match="^unbound variable 'u'$"):
        game_eval(pi, parse_formula("exists u. [lfp R(x). E(u,x) | R(x)](a)"))
    negative = Fp("lfp", "R", ("x",), Or(Atom("E", ("x", "x")), Atom("R", ("x",), True)), ("a",))
    with pytest.raises(NotPosLFP, match="^fixed-point relation R occurs negatively$"):
        build_mc_game(pi.universe, negative)
    # Over an empty universe the quantifier has no moves, so its body, with
    # the unbound variable y, is never reached.
    mc = build_mc_game((), parse_formula("exists x. E(x,y)"))
    assert mc.game.owners == {0: 0} and mc.game.moves == []


def _chain(handle, n):
    universe = tuple(f"a{i}" for i in range(n))
    edges = {("E", (universe[i], universe[i + 1]), True): handle.one for i in range(n - 1)}
    return KInterpretation(handle, universe, {"E": 2}, edges)


def test_direct_mode_on_a_long_chain_compiles_only_reached_tuples():
    pi = _chain(BOOL, 300)
    start = time.perf_counter()
    assert poslfp_eval_direct(pi, parse_formula(f"{TC}(a0,a299)")) == 1
    assert time.perf_counter() - start < 2.0


def test_game_mode_on_a_long_chain_builds_without_recursion():
    # Every tuple R(z,a299) is an unfolding position, 300 deep along the
    # chain; the game has 181 201 positions.
    pi = _chain(get_semiring("natinf"), 300)
    assert game_eval(pi, parse_formula(f"{TC}(a0,a299)")) == 1


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


def _reference_direct(pi, sentence):
    """poslfp_eval_direct as it was before formulas were compiled to one
    equation system: each lfp table is iterated on its own, innermost
    first, and then saturated."""
    handle = pi.handle
    nnf = to_nnf(sentence)
    _reference_check_poslfp(nnf)

    def ev(f, env, rel_env):
        if isinstance(f, Atom):
            args = tuple(_resolve(t, env, pi.universe) for t in f.args)
            if f.rel in rel_env:
                return rel_env[f.rel][args]
            return pi.literal(f.rel, args, not f.negated)
        if isinstance(f, Eq):
            a = _resolve(f.left, env, pi.universe)
            b = _resolve(f.right, env, pi.universe)
            return pi.equality(a, b, f.negated)
        if isinstance(f, And):
            return handle.mul(ev(f.left, env, rel_env), ev(f.right, env, rel_env))
        if isinstance(f, Or):
            return handle.add(ev(f.left, env, rel_env), ev(f.right, env, rel_env))
        if isinstance(f, Quant):
            acc = handle.zero if f.kind == "exists" else handle.one
            combine = handle.add if f.kind == "exists" else handle.mul
            for a in pi.universe:
                acc = combine(acc, ev(f.sub, {**env, f.var: a}, rel_env))
            return acc
        table = _lfp_table(f, env, rel_env)
        args = tuple(_resolve(t, env, pi.universe) for t in f.args)
        return table[args]

    def _lfp_table(f, env, rel_env):
        tuples = _tuples(pi.universe, len(f.params))
        g = {args: handle.zero for args in tuples}
        n = len(tuples)
        max_iter = 4 * n + 16
        threshold = 2 * n + 2

        def step(current):
            return {
                args: ev(f.body, dict(zip(f.params, args)), {**rel_env, f.rel: current})
                for args in tuples
            }

        blowup = max(threshold + 1, 1 << 20)
        for _ in range(max_iter):
            nxt = step(g)
            if nxt == g:
                return g
            g = nxt
            if reference_blown_up(handle, g.values(), blowup, "lfp"):
                break
        for _ in range(2):
            state = dict(g)
            for _ in range(min(max_iter + threshold * n, 100_000)):
                nxt = step(state)
                moving = [args for args in tuples if nxt[args] != state[args]]
                if not moving:
                    break
                for args in moving:
                    nxt[args] = reference_saturate(handle, nxt[args], threshold, "lfp")
                if nxt == state:
                    break
                state = nxt
            if step(state) == state:
                return state
            threshold *= 2
            g = state
        raise NoConvergence("fixed-point relation valuation did not stabilize")

    return ev(nnf, {}, {})


def _outcome(evaluate, *args):
    """The value, or the type of the ProvError raised instead."""
    try:
        return evaluate(*args)
    except ProvError as exc:
        return type(exc)


REFERENCE_SEMIRINGS = ("bool", "natinf", "sorp", "sorpinf", "tropical", "posbool")

NESTED = [
    # an lfp inside an lfp body that uses the outer relation
    "[lfp R(x). P(x) | [lfp S(y). exists z.(E(y,z) & (R(z) | S(z)))](x)](a)",
    # an lfp under a quantifier
    "forall u. exists v. [lfp R(x,y). E(x,y) | exists z.(E(x,z) & R(z,y))](u,v)",
    # a squared body
    "[lfp S(y). P(y) | exists z.(E(z,y) & S(z) & S(z))](c)",
    # one relation symbol bound twice, the inner binder shadowing the outer
    "[lfp R(x). P(x) | exists y.(E(x,y) & [lfp R(z). P(z) | exists w.(E(w,z) & R(w))](y))](b)",
]


def _nested_interpretation(handle):
    """Edges a->b->c->a and c->b, P at c; each true literal a distinct
    sample value of the semiring."""
    pool = [v for v in handle.sample_values() if v != handle.zero]
    literals = [("E", ("a", "b")), ("E", ("b", "c")), ("E", ("c", "a")),
                ("E", ("c", "b")), ("P", ("c",))]
    return KInterpretation(
        handle, ("a", "b", "c"), {"E": 2, "P": 1},
        {(rel, args, True): pool[i % len(pool)] for i, (rel, args) in enumerate(literals)},
    )


@pytest.mark.parametrize("selector", REFERENCE_SEMIRINGS)
def test_direct_matches_reference_on_poslfp_corpus(selector):
    handle = get_semiring(selector)
    rng = make_rng(salt=40)
    for universe, count in ((("a", "b"), 60), (("a", "b", "c"), 20)):
        for _ in range(count):
            f = random_poslfp_formula(rng, universe)
            pi = random_interpretation(rng, handle, universe,
                                       rels={**RELS, "F": len(f.params)})
            assert _outcome(poslfp_eval_direct, pi, f) == _outcome(_reference_direct, pi, f)


@pytest.mark.parametrize("selector", REFERENCE_SEMIRINGS)
def test_direct_matches_reference_and_game_on_nested_fixpoints(selector):
    pi = _nested_interpretation(get_semiring(selector))
    for text in NESTED:
        f = parse_formula(text)
        direct = poslfp_eval_direct(pi, f)
        assert direct == _reference_direct(pi, f)
        assert direct == game_eval(pi, f)


def test_fixpoint_body_does_not_see_outer_variables():
    pi = _nested_interpretation(BOOL)
    f = parse_formula("exists u. [lfp R(x). E(u,x) | R(x)](a)")
    assert _outcome(_reference_direct, pi, f) is NotSentence
    with pytest.raises(NotSentence):
        poslfp_eval_direct(pi, f)


def test_transitive_closure_compiles_to_one_sum_per_tuple():
    # R(x,y) = E(x,y)*1 + sum over z of E(x,z)*R(z,y), zero terms left out;
    # only the tuples R(a,b) reaches, R(z,b) for each z, are compiled.
    natinf = get_semiring("natinf")
    pi = KInterpretation(natinf, ("a", "b"), {"E": 2}, {("E", ("a", "b"), True): 2})
    compiler = _Compiler(pi, to_nnf(parse_formula(f"{TC}(a,b)")), fixpoints=True)
    root = compiler.compile(0, ())
    assert root == ("sum", [(1, "R(a,b)")])
    assert compiler.equations == {}
    compiler.drain()
    assert compiler.equations == {
        "1": ("const", 1),
        "R(a,b)": ("sum", [(2, "1"), (2, "R(b,b)")]),
        "R(b,b)": ("const", 0),
    }
    assert poslfp_eval_direct(pi, parse_formula(f"{TC}(a,b)")) == 2


class _EnvCompiler(_Compiler):
    """`_Compiler` as it was before it compiled from the game plan: a walk
    of the syntax tree that binds variables in an environment dict per
    quantifier step, resolves every term through `_resolve`, and names one
    relation instance per lfp node.  Only `combine` and `auxiliary` are
    shared."""

    def __init__(self, pi, fixpoints):
        self.pi, self.handle, self.fixpoints = pi, pi.handle, fixpoints
        self.equations, self.instances, self.bodies = {}, {}, {}
        self.reached, self.pending = set(), []

    def compile(self, f, env, rel_env):
        pi = self.pi
        if isinstance(f, Atom):
            args = tuple(_resolve(t, env, pi.universe) for t in f.args)
            if f.rel in rel_env:
                return "sum", [(self.handle.one, self.tuple_var(rel_env[f.rel], args))]
            return "const", pi.literal(f.rel, args, not f.negated)
        if isinstance(f, Eq):
            a = _resolve(f.left, env, pi.universe)
            b = _resolve(f.right, env, pi.universe)
            return "const", pi.equality(a, b, f.negated)
        if isinstance(f, (And, Or)):
            parts = [self.compile(f.left, env, rel_env), self.compile(f.right, env, rel_env)]
            return self.combine("prod" if isinstance(f, And) else "sum", parts)
        if isinstance(f, Quant):
            parts = [self.compile(f.sub, {**env, f.var: a}, rel_env) for a in pi.universe]
            return self.combine("sum" if f.kind == "exists" else "prod", parts)
        if not self.fixpoints:
            raise NotPosLFP("fo_eval handles first-order sentences only")
        name = self.instances.get(id(f))
        if name is None:
            taken = f.rel in self.instances.values()
            name = f"{f.rel}#{len(self.instances) + 1}" if taken else f.rel
            self.instances[id(f)] = name
            self.bodies[name] = (f.params, f.body, {**rel_env, f.rel: name})
        args = tuple(_resolve(t, env, pi.universe) for t in f.args)
        return "sum", [(self.handle.one, self.tuple_var(name, args))]

    def tuple_var(self, name, args):
        var = f"{name}({','.join(args)})"
        if var not in self.reached:
            self.reached.add(var)
            self.pending.append((var, name, args))
        return var

    def drain(self):
        while self.pending:
            var, name, args = self.pending.pop()
            params, body, rel_env = self.bodies[name]
            self.equations[var] = self.compile(body, dict(zip(params, args)), rel_env)


def _compiled(compiler, compile_root):
    """The root right-hand side and the equations in order, or the type and
    message of the ProvError raised instead."""
    try:
        rhs = compile_root()
        compiler.drain()
    except ProvError as exc:
        return type(exc), str(exc)
    return rhs, list(compiler.equations.items())


def _expanded(compiler, compile_root):
    """`_compiled` with every auxiliary variable `#k` replaced by its
    right-hand side, and only the other equations listed: the system up to
    the naming and sharing of auxiliary variables."""
    outcome = _compiled(compiler, compile_root)
    if isinstance(outcome[0], type):
        return outcome
    equations = compiler.equations

    def expand(rhs):
        if rhs[0] == "const":
            return rhs
        return rhs[0], [(c, expand(equations[v]) if v.startswith("#") else v)
                        for c, v in rhs[1]]

    return expand(outcome[0]), [(v, expand(rhs)) for v, rhs in outcome[1]
                                if not v.startswith("#")]


# Sentences the random corpora do not produce: a fixed-point body reading an
# outer variable, a free variable, one symbol bound by three fixed points.
COMPILER_EXTRAS = [
    "exists u. [lfp R(x). E(u,x) | R(x)](a)",
    "P(x) | exists y. E(y,x)",
    "[lfp R(x). P(x) | R(x)](a) & forall y. [lfp R(x). E(x,y) | R(x)](b)",
    "[lfp R(x). P(x) | R(x)](a) & exists y. ([lfp R(x). E(x,x) | R(x)](y)"
    " | [lfp R(z). E(z,c) | exists x. (E(z,x) & R(x))](y))",
]


@pytest.mark.parametrize("selector", ("bool", "natinf", "sorpinf", "tropical", "dualnat"))
def test_compiler_matches_the_environment_walk(selector):
    handle = get_semiring(selector)
    rng = make_rng(salt=62)
    nested = _nested_interpretation(handle)
    cases = [(nested, parse_formula(text)) for text in NESTED + COMPILER_EXTRAS]
    for universe, n in ((("a", "b"), 40), (("a", "b", "c"), 15)):
        for _ in range(n):
            fo = random_fo_formula(rng, universe, depth=3)
            lfp = random_poslfp_formula(rng, universe)
            pi = random_interpretation(rng, handle, universe,
                                       rels={**RELS, "F": len(lfp.params)})
            cases += [(pi, fo), (pi, Not(fo)), (pi, lfp)]
    count = 0
    for pi, f in cases:
        nnf = to_nnf(f)
        for fixpoints in (False, True):
            if fixpoints:
                try:
                    _reference_check_poslfp(nnf)  # as `poslfp_eval_direct` does first
                except ProvError:
                    continue
            new = _Compiler(pi, nnf, fixpoints)
            old = _EnvCompiler(pi, fixpoints)
            # Compiling each key once shares what the walk compiled again
            # per path: with fixed points, each path's reference to a shared
            # key gets an auxiliary variable of its own, as in the walk, but
            # the auxiliary variables inside the key are made only once.
            outcome = _expanded if fixpoints else _compiled
            expected = outcome(old, lambda: old.compile(nnf, {}, {}))
            assert outcome(new, lambda: new.compile(0, ())) == expected, f
            count += 1
    assert count >= 300


class _CountingInterpretation(KInterpretation):
    """Counts the literals looked up."""

    lookups = 0

    def literal(self, rel, args, positive=True):
        self.lookups += 1
        return super().literal(rel, args, positive)


class _CountingCompiler(_Compiler):
    """Counts the branch and quantifier keys combined."""

    combined = 0

    def combine(self, op, parts):
        self.combined += 1
        return super().combine(op, parts)


def test_each_key_is_compiled_once():
    # 3 739 keys, the game's positions: 588 literals and 3 151 branches and
    # quantifiers.  Compiling once per path made 8 835 compile calls, with
    # 5 684 literal lookups.
    f = parse_formula("forall x. forall y. (!E(x,y) | exists z. (E(y,z) & !E(z,x)))")
    universe = tuple(f"u{i}" for i in range(14))
    rng = make_rng(salt=64)
    edges = {("E", (u, w), True): 1 for u in universe for w in rng.sample(universe, 2)}
    pi = _CountingInterpretation(BOOL, universe, {"E": 2}, edges, model_default=True)
    compiler = _CountingCompiler(pi, to_nnf(f), fixpoints=False)
    value = compiler.compile(0, ())[1]
    mc = build_mc_game(universe, to_nnf(f))
    assert pi.lookups == len(mc.terminal_literals) == 588
    assert compiler.combined + pi.lookups == len(mc.game.owners) == 3739
    assert value == game_eval(pi, f) == model_check(induced_structure(pi), f)


def _quantifier_chain(depth):
    """exists x1. ... exists x<depth>. E(x<depth>,x<depth>)"""
    f = Atom("E", (f"x{depth}", f"x{depth}"))
    for i in range(depth, 0, -1):
        f = Quant("exists", f"x{i}", f)
    return f


def test_a_quantifier_chain_takes_linear_time_in_every_mode():
    natinf = get_semiring("natinf")
    pi = _CountingInterpretation(natinf, ("a", "b"), {"E": 2},
                                 {("E", ("a", "a"), True): 1, ("E", ("b", "b"), True): 1})
    f = parse_formula("".join(f"exists x{i}. " for i in range(1, 23)) + "E(x22,x22)")
    start = time.perf_counter()
    for evaluate in (game_eval, fo_eval, poslfp_eval_direct):
        pi.lookups = 0
        assert evaluate(pi, f) == 2 ** 22 == 4194304
        # Each level has two keys, one per value of its variable, whatever
        # the paths to them; once per path would be 2**22 lookups.
        assert pi.lookups == 2
    assert time.perf_counter() - start < 5.0


def test_formulas_built_in_python_nest_to_any_depth():
    # Only the parser recurses per level; check values only, as the
    # dataclasses' ==, hash and repr recurse too.
    depth = 1500
    pi = KInterpretation(BOOL, ("a", "b"), {"E": 2}, {("E", ("a", "a"), True): 1})
    negations = Atom("E", ("a", "b"))
    for _ in range(depth):
        negations = Not(And(Atom("E", ("a", "a")), negations))
    # E(a,a) holds, so each level negates the one below: an even number
    # of them leaves E(a,b), false; negative literals are 0 here as well.
    assert isinstance(to_nnf(negations), Or)
    assert free_variables(negations) == {"a", "b"}
    for evaluate in (fo_eval, game_eval, poslfp_eval_direct):
        assert evaluate(pi, negations) == 0

    natinf = get_semiring("natinf")
    pi = KInterpretation(natinf, ("a", "b"), {"E": 2}, {("E", ("a", "a"), True): 1})
    chain = _quantifier_chain(depth)
    assert free_variables(chain) == set()
    for evaluate in (fo_eval, game_eval, poslfp_eval_direct):
        assert evaluate(pi, chain) == 2 ** (depth - 1)

    # [lfp R1(x). E(x,x) | [lfp R2(x). R1(x) | ... ](x)](a): R1(a) holds
    # through E(a,a), and each inner relation through the one around it.
    pi = KInterpretation(natinf, ("a", "b"), {"E": 2}, {("E", ("a", "a"), True): 1})
    body = Atom(f"R{depth}", ("x",))
    for i in range(depth, 0, -1):
        inner = Or(Atom(f"R{i - 1}" if i > 1 else "E", ("x",) if i > 1 else ("x", "x")), body)
        body = Fp("lfp", f"R{i}", ("x",), inner, ("x",))
    fixpoints = Fp(body.kind, body.rel, body.params, body.body, ("a",))
    assert free_variables(fixpoints) == {"a"}
    assert game_eval(pi, fixpoints) == poslfp_eval_direct(pi, fixpoints) == INF


def test_formulas_built_in_python_take_memory_linear_in_their_depth():
    # Occurrences link to their parents; a copied path per occurrence took
    # about 300 MB for this chain in both modes.
    nat = get_semiring("nat")
    pi = KInterpretation(nat, ("a",), {"Q": 1},
                         {("Q", ("a",), True): 1, ("Q", ("a",), False): 1})
    f = Atom("Q", ("a",))
    for _ in range(6000):
        f = Not(And(f, Atom("Q", ("a",))))
    for evaluate in (fo_eval, game_eval):
        tracemalloc.start()
        try:
            assert evaluate(pi, f) == 3001
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, (evaluate.__name__, peak)


def test_direct_mode_names_a_tuple_variable_on_the_cycle():
    nat = get_semiring("nat")
    pi = KInterpretation(nat, ("a", "b"), {"R": 1},
                         {("R", ("a",), True): 3, ("R", ("b",), True): 2})
    f = parse_formula("[lfp F(x). R(x) | forall y. exists z. F(y)](b)")
    with pytest.raises(NoConvergence, match=r"^no least fixed point: 'F\(a\)' is nonzero"):
        poslfp_eval_direct(pi, f)
    # The auxiliary of the shared subformula forall z. F(a,x) is made in the
    # body of F(a,b), which lies on no cycle; only F(a,a) does.
    pi = KInterpretation(nat, ("a", "b"), {"R": 1}, {("R", ("b",), True): 1})
    f = parse_formula("[lfp F(x,y). R(b) | (R(b) | forall z. F(a,x))](a,b)")
    with pytest.raises(NoConvergence, match=r"^no least fixed point: 'F\(a,a\)' is nonzero"):
        poslfp_eval_direct(pi, f)


@pytest.mark.parametrize("selector, expected", [("nat", 75), ("dualnat", 69), ("natpoly", 66)])
def test_direct_mode_messages_never_name_an_auxiliary(selector, expected):
    # Before, 13, 13 and 9 of these messages named an auxiliary '#k'.
    handle = get_semiring(selector)
    rng = make_rng(salt=99)
    diverged = 0
    for universe, count in ((("a", "b"), 120), (("a", "b", "c"), 40)):
        for _ in range(count):
            f = random_poslfp_formula(rng, universe)
            pi = random_interpretation(rng, handle, universe,
                                       rels={**RELS, "F": len(f.params)})
            try:
                poslfp_eval_direct(pi, f)
            except NoConvergence as exc:
                assert "'#" not in str(exc), (f, str(exc))
                diverged += 1
            except ProvError:
                pass
    assert diverged == expected


def test_direct_mode_raises_the_first_fragment_fault_in_preorder():
    pi = KInterpretation(BOOL, ("a", "b"), {"E": 2, "P": 1}, {})
    f = parse_formula("[lfp R(x). P(c) | R(x)](a) & [gfp S(y). S(y)](b)")
    with pytest.raises(NotPosLFP, match="^greatest fixed points are outside the fragment$"):
        poslfp_eval_direct(pi, f)
    with pytest.raises(NotSentence, match="'c'"):
        game_eval(pi, f)
    rng = make_rng(salt=65)
    universe = ("a", "b")
    faults = 0
    for _ in range(400):
        f = _under_fixed_points(rng, rng.choice((random_fo_formula(rng, universe, depth=3),
                                                 random_poslfp_formula(rng, universe))))
        pi = random_interpretation(rng, BOOL, universe, rels={**RELS, "F": 1})
        try:
            _reference_check_poslfp(to_nnf(f))
        except NotPosLFP as exc:
            faults += 1
            with pytest.raises(NotPosLFP) as raised:
                poslfp_eval_direct(pi, f)
            assert str(raised.value) == str(exc)
    assert faults >= 200


def test_a_repeated_parameter_gets_one_tuple_per_distinct_binding():
    # u = a and u = b both bind x to b in [lfp R(x,x). ...](u,b), so both
    # reach one tuple variable R(b), as game mode has one unfolding position
    # with x = b; the body of R(b) reaches R(a).
    f = parse_formula("exists u. [lfp R(x,x). E(x,x) | exists y. (E(x,y) & R(y,y))](u,b)")
    edges = (("a", "b"), ("b", "b"))
    natinf = get_semiring("natinf")
    pi = KInterpretation(natinf, ("a", "b"), {"E": 2}, {("E", e, True): 1 for e in edges})
    compiler = _Compiler(pi, to_nnf(f), fixpoints=True)
    compiler.compile(0, ())
    compiler.drain()
    assert sorted(var for var in compiler.equations if var.startswith("R")) == ["R(a)", "R(b)"]
    assert poslfp_eval_direct(pi, f) == game_eval(pi, f) == INF
    natpoly = get_semiring("natpoly")
    pi = KInterpretation(natpoly, ("a", "b"), {"E": 2},
                         {("E", e, True): natpoly.token("p") for e in edges})
    with pytest.raises(NoConvergence, match=r"^no least fixed point: 'R\(b\)' is nonzero"):
        poslfp_eval_direct(pi, f)


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
