"""Polynomial quotients: ring laws, absorption, duality, projections."""

from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provgames import monomials, poly
from provgames.errors import DualityViolated, IllegalProjection, KindMismatch
from provgames.infinity import INF, ext_add, ext_le
from provgames.monomials import (
    ONE_MONOMIAL,
    Monomial,
    _degree_sort_key,
    format_monomial,
    merge_antichains,
    mono_absorbs,
    normalize_antichain,
    sort_monomials,
    token_signature,
)
from provgames.poly import (
    BOOLPOLY,
    DUALNAT,
    NATPOLY,
    POSBOOL,
    SORP,
    SORPINF,
    SORPINFDUAL,
    WHYPOLY,
    Polynomial,
    format_poly,
    format_polys,
    parse_poly,
    project,
    series_geom,
    specialize,
    trunc_kind,
)
from provgames.semirings import PolySemiring, get_semiring

from genutil import cap_exponents

TOKENS = ("p", "q", "r")
KINDS = (NATPOLY, BOOLPOLY, SORP, SORPINF, DUALNAT, trunc_kind(5))


def polys(kind):
    exps = st.integers(min_value=1, max_value=3)
    if kind.inf_exponents:
        exps = st.one_of(exps, st.just(INF))
    coeffs = st.integers(min_value=1, max_value=4)
    token_pool = list(TOKENS) + (["~p", "~q"] if kind.dual else [])
    mono = st.dictionaries(st.sampled_from(token_pool), exps, max_size=3).map(
        lambda d: Monomial(d.items())
    )
    return st.dictionaries(mono, coeffs, max_size=4).map(
        lambda monos: Polynomial(kind, monos)
    )


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_ring_laws(kind):
    @settings(max_examples=60, deadline=None)
    @given(polys(kind), polys(kind), polys(kind))
    def check(a, b, c):
        zero = Polynomial.zero(kind)
        one = Polynomial.one(kind)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a * zero == zero

    check()


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_format_parse_round_trip(kind):
    @settings(max_examples=60, deadline=None)
    @given(polys(kind))
    def check(a):
        assert parse_poly(kind, format_poly(a)) == a

    check()


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        Polynomial.token(NATPOLY, "p") + Polynomial.token(SORP, "p")


def test_dual_erasure():
    dn = get_semiring("dualnat")
    p, q = dn.token("p"), dn.token("q")
    pbar, qbar = dn.token("~p"), dn.token("~q")
    assert dn.mul(p, pbar) == dn.zero
    # (p + ~q)(~p + q) = pq + ~p~q: the cross terms vanish.
    lhs = dn.mul(dn.add(p, qbar), dn.add(pbar, q))
    assert lhs == dn.add(dn.mul(p, q), dn.mul(pbar, qbar))


def test_absorption_order_on_monomials():
    m_st = Monomial([("s", 1), ("t", 1)])
    m_s2 = Monomial([("s", 2)])
    m_tinf = Monomial([("t", INF)])
    m_t = Monomial([("t", 1)])
    assert mono_absorbs(m_tinf, m_t)  # t absorbs t^inf
    assert not mono_absorbs(m_t, m_tinf)
    assert not mono_absorbs(m_st, m_s2) and not mono_absorbs(m_s2, m_st)
    # t also absorbs s*t (pointwise smaller exponents), so the maximal
    # elements are just t and s^2.
    kept = normalize_antichain([m_st, m_s2, m_tinf, m_t])
    assert set(kept) == {m_s2, m_t}
    assert set(normalize_antichain([m_st, m_s2, m_tinf])) == {m_st, m_s2, m_tinf}


# --- the absorptive kernel against the reference implementations ----------


def reference_absorbs(m1, m2):
    """Dict-based absorption test: m2 has pointwise <= exponents."""
    m1_exps = dict(m1.exps)
    return all(ext_le(e, m1_exps.get(t, 0)) for t, e in m2.exps)


def reference_antichain(monomials):
    """Quadratic normalizer: drop each monomial that some member of the pool
    strictly absorbs."""
    pool = list(dict.fromkeys(monomials))
    return {
        m for m in pool
        if not any(
            m2 is not m and reference_absorbs(m, m2) and not reference_absorbs(m2, m)
            for m2 in pool
        )
    }


def reference_mul(m1, m2):
    """Monomial.mul as it was before the sorted merge: add the exponents in a
    dict and let the constructor sort and validate them."""
    merged = dict(m1.exps)
    for t, e in m2.exps:
        merged[t] = ext_add(merged.get(t, 0), e)
    return Monomial(merged)


def reference_degree_sort_key(m):
    """The display sort key as it was before finite monomials got the key
    (0, degree, exps)."""
    d = m.degree()
    return (
        1 if d is INF else 0,
        d if d is not INF else 0,
        tuple((t, 1 if e is INF else 0, e if e is not INF else 0) for t, e in m.exps),
    )


def reference_format(poly):
    """format_poly with the reference sort key."""
    if poly.is_zero:
        return "0"
    parts = []
    for m in sorted(poly.monos, key=reference_degree_sort_key):
        c = poly.monos[m]
        if m.is_one:
            parts.append(str(c))
        elif c == 1:
            parts.append(format_monomial(m))
        else:
            parts.append(f"{c}*{format_monomial(m)}")
    return " + ".join(parts)


MONO_EXPS = st.dictionaries(
    st.sampled_from(("p", "q", "r", "~p", "~q")),
    st.one_of(st.integers(min_value=0, max_value=3), st.just(INF)),
    max_size=4,
)
MONOMIALS = MONO_EXPS.map(lambda d: Monomial(d.items()))


@settings(max_examples=300, deadline=None)
@given(st.lists(MONOMIALS, max_size=14))
def test_normalize_antichain_matches_reference(pool):
    kept = normalize_antichain(pool)
    assert len(kept) == len(set(kept))
    assert set(kept) == reference_antichain(pool)
    for m1 in pool:
        for m2 in pool:
            assert mono_absorbs(m1, m2) == reference_absorbs(m1, m2)


@settings(max_examples=300, deadline=None)
@given(MONO_EXPS, MONO_EXPS)
def test_monomial_hash_equality_and_mul(d1, d2):
    m1, m2 = Monomial(d1), Monomial(d2)
    assert (m1 == m2) == (
        {t: e for t, e in d1.items() if e != 0} == {t: e for t, e in d2.items() if e != 0}
    )
    same = Monomial(list(reversed(list(d1.items()))) + [("s", 0)])
    assert same == m1 and hash(same) == hash(m1)
    assert m1.mul(ONE_MONOMIAL) == m1 and ONE_MONOMIAL.mul(m1) == m1
    product = m1.mul(m2)
    expected = reference_mul(m1, m2)
    for got in (product, m2.mul(m1)):
        assert got == expected and got.exps == expected.exps
        assert hash(got) == hash(expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(MONOMIALS, max_size=8))
def test_sort_key_orders_like_reference(pool):
    assert sort_monomials(pool) == sorted(pool, key=reference_degree_sort_key)
    for m1 in pool:
        for m2 in pool:
            assert ((_degree_sort_key(m1) < _degree_sort_key(m2))
                    == (reference_degree_sort_key(m1) < reference_degree_sort_key(m2)))


def test_monomial_merges_repeated_tokens():
    assert Monomial([("a", 1), ("a", 2)]) == Monomial({"a": 3})
    assert Monomial([("a", 1), ("a", 2)]).exps == (("a", 3),)
    assert Monomial([("a", 1), ("a", INF)]) == Monomial({"a": INF})
    assert Monomial([("b", 1), ("a", 0), ("b", 2), ("a", 1)]).exps == (("a", 1), ("b", 3))
    with pytest.raises(ValueError):
        Monomial([("a", 2), ("a", -1)])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("p", "q", "~p")),
                          st.one_of(st.integers(min_value=0, max_value=3), st.just(INF))),
                max_size=6))
def test_monomial_pairs_multiply(pairs):
    expected = ONE_MONOMIAL
    for t, e in pairs:
        expected = reference_mul(expected, Monomial({t: e}))
    m = Monomial(pairs)
    assert m == expected and hash(m) == hash(expected)


def marked_polys(kind):
    return st.tuples(polys(kind), st.booleans()).map(
        lambda pb: Polynomial(kind, pb[0].monos, pb[1])
    )


def reference_pow_inf(handle, a):
    """PolySemiring.pow_inf of the antichain kinds with inf exponents as it
    was before the closed form: multiply by a until the exponents, capped
    to inf at a threshold, stop changing, then check that v * a == v."""
    if a.is_zero or a == handle.one:
        return a
    finite_total = sum(e for m in a.monos for _, e in m if e is not INF)
    threshold = 2 * finite_total + 4
    for _ in range(2):
        v = a
        for _ in range(4 * threshold + 8):
            nxt = cap_exponents(v * a, threshold)
            if nxt == v:
                break
            v = nxt
        if v * a == v:
            return v
        threshold *= 2
    raise AssertionError("the reference power chain did not stabilize")


@pytest.mark.parametrize("kind", (SORPINF, SORPINFDUAL), ids=lambda k: k.name)
def test_pow_inf_closed_form_matches_power_chain(kind):
    handle = PolySemiring(kind)

    @settings(max_examples=150, deadline=None)
    @given(marked_polys(kind))
    def check(a):
        got = handle.pow_inf(a)
        expected = reference_pow_inf(handle, a)
        assert got == expected and got.truncated == expected.truncated
        assert got * a == got

    check()


def kernel_polys(kind):
    """Canonical values with INF exponents and coefficients where the kind
    admits them, `~` tokens, truncated markers, and often one monomial."""
    exps = st.integers(min_value=1, max_value=3)
    if kind.inf_exponents:
        exps = st.one_of(exps, st.just(INF))
    coeffs = st.integers(min_value=1, max_value=4)
    if kind.inf_coefficients:
        coeffs = st.one_of(coeffs, st.just(INF))
    mono = st.dictionaries(st.sampled_from(("p", "q", "r", "~p", "~q")), exps,
                           max_size=3).map(lambda d: Monomial(d.items()))
    monos = st.one_of(st.dictionaries(mono, coeffs, max_size=5),
                      st.dictionaries(mono, coeffs, min_size=1, max_size=1))
    return st.tuples(monos, st.booleans()).map(
        lambda mb: Polynomial(kind, mb[0], mb[1]))


def reference_sum(a, b):
    """a + b by the general route: the raw sum through `_canonicalize`."""
    merged = dict(a.monos)
    for m, c in b.monos.items():
        merged[m] = ext_add(merged.get(m, 0), c)
    return Polynomial(a.kind, merged, a.truncated or b.truncated)


def reference_product(a, b):
    """a * b by the general route: the raw products of `reference_mul`
    through `_canonicalize`."""
    out = {}
    for m1, c1 in a.monos.items():
        for m2, c2 in b.monos.items():
            m = reference_mul(m1, m2)
            c = 0 if 0 in (c1, c2) else INF if INF in (c1, c2) else c1 * c2
            out[m] = ext_add(out.get(m, 0), c)
    return Polynomial(a.kind, out, a.truncated or b.truncated)


KERNEL_KINDS = (POSBOOL, SORP, SORPINF, SORPINFDUAL, NATPOLY, trunc_kind(4), DUALNAT,
                BOOLPOLY, WHYPOLY, trunc_kind(0), trunc_kind(2), trunc_kind(4, dual=True))


@pytest.mark.parametrize("kind", KERNEL_KINDS, ids=str)
def test_sum_and_product_match_reference(kind):
    zero, one = Polynomial.zero(kind), Polynomial.one(kind)

    @settings(max_examples=200, deadline=None)
    @given(kernel_polys(kind), kernel_polys(kind))
    def check(a, b):
        for x, y in ((a, b), (b, a), (a, a), (a, zero), (one, b)):
            for got, want in ((x + y, reference_sum(x, y)),
                              (x * y, reference_product(x, y))):
                assert got == want
                assert got.truncated == want.truncated
                assert ([(m.exps, hash(m)) for m in got.monos]
                        == [(m.exps, hash(m)) for m in want.monos])
                assert format_poly(got) == reference_format(want)
        assert a + zero is a and a * one is a
        if a != zero or a.truncated:
            assert zero + a is a
        if a != one or a.truncated:
            assert one * a is a

    check()


def test_single_monomial_product_is_put_in_rank_order():
    # p^5 adds 5 to the finite total of q^inf*r but nothing to p^inf*r*s,
    # so the two products swap places in rank order.
    a = parse_poly(SORPINF, "q^inf*r + p^inf*r*s")
    m = parse_poly(SORPINF, "p^5")
    assert list(a.monos) == [Monomial({"q": INF, "r": 1}), Monomial({"p": INF, "r": 1, "s": 1})]
    for x, y in ((a, m), (m, a)):
        assert list((x * y).monos) == list(reference_product(x, y).monos)
        assert list((x * y).monos)[0] == Monomial({"p": INF, "r": 1, "s": 1})


@pytest.mark.parametrize("kind", (POSBOOL, SORP, SORPINF, SORPINFDUAL), ids=lambda k: k.name)
def test_antichain_leq_matches_sum(kind):
    handle = PolySemiring(kind)

    @settings(max_examples=100, deadline=None)
    @given(polys(kind), polys(kind), polys(kind))
    def check(a, b, c):
        for x, y in ((a, b), (b, a), (a, a + c), (a * c, a), (a + b, b), (a, a)):
            assert handle.leq(x, y) == ((x + y) == y)

    check()


def test_sorpinf_absorption_examples():
    si = get_semiring("sorpinf")
    st_inf = si.parse_value("s*t^inf + t^inf")
    assert st_inf == si.parse_value("t^inf")
    v = si.parse_value("s^inf + s*t^inf + t^inf + s^inf*t")
    assert v == si.parse_value("s^inf + t^inf")


def test_absorptive_one_plus_a():
    for sel in ("sorp", "sorpinf", "posbool"):
        h = get_semiring(sel)
        a = h.add(h.token("p"), h.mul(h.token("p"), h.token("q")))
        assert a == h.token("p")
        assert h.add(h.one, h.token("p")) == h.one


def test_projection_chain():
    f = parse_poly(NATPOLY, "s^2 + 2*s*t + t^2")
    assert project(f, BOOLPOLY) == parse_poly(BOOLPOLY, "s^2 + s*t + t^2")
    why = project(f, get_semiring("whypoly").kind)
    assert why == parse_poly(get_semiring("whypoly").kind, "s + s*t + t")
    assert project(f, POSBOOL) == parse_poly(POSBOOL, "s + t")
    assert project(f, SORP) == parse_poly(SORP, "s^2 + s*t + t^2")


def test_illegal_projection():
    f = parse_poly(BOOLPOLY, "p")
    with pytest.raises(IllegalProjection):
        project(f, NATPOLY)
    g = parse_poly(SORPINF, "p^inf")
    with pytest.raises(IllegalProjection):
        project(g, SORP)


def test_specialization_targets():
    f = parse_poly(NATPOLY, "s^2 + 2*s*t + t^2")
    nat = get_semiring("nat")
    assert specialize(f, nat, {"s": 0, "t": 1}) == 1
    assert specialize(f, nat, {"s": 1, "t": 1}) == 4
    tropical = get_semiring("tropical")
    assert specialize(f, tropical, {"s": Fraction(3), "t": Fraction(4)}) == 6
    viterbi = get_semiring("viterbi")
    assert specialize(
        f, viterbi, {"s": Fraction(1, 2), "t": Fraction(3, 4)}
    ) == Fraction(9, 16)


def test_specialization_respects_duality():
    dn = get_semiring("dualnat")
    f = dn.add(dn.token("p"), dn.token("~p"))
    nat = get_semiring("nat")
    with pytest.raises(DualityViolated):
        specialize(f, nat, {"p": 2, "~p": 3})
    assert specialize(f, nat, {"p": 2, "~p": 0}) == 2


def test_specialization_with_infinite_exponents():
    si = get_semiring("sorpinf")
    ni = get_semiring("natinf")
    f = si.parse_value("s^inf + t^inf")
    assert specialize(f, ni, {"s": 2, "t": 0}) is INF
    assert specialize(f, ni, {"s": 1, "t": 0}) == 1
    assert specialize(f, ni, {"s": 0, "t": 0}) == 0


def test_series_geom_and_truncation_flag():
    kind = trunc_kind(4)
    s = Polynomial.token(kind, "s")
    t = Polynomial.token(kind, "t")
    g = series_geom(s, t, 4)
    assert g == parse_poly(kind, "s + s*t + s*t^2 + s*t^3")
    assert g.truncated
    h = series_geom(Polynomial.zero(kind), t, 4)
    assert h == Polynomial.zero(kind) and not h.truncated
    # Ratio of degree zero: every coefficient becomes infinite.
    k = series_geom(s, Polynomial.one(kind), 4)
    assert k == Polynomial(kind, {Monomial([("s", 1)]): INF})


def test_truncation_drops_high_degrees():
    kind = trunc_kind(2)
    s = Polynomial.token(kind, "s")
    cube = s * s * s
    assert cube == Polynomial.zero(kind)
    assert cube.truncated
    sq = s * s
    assert sq == parse_poly(kind, "s^2") and not sq.truncated


def test_posbool_minimal_sets():
    pb = get_semiring("posbool")
    f = pb.parse_value("s*t + s + s*t*p")
    assert f == pb.parse_value("s")


def test_whypoly_caps_exponents():
    wh = get_semiring("whypoly")
    p = wh.token("p")
    assert wh.mul(p, p) == p
    assert wh.add(p, p) == p


def reference_star(handle, a):
    """PolySemiring.star on truncated series as it was before it called
    series_geom: iterate s <- 1 + a*s, then pin coefficients still moving
    to inf.  It returned s, not the last iterate, so it dropped the
    truncation marker."""
    one = handle.one
    budget = 4 * (handle.kind.degree_bound + 2)
    s = one
    for _ in range(budget):
        nxt = one + a * s
        if nxt == s:
            return s
        s = nxt
    for _ in range(budget):
        nxt = one + a * s
        moving = {m for m in set(s.monos) | set(nxt.monos)
                  if s.coefficient(m) != nxt.coefficient(m)}
        if not moving:
            break
        s = Polynomial(handle.kind, {m: (INF if m in moving else c) for m, c in nxt.monos.items()},
                       nxt.truncated)
    assert one + a * s == s
    return s


@pytest.mark.parametrize("selector", ["series:0", "series:2", "series:4", "seriesdual:4"])
def test_series_star_matches_reference(selector):
    handle = get_semiring(selector)

    @settings(max_examples=150, deadline=None)
    @given(kernel_polys(handle.kind))
    def check(a):
        star = handle.star(a)
        assert star == reference_star(handle, a)
        assert star.kind == handle.kind
        assert handle.one + a * star == star

    check()


def reference_series_geom(numerator, ratio, degree_bound):
    """series_geom as it was before its closed form: iterate
    acc <- base + ratio*acc until an iterate repeats, returning the last
    one (it carries the truncation marker of the dropped products), or else
    keep iterating while pinning the coefficients still moving to inf."""
    kind = trunc_kind(degree_bound, dual=numerator.kind.dual)
    base = Polynomial(kind, dict(numerator.monos), numerator.truncated)
    ratio = Polynomial(kind, dict(ratio.monos), ratio.truncated)
    if base.is_zero:
        return base
    acc = base
    budget = 2 * (degree_bound + 2)
    for _ in range(budget):
        nxt = base + ratio * acc
        if nxt == acc:
            return nxt
        acc = nxt
    for _ in range(budget):
        nxt = base + ratio * acc
        moving = {m for m in set(acc.monos) | set(nxt.monos)
                  if acc.coefficient(m) != nxt.coefficient(m)}
        if not moving:
            break
        acc = Polynomial(kind, {m: (INF if m in moving else c) for m, c in nxt.monos.items()},
                         nxt.truncated)
    return acc


@pytest.mark.parametrize("selector", ["series:0", "series:2", "series:4", "seriesdual:4"])
def test_series_geom_matches_reference(selector):
    kind = get_semiring(selector).kind

    @settings(max_examples=200, deadline=None)
    @given(kernel_polys(kind), kernel_polys(kind), st.sampled_from((0, 1, 2, INF)))
    def check(numerator, ratio, constant):
        # Three draws in four give the ratio a constant term.
        ratio = ratio + Polynomial(kind, {ONE_MONOMIAL: constant})
        got = series_geom(numerator, ratio, kind.degree_bound)
        want = reference_series_geom(numerator, ratio, kind.degree_bound)
        assert got == want
        assert got.truncated == want.truncated

    check()


def test_series_star_keeps_truncation_marker():
    handle = get_semiring("series:2")
    p = handle.token("p")
    star = handle.star(p)
    assert star == handle.parse_value("1 + p + p^2")
    assert star.truncated  # p^3 was cut off
    assert not reference_star(handle, p).truncated
    one = handle.star(handle.zero)
    assert one == handle.one and not one.truncated


# --- token signatures ---------------------------------------------------------


def _signature_bit(token):
    return hash(token) & 63


@settings(max_examples=200, deadline=None)
@given(MONO_EXPS, MONO_EXPS, st.integers(min_value=1, max_value=4))
def test_every_construction_sets_the_token_signature(d1, d2, bound):
    m1, m2 = Monomial(d1), Monomial(d2.items())
    for m in (m1, m2, m1.mul(m2), m2.mul(m1), m1.mul(ONE_MONOMIAL),
              m1.cap_at(bound), m2.cap_linear(), ONE_MONOMIAL):
        assert m.sig == sum({1 << _signature_bit(t) for t in m.tokens()})


def _colliding_tokens():
    """Token names found under this process's string hashes: a and b set the
    same signature bit, and c sets the bit of ~a without being ~a."""
    names = [f"t{i}" for i in range(10_000)]
    seen = {}
    for b in names:
        a = seen.setdefault(_signature_bit(b), b)
        if a != b:
            break
    c = next(n for n in names if _signature_bit(n) == _signature_bit("~" + a))
    return a, b, c


COLLIDING = _colliding_tokens()


def colliding_polys(kind):
    a, b, c = COLLIDING
    exps = st.integers(min_value=1, max_value=3)
    if kind.inf_exponents:
        exps = st.one_of(exps, st.just(INF))
    mono = st.dictionaries(st.sampled_from((a, b, c, "~" + a, "~" + b)), exps,
                           max_size=3).map(lambda d: Monomial(d.items()))
    return st.dictionaries(mono, st.integers(min_value=1, max_value=3), max_size=5).map(
        lambda monos: Polynomial(kind, monos))


def test_colliding_tokens_collide():
    a, b, c = COLLIDING
    ma, mb, mc = Monomial({a: 1}), Monomial({b: 1}), Monomial({c: 1})
    assert a != b and ma.sig == mb.sig
    assert c != "~" + a and token_signature(["~" + a]) & mc.sig
    # The signature test passes; the exact test decides.
    assert not mono_absorbs(ma, mb) and not mono_absorbs(mb, ma)
    assert normalize_antichain([ma, mb]) == [ma, mb]
    assert (Polynomial.token(DUALNAT, a) * Polynomial.token(DUALNAT, c)
            == Polynomial(DUALNAT, {ma.mul(mc): 1}))


@pytest.mark.parametrize("kind", (POSBOOL, SORP, SORPINF, SORPINFDUAL), ids=str)
def test_kernel_matches_reference_under_signature_collisions(kind):
    handle = PolySemiring(kind)

    @settings(max_examples=100, deadline=None)
    @given(colliding_polys(kind), colliding_polys(kind))
    def check(x, y):
        pool = list(x.monos) + list(y.monos)
        assert set(normalize_antichain(pool)) == reference_antichain(pool)
        assert merge_antichains(x.monos, y.monos) == normalize_antichain(pool)
        for m1 in pool:
            for m2 in pool:
                assert mono_absorbs(m1, m2) == reference_absorbs(m1, m2)
        for u, v in ((x, y), (y, x), (x, x + y)):
            assert handle.leq(u, v) == all(
                any(reference_absorbs(m, n) for n in v.monos) for m in u.monos)
        assert list((x * y).monos) == list(reference_product(x, y).monos)

    check()


@pytest.mark.parametrize("kind", (DUALNAT, SORPINFDUAL, trunc_kind(4, dual=True)), ids=str)
def test_dual_products_match_reference_under_signature_collisions(kind):
    @settings(max_examples=100, deadline=None)
    @given(colliding_polys(kind), colliding_polys(kind))
    def check(x, y):
        for u, v in ((x, y), (y, x)):
            got, want = u * v, reference_product(u, v)
            assert got == want and list(got.monos) == list(want.monos)

    check()


def test_infinity_hash_is_unchanged():
    assert hash(INF) == hash("provgames-infinity")


# --- the packed kernel ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(MONO_EXPS, MONO_EXPS, st.integers(min_value=1, max_value=4))
def test_every_construction_keeps_its_rank(d1, d2, bound):
    m1, m2 = Monomial(d1), Monomial(d2.items())
    for m in (m1, m2, m1.mul(m2), m2.mul(m1), m1.mul(ONE_MONOMIAL),
              m1.cap_at(bound), m2.cap_linear(), ONE_MONOMIAL):
        infs = sum(e is INF for _, e in m.exps)
        total = sum(e for _, e in m.exps if e is not INF)
        assert (m._infs, m._total) == (infs, total)
        assert m.degree() == (INF if infs else total)


CROSSOVERS = ((poly, "PACKED_PRODUCT_MIN"), (monomials, "PACKED_NORMALIZE_MIN"),
              (monomials, "PACKED_MERGE_PAIRS"))


@contextmanager
def crossovers(at):
    """Every crossover of the packed kernel set to `at`: 0 packs every
    product, normalization and merge that may be packed, None packs none."""
    saved = [getattr(module, name) for module, name in CROSSOVERS]
    for module, name in CROSSOVERS:
        setattr(module, name, 10**9 if at is None else at)
    try:
        yield
    finally:
        for (module, name), value in zip(CROSSOVERS, saved):
            setattr(module, name, value)


# 80 tokens, so that token signatures collide; largest exponents on both
# sides of a field-width step (2^k - 1 and 2^k), and 10^6.
WIDE_TOKENS = tuple(f"w{i}" for i in range(80))
EDGE_EXPONENTS = (1, 2, 3, 4, 7, 8, 255, 256, 2**20 - 1, 2**20, 10**6)
WIDE_KINDS = KERNEL_KINDS + (trunc_kind(300), trunc_kind(2**21, dual=True))


def wide_polys(kind):
    """Values over many tokens with edge exponents; a few tokens and their
    negations recur, so products meet and complementary pairs split across
    the operands."""
    exps = st.sampled_from(EDGE_EXPONENTS)
    if kind.inf_exponents:
        exps = st.one_of(exps, st.just(INF))
    coeffs = st.integers(min_value=1, max_value=4)
    if kind.inf_coefficients:
        coeffs = st.one_of(coeffs, st.just(INF))
    few = ("w0", "w1", "w2") + (("~w0", "~w1") if kind.dual else ())
    tokens = st.one_of(st.sampled_from(few), st.sampled_from(WIDE_TOKENS))
    mono = st.dictionaries(tokens, exps, max_size=4).map(lambda d: Monomial(d.items()))
    return st.tuples(st.dictionaries(mono, coeffs, max_size=12), st.booleans()).map(
        lambda mb: Polynomial(kind, mb[0], mb[1]))


def exps_and_hashes(monos):
    return [(m.exps, hash(m)) for m in monos]


def test_wide_tokens_collide():
    assert len({_signature_bit(t) for t in WIDE_TOKENS}) < len(WIDE_TOKENS)


@pytest.mark.parametrize("packed", (None, 0), ids=("pairwise", "packed"))
@pytest.mark.parametrize("kind", WIDE_KINDS, ids=str)
def test_kernel_matches_reference_on_wide_values(kind, packed):
    @settings(max_examples=25, deadline=None)
    @given(wide_polys(kind), wide_polys(kind))
    def check(a, b):
        for x, y in ((a, b), (b, a)):
            with crossovers(None):
                wants = reference_sum(x, y), reference_product(x, y)
            with crossovers(packed):
                gots = x + y, x * y
            for got, want in zip(gots, wants):
                assert got == want and got.truncated == want.truncated
                assert exps_and_hashes(got.monos) == exps_and_hashes(want.monos)
        if kind.antichain:
            pool = list(a.monos) + list(b.monos)
            with crossovers(packed):
                kept = normalize_antichain(pool)
                merged = merge_antichains(a.monos, b.monos)
            assert set(kept) == reference_antichain(pool)
            assert exps_and_hashes(merged) == exps_and_hashes(kept)

    check()


@pytest.mark.parametrize("packed", (None, 0), ids=("pairwise", "packed"))
@pytest.mark.parametrize("kind", (SORPINF, SORPINFDUAL), ids=str)
def test_packed_kernel_on_infinite_exponents(kind, packed, monkeypatch):
    # INF meets INF, a field-width edge and 10^6 in either operand; in the
    # dual kind, p*~q and ~p*q meet their complements across the operands.
    # Equal products come from pairs (m1, m2) and (m2, m1) of a*a, and from
    # p*r and p^2*s times d's INF monomial; the packed loop builds each once.
    a = parse_poly(kind, "p^inf*q + p^255*r + q^inf*r^1000000 + s + ~q")
    b = parse_poly(kind, "p^256*q^inf + p^inf + r^inf*s + q*~p + r^1000000")
    c = parse_poly(kind, "p*r + p^2*s + ~q")
    d = parse_poly(kind, "p^inf*r^inf*s^inf + q + t^255")
    built = []
    mul = Monomial.mul
    monkeypatch.setattr(Monomial, "mul", lambda m1, m2: built.append(None) or mul(m1, m2))
    for x, y in ((a, b), (b, a), (a, a), (c, d), (d, c)):
        with crossovers(None):
            wants = reference_sum(x, y), reference_product(x, y)
        with crossovers(packed):
            del built[:]
            gots = x + y, x * y
        for got, want in zip(gots, wants):
            assert got == want and exps_and_hashes(got.monos) == exps_and_hashes(want.monos)
        # One product per pair without a complementary pair, or, packed, per
        # distinct product.
        kept = [m for m in (reference_mul(m1, m2) for m1 in x.monos for m2 in y.monos)
                if not (kind.dual and m.has_complementary_pair())]
        assert len(built) == (len(kept) if packed is None else len(set(kept)))
        assert len(set(kept)) < len(kept) or x is b or y is b


@pytest.mark.parametrize("packed", (None, 0), ids=("pairwise", "packed"))
@pytest.mark.parametrize("kind", (NATPOLY, DUALNAT, SORP, SORPINFDUAL, POSBOOL), ids=str)
def test_packed_kernel_over_more_tokens_than_signature_bits(kind, packed):
    # 72 tokens in all; the few that both operands share make equal
    # products, absorptions and, in dual kinds, complementary pairs.
    def value(names, shared):
        return Polynomial(kind, {Monomial({t: 1 + i % 3, shared[i % len(shared)]: 1}): 1
                                 for i, t in enumerate(names)})

    left = [f"a{i}" for i in range(34)]
    right = [f"b{i}" for i in range(34)]
    a = value(left, ["s", "t"])
    b = value(right, ["s", "~t"] if kind.dual else ["s", "u"])
    b = b + value(["s", "t"], ["a0"])
    for x, y in ((a, b), (b, a)):
        with crossovers(None):
            wants = reference_sum(x, y), reference_product(x, y)
        with crossovers(packed):
            gots = x + y, x * y
        for got, want in zip(gots, wants):
            assert got == want and exps_and_hashes(got.monos) == exps_and_hashes(want.monos)


def test_packed_kernel_cuts_at_the_degree_bound():
    kind = trunc_kind(300)
    a = parse_poly(kind, "p^255 + 2*q + p*q^44 + r^256")
    b = parse_poly(kind, "p^45 + q^255 + inf*r^44 + r")
    for packed in (None, 0):
        with crossovers(packed):
            got = a * b
        assert got.truncated
        assert exps_and_hashes(got.monos) == exps_and_hashes(reference_product(a, b).monos)
        # p^255*q^255, r^256*p^45 and r^256*q^255 are cut.
        assert format_poly(got) == (
            "2*q*r + inf*q*r^44 + p*q^44*r + 2*p^45*q + inf*p*q^44*r^44 + p^46*q^44 + "
            "p^255*r + 2*q^256 + r^257 + inf*p^255*r^44 + p*q^299 + p^300 + inf*r^300")


def _packings(monkeypatch):
    """A list that gets an entry for each `Packing` built."""
    built = []

    class Counted(monomials.Packing):
        def __init__(self, groups):
            built.append(None)
            super().__init__(groups)

    monkeypatch.setattr(monomials, "Packing", Counted)
    monkeypatch.setattr(poly, "Packing", Counted)
    return built


def test_products_pack_from_their_crossover_on(monkeypatch):
    built = _packings(monkeypatch)
    n = poly.PACKED_PRODUCT_MIN
    token = partial(Polynomial.token, NATPOLY)
    a = Polynomial(NATPOLY, {Monomial({f"a{i}": 1}): 1 for i in range(n)})
    b = token("b") + token("c")
    for x, y, packs in ((a, token("b"), 0), (a, b, 1),
                        (Polynomial(NATPOLY, dict(list(a.monos.items())[:n // 2 - 1])), b, 0),
                        (Polynomial(NATPOLY, dict(list(a.monos.items())[:n // 2])), b, 1)):
        del built[:]
        got = x * y
        assert len(built) == packs
        assert exps_and_hashes(got.monos) == exps_and_hashes(reference_product(x, y).monos)


def test_antichains_pack_from_their_crossovers_on(monkeypatch):
    built = _packings(monkeypatch)
    # The pool p^k * q^(n-k) is an antichain; q^inf is absorbed by q^n.
    for n in (monomials.PACKED_NORMALIZE_MIN - 1, monomials.PACKED_NORMALIZE_MIN):
        pool = [Monomial({"p": k, "q": n - 1 - k}) for k in range(n - 1)]
        pool.append(Monomial({"q": INF}))
        del built[:]
        kept = normalize_antichain(pool)
        assert len(built) == (n >= monomials.PACKED_NORMALIZE_MIN)
        assert set(kept) == reference_antichain(pool) == set(pool[:-1])
    pairs = monomials.PACKED_MERGE_PAIRS
    a = {Monomial({f"a{i}": 1, "z": 2}): 1 for i in range(pairs // 2)}
    for size in (1, 2):
        b = {Monomial({"z": 1}): 1, Monomial({"b": 1}): 1} if size == 2 else {Monomial({"z": 3}): 1}
        del built[:]
        merged = merge_antichains(a, b)
        assert len(built) == (len(a) * len(b) >= pairs)
        assert set(merged) == reference_antichain(list(a) + list(b))


# --- batch printing -------------------------------------------------------------


@pytest.mark.parametrize("kind", KERNEL_KINDS, ids=str)
def test_format_polys_matches_one_by_one(kind):
    zero, one = Polynomial.zero(kind), Polynomial.one(kind)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(kernel_polys(kind), max_size=4))
    def check(values):
        # Sums and products share monomials with their operands.
        batch = values + [zero, one] + [a + b for a in values for b in values[:2]]
        batch += [a * b for a in values[:2] for b in values[:2]]
        want = [reference_format(v) for v in batch]
        assert format_polys(batch) == want
        assert [format_poly(v) for v in batch] == want
        assert PolySemiring(kind).format_values(batch) == want

    check()

