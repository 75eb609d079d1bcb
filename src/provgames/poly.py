"""Exact multivariate provenance polynomials and their quotient variants.

All kinds share one representation: a canonical mapping from monomials to
coefficients.  A kind descriptor says which quotient is in force (drop
coefficients, cap exponents, erase complementary pairs, keep an absorption
antichain, truncate by total degree).  Values are immutable.

Every public construction goes through `_canonicalize` with all its checks.
Sums and products of two values of one kind are built by the trusted
constructor `Polynomial._canonical` wherever the operands, being canonical
already, imply those checks (canonicalizing a canonical mapping returns it
unchanged, dict order included):

* `a + 0`, `0 + a`, `a * 1` and `1 * a` are `a` itself when the zero or one
  operand is not marked truncated.
* An antichain sum is the union of the operands minus the monomials the other
  operand absorbs, in rank order (`merge_antichains`).
* An antichain product with a single monomial m that has only finite
  exponents, in a kind that is not multilinear, multiplies m into every
  monomial of the other operand.  Adding finite exponents preserves and
  reflects the absorption order, so the products are again an antichain with
  no duplicates; they are put in rank order.
* Every other sum (natpoly, dualnat, boolpoly, whypoly, series:D,
  seriesdual:D) adds b's coefficients into a copy of a; in a kind without
  coefficients it is the union of the operands' monomials.
* Every other product multiplies the monomials pair by pair, a's in the
  outer loop, adding up the coefficients of equal products.  It drops a
  product with a complementary pair and one above the degree bound (and
  then sets `truncated`): these are the checks the operands do not imply.
  In a kind without coefficients it sets every coefficient to 1; in an
  antichain kind that is not multilinear (sorp, sorpinf, sorpinfdual) it
  keeps the absorption-maximal products (`normalize_antichain`).
  Multilinear products (whypoly, posbool) go through `_canonicalize`.
* Operands with two monomials or more each and at least
  `PACKED_PRODUCT_MIN` pairs take the pair loop on packed keys
  (`monomials.Packing`): a pair's product is an int sum, it is tested
  before any merge, and one `Monomial` is built per distinct product.

The checks these results skip are implied by the operands.  Zero
coefficients: every coefficient is >= 1 or INF, and so are their sums and
products.  Complementary pairs: the operands' monomials have none.  So a
union has none, and a product m1*m2 has one exactly when some token of m2 is
the negation of a token of m1, which is all the pair loop tests.  The plain
loop compares the token sets only where the signature of m1's negated tokens
meets m2's signature, a necessary condition (see `monomials`).  The packed
loop tests m2's guard bits against those of the tokens that negate m1's: a
token's guard bit is its own in one packing, so the test is exact.  The
single-monomial antichain product tests each product, as `_canonicalize`
does.  Multilinear cap: a union of multilinear monomials is multilinear, and
multilinear products take `_canonicalize`.  INF exponents: a union
introduces none, and a product has one only where an operand of the same kind
has it.  Coefficients: sums and products of integers and INF are again such;
antichain kinds keep coefficient 1 on every monomial, a union of monomials
with coefficient 1 keeps it, and the identities keep the operand's.  Degree
bound: a union has no monomial above the operands' degrees, and the
identities change no monomial.  A product's degree is the sum of its
operands' degrees, which the bounded kinds keep finite, so the pair loops cut
a pair by that sum before multiplying it.  Dict order: apart from the
antichain kinds, `_canonicalize` keeps the order of the mapping it is given
and only drops entries.  The sums put a's monomials first and then b's new
ones, as the general route does, and the coefficient product places each
monomial where its first pair puts it and drops the same products in place,
so both have the general route's order.  The packed loop keeps the first
pair of each product key, and keys are equal exactly when products are, so
its order is the plain loop's.

Values are printed with their terms in display order (`sort_monomials`).
`format_polys` prints a batch of values, such as all positions of a game,
with one sort of the batch's distinct monomials instead of one per value.
"""

from dataclasses import dataclass

from .errors import DualityViolated, IllegalProjection, KindMismatch, ProvError
from .infinity import INF, ext_add
from .monomials import (
    ONE_MONOMIAL,
    Monomial,
    Packing,
    format_monomial,
    merge_antichains,
    negate_token,
    normalize_antichain,
    rank_sorted,
    sort_monomials,
    token_signature,
)


@dataclass(frozen=True)
class PolyKind:
    """Which quotient of N[X u ~X] a polynomial lives in."""

    name: str
    coefficients: bool = True
    multilinear: bool = False
    antichain: bool = False
    dual: bool = False
    inf_exponents: bool = False
    inf_coefficients: bool = False
    degree_bound: int | None = None

    def __str__(self):
        if self.degree_bound is not None:
            return f"{self.name}(D={self.degree_bound})"
        return self.name


NATPOLY = PolyKind("natpoly")
BOOLPOLY = PolyKind("boolpoly", coefficients=False)
WHYPOLY = PolyKind("whypoly", coefficients=False, multilinear=True)
POSBOOL = PolyKind("posbool", coefficients=False, multilinear=True, antichain=True)
SORP = PolyKind("sorp", coefficients=False, antichain=True)
SORPINF = PolyKind("sorpinf", coefficients=False, antichain=True, inf_exponents=True)
DUALNAT = PolyKind("dualnat", dual=True)
SORPINFDUAL = PolyKind(
    "sorpinfdual", coefficients=False, antichain=True, dual=True, inf_exponents=True
)


def trunc_kind(degree_bound, dual=False):
    """Degree-truncated stand-in for the power series N^inf[[X]]."""
    return PolyKind(
        "seriesdual" if dual else "series",
        inf_coefficients=True,
        dual=dual,
        degree_bound=degree_bound,
    )


def _coeff_mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a is INF or b is INF:
        return INF
    return a * b


class Polynomial:
    """Canonical-form provenance value of a fixed kind."""

    __slots__ = ("kind", "monos", "truncated")

    def __init__(self, kind, monos, truncated=False):
        canon, cut = _canonicalize(kind, monos)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "monos", canon)
        object.__setattr__(self, "truncated", truncated or cut)

    @classmethod
    def _canonical(cls, kind, monos, truncated):
        """Trusted constructor: `monos` is already canonical for `kind`."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "kind", kind)
        object.__setattr__(poly, "monos", monos)
        object.__setattr__(poly, "truncated", truncated)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, kind):
        return cls(kind, {})

    @classmethod
    def one(cls, kind):
        return cls(kind, {ONE_MONOMIAL: 1})

    @classmethod
    def token(cls, kind, name):
        return cls(kind, {Monomial({name: 1}): 1})

    @property
    def is_zero(self):
        return not self.monos

    def coefficient(self, mono):
        return self.monos.get(mono, 0)

    def __eq__(self, other):
        # The truncated marker is metadata, not part of the value.
        return (
            isinstance(other, Polynomial)
            and (self.kind is other.kind or self.kind == other.kind)
            and self.monos == other.monos
        )

    def __hash__(self):
        return hash((self.kind, frozenset(self.monos.items())))

    def _check_kind(self, other):
        if not isinstance(other, Polynomial):
            raise KindMismatch(f"cannot combine polynomial with {type(other).__name__}")
        if self.kind is not other.kind and self.kind != other.kind:
            raise KindMismatch(f"kind mismatch: {self.kind} vs {other.kind}")

    def __add__(self, other):
        self._check_kind(other)
        if not other.monos and not other.truncated:
            return self
        if not self.monos and not self.truncated:
            return other
        kind = self.kind
        truncated = self.truncated or other.truncated
        if kind.antichain:
            return Polynomial._canonical(
                kind, dict.fromkeys(merge_antichains(self.monos, other.monos), 1), truncated)
        if not kind.coefficients:
            # Every coefficient of either operand is 1.
            return Polynomial._canonical(kind, {**self.monos, **other.monos}, truncated)
        merged = dict(self.monos)
        for m, c in other.monos.items():
            merged[m] = ext_add(merged.get(m, 0), c)
        return Polynomial._canonical(kind, merged, truncated)

    def __mul__(self, other):
        self._check_kind(other)
        if other.monos == _ONE_MONOS and not other.truncated:
            return self
        if self.monos == _ONE_MONOS and not self.truncated:
            return other
        kind = self.kind
        truncated = self.truncated or other.truncated
        if kind.antichain and not kind.multilinear:
            many, single = (self, other) if len(other.monos) == 1 else (other, self)
            if len(single.monos) == 1:
                (m,) = single.monos
                if m.degree() is not INF:
                    products = [k.mul(m) for k in many.monos]
                    if kind.dual:
                        products = [p for p in products if not p.has_complementary_pair()]
                    return Polynomial._canonical(
                        kind, dict.fromkeys(rank_sorted(products), 1), truncated)
        a, b = self.monos, other.monos
        if len(a) >= 2 and len(b) >= 2 and len(a) * len(b) >= PACKED_PRODUCT_MIN:
            out, cut = _packed_products(kind, a, b)
        else:
            out, cut = _pairwise_products(kind, a, b)
        truncated = truncated or cut
        if kind.multilinear:
            return Polynomial(kind, out, truncated)
        if kind.antichain:
            return Polynomial._canonical(
                kind, dict.fromkeys(normalize_antichain(out), 1), truncated)
        if not kind.coefficients:
            out = dict.fromkeys(out, 1)
        return Polynomial._canonical(kind, out, truncated)

    def __repr__(self):
        return f"<{self.kind}: {format_poly(self)}>"


_ONE_MONOS = {ONE_MONOMIAL: 1}


# Products of two operands with two monomials or more each and at least
# this many pairs are found on packed keys.  Replaying every such product of
# the three benchmark workloads (seed 1) in both loops, best of 5 on a shared
# 2-core host with Python 3.11, packed over plain time was 1.13 at 24-31
# pairs, 1.08 at 32-47, 0.80 at 48-63 and 0.45 at 256 pairs or more.
PACKED_PRODUCT_MIN = 48


def _pairwise_products(kind, a, b):
    """The products of a's and b's monomials, a's in the outer loop, with the
    coefficients of equal products added up; complementary products are
    dropped and those above the degree bound cut.  Returns (products, cut)."""
    out = {}
    cut = False
    bound = kind.degree_bound
    negated, negated_sig = (), 0
    for m1, c1 in a.items():
        if kind.dual:
            negated = {negate_token(t) for t, _ in m1.exps}
            negated_sig = token_signature(negated)
        room = None if bound is None else bound - m1.degree()
        for m2, c2 in b.items():
            # m2 shares no token with `negated` unless the signatures meet.
            if negated_sig & m2.sig and not negated.isdisjoint(m2.tokens()):
                continue
            if room is not None and m2.degree() > room:
                cut = True
                continue
            m = m1.mul(m2)
            # Coefficients are >= 1 or INF, and INF absorbs + and * by them.
            out[m] = out.get(m, 0) + c1 * c2
    return out, cut


def _packed_products(kind, a, b):
    """`_pairwise_products` on the keys of one `Packing` of both operands:
    each pair is tested and multiplied as ints, and one `Monomial` is built
    per distinct product, from the first pair that gives it."""
    packing = Packing((a, b))
    dual, bound = kind.dual, kind.degree_bound
    rows = [(*packing.split(m2), packing.guard_bits(m2.tokens()) if dual else 0, m2.degree(),
             m2, c2) for m2, c2 in b.items()]
    # Product key -> coefficient, and -> the product built from its first
    # pair; both in the order of first occurrence.
    coeffs, monos = {}, {}
    cut = False
    for m1, c1 in a.items():
        finite, infinite = packing.split(m1)
        fit = rows
        if dual:
            clash = packing.guard_bits(negate_token(t) for t, _ in m1.exps)
            fit = [r for r in fit if not clash & r[2]]
        if bound is not None:
            room = bound - m1.degree()
            under = [r for r in fit if r[3] <= room]
            cut = cut or len(under) < len(fit)
            fit = under
        for f2, i2, _, _, m2, c2 in fit:
            key = (finite + f2) | infinite | i2
            if key in coeffs:
                coeffs[key] += c1 * c2
            else:
                coeffs[key] = c1 * c2
                monos[key] = m1.mul(m2)
    return dict(zip(monos.values(), coeffs.values())), cut


def _canonicalize(kind, monos):
    if isinstance(monos, Polynomial):
        monos = monos.monos
    staged = {}
    for m, c in monos.items():
        if c == 0:
            continue
        if kind.dual and m.has_complementary_pair():
            continue
        if kind.multilinear:
            m = m.cap_linear()
        if not kind.inf_exponents and any(e is INF for _, e in m):
            raise ProvError(f"kind {kind} does not admit infinite exponents")
        if c is INF:
            if not kind.inf_coefficients:
                raise ProvError(f"kind {kind} does not admit infinite coefficients")
        elif not isinstance(c, int):
            raise ProvError(f"kind {kind} needs integer coefficients, got {c!r}")
        staged[m] = ext_add(staged.get(m, 0), c)
    truncated = False
    if kind.degree_bound is not None:
        kept = {}
        for m, c in staged.items():
            d = m.degree()
            if d is INF or d > kind.degree_bound:
                truncated = True
            else:
                kept[m] = c
        staged = kept
    if not kind.coefficients:
        staged = {m: 1 for m in staged}
    if kind.antichain:
        staged = {m: 1 for m in normalize_antichain(staged)}
    return staged, truncated


# --- projections between kinds ------------------------------------------

_LEGAL_PROJECTIONS = {
    "natpoly": {"boolpoly", "whypoly", "posbool", "sorp", "sorpinf"},
    "boolpoly": {"whypoly", "posbool", "sorp", "sorpinf"},
    "whypoly": {"posbool"},
    "sorp": {"sorpinf"},
    "dualnat": {"sorpinfdual"},
}


def project(poly, target_kind):
    """Canonical image of `poly` under the quotient onto `target_kind`."""
    if poly.kind == target_kind:
        return poly
    if target_kind.name not in _LEGAL_PROJECTIONS.get(poly.kind.name, ()):
        raise IllegalProjection(f"no quotient map {poly.kind} -> {target_kind}")
    return Polynomial(target_kind, dict(poly.monos), poly.truncated)


# --- specialization into application semirings ---------------------------


def specialize(poly, handle, assignment):
    """Homomorphic image of `poly` under token -> value, evaluated in `handle`.

    For dual kinds the assignment must send every complementary pair to
    values with product 0.
    """
    if poly.kind.dual:
        for token in assignment:
            other = negate_token(token)
            if other in assignment:
                if handle.mul(assignment[token], assignment[other]) != handle.zero:
                    raise DualityViolated(
                        f"tokens {token!r} and {other!r} map to values with nonzero product"
                    )
    total = handle.zero
    for m, c in poly.monos.items():
        val = handle.one
        for t, e in m:
            if t not in assignment:
                raise ProvError(f"token {t!r} has no assigned value")
            v = assignment[t]
            val = handle.mul(val, handle.pow_inf(v) if e is INF else handle.power(v, e))
        total = handle.add(total, handle.times(c, val))
    return total


# --- truncated geometric series ------------------------------------------


def series_geom(numerator, ratio, degree_bound):
    """numerator * (1 + ratio + ratio^2 + ...) truncated at total degree D,
    in closed form: D+1 Horner steps acc = base + ratio*acc, and every
    coefficient set to inf when the ratio has a constant term.

    Write the ratio as c + r, where c is its constant term.  The steps sum
    num*ratio^k for k <= D+1, and no term of a higher power adds a monomial:

    * If c = 0, ratio^k has no monomial of degree below k, so the terms with
      k <= D are the whole sum.
    * If c != 0, a monomial of num*ratio^k recurs in num*ratio^(k+j) for
      every j (times c^j, which adds no token), so its coefficient is inf.
    * In both cases, a monomial of degree <= D takes at most D factors from
      r, so it occurs in some term with k <= D already.
    """
    kind = trunc_kind(degree_bound, dual=numerator.kind.dual)
    base = Polynomial(kind, dict(numerator.monos), numerator.truncated)
    ratio = Polynomial(kind, dict(ratio.monos), ratio.truncated)
    if base.is_zero:
        return base
    acc = base
    for _ in range(degree_bound + 1):
        acc = base + ratio * acc
    if ONE_MONOMIAL in ratio.monos:
        return Polynomial(kind, dict.fromkeys(acc.monos, INF), acc.truncated)
    return acc


# --- text syntax ----------------------------------------------------------


def format_poly(poly):
    """The text of one value (see `format_polys`)."""
    return format_polys([poly])[0]


def format_polys(polys):
    """The text of each value: its terms in display order (`sort_monomials`)
    joined by " + ", or "0" for the zero value.

    Values printed together share many monomials.  The batch's distinct
    monomials are sorted once by `_degree_sort_key` and formatted once;
    each value then orders its terms by their integer positions in that
    sort.  The key is injective, so a value's terms come out in the order
    a sort of that value alone gives.
    """
    # Keyed by the exps tuples: equal monomials are often distinct objects,
    # and tuples compare without a call to `Monomial.__eq__`.
    order = sort_monomials({m.exps: m for p in polys for m in p.monos}.values())
    position = {m.exps: i for i, m in enumerate(order)}
    texts = [format_monomial(m) for m in order]
    out = []
    for p in polys:
        # Positions differ within a value, so the coefficients never compare.
        terms = sorted([(position[m.exps], c) for m, c in p.monos.items()])
        # The one monomial prints as "1", so a coefficient 1 prints its text.
        out.append(" + ".join([
            texts[i] if c == 1 else f"{c}*{texts[i]}" if order[i].exps else str(c)
            for i, c in terms]) or "0")
    return out


class _PolyParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ProvError(f"{message} in polynomial {self.text!r} at offset {self.pos}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, char):
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def ident(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            self.error("expected identifier or number")
        return self.text[start : self.pos]

    def exponent(self):
        word = self.ident()
        if word == "inf":
            return INF
        if word.isdigit():
            return int(word)
        self.error(f"bad exponent {word!r}")

    def term(self):
        coeff = 1
        exps = {}
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch.isdigit():
                start = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                coeff = _coeff_mul(coeff, int(self.text[start : self.pos]))
            else:
                neg = self.eat("~")
                name = self.ident()
                if not neg and name == "inf":
                    coeff = INF
                else:
                    token = ("~" + name) if neg else name
                    e = self.exponent() if self.eat("^") else 1
                    exps[token] = ext_add(exps.get(token, 0), e)
            if not self.eat("*"):
                return Monomial(exps), coeff

    def parse(self, kind):
        monos = {}
        while True:
            m, c = self.term()
            monos[m] = ext_add(monos.get(m, 0), c)
            if not self.eat("+"):
                break
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        # A bare "0" term parses as coefficient 0, which canonicalizes away.
        return Polynomial(kind, monos)


def parse_poly(kind, text):
    """Parse canonical polynomial syntax, e.g. '2*s^2*t + s*~p + t^inf'."""
    return _PolyParser(text).parse(kind)
