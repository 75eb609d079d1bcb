"""Monomials with exponents in N u {inf} and the absorption order.

A monomial maps tokens to exponents; absent tokens have exponent 0.  The
absorption order follows the convention that smaller exponents absorb:
m1 is below m2 exactly when m1 has pointwise *larger* exponents.  Negative
tokens of a dual pair are written with a leading '~'.

Antichains are normalized in one pass thanks to the rank of a monomial, the
pair (number of INF exponents, sum of the finite exponents).  If m2 absorbs
m, every INF exponent of m2 is one of m's and every finite one is at most
m's, so m2 ranks no higher than m, and equal ranks mean m2 == m.  Visiting
a pool in rank order therefore meets every monomial after all monomials
that strictly absorb it.  Each monomial keeps its rank in the slots `_infs`
and `_total`, which `degree` reads too.  A product's rank is the sum of its
operands' ranks, less what an INF exponent absorbs: where one operand has
INF for a token, the product counts that INF once and drops the other
operand's exponent of the token from the sum.

A product of two monomials merges their token-sorted `exps` tuples in one
pass, the merge step of merge sort: the smaller head token goes first, and a
token in both operands is written once with the sum of its exponents.  The
result is sorted by token, has no repeated token and only exponents >= 1 or
INF, because both operands have these properties; so it is built by the
trusted constructor `Monomial._canonical`, without the sorting, merging and
validation of `Monomial.__init__`.

Every monomial carries a token-support signature `sig`, a 64-bit mask with
bit `hash(t) & 63` set for each of its tokens t.  A product's support is the
union of its operands' supports, so `mul` ORs their signatures.  If m2
absorbs m1, every token of m2 occurs in m1, so `m2.sig & ~m1.sig == 0`: the
signature test is a necessary condition for absorption and is made before
the exact walk over the exponents.  Two tokens whose hashes agree in the low
6 bits only make the test pass where the walk then fails; they cost time,
never a wrong answer, so no result depends on the string hashes.

Large products (see `poly`) and antichains are computed on packed keys.  A
`Packing` is built inside one call from that call's operands alone, and no
state outlives the call.  It gives each of their tokens, in sorted order, a
field of w + 1 bits, where w = (2*top + 1).bit_length() and top is the
largest finite exponent of the operands.  The top bit of a field is its
guard bit; the key of a monomial holds each finite exponent e as e in its
token's field, each INF exponent as the all-ones value 2^w - 1, and 0 for
an absent token.  The keys are exact:

* One key per monomial: a field holds one exponent, and all-ones lies
  above 2*top, so INF reads apart from every finite exponent.
* No carries: every finite exponent is at most top, so the field sums of
  two keys' finite parts are at most 2*top < 2^w - 1; they fit in w bits
  below the guard bit and never reach the all-ones value.  ORing in either
  operand's all-ones fields then sets exactly the fields where the product
  has INF, since INF plus anything is INF.  So the key of m1*m2 is
  (f1 + f2) | i1 | i2, where f is the finite part of a key and i its INF
  part, and equal products are equal keys.
* The guard-bit compare: m2 absorbs m1 iff each exponent of m2 is at most
  m1's, INF the largest.  With every guard bit G set in k1, k1 | G minus k2
  is 2^w + e1 - e2 in each field: at least 1, so no field borrows from the
  next, and it keeps its guard bit exactly when e1 >= e2.  So m2 absorbs m1
  iff ((k1 | G) - k2) & G == G.  `_Absorbers` makes the compare against
  many keys at once: it lays them in slots side by side, one spare top bit
  above each, and subtracts them all from copies of k1 | G.  The guard bits
  that fail are then 0 in a slot exactly when its key absorbs k1, and
  subtracting 1 from each slot clears the spare bit exactly of those slots.
* Cancellation: monomials with finite exponents cancel (m1*m == m2*m only
  if m1 == m2), so a product with one side of a single finite monomial has
  no equal products to find.  Only operands with two monomials or more on
  each side are packed; below the crossovers measured at each use, the
  plain loops are faster.
"""

from operator import attrgetter

from .infinity import INF, ext_add

NEG_PREFIX = "~"

# Crossovers to the packed antichain kernel (see `Packing`): a pool of at
# least PACKED_NORMALIZE_MIN monomials is normalized, and two antichains with
# at least PACKED_MERGE_PAIRS pairs across them are merged, on packed keys.
# Measured by replaying the normalizations and merges of the three benchmark
# workloads (seed 1) and of sorpinf and sorpinfdual nu on 64- and
# 128-position cycle games, best of 5 on a shared 2-core host with Python
# 3.11.  Packed over plain time: pools of 24-31 monomials 1.20, 32-47 0.56,
# 64 or more 0.28-0.38; merges of 128-255 pairs 1.13, 256-511 0.95, 512 or
# more 0.30.  Merges of 32-63 pairs, most of them a cycle game's value of
# up to 64 tokens and one monomial, ran 6.3 times slower packed.
PACKED_NORMALIZE_MIN = 32
PACKED_MERGE_PAIRS = 256


def negate_token(token):
    """The complementary token: p <-> ~p."""
    if token.startswith(NEG_PREFIX):
        return token[len(NEG_PREFIX):]
    return NEG_PREFIX + token


def token_signature(tokens):
    """The signature of a set of tokens (see the module docstring)."""
    sig = 0
    for t in tokens:
        sig |= 1 << (hash(t) & 63)
    return sig


def _rank_of(exps):
    infs = 0
    total = 0
    for _, e in exps:
        if e is INF:
            infs += 1
        else:
            total += e
    return infs, total


class Monomial:
    """Immutable product of token powers; exponents are ints >= 1 or INF."""

    __slots__ = ("exps", "_hash", "sig", "_infs", "_total")

    def __init__(self, exps=()):
        pairs = not isinstance(exps, dict)
        if not pairs:
            exps = exps.items()
        cleaned = tuple(sorted((t, e) for t, e in exps if e != 0))
        for _, e in cleaned:
            if e is not INF and (not isinstance(e, int) or e < 0):
                raise ValueError(f"bad exponent {e!r}")
        if pairs:
            # A token may repeat among pairs (not among dict keys); sorting
            # made its pairs adjacent, and they multiply: add the exponents.
            merged = []
            for t, e in cleaned:
                if merged and merged[-1][0] == t:
                    merged[-1] = (t, ext_add(merged[-1][1], e))
                else:
                    merged.append((t, e))
            cleaned = tuple(merged)
        _set_exps(self, cleaned)
        _set_hash(self, hash(cleaned))
        _set_sig(self, token_signature(t for t, _ in cleaned))
        infs, total = _rank_of(cleaned)
        _set_infs(self, infs)
        _set_total(self, total)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __iter__(self):
        return iter(self.exps)

    def tokens(self):
        return tuple(t for t, _ in self.exps)

    @property
    def is_one(self):
        return not self.exps

    def degree(self):
        """Total degree; INF if any exponent is infinite."""
        return INF if self._infs else self._total

    @classmethod
    def _canonical(cls, exps, sig, infs, total):
        """Trusted constructor: `exps` is already sorted by token, with no
        repeated token and every exponent >= 1 or INF; `sig` is the
        signature of its tokens and (infs, total) its rank."""
        mono = _new(cls)
        _set_exps(mono, exps)
        _set_hash(mono, hash(exps))
        _set_sig(mono, sig)
        _set_infs(mono, infs)
        _set_total(mono, total)
        return mono

    def mul(self, other):
        right = other.exps
        if not right:
            return self
        left = self.exps
        if not left:
            return other
        # Ranks add up, except where an INF exponent meets another exponent
        # of its token: the product counts that INF once and no finite part.
        infs = self._infs + other._infs
        total = self._total + other._total
        out = []
        i, n = 0, len(left)
        for t, e in right:
            while i < n and left[i][0] < t:
                out.append(left[i])
                i += 1
            if i < n and left[i][0] == t:
                f = left[i][1]
                if e is INF or f is INF:
                    if e is not INF:
                        total -= e
                    elif f is not INF:
                        total -= f
                    else:
                        infs -= 1
                    out.append((t, INF))
                else:
                    out.append((t, e + f))
                i += 1
            else:
                out.append((t, e))
        out += left[i:]
        return Monomial._canonical(tuple(out), self.sig | other.sig, infs, total)

    def has_complementary_pair(self):
        toks = set(self.tokens())
        return any(negate_token(t) in toks for t in toks)

    def cap_linear(self):
        """Image under the exponent-dropping quotient (all exponents -> 1)."""
        return Monomial._canonical(tuple((t, 1) for t, _ in self.exps), self.sig,
                                   0, len(self.exps))

    def cap_at(self, bound):
        """Exponents >= bound become INF; cap_at(1) is the limit m^inf of the
        powers of m (see `PolySemiring.pow_inf`)."""
        exps = tuple((t, INF if (e is INF or e >= bound) else e) for t, e in self.exps)
        return Monomial._canonical(exps, self.sig, *_rank_of(exps))

    def __repr__(self):
        return f"Monomial({format_monomial(self)})"


# Constructors fill the slots through their descriptors, which neither
# `__setattr__` nor its attribute-name lookup stands in front of.
_new = object.__new__
_set_exps, _set_hash, _set_sig, _set_infs, _set_total = (
    getattr(Monomial, name).__set__ for name in Monomial.__slots__)

ONE_MONOMIAL = Monomial()


class Packing:
    """One exact encoding of a fixed set of monomials as ints, built for one
    operation and dropped with it (see the module docstring).

    Each token of the set gets a field of `width + 1` bits, in sorted token
    order; the top bit of each field is its guard bit, and `guards` has all
    of them.  An exponent e is stored as e in the token's field and INF as
    `ones`, the all-ones value of `width` bits.
    """

    __slots__ = ("shift", "width", "ones", "guards")

    def __init__(self, groups):
        pairs = set().union(*[m.exps for group in groups for m in group])
        tokens = sorted({t for t, _ in pairs})
        top = max([e for _, e in pairs if e is not INF], default=0)
        width = (2 * top + 1).bit_length()
        stride = width + 1
        self.shift = {t: i * stride for i, t in enumerate(tokens)}
        self.width = width
        self.ones = (1 << width) - 1
        self.guards = ((1 << stride * len(tokens)) - 1) // ((1 << stride) - 1) << width

    def split(self, m):
        """(finite, infinite): the fields of m's finite exponents, and the
        all-ones fields of its INF exponents."""
        shift = self.shift
        finite = infinite = 0
        for t, e in m.exps:
            if e is INF:
                infinite |= self.ones << shift[t]
            else:
                finite |= e << shift[t]
        return finite, infinite

    def keys(self, monomials):
        """The key of each monomial: all its fields."""
        shift, ones = self.shift, self.ones
        out = []
        for m in monomials:
            k = 0
            for t, e in m.exps:
                k |= (ones if e is INF else e) << shift[t]
            out.append(k)
        return out

    def guard_bits(self, tokens):
        """The guard bits of the fields of those `tokens` the set has."""
        shift, width = self.shift, self.width
        bits = 0
        for t in tokens:
            s = shift.get(t)
            if s is not None:
                bits |= 1 << (s + width)
        return bits


def mono_absorbs(m1, m2):
    """True iff m2 absorbs m1, i.e. m2 has pointwise <= exponents (m1 <= m2)."""
    if m2.sig & ~m1.sig:
        return False
    # Both exps tuples are sorted by token: walk them together.  Every token
    # of m2 has exponent >= 1, so it must occur in m1 as well.
    big = m1.exps
    n = len(big)
    if len(m2.exps) > n:
        return False
    i = 0
    for t, e in m2.exps:
        while i < n and big[i][0] < t:
            i += 1
        if i == n or big[i][0] != t:
            return False
        f = big[i][1]
        if f is not INF and (e is INF or e > f):
            return False
    return True


_rank = attrgetter("_infs", "_total")


def rank_sorted(monomials):
    """The monomials as a list in rank order, ties in their given order."""
    return sorted(monomials, key=_rank)


def normalize_antichain(monomials):
    """Keep only the absorption-maximal monomials of the given collection.

    The result is a list in rank order (see the module docstring): a
    monomial is dropped exactly when a monomial kept before it absorbs it.
    """
    pool = rank_sorted(dict.fromkeys(monomials))
    keep = []
    if len(pool) < PACKED_NORMALIZE_MIN:
        for m in pool:
            if not _absorbed(m, keep):
                keep.append(m)
        return keep
    packing = Packing((pool,))
    kept = _Absorbers(packing)
    for m, k in zip(pool, packing.keys(pool)):
        if not kept.absorb(k):
            keep.append(m)
            kept.add(k)
    return keep


def merge_antichains(a, b):
    """`normalize_antichain` of a's monomials followed by b's, for two
    antichains a and b (dicts or sets).

    Neither operand absorbs its own other monomials, so a monomial of one
    operand is kept unless a different monomial of the other absorbs it; a
    monomial in both is kept once, at a's position.  Filtering and the
    stable sort by rank commute, so the order is normalize_antichain's.
    """
    if len(a) * len(b) < PACKED_MERGE_PAIRS:
        keep = [m for m in a if m in b or not _absorbed(m, b)]
        keep += [n for n in b if n not in a and not _absorbed(n, a)]
        return rank_sorted(keep)
    packing = Packing((a, b))
    keys_a, keys_b = packing.keys(a), packing.keys(b)
    # Keys are exact, so key membership is monomial membership.
    in_a, in_b = set(keys_a), set(keys_b)
    by_a, by_b = _Absorbers(packing, keys_a), _Absorbers(packing, keys_b)
    keep = [m for m, k in zip(a, keys_a) if k in in_b or not by_b.absorb(k)]
    keep += [n for n, k in zip(b, keys_b) if k not in in_a and not by_a.absorb(k)]
    return rank_sorted(keep)


def _absorbed(m, others):
    """Whether some monomial of `others` absorbs m.  The signature test of
    `mono_absorbs` is made inline: most pairs fail it, and then the call is
    not made."""
    outside = ~m.sig
    for n in others:
        if not n.sig & outside and mono_absorbs(m, n):
            return True
    return False


class _Absorbers:
    """Packed keys side by side in one int, a slot of the key width plus one
    spare top bit each, so that a few int operations test a key against all
    of them at once (see the module docstring)."""

    __slots__ = ("guards", "slot", "keys", "low", "slot_guards", "count")

    def __init__(self, packing, keys=()):
        guards = self.guards = packing.guards
        slot = self.slot = guards.bit_length() + 1
        packed = 0
        for k in reversed(keys):
            packed = (packed << slot) | k
        self.keys = packed
        self.count = len(keys)
        self.low = ((1 << slot * self.count) - 1) // ((1 << slot) - 1)
        self.slot_guards = guards * self.low

    def add(self, key):
        shift = self.count * self.slot
        self.keys |= key << shift
        self.low |= 1 << shift
        self.slot_guards |= self.guards << shift
        self.count += 1

    def absorb(self, key):
        """Whether the key of some slot absorbs `key`."""
        low, slot_guards = self.low, self.slot_guards
        failed = (((key | self.guards) * low - self.keys) & slot_guards) ^ slot_guards
        high = low << (self.slot - 1)
        return ((failed | high) - low) & high != high


def _degree_sort_key(m):
    d = m.degree()
    if d is not INF:
        # Sorts as the triple form below would: with finite exponents, its
        # middle entries are all 0.
        return (0, d, m.exps)
    return (1, 0, tuple((t, 1 if e is INF else 0, e if e is not INF else 0) for t, e in m.exps))


def sort_monomials(monomials):
    """Canonical display order: (total degree, lexicographic)."""
    return sorted(monomials, key=_degree_sort_key)


def format_monomial(m):
    if m.is_one:
        return "1"
    parts = []
    for t, e in m.exps:
        if e == 1:
            parts.append(t)
        elif e is INF:
            parts.append(f"{t}^inf")
        else:
            parts.append(f"{t}^{e}")
    return "*".join(parts)
