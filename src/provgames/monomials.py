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
that strictly absorb it.

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
"""

from .infinity import INF, ext_add

NEG_PREFIX = "~"


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


class Monomial:
    """Immutable product of token powers; exponents are ints >= 1 or INF."""

    __slots__ = ("exps", "_hash", "sig")

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
        object.__setattr__(self, "exps", cleaned)
        object.__setattr__(self, "_hash", hash(cleaned))
        object.__setattr__(self, "sig", token_signature(t for t, _ in cleaned))

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
        total = 0
        for _, e in self.exps:
            total += e  # INF absorbs addition from either side
        return total

    @classmethod
    def _canonical(cls, exps, sig):
        """Trusted constructor: `exps` is already sorted by token, with no
        repeated token and every exponent >= 1 or INF; `sig` is the
        signature of its tokens."""
        mono = object.__new__(cls)
        object.__setattr__(mono, "exps", exps)
        object.__setattr__(mono, "_hash", hash(exps))
        object.__setattr__(mono, "sig", sig)
        return mono

    def mul(self, other):
        right = other.exps
        if not right:
            return self
        left = self.exps
        if not left:
            return other
        out = []
        i, n = 0, len(left)
        for t, e in right:
            while i < n and left[i][0] < t:
                out.append(left[i])
                i += 1
            if i < n and left[i][0] == t:
                f = left[i][1]
                out.append((t, INF if e is INF or f is INF else e + f))
                i += 1
            else:
                out.append((t, e))
        out += left[i:]
        return Monomial._canonical(tuple(out), self.sig | other.sig)

    def has_complementary_pair(self):
        toks = set(self.tokens())
        return any(negate_token(t) in toks for t in toks)

    def cap_linear(self):
        """Image under the exponent-dropping quotient (all exponents -> 1)."""
        return Monomial._canonical(tuple((t, 1) for t, _ in self.exps), self.sig)

    def cap_at(self, bound):
        """Exponents >= bound become INF; cap_at(1) is the limit m^inf of the
        powers of m (see `PolySemiring.pow_inf`)."""
        return Monomial._canonical(
            tuple((t, INF if (e is INF or e >= bound) else e) for t, e in self.exps),
            self.sig)

    def __repr__(self):
        return f"Monomial({format_monomial(self)})"


ONE_MONOMIAL = Monomial()


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


def _rank(m):
    infs = 0
    total = 0
    for _, e in m.exps:
        if e is INF:
            infs += 1
        else:
            total += e
    return infs, total


def rank_sorted(monomials):
    """The monomials as a list in rank order, ties in their given order."""
    return sorted(monomials, key=_rank)


def normalize_antichain(monomials):
    """Keep only the absorption-maximal monomials of the given collection.

    The result is a list in rank order (see the module docstring): a
    monomial is dropped exactly when a monomial kept before it absorbs it.
    """
    keep = []
    for m in rank_sorted(dict.fromkeys(monomials)):
        if not _absorbed(m, keep):
            keep.append(m)
    return keep


def merge_antichains(a, b):
    """`normalize_antichain` of a's monomials followed by b's, for two
    antichains a and b (dicts or sets).

    Neither operand absorbs its own other monomials, so a monomial of one
    operand is kept unless a different monomial of the other absorbs it; a
    monomial in both is kept once, at a's position.  Filtering and the
    stable sort by rank commute, so the order is normalize_antichain's.
    """
    keep = [m for m in a if m in b or not _absorbed(m, b)]
    keep += [n for n in b if n not in a and not _absorbed(n, a)]
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
