"""Commutative semiring handles and the shipped application semirings.

Each handle packages the operations, the natural order in closed form,
capability flags, text I/O for its values, and the hooks the fixed-point
solver needs (top element, star, infinite powers).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InfExponentUnsupported,
    NotOmegaContinuous,
    ProvError,
    VariantMismatch,
)
from .infinity import INF, ext_add, ext_le
from .monomials import mono_absorbs
from .poly import (
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
    series_geom,
    trunc_kind,
)


@dataclass(frozen=True)
class CapabilityFlags:
    plus_positive: bool = True
    positive: bool = True
    root_integral: bool = True
    idempotent_add: bool = False
    idempotent_mul: bool = False
    absorptive: bool = False
    omega_continuous: bool = False
    fully_omega_continuous: bool = False
    chain_positive: bool = False

    def __post_init__(self):
        if self.absorptive and not self.idempotent_add:
            raise ProvError("absorptive implies idempotent_add")
        if self.positive and not self.plus_positive:
            raise ProvError("positive implies plus_positive")
        if self.fully_omega_continuous and not self.omega_continuous:
            raise ProvError("fully_omega_continuous implies omega_continuous")


class Semiring:
    """Base handle; concrete semirings fill in the abstract pieces."""

    name = "abstract"
    flags = CapabilityFlags()

    zero = None
    one = None
    #: Greatest element for downward (gfp) iteration; None if there is none.
    top = None

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def contains(self, a):
        raise NotImplementedError

    def leq(self, a, b):
        """The natural order a <= b iff exists x with a + x = b, closed form."""
        raise NotImplementedError

    def check(self, a):
        if not self.contains(a):
            raise VariantMismatch(f"{a!r} is not a value of semiring {self.name}")
        return a

    def power(self, a, e):
        if e == 0:
            return self.one
        if self.flags.idempotent_mul:
            return a
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base_needed = e > 1
            if base_needed:
                base = self.mul(base, base)
            e >>= 1
        return result

    def times(self, n, a):
        """n-fold sum a + ... + a for a coefficient n in N u {inf}."""
        if n == 0 or a == self.zero:
            return self.zero
        if self.flags.idempotent_add:
            return a
        if n is INF:
            raise InfExponentUnsupported(
                f"semiring {self.name} has no infinite coefficient sums"
            )
        result = self.zero
        addend = a
        while n:
            if n & 1:
                result = self.add(result, addend)
            if n > 1:
                addend = self.add(addend, addend)
            n >>= 1
        return result

    def star(self, a):
        """Kleene star: supremum of the partial sums 1 + a + ... + a^n."""
        if not self.flags.omega_continuous:
            raise NotOmegaContinuous(f"semiring {self.name} is not omega-continuous")
        if self.flags.absorptive:
            return self.one
        raise NotImplementedError

    def pow_inf(self, a):
        """a^inf, the limit of the power chain, where the handle defines one."""
        raise InfExponentUnsupported(
            f"semiring {self.name} does not support infinite exponents"
        )

    def parse_value(self, text):
        raise NotImplementedError

    def format_value(self, a):
        return str(a)

    def format_values(self, values):
        """`format_value` of each value, for values printed together."""
        return [self.format_value(a) for a in values]

    def sample_values(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<semiring {self.name}>"


class BooleanSemiring(Semiring):
    name = "bool"
    flags = CapabilityFlags(
        idempotent_add=True,
        idempotent_mul=True,
        absorptive=True,
        omega_continuous=True,
        fully_omega_continuous=True,
        chain_positive=True,
    )
    zero = 0
    one = 1
    top = 1

    def add(self, a, b):
        return a | b

    def mul(self, a, b):
        return a & b

    def contains(self, a):
        return a in (0, 1)

    def leq(self, a, b):
        return a <= b

    def pow_inf(self, a):
        return a

    def parse_value(self, text):
        text = text.strip()
        if text in ("true", "1"):
            return 1
        if text in ("false", "0"):
            return 0
        raise ProvError(f"bad boolean constant {text!r}")

    def format_value(self, a):
        return "true" if a else "false"

    def sample_values(self):
        return [0, 1]


class NaturalSemiring(Semiring):
    name = "nat"
    flags = CapabilityFlags()
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def contains(self, a):
        return isinstance(a, int) and a >= 0

    def leq(self, a, b):
        return a <= b

    def parse_value(self, text):
        return int(text)

    def sample_values(self):
        return [0, 1, 2, 3, 7]


class NatInfSemiring(Semiring):
    name = "natinf"
    flags = CapabilityFlags(
        omega_continuous=True,
        fully_omega_continuous=True,
        chain_positive=True,
    )
    zero = 0
    one = 1
    top = INF

    def add(self, a, b):
        return ext_add(a, b)

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if a is INF or b is INF:
            return INF
        return a * b

    def contains(self, a):
        return a is INF or (isinstance(a, int) and a >= 0)

    def leq(self, a, b):
        return ext_le(a, b)

    def times(self, n, a):
        return self.mul(n, a)

    def star(self, a):
        return 1 if a == 0 else INF

    def pow_inf(self, a):
        if a == 0:
            return 0
        if a == 1:
            return 1
        return INF

    def parse_value(self, text):
        text = text.strip()
        return INF if text == "inf" else int(text)

    def format_value(self, a):
        return "inf" if a is INF else str(a)

    def sample_values(self):
        return [0, 1, 2, 3, INF]


class TropicalSemiring(Semiring):
    """Costs: (Q>=0 u {inf}, min, +, inf, 0)."""

    name = "tropical"
    flags = CapabilityFlags(
        idempotent_add=True,
        absorptive=True,
        omega_continuous=True,
        fully_omega_continuous=True,
    )
    zero = INF
    one = Fraction(0)
    top = Fraction(0)

    def add(self, a, b):
        if a is INF:
            return b
        if b is INF:
            return a
        return min(a, b)

    def mul(self, a, b):
        return ext_add(a, b)

    def contains(self, a):
        return a is INF or (isinstance(a, (int, Fraction)) and a >= 0)

    def leq(self, a, b):
        # Natural order is the reverse numeric order; inf (= 0 element) is least.
        if b is INF:
            return a is INF
        if a is INF:
            return True
        return b <= a

    def pow_inf(self, a):
        return Fraction(0) if a == 0 else INF

    def parse_value(self, text):
        text = text.strip()
        return INF if text == "inf" else Fraction(text)

    def format_value(self, a):
        return "inf" if a is INF else str(a)

    def sample_values(self):
        return [INF, Fraction(0), Fraction(1), Fraction(3, 2), Fraction(5)]


class ViterbiSemiring(Semiring):
    """Confidence scores: ([0,1], max, *, 0, 1) over exact rationals."""

    name = "viterbi"
    flags = CapabilityFlags(
        idempotent_add=True,
        absorptive=True,
        omega_continuous=True,
        fully_omega_continuous=True,
    )
    zero = Fraction(0)
    one = Fraction(1)
    top = Fraction(1)

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return a * b

    def contains(self, a):
        return isinstance(a, (int, Fraction)) and 0 <= a <= 1

    def leq(self, a, b):
        return a <= b

    def pow_inf(self, a):
        return Fraction(1) if a == 1 else Fraction(0)

    def parse_value(self, text):
        return Fraction(text.strip())

    def sample_values(self):
        return [Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)]


class MinMaxSemiring(Semiring):
    """(A, max, min, least, greatest) over a finite total order of labels."""

    def __init__(self, labels, name=None):
        labels = list(labels)
        if len(labels) < 2 or len(set(labels)) != len(labels):
            raise ProvError("min-max semiring needs >= 2 distinct labels")
        self.labels = labels
        self._rank = {lab: i for i, lab in enumerate(labels)}
        self.name = name or ("minmax:" + "<".join(labels))
        self.zero = labels[0]
        self.one = labels[-1]
        self.top = labels[-1]
        self.flags = CapabilityFlags(
            idempotent_add=True,
            idempotent_mul=True,
            absorptive=True,
            omega_continuous=True,
            fully_omega_continuous=True,
            chain_positive=True,
        )

    def add(self, a, b):
        return a if self._rank[a] >= self._rank[b] else b

    def mul(self, a, b):
        return a if self._rank[a] <= self._rank[b] else b

    def contains(self, a):
        return a in self._rank

    def leq(self, a, b):
        return self._rank[a] <= self._rank[b]

    def pow_inf(self, a):
        return a

    def parse_value(self, text):
        text = text.strip()
        if text not in self._rank:
            raise ProvError(f"unknown label {text!r} for {self.name}")
        return text

    def sample_values(self):
        return list(self.labels)


def access_semiring():
    """The access-control chain P < C < S < T < 0 with add = min, mul = max.

    Reversing the chain turns it into a standard min-max semiring: 0 is the
    additive identity (most restrictive), P the multiplicative one.
    """
    return MinMaxSemiring(["0", "T", "S", "C", "P"], name="access")


_POLY_FLAGS = {
    "natpoly": CapabilityFlags(),
    "boolpoly": CapabilityFlags(idempotent_add=True),
    "whypoly": CapabilityFlags(idempotent_add=True),
    # PosBool(X) is a finite distributive lattice, hence a complete one.
    "posbool": CapabilityFlags(
        idempotent_add=True,
        idempotent_mul=True,
        absorptive=True,
        omega_continuous=True,
        fully_omega_continuous=True,
        chain_positive=True,
    ),
    "sorp": CapabilityFlags(
        idempotent_add=True, absorptive=True, omega_continuous=True
    ),
    "sorpinf": CapabilityFlags(
        idempotent_add=True,
        absorptive=True,
        omega_continuous=True,
        fully_omega_continuous=True,
        chain_positive=True,
    ),
    "dualnat": CapabilityFlags(positive=False),
    "sorpinfdual": CapabilityFlags(
        positive=False,
        idempotent_add=True,
        absorptive=True,
        omega_continuous=True,
        fully_omega_continuous=True,
        chain_positive=True,
    ),
    # Degree truncation introduces zero divisors, so series kinds are not
    # positive even though the power series they approximate are.
    "series": CapabilityFlags(
        positive=False, omega_continuous=True, fully_omega_continuous=True
    ),
    "seriesdual": CapabilityFlags(
        positive=False, omega_continuous=True, fully_omega_continuous=True
    ),
}


def _poly_flags(kind):
    return _POLY_FLAGS[kind.name]


class PolySemiring(Semiring):
    """Handle wrapping one polynomial kind as a semiring of Polynomial values."""

    def __init__(self, kind):
        self.kind = kind
        self.name = str(kind)
        self.flags = _poly_flags(kind)
        self.zero = Polynomial.zero(kind)
        self.one = Polynomial.one(kind)
        # A truncated series has no top of its own: its greatest element
        # depends on the token space, and the solver's degree levels build
        # only the slice of it that they need.
        if self.flags.fully_omega_continuous and not kind.inf_coefficients:
            self.top = self.one
        else:
            self.top = None

    def token(self, name):
        return Polynomial.token(self.kind, name)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def contains(self, a):
        return isinstance(a, Polynomial) and a.kind == self.kind

    def leq(self, a, b):
        if self.kind.coefficients:
            return all(ext_le(c, b.coefficient(m)) for m, c in a.monos.items())
        if self.kind.antichain:
            # a and b are antichains, so a + b == b exactly when some
            # monomial of b absorbs each monomial of a.
            a._check_kind(b)
            return all(
                m in b.monos or any(mono_absorbs(m, n) for n in b.monos) for m in a.monos
            )
        return (a + b) == b

    def times(self, n, a):
        if self.kind.inf_coefficients and n is INF:
            return Polynomial(self.kind, {m: INF for m in a.monos}, a.truncated)
        return super().times(n, a)

    def star(self, a):
        if not self.flags.omega_continuous:
            raise NotOmegaContinuous(f"semiring {self.name} is not omega-continuous")
        if self.flags.absorptive:
            return self.one
        # Truncated series: 1 + a + a^2 + ..., cut at the degree bound.
        return series_geom(self.one, a, self.kind.degree_bound)

    def pow_inf(self, a):
        if not self.flags.absorptive:
            return super().pow_inf(a)
        if a.is_zero or a == self.one or self.flags.idempotent_mul:
            return a
        if not self.kind.inf_exponents:
            # Without infinite exponents the power chain of any non-unit
            # element descends to 0 (every monomial degree keeps growing).
            return self.zero
        # (m_1 + ... + m_k)^inf = m_1^inf + ... + m_k^inf, and m^inf sets
        # every exponent of m to inf (see the solver's module docstring).
        return Polynomial(self.kind, {m.cap_at(1): 1 for m in a.monos}, a.truncated)

    def parse_value(self, text):
        return parse_poly(self.kind, text)

    def format_value(self, a):
        return format_poly(a)

    def format_values(self, values):
        return format_polys(values)

    def sample_values(self):
        kind = self.kind
        p = Polynomial.token(kind, "p")
        q = Polynomial.token(kind, "q")
        samples = [self.zero, self.one, p, q, p + q, p * q, p * p]
        if kind.coefficients:
            samples.append(p + p)
        if kind.dual:
            samples.append(Polynomial.token(kind, "~p"))
        return samples


# --- registry -------------------------------------------------------------


def get_semiring(selector):
    """Resolve a CLI-style selector like 'viterbi', 'minmax:a<b<c', 'series:6'."""
    name, _, params = selector.partition(":")
    simple = {
        "bool": BooleanSemiring,
        "nat": NaturalSemiring,
        "natinf": NatInfSemiring,
        "tropical": TropicalSemiring,
        "viterbi": ViterbiSemiring,
    }
    if name in simple:
        return simple[name]()
    if name == "access":
        return access_semiring()
    if name == "minmax":
        labels = [lab.strip() for lab in params.split("<")]
        return MinMaxSemiring(labels)
    poly_kinds = {
        "natpoly": NATPOLY,
        "boolpoly": BOOLPOLY,
        "whypoly": WHYPOLY,
        "posbool": POSBOOL,
        "sorp": SORP,
        "sorpinf": SORPINF,
        "dualnat": DUALNAT,
        "sorpinfdual": SORPINFDUAL,
    }
    if name in poly_kinds:
        return PolySemiring(poly_kinds[name])
    if name in ("series", "seriesdual"):
        degree = int(params) if params else 8
        return PolySemiring(trunc_kind(degree, dual=(name == "seriesdual")))
    raise ProvError(f"unknown semiring selector {selector!r}")


SHIPPED_SELECTORS = [
    "bool",
    "nat",
    "natinf",
    "tropical",
    "viterbi",
    "minmax:lo<mid<hi",
    "access",
    "natpoly",
    "boolpoly",
    "whypoly",
    "posbool",
    "sorp",
    "sorpinf",
    "dualnat",
    "sorpinfdual",
    "series:8",
    "seriesdual:8",
]


# --- expression evaluation and law checking -------------------------------


def sr_eval(handle, expr):
    """Evaluate a nested ('add'|'mul', subexprs...) tree of handle values."""
    if isinstance(expr, tuple) and expr and expr[0] in ("add", "mul"):
        op = handle.add if expr[0] == "add" else handle.mul
        unit = handle.zero if expr[0] == "add" else handle.one
        value = unit
        for sub in expr[1:]:
            value = op(value, sr_eval(handle, sub))
        return value
    return handle.check(expr)


def _law_checkers(handle):
    eq = lambda a, b: a == b
    z, o = handle.zero, handle.one

    def plus_positive(a, b):
        return not eq(handle.add(a, b), z) or (eq(a, z) and eq(b, z))

    def positive(a, b):
        return not eq(handle.mul(a, b), z) or eq(a, z) or eq(b, z)

    def root_integral(a):
        return not eq(handle.mul(a, a), z) or eq(a, z)

    def idempotent_add(a):
        return eq(handle.add(a, a), a)

    def idempotent_mul(a):
        return eq(handle.mul(a, a), a)

    def absorptive(a, b):
        return eq(handle.add(a, handle.mul(a, b)), a)

    def star_law(a):
        return eq(handle.star(a), handle.add(o, handle.mul(a, handle.star(a))))

    def chain_positive(a):
        if eq(a, z):
            return True
        return not eq(handle.pow_inf(a), z)

    def assoc_add(a, b, c):
        return eq(handle.add(handle.add(a, b), c), handle.add(a, handle.add(b, c)))

    def assoc_mul(a, b, c):
        return eq(handle.mul(handle.mul(a, b), c), handle.mul(a, handle.mul(b, c)))

    def comm(a, b):
        return eq(handle.add(a, b), handle.add(b, a)) and eq(
            handle.mul(a, b), handle.mul(b, a)
        )

    def distrib(a, b, c):
        return eq(handle.mul(a, handle.add(b, c)), handle.add(handle.mul(a, b), handle.mul(a, c)))

    def units(a):
        return (
            eq(handle.add(a, z), a)
            and eq(handle.mul(a, o), a)
            and eq(handle.mul(a, z), z)
        )

    return {
        "plus_positive": (2, plus_positive),
        "positive": (2, positive),
        "root_integral": (1, root_integral),
        "idempotent_add": (1, idempotent_add),
        "idempotent_mul": (1, idempotent_mul),
        "absorptive": (2, absorptive),
        "omega_continuous": (1, star_law),
        "fully_omega_continuous": (1, star_law),
        "chain_positive": (1, chain_positive),
        "assoc_add": (3, assoc_add),
        "assoc_mul": (3, assoc_mul),
        "commutative": (2, comm),
        "distributive": (3, distrib),
        "units": (1, units),
    }


def sr_check_laws(handle, samples, flag):
    """Exhaustively check one named law on the sample set.

    Returns the list of counterexample tuples; empty means the sample passes.
    """
    arity, law = _law_checkers(handle)[flag]
    for s in samples:
        handle.check(s)
    counterexamples = []
    if arity == 1:
        pools = [(a,) for a in samples]
    elif arity == 2:
        pools = [(a, b) for a in samples for b in samples]
    else:
        pools = [(a, b, c) for a in samples for b in samples for c in samples]
    for args in pools:
        try:
            ok = law(*args)
        except InfExponentUnsupported:
            continue
        if not ok:
            counterexamples.append(args)
    return counterexamples
