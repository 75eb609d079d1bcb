"""The extended-natural infinity used for exponents and N^inf values.

A single shared sentinel keeps exponent arithmetic exact: INF absorbs
addition and multiplication by positive numbers, and compares above every
integer.  Multiplication by zero is NOT defined here on purpose; semiring
code must handle annihilation explicitly.
"""


class Infinity:
    """Singleton positive infinity for exact arithmetic over N u {inf}."""

    _instance = None
    _hash = hash("provgames-infinity")

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if other == 0:
            raise ArithmeticError("inf * 0 is undefined; handle annihilation explicitly")
        return self

    __rmul__ = __mul__


INF = Infinity()


def ext_le(a, b):
    """a <= b over N u {inf}, where either side may be INF."""
    if a is INF:
        return b is INF
    if b is INF:
        return True
    return a <= b


def ext_add(a, b):
    if a is INF or b is INF:
        return INF
    return a + b
