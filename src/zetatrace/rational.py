"""Regulator exponents as normalised integer pairs.

Gamma arguments a z + b, half-turn and power exponents and the ``T``
exponent's slopes and constant are rational.  Each is a pair ``(n, d)`` of
ints with ``d > 0`` and ``gcd(n, d) = 1``, so one value has one pair and
pairs compare and hash as plain tuples, many times faster than ``Fraction``.
The sign of a value is the sign of ``n``.  Tuple order is not numeric order:
nothing sorts pairs by value.  ``of`` reads an int or ``Fraction``,
``fraction`` converts back, ``text`` renders like ``str(Fraction)``, and
``to_float`` is ``n / d``, which is ``float(Fraction)`` bit for bit.
"""

from fractions import Fraction
from math import gcd

Q = tuple[int, int]

ZERO: Q = (0, 1)
ONE: Q = (1, 1)


def of(x) -> Q:
    """The pair of an int, a ``Fraction`` or anything else ``Fraction`` reads exactly."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator, x.denominator


def fraction(x: Q) -> Fraction:
    return Fraction(*x)


def add(x: Q, y: Q) -> Q:
    n = x[0] * y[1] + y[0] * x[1]
    d = x[1] * y[1]
    g = gcd(n, d)
    return n // g, d // g


def sub(x: Q, y: Q) -> Q:
    n = x[0] * y[1] - y[0] * x[1]
    d = x[1] * y[1]
    g = gcd(n, d)
    return n // g, d // g


def neg(x: Q) -> Q:
    return -x[0], x[1]


def mul(x: Q, y: Q) -> Q:
    n = x[0] * y[0]
    d = x[1] * y[1]
    g = gcd(n, d)
    return n // g, d // g


def to_float(x: Q) -> float:
    return x[0] / x[1]


def text(x: Q) -> str:
    return str(x[0]) if x[1] == 1 else f"{x[0]}/{x[1]}"
