"""Meromorphic factor products in the regulator and truncated Laurent expansions at z = 0.

A regulator-dependent coefficient ``K(z)`` is kept as a product of primitive
factors (Gamma of an affine argument, a half-turn exponential ``e^{i pi (a z + b)}``,
an integer power of an affine polynomial, and rational powers of positive
parameter monomials).  Each factor has a closed Taylor/Laurent expansion at
``z = 0``; products expand by truncated convolution.

The series of a Gamma, half-turn or affine factor is plain numbers times one
fixed monomial (``pi^(1/2)`` for a Gamma at a half-integer, else none), so
``expand_product`` convolves the leading run of such factors over complex
numbers and lifts each coefficient to a ``ParamPoly`` once.  From the first
``const_pow`` factor on, whose coefficients carry ``ln(base)^k``, it
multiplies ``ParamPoly`` series.  Either way the float operations, and so
every last bit, are those of a ``ParamPoly`` fold over the factors in order.

mpmath is imported only inside ``polygamma_value`` and the general branch of
``gamma_value``: Gamma at integers and half-integers is exact in ``pi^(1/2)``,
no bundled command expands a Gamma past its lead, and the import costs a
process tens of milliseconds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import rational
from .errors import NumericOverflow, UnsupportedFactor, UnsupportedStructure
from .params import ExpKey, ParamPoly, _merge_keys, log_param
from .rational import Q

DEFAULT_ORDER = 4
MAX_ORDER = 16


class FactorKind(str, Enum):
    GAMMA = "gamma"
    EXP_IPI = "exp_ipi"
    AFFINE = "affine"
    CONST_POW = "const_pow"


def half_turn(beta: Q) -> complex:
    """e^{i pi beta}, exact for integer and half-integer beta."""
    n, d = beta
    if d <= 2:
        # beta mod 2, in halves
        return (1.0 + 0j, 1j, -1.0 + 0j, -1j)[n * (2 // d) % 4]
    return cmath.exp(1j * math.pi * rational.to_float(beta))


@lru_cache(maxsize=None)
def polygamma_value(k: int, x: Q) -> float:
    """psi^(k)(x) for rational non-pole x, evaluated once and cached."""
    import mpmath

    return float(mpmath.psi(k, mpmath.mpf(x[0]) / x[1]))


#: Gamma at an integer or half-integer argument beyond this many halves leaves
#: the float range: Gamma(172) = 171! and Gamma(172.5) overflow, Gamma(-172.5)
#: underflows
GAMMA_ARG_MAX_HALVES = 343


@lru_cache(maxsize=None)
def gamma_value(beta: Q) -> ParamPoly:
    """Gamma(beta) as a ParamPoly; integer/half-integer arguments stay exact in pi^(1/2).

    ``NumericOverflow`` where Gamma(beta) leaves the float range; at an
    integer or half-integer it is raised before any factorial or product
    is formed.
    """
    n, d = beta
    if d == 1 and n <= 0:
        raise UnsupportedFactor(f"Gamma pole at {n}")
    if d <= 2 and abs(n) * (2 // d) > GAMMA_ARG_MAX_HALVES:
        raise NumericOverflow(f"Gamma({rational.text(beta)}) leaves the float range")
    if d == 1:
        return ParamPoly.number(float(math.factorial(n - 1)))
    if d == 2:
        # Gamma(1/2 + k) = rational * sqrt(pi)
        k = (n - 1) // 2
        rat = Fraction(1)
        if k >= 0:
            for j in range(k):
                rat *= Fraction(1, 2) + j
        else:
            for j in range(1, -k + 1):
                rat /= Fraction(1, 2) - j
        return ParamPoly.monomial(float(rat), {"pi": Fraction(1, 2)})
    import mpmath

    return ParamPoly.number(float(mpmath.gamma(mpmath.mpf(n) / d)))


@dataclass(frozen=True)
class PrimitiveFactor:
    """One primitive meromorphic building block in a single regulator.

    Its argument is ``alpha z + beta``, both exponents normalised integer
    pairs (``rational``).  A factor hashes once, on first use, and keeps the
    hash: term sums are merged by multisets of factors, and hashing the
    kind, an ``Enum``, each time is slow.
    """

    kind: FactorKind
    alpha: Q
    beta: Q
    power: int = 1
    base: tuple[float, ExpKey] | None = None  # positive monomial: (coeff, exponent key)
    regulator: str = "z"

    def _fields(self) -> tuple:
        return (self.kind, self.alpha, self.beta, self.power, self.base, self.regulator)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(self._fields())
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # string hashes differ between processes: an unpickled factor hashes afresh
        return PrimitiveFactor, self._fields()

    # -- properties ---------------------------------------------------------

    def base_poly(self) -> ParamPoly:
        coeff, key = self.base
        return ParamPoly({key: coeff})

    def pole_order(self) -> int:
        """Order of the pole at z = 0 (negative for a zero)."""
        if self.kind is FactorKind.GAMMA:
            if self.beta[1] == 1 and self.beta[0] <= 0:
                if self.alpha[0] == 0:
                    raise UnsupportedFactor("Gamma pole with no regulator dependence")
                return 1
            return 0
        if self.kind is FactorKind.AFFINE and self.beta[0] == 0:
            return -self.power
        return 0

    def render(self) -> str:
        z = self.regulator
        a, b = self.alpha, self.beta
        arg = _affine_str(a, b, z)
        if self.kind is FactorKind.GAMMA:
            return f"Gamma({arg})"
        if self.kind is FactorKind.EXP_IPI:
            return f"e^(i*pi*({arg}))"
        if self.kind is FactorKind.AFFINE:
            return f"({arg})^{self.power}" if self.power != 1 else f"({arg})"
        return f"({self.base_poly().render(mul='*')})^({arg})"


def positive_base(base: ParamPoly) -> tuple[float, ExpKey]:
    """A ``const_pow`` base: the coefficient and key of a positive monomial."""
    mono = base.single_monomial()
    if mono is None or not base.is_positive_monomial():
        raise UnsupportedStructure("const_pow base must be a positive monomial")
    coeff, key = mono
    return coeff.real, key


def _affine_str(a: Q, b: Q, z: str) -> str:
    parts = []
    if a[0] != 0:
        if a == rational.ONE:
            parts.append(z)
        elif a == (-1, 1):
            parts.append(f"-{z}")
        else:
            parts.append(f"{rational.text(a)}*{z}")
    if b[0] != 0 or not parts:
        s = rational.text(b)
        parts.append(f"+{s}" if b[0] >= 0 and parts else s)
    return "".join(parts)


@dataclass(frozen=True)
class MeroFactorProduct:
    """Prefactor times a product of primitive factors."""

    prefactor: ParamPoly
    factors: tuple[PrimitiveFactor, ...] = ()

    def scaled(self, poly: ParamPoly) -> "MeroFactorProduct":
        return MeroFactorProduct(self.prefactor * poly, self.factors)

    def render(self) -> str:
        parts = [self.prefactor.render(mul="*")]
        parts += [f.render() for f in self.factors]
        return " * ".join(parts)


# ---------------------------------------------------------------------------
# Laurent series with ring-element coefficients
# ---------------------------------------------------------------------------


class LaurentSeries:
    """Truncated Laurent series sum(coeffs[j] * z^(lead + j)).

    Coefficients are ring elements supporting ``+`` and ``*``.  A factor's or
    product's series has ``ParamPoly`` coefficients; the regulator elimination
    in ``terms`` builds series whose coefficients are term sums.  A
    coefficient may be zero, the lead one included: the lead order of a
    series is where its first nonzero coefficient sits.  ``expand_product``
    multiplies these series only from its first ``const_pow`` factor on; the
    Gamma, half-turn and affine factors before it are convolved as lists of
    complex numbers.
    """

    __slots__ = ("lead", "coeffs")

    def __init__(self, lead: int, coeffs: Sequence):
        self.lead = lead
        self.coeffs = list(coeffs)

    def mul(self, other: "LaurentSeries", zero) -> "LaurentSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        out = [zero for _ in range(n)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                if i + j < n:
                    out[i + j] = out[i + j] + a * b
        return LaurentSeries(self.lead + other.lead, out)

    def scale(self, poly) -> "LaurentSeries":
        return LaurentSeries(self.lead, [c * poly for c in self.coeffs])


def _numeric_series(lead: int, coeffs: Sequence[complex]) -> LaurentSeries:
    return LaurentSeries(lead, [ParamPoly.number(c) for c in coeffs])


def _exp_numeric(linear: Sequence[complex], order: int) -> list[complex]:
    """Taylor coefficients of exp(sum_k linear[k] z^(k+1)) to z^order."""
    poly = [0j] * (order + 1)
    for k, c in enumerate(linear):
        if k + 1 <= order:
            poly[k + 1] = c
    acc = [0j] * (order + 1)
    acc[0] = 1.0
    term = [0j] * (order + 1)
    term[0] = 1.0
    for n in range(1, order + 1):
        nxt = [0j] * (order + 1)
        for i in range(order + 1):
            if term[i] == 0:
                continue
            for j in range(1, order + 1 - i):
                nxt[i + j] += term[i] * poly[j]
        term = [v / n for v in nxt]
        for i in range(order + 1):
            acc[i] += term[i]
        if all(v == 0 for v in term):
            break
    return acc


def expand_factor(f: PrimitiveFactor, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Laurent series of a primitive factor at z = 0, ``order`` terms past the lead."""
    if order < 0:
        raise ValueError("order must be >= 0")
    a = rational.to_float(f.alpha)

    if f.kind is FactorKind.EXP_IPI:
        const = half_turn(f.beta)
        coeffs = _exp_numeric([1j * math.pi * a], order)
        return _numeric_series(0, [const * c for c in coeffs])

    if f.kind is FactorKind.AFFINE:
        b = rational.to_float(f.beta)
        n = f.power
        if f.beta[0] == 0:
            if f.alpha[0] == 0:
                raise UnsupportedFactor("affine factor is identically zero")
            return _numeric_series(n, [a ** n] + [0j] * order)
        if n >= 0:
            coeffs = [0j] * (order + 1)
            for k in range(min(n, order) + 1):
                coeffs[k] = float(math.comb(n, k)) * b ** (n - k) * a ** k
            return _numeric_series(0, coeffs)
        # negative power, regular point: generalized binomial
        ratio = a / b
        coeffs = [0j] * (order + 1)
        c = b ** n
        coeffs[0] = c
        binom = 1.0
        for k in range(1, order + 1):
            binom *= (n - k + 1) / k
            coeffs[k] = c * binom * ratio ** k
        return _numeric_series(0, coeffs)

    if f.kind is FactorKind.GAMMA:
        b = f.beta
        if b[1] == 1 and b[0] <= 0:
            if f.alpha[0] == 0:
                raise UnsupportedFactor(f"Gamma({b[0]}) has no regulator to expand against")
            # Gamma(a z + b) = Gamma(a z + 1) / prod_{k=0..n} (a z - k),  n = -b
            n = -b[0]
            series = expand_factor(
                PrimitiveFactor(FactorKind.GAMMA, f.alpha, rational.ONE, regulator=f.regulator), order + 1
            )
            num = [c.as_number() for c in series.coeffs]
            for k in range(1, n + 1):
                # 1/(a z - k) = -(1/k) sum_j (a z / k)^j
                rec = [1.0 / -k]
                for _ in range(order + 1):
                    rec.append(rec[-1] * a / k)
                num = _convolve(num, rec, order + 2)
            # divide by (a z): shift lead down by one
            num = [c / a for c in num]
            return _numeric_series(-1, num[: order + 1])
        g0 = gamma_value(b)
        linear = [
            polygamma_value(k - 1, b) * a ** k / math.factorial(k)
            for k in range(1, order + 1)
        ]
        coeffs = _exp_numeric(linear, order)
        return LaurentSeries(0, [g0.scale(c) for c in coeffs])

    # CONST_POW: base^(a z + b) = base^b * exp(a z * ln(base))
    base = f.base_poly()
    const = base.mono_pow(rational.fraction(f.beta))
    if f.alpha[0] == 0:
        return LaurentSeries(0, [const] + [ParamPoly.zero()] * order)
    lg = log_param(base)
    coeffs = [const]
    power = ParamPoly.one()
    for k in range(1, order + 1):
        power = power * lg
        coeffs.append(const * power.scale(a ** k / math.factorial(k)))
    return LaurentSeries(0, coeffs)


def _convolve(xs: Sequence[complex], ys: Sequence[complex], n: int) -> list[complex]:
    out = [0j] * n
    for i, x in enumerate(xs):
        if x == 0:
            continue
        for j, y in enumerate(ys):
            if i + j < n:
                out[i + j] += x * y
    return out


def _terms(series: LaurentSeries) -> list[tuple[ExpKey, complex] | None]:
    """The one term of each coefficient of a factor's series, None where it is zero."""
    terms = []
    for c in series.coeffs:
        (term,) = c.terms.items() or (None,)  # a single monomial, by construction
        terms.append(term)
    return terms


def expand_product(p: MeroFactorProduct, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Truncated Laurent expansion of a factor product times its prefactor.

    Bit for bit the fold ``series.mul(expand_factor(f))`` over the factors in
    order, then ``.scale(prefactor)``: the factors before the first
    ``const_pow`` are convolved as complex numbers in that same order, which
    performs the same float operations.
    """
    factors = p.factors
    split = next((i for i, f in enumerate(factors) if f.kind is FactorKind.CONST_POW), len(factors))
    lead, nums, key = 0, [1 + 0j] + [0j] * order, ExpKey()
    for f in factors[:split]:
        series = expand_factor(f, order)
        terms = _terms(series)
        lead += series.lead
        nums = _convolve(nums, [t[1] if t else 0j for t in terms], order + 1)
        key = _merge_keys(key, next((t[0] for t in terms if t), ()))  # one monomial per factor
    if split == len(factors):
        pre = [(_merge_keys(key, k), c) for k, c in p.prefactor.terms.items()]
        return LaurentSeries(lead, [ParamPoly({k: x * c for k, c in pre}) for x in nums])
    # The first const_pow's coefficients carry distinct powers of ln(base), so
    # no two products share a monomial: each coefficient is one dict of
    # products, which is what the fold's additions leave after pruning.
    series = expand_factor(factors[split], order)
    logs = _terms(series)
    series = LaurentSeries(lead + series.lead, [
        ParamPoly({
            _merge_keys(key, logs[m - i][0]): nums[i] * logs[m - i][1]
            for i in range(m + 1) if nums[i] and logs[m - i]
        })
        for m in range(order + 1)
    ])
    for f in factors[split + 1:]:
        series = series.mul(expand_factor(f, order), ParamPoly.zero())
    return series.scale(p.prefactor)
