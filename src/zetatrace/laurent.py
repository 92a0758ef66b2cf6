"""Meromorphic factor products in the regulator and truncated Laurent expansions at z = 0.

A regulator-dependent coefficient ``K(z)`` is kept as a canonical product of
primitive factors (integer powers of a Gamma or of an affine polynomial, a
half-turn exponential ``e^{i pi (a z + b)}``, rational powers of positive
parameter monomials).  Each factor has a closed Taylor/Laurent expansion at
``z = 0``; products expand by truncated convolution, one loop
(``_convolve``) for numbers and ``ParamPoly`` coefficients alike.

The series of every factor but a ``const_pow`` with a slope is plain numbers
times one fixed monomial (``pi^(1/2)`` for a Gamma at a half-integer,
``base^b`` for a ``const_pow`` with none), built as numbers by
``_numeric_factor``.  ``_numeric_run`` convolves a run of such factors over
complex numbers: a Gamma power, a Gamma at a pole (Gamma(a z - n) is
Gamma(a z + 1) times the affine factors of ``gamma_quotient``) and the
factors of a product before its first ``const_pow`` with a slope.  From that
factor on, whose coefficients carry ``ln(base)^k``, ``expand_product``
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
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import rational
from .errors import NumericOverflow, UnsupportedFactor, UnsupportedStructure
from .params import _NO_PARAMS, ExpKey, ParamPoly, _merge_keys, log_param
from .rational import Q
from .records import FrozenRecord

DEFAULT_ORDER = 4
MAX_ORDER = 16


class FactorKind:
    """The four kinds of primitive factor, as plain strings: compare them with
    ``==``, since an unpickled kind is a fresh string."""

    GAMMA = "gamma"
    EXP_IPI = "exp_ipi"
    AFFINE = "affine"
    CONST_POW = "const_pow"


#: kinds whose exponents, not a power, add up in a product
EXPONENT_KINDS = (FactorKind.EXP_IPI, FactorKind.CONST_POW)


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


class PrimitiveFactor(FrozenRecord):
    """One primitive meromorphic building block in a single regulator.

    Its argument is ``alpha z + beta``, both exponents normalised integer
    pairs (``rational``); a Gamma or affine factor is raised to ``power``.

    ``fold_key`` is set when built: factors of one key multiply into one (Gamma
    or affine factors of one argument, a regulator's half-turns, a base's
    powers); it is None for a factor equal to 1.
    """

    __slots__ = ("kind", "alpha", "beta", "power", "base", "regulator", "fold_key")

    def __init__(self, kind: str, alpha: Q, beta: Q, power: int = 1,
                 base: tuple[float, ExpKey] | None = None,  # positive monomial: (coeff, exponent key)
                 regulator: str = "z"):
        self.kind = kind
        self.alpha = alpha
        self.beta = beta
        self.power = power
        self.base = base
        self.regulator = regulator
        if kind in EXPONENT_KINDS:
            self.fold_key = (kind, regulator, base) if alpha[0] or beta[0] else None
        else:
            self.fold_key = (kind, regulator, alpha, beta) if power else None

    def remade(self, alpha: Q, beta: Q, power: int = 1) -> "PrimitiveFactor":
        return PrimitiveFactor(self.kind, alpha, beta, power, self.base, self.regulator)

    def raised(self, n: int) -> "PrimitiveFactor":
        """The factor to the integer power n."""
        if self.kind in EXPONENT_KINDS:
            return self.remade(rational.mul(self.alpha, (n, 1)), rational.mul(self.beta, (n, 1)))
        return self.remade(self.alpha, self.beta, self.power * n)

    def times(self, other: "PrimitiveFactor") -> "PrimitiveFactor":
        """The product with a factor of the same ``fold_key``."""
        if self.kind in EXPONENT_KINDS:
            return self.remade(rational.add(self.alpha, other.alpha), rational.add(self.beta, other.beta))
        return self.remade(self.alpha, self.beta, self.power + other.power)

    # -- properties ---------------------------------------------------------

    def base_poly(self) -> ParamPoly:
        coeff, key = self.base
        return ParamPoly({key: coeff})

    def pole_order(self) -> int:
        """Order of the pole at z = 0 (negative for a zero)."""
        if self.kind == FactorKind.GAMMA:
            if self.beta[1] == 1 and self.beta[0] <= 0:
                if self.alpha[0] == 0:
                    raise UnsupportedFactor("Gamma pole with no regulator dependence")
                return self.power
            return 0
        if self.kind == FactorKind.AFFINE and self.beta[0] == 0:
            return -self.power
        return 0

    def render(self) -> str:
        z = self.regulator
        a, b = self.alpha, self.beta
        arg = _affine_str(a, b, z)
        if self.kind == FactorKind.GAMMA:
            return f"Gamma({arg})^{self.power}" if self.power != 1 else f"Gamma({arg})"
        if self.kind == FactorKind.EXP_IPI:
            return f"e^(i*pi*({arg}))"
        if self.kind == FactorKind.AFFINE:
            return f"({arg})^{self.power}" if self.power != 1 else f"({arg})"
        return f"({self.base_poly().render(mul='*')})^({arg})"


def positive_base(base: ParamPoly) -> tuple[float, ExpKey]:
    """A ``const_pow`` base: the coefficient and key of a positive monomial."""
    mono = base.single_monomial()
    if mono is None or not base.is_positive_monomial():
        raise UnsupportedStructure("const_pow base must be a positive monomial")
    coeff, key = mono
    return coeff.real, key


def gamma_quotient(f: PrimitiveFactor, k: int) -> list[PrimitiveFactor]:
    """Gamma(x + k) / Gamma(x) = x (x+1) ... (x+k-1), or 1/((x-1) ... (x+k)) for k < 0; f = Gamma(x)."""
    shifts, power = (range(k), 1) if k >= 0 else (range(-1, k - 1, -1), -1)
    return [
        PrimitiveFactor(FactorKind.AFFINE, f.alpha, rational.add(f.beta, (j, 1)), power, regulator=f.regulator)
        for j in shifts
    ]


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


class MeroFactorProduct(FrozenRecord):
    """Prefactor times a product of primitive factors, folded when built: one
    factor per ``fold_key``, where the key first occurs, and none equal to 1.

    The constructor checks that form and folds where it does not hold.
    ``_canonical`` skips the check, for factors taken from one canonical
    product in its order (the same tuple, or a subset): they are folded
    already.
    """

    __slots__ = ("prefactor", "factors")

    def __init__(self, prefactor: ParamPoly, factors: tuple[PrimitiveFactor, ...] = ()):
        keys = {f.fold_key for f in factors}
        if len(keys) < len(factors) or None in keys:
            folded: dict[tuple, PrimitiveFactor] = {}
            for f in factors:
                if f.fold_key is not None:
                    g = folded.get(f.fold_key)
                    folded[f.fold_key] = f if g is None else g.times(f)
            factors = tuple(f for f in folded.values() if f.fold_key is not None)
        self.prefactor = prefactor
        self.factors = factors

    @classmethod
    def _canonical(cls, prefactor: ParamPoly, factors: tuple[PrimitiveFactor, ...]) -> "MeroFactorProduct":
        product = object.__new__(cls)
        product.prefactor = prefactor
        product.factors = factors
        return product

    def render(self) -> str:
        parts = [self.prefactor.render(mul="*")]
        parts += [f.render() for f in self.factors]
        return " * ".join(parts)


# ---------------------------------------------------------------------------
# Laurent series with ring-element coefficients
# ---------------------------------------------------------------------------


class LaurentSeries:
    """Truncated Laurent series sum(coeffs[j] * z^(lead + j)).

    Coefficients are ``ParamPoly``s; the regulator elimination in ``terms``
    reads a product's series and builds none of its own.  A coefficient may
    be zero, the lead one included: the lead order of a series is where its
    first nonzero coefficient sits.  ``mul`` truncates to the shorter series
    and convolves with ``_convolve``.  ``expand_product`` multiplies these
    series only from its first ``const_pow`` factor with a slope on; the
    factors before it are convolved as lists of complex numbers.
    """

    __slots__ = ("lead", "coeffs")

    def __init__(self, lead: int, coeffs: Sequence):
        self.lead = lead
        self.coeffs = list(coeffs)

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        out = _convolve(self.coeffs, other.coeffs, n, ParamPoly.zero())
        return LaurentSeries(self.lead + other.lead, out)

    def scale(self, poly) -> "LaurentSeries":
        return LaurentSeries(self.lead, [c * poly for c in self.coeffs])


def _exp_numeric(linear: Sequence[complex], order: int) -> list[complex]:
    """Taylor coefficients of exp(sum_k linear[k] z^(k+1)) to z^order."""
    poly = list(linear[:order]) + [0j] * (order - len(linear))  # coefficients of z^1 .. z^order
    acc = [1.0] + [0j] * order
    term = list(acc)
    for n in range(1, order + 1):
        # term * poly, one power of z up: poly[0] is the coefficient of z^1
        term = [0j] + [v / n for v in _convolve(term, poly, order)]
        for i in range(order + 1):
            acc[i] += term[i]
        if all(v == 0 for v in term):
            break
    return acc


def _numeric_factor(f: PrimitiveFactor, order: int) -> tuple[int, ExpKey, list[complex]]:
    """Lead, monomial and ``order + 1`` numbers of the series of a factor that is
    numbers times one monomial: any factor but a ``const_pow`` with a slope."""
    a = rational.to_float(f.alpha)

    if f.kind == FactorKind.EXP_IPI:
        const = half_turn(f.beta)
        return 0, _NO_PARAMS, [const * c for c in _exp_numeric([1j * math.pi * a], order)]

    if f.kind == FactorKind.AFFINE:
        b = rational.to_float(f.beta)
        n = f.power
        if f.beta[0] == 0:
            if f.alpha[0] == 0:
                raise UnsupportedFactor("affine factor is identically zero")
            return n, _NO_PARAMS, [a ** n] + [0j] * order
        coeffs = [0j] * (order + 1)
        if n >= 0:
            for k in range(min(n, order) + 1):
                coeffs[k] = float(math.comb(n, k)) * b ** (n - k) * a ** k
            return 0, _NO_PARAMS, coeffs
        # negative power, regular point: generalized binomial
        ratio = a / b
        c = b ** n
        coeffs[0] = c
        binom = 1.0
        for k in range(1, order + 1):
            binom *= (n - k + 1) / k
            coeffs[k] = c * binom * ratio ** k
        return 0, _NO_PARAMS, coeffs

    if f.kind == FactorKind.GAMMA and f.power != 1:  # Gamma(x)^k as a k-fold product
        if f.power < 1:
            raise UnsupportedFactor(f"Gamma to the power {f.power}")
        return _numeric_run((f.remade(f.alpha, f.beta),) * f.power, order)

    if f.kind == FactorKind.GAMMA:
        b = f.beta
        if b[1] == 1 and b[0] <= 0:
            if f.alpha[0] == 0:
                raise UnsupportedFactor(f"Gamma({b[0]}) has no regulator to expand against")
            # Gamma(a z - n) = Gamma(a z + 1) / ((a z) (a z - 1) ... (a z - n))
            g = f.remade(f.alpha, rational.ONE)
            return _numeric_run((g, *gamma_quotient(g, b[0] - 1)), order)
        key, g0 = next(iter(gamma_value(b).terms.items()), (_NO_PARAMS, 0j))  # 0 if it underflows
        linear = [polygamma_value(k - 1, b) * a ** k / math.factorial(k) for k in range(1, order + 1)]
        return 0, key, [g0 * c for c in _exp_numeric(linear, order)]

    # CONST_POW with no slope: the constant base^b
    key, const = next(iter(f.base_poly().mono_pow(rational.fraction(f.beta)).terms.items()), (_NO_PARAMS, 0j))
    return 0, key, [const] + [0j] * order


def _numeric_run(factors: Sequence[PrimitiveFactor], order: int) -> tuple[int, ExpKey, list[complex]]:
    """Lead, monomial and ``order + 1`` complex numbers of the product of factors
    of ``_numeric_factor``, convolved in their order from 1."""
    lead, key, nums = 0, _NO_PARAMS, [1 + 0j] + [0j] * order
    for f in factors:
        f_lead, f_key, f_nums = _numeric_factor(f, order)
        lead, key = lead + f_lead, _merge_keys(key, f_key)
        nums = _convolve(nums, f_nums, order + 1)
    return lead, key, nums


def expand_factor(f: PrimitiveFactor, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Laurent series of a primitive factor at z = 0, ``order`` >= 0 terms past the lead."""
    if f.kind != FactorKind.CONST_POW or f.alpha[0] == 0:
        lead, key, nums = _numeric_run((f,), order)  # a run of one, so its numbers are complex
        return LaurentSeries(lead, [ParamPoly._canonical({key: x}) for x in nums])
    # base^(a z + b) = base^b * exp(a z * ln(base))
    a = rational.to_float(f.alpha)
    base = f.base_poly()
    const = base.mono_pow(rational.fraction(f.beta))
    lg = log_param(base)
    coeffs = [const]
    power = ParamPoly.one()
    for k in range(1, order + 1):
        power = power * lg
        coeffs.append(const * power.scale(a ** k / math.factorial(k)))
    return LaurentSeries(0, coeffs)


def _convolve(xs: Sequence, ys: Sequence, n: int, zero=0j) -> list:
    """The first n coefficients of the product of two coefficient lists, numbers or
    ``ParamPoly``s (``zero`` the zero poly): each out[m] adds x_i * y_(m-i) in
    order of i, and skips a zero number x_i.  The one convolution loop."""
    out = [zero] * n
    for i, x in enumerate(xs):
        if not x:
            continue
        for j, y in enumerate(ys):
            if i + j < n:
                out[i + j] += x * y
    return out


def expand_product(p: MeroFactorProduct, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """Truncated Laurent expansion of a factor product times its prefactor.

    Bit for bit the fold ``series.mul(expand_factor(f))`` over the factors in
    order, then ``.scale(prefactor)``.  The factors before the first
    ``const_pow`` with a slope are convolved as complex numbers in that same
    order (``_numeric_run``), which performs the same float operations, and
    lifted to one ``ParamPoly`` per coefficient; the fold takes over from
    there.
    """
    factors = p.factors
    split = next((i for i, f in enumerate(factors) if f.kind == FactorKind.CONST_POW and f.alpha[0]), len(factors))
    lead, key, nums = _numeric_run(factors[:split], order)
    if split == len(factors):
        pre = [(_merge_keys(key, k), c) for k, c in p.prefactor.terms.items()]
        return LaurentSeries(lead, [ParamPoly._canonical({k: x * c for k, c in pre}) for x in nums])
    series = LaurentSeries(lead, [ParamPoly._canonical({key: x}) for x in nums])
    for f in factors[split:]:
        series = series.mul(expand_factor(f, order))
    return series.scale(p.prefactor)
