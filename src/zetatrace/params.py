"""Scalar symbolic arithmetic.

A ``ParamPoly`` is a finite sum of monomials ``c * p1^e1 * p2^e2 * ...`` with
complex floating-point coefficients and rational exponents of named positive
parameters.  This is the coefficient field for every series and term sum in
the engine.  ``pi`` is pre-registered as a parameter with a known numeric
value so that results such as ``e^2 * pi^-1`` stay symbolic until evaluated.

A monomial's exponents are an ``ExpKey``: the sorted ``(name, Fraction)``
pairs as a tuple that hashes once, when it is built.  Hashing a ``Fraction``
is slow, and the dict arithmetic looks each key up several times.  A key
equals, and hashes like, the plain tuple of its pairs, so plain-tuple lookups
(``poly.terms == {(): 1.0}``) keep working.  A plain tuple passed as a key is
sorted and stripped of zero exponents, and coefficients of keys naming the
same monomial are summed.

Zero means zero: only a coefficient equal to 0 is dropped, so which terms a
sum keeps, and so which Laurent order leads, depends only on exact
cancellation.  A coefficient that is not finite raises ``NumericOverflow``;
it is never dropped.  ``==`` compares within ``COEFF_TOL`` of the larger
coefficient; such an equality is not transitive, so a ``ParamPoly`` has no
hash.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import NumericOverflow, UnboundParameter, UnsupportedStructure

COEFF_TOL = 1e-12

#: parameters bound automatically during numeric evaluation
NUMERIC_CONSTANTS: dict[str, float] = {"pi": math.pi}

#: formal logarithm parameters: name -> base ParamPoly (single positive monomial)
_LOG_BASES: dict[str, "ParamPoly"] = {}


@dataclass(frozen=True)
class Param:
    """A named scalar parameter, positive unless declared otherwise."""

    name: str
    positive: bool = True
    default: float | None = None


class ExpKey(tuple):
    """The ``(name, Fraction)`` exponent pairs of one monomial, hashed once when built.

    Callers pass the pairs sorted by name, without zero exponents.
    """

    def __new__(cls, pairs=()):
        key = tuple.__new__(cls, pairs)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: an unpickled key hashes afresh
        return ExpKey, (tuple(self),)


#: the key of the monomial 1, shared by every pure number
_NO_PARAMS = ExpKey()


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    return Fraction(x)


def format_real(x: float) -> str:
    """Render a real number, preferring small exact fractions; 12 digits from 1e15 on."""
    if not abs(x) < 1e15:
        return f"{x:.12g}"
    if x == int(x):
        return str(int(x))
    frac = Fraction(x).limit_denominator(10_000)
    if abs(float(frac) - x) <= 1e-12 * max(1.0, abs(x)):
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    return f"{x:.12g}"


def format_complex(c: complex) -> str:
    re, im = c.real, c.imag
    if im == 0:
        return format_real(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return format_real(im) + "i"
    sign = "+" if im >= 0 else "-"
    return f"({format_real(re)}{sign}{format_real(abs(im))}i)"


class ParamPoly:
    """Canonical sum of parameter monomials with complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, complex] | None = None):
        merged: dict[ExpKey, complex] = {}
        if terms:
            for key, coeff in terms.items():
                if type(key) is not ExpKey:
                    key = _exp_key(key)
                if key in merged:  # two keys of one monomial, one of them unsorted
                    coeff += merged.pop(key)
                if coeff != 0:
                    # 0 + turns -0.0 into 0.0
                    merged[key] = 0 + complex(coeff)
        if merged and not all(map(cmath.isfinite, merged.values())):
            key, c = next((k, c) for k, c in merged.items() if not cmath.isfinite(c))
            mono = "*".join(f"{n}^{e}" for n, e in key) or "1"
            raise NumericOverflow(f"the coefficient of {mono} is not finite: {c}")
        object.__setattr__(self, "terms", merged)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ParamPoly":
        return ParamPoly()

    @staticmethod
    def one() -> "ParamPoly":
        return ParamPoly({(): 1.0})

    @staticmethod
    def number(c) -> "ParamPoly":
        return ParamPoly({(): complex(c)})

    @staticmethod
    def var(name: str, exponent=1, coeff=1.0) -> "ParamPoly":
        e = _fraction(exponent)
        return ParamPoly({_NO_PARAMS if e == 0 else ExpKey(((name, e),)): complex(coeff)})

    @staticmethod
    def monomial(coeff, exponents: Mapping[str, Fraction]) -> "ParamPoly":
        key = ExpKey(sorted((n, _fraction(e)) for n, e in exponents.items() if e != 0))
        return ParamPoly({key: complex(coeff)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1.0}

    def as_number(self) -> complex | None:
        """Return the numeric value if the poly is a pure number, else None."""
        if not self.terms:
            return 0j
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def single_monomial(self) -> tuple[complex, ExpKey] | None:
        if len(self.terms) == 1:
            ((key, coeff),) = self.terms.items()
            return coeff, key
        return None

    def is_positive_monomial(self) -> bool:
        """Single monomial with positive real coefficient (parameters are positive)."""
        mono = self.single_monomial()
        if mono is None:
            return False
        coeff, _ = mono
        return coeff.imag == 0 and coeff.real > 0

    def params(self) -> set[str]:
        return {name for key in self.terms for name, _ in key}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        if not isinstance(other, ParamPoly):
            return NotImplemented
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return ParamPoly(merged)

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "ParamPoly":
        c = complex(c)
        if c == 0:
            return ParamPoly.zero()
        return ParamPoly({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        out: dict[ExpKey, complex] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _merge_keys(k1, k2)
                out[key] = out.get(key, 0) + c1 * c2
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if not isinstance(n, int) or n < 0:
            raise UnsupportedStructure("ParamPoly ** requires a nonnegative integer")
        out = ParamPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def mono_pow(self, e) -> "ParamPoly":
        """Raise a single positive monomial to a rational power."""
        e = _fraction(e)
        mono = self.single_monomial()
        if mono is None:
            raise UnsupportedStructure(f"rational power of a non-monomial: {self.render()}")
        coeff, key = mono
        if coeff.imag != 0 or coeff.real <= 0:
            raise UnsupportedStructure("rational power requires a positive coefficient")
        new_coeff = coeff.real ** float(e)
        new_key = tuple((n, p * e) for n, p in key if p * e != 0)
        return ParamPoly({new_key: complex(new_coeff)})

    def inverse(self) -> "ParamPoly":
        mono = self.single_monomial()
        if mono is None:
            raise UnsupportedStructure(f"inverse of a non-monomial: {self.render()}")
        coeff, key = mono
        return ParamPoly({tuple((n, -p) for n, p in key): 1.0 / coeff})

    def divide(self, den: "ParamPoly") -> "ParamPoly":
        """Exact division by a single-monomial denominator."""
        return self * den.inverse()

    def diff(self, name: str) -> "ParamPoly":
        """Formal derivative with respect to one parameter."""
        out: dict[ExpKey, complex] = {}
        for key, coeff in self.terms.items():
            exps = dict(key)
            e = exps.get(name)
            if e is None:
                continue
            new = dict(exps)
            if e == 1:
                del new[name]
            else:
                new[name] = e - 1
            nk = tuple(sorted(new.items()))
            out[nk] = out.get(nk, 0) + coeff * float(e)
        return ParamPoly(out)

    def subs(self, name: str, value: "ParamPoly") -> "ParamPoly":
        """Substitute a parameter by a ParamPoly (integer exponents only)."""
        out = ParamPoly.zero()
        for e, rest in self.by_power(name).items():
            if e.denominator != 1 or e < 0:
                raise UnsupportedStructure("substitution needs nonnegative integer exponents")
            out = out + (rest if e == 0 else rest * value ** int(e))
        return out

    def by_power(self, name: str) -> dict[Fraction, "ParamPoly"]:
        """The coefficient of each power of one parameter, in order of first appearance.

        ``sum(part * var(name, power))`` over the items gives back every term
        of the poly; a poly free of ``name`` gives ``{0: itself}``, the zero
        poly no parts.
        """
        parts: dict[Fraction, dict[ExpKey, complex]] = {}
        for key, coeff in self.terms.items():
            power = next((e for n, e in key if n == name), Fraction(0))
            rest = tuple(item for item in key if item[0] != name)
            parts.setdefault(power, {})[rest] = coeff
        return {power: ParamPoly(terms) for power, terms in parts.items()}

    # -- evaluation --------------------------------------------------------

    def eval(self, bindings: Mapping[str, float] | None = None) -> complex:
        """The value at ``bindings``; ``NumericOverflow`` if a power, term or sum is not finite."""
        bindings = dict(bindings or {})
        value = 0j
        for key, coeff in self.terms.items():
            term = complex(coeff)
            for name, exp in key:
                base = self._resolve(name, bindings)
                try:
                    term *= base ** float(exp)
                except OverflowError:
                    raise NumericOverflow(f"{name}^{exp} overflows at {name} = {base:g}") from None
            if not cmath.isfinite(term):
                at = ", ".join(f"{name} = {self._resolve(name, bindings):g}" for name, _ in key)
                raise NumericOverflow(f"{ParamPoly({key: coeff}).render()} overflows at {at}")
            value += term
        if not cmath.isfinite(value):
            raise NumericOverflow(f"{self.render()} overflows")
        return value

    @staticmethod
    def _resolve(name: str, bindings: Mapping[str, float]) -> float:
        if name in bindings:
            return float(bindings[name])
        if name in NUMERIC_CONSTANTS:
            return NUMERIC_CONSTANTS[name]
        if name in _LOG_BASES:
            return math.log(_LOG_BASES[name].eval(bindings).real)
        raise UnboundParameter(name)

    # -- identity / rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.almost_equal(other, COEFF_TOL)

    # a tolerant equality is not transitive: no hash can agree with it
    __hash__ = None

    def almost_equal(self, other: "ParamPoly", tol: float = COEFF_TOL) -> bool:
        keys = set(self.terms) | set(other.terms)
        scale = max(
            [abs(c) for c in self.terms.values()]
            + [abs(c) for c in other.terms.values()]
            + [1.0]
        )
        return all(
            abs(self.terms.get(k, 0) - other.terms.get(k, 0)) <= tol * scale for k in keys
        )

    def render(self, mul: str = " * ", frac_parens: bool = False) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms.items()):
            factors = []
            cstr = format_complex(coeff)
            if key:
                if cstr == "1":
                    cstr = ""
                elif cstr == "-1":
                    cstr = "-"
            if cstr and cstr not in ("-",):
                if frac_parens and "/" in cstr and not cstr.startswith("("):
                    cstr = f"({cstr})"
                factors.append(cstr)
            prefix = "-" if cstr == "-" else ""
            for name, exp in key:
                if exp == 1:
                    factors.append(name)
                else:
                    e = f"{exp.numerator}/{exp.denominator}" if exp.denominator != 1 else str(exp.numerator)
                    factors.append(f"{name}^{e}")
            body = mul.join(f for f in factors if f)
            parts.append(prefix + body if prefix else body)
        return " + ".join(parts)

    def render_text(self) -> str:
        return self.render(mul="·", frac_parens=True)

    def __repr__(self):
        return f"ParamPoly({self.render()})"


def _exp_key(pairs: tuple) -> ExpKey:
    """The key of plain ``(name, exponent)`` pairs: sorted, zero exponents dropped."""
    if not pairs:
        return _NO_PARAMS
    return ExpKey(sorted(item for item in pairs if item[1] != 0))


def _merge_keys(k1: ExpKey, k2: ExpKey) -> ExpKey:
    exps = dict(k1)
    for name, e in k2:
        tot = exps[name] + e if name in exps else e
        if tot == 0:
            exps.pop(name, None)
        else:
            exps[name] = tot
    return ExpKey(sorted(exps.items()))


def log_param(base: ParamPoly) -> ParamPoly:
    """Formal logarithm of a positive monomial, registered for evaluation."""
    if not base.is_positive_monomial():
        raise UnsupportedStructure(f"formal log needs a positive monomial, got {base.render()}")
    name = f"ln({base.render(mul='*')})"
    _LOG_BASES.setdefault(name, base)
    return ParamPoly.var(name)
