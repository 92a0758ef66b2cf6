"""Scalar symbolic arithmetic.

A ``ParamPoly`` is a finite sum of monomials ``c * p1^e1 * p2^e2 * ...`` with
complex floating-point coefficients and rational exponents of named atoms.
It is the one polynomial type of the engine: the coefficients of every
series and term sum, and every integrand, whose gauged phase-space
variables ("axis symbols") are atoms with integer exponents next to the
model's parameters and ``T``.  Which atoms are axis symbols is the model's
to say (``symbols.axis_terms`` splits a poly by them); the arithmetic does
not tell them apart.  ``pi`` is pre-registered as a parameter with a known
numeric value so that results such as ``e^2 * pi^-1`` stay symbolic until
evaluated.

A monomial's exponents are an ``ExpKey``: the sorted ``(name, Fraction)``
pairs as a tuple that hashes once, when it is built.  Hashing a ``Fraction``
is slow, and the dict arithmetic looks each key up several times.  A key
equals, and hashes like, the plain tuple of its pairs, so plain-tuple lookups
(``poly.terms == {(): 1.0}``) keep working.  Every key passed to the
constructor, an ``ExpKey`` too, is sorted and stripped of zero exponents, and
coefficients of keys naming the same monomial are summed.  Key exponents
stay ``Fraction``s, unlike the integer pairs of the regulator side
(``rational``): callers look keys up by ``(name, Fraction)``, and rendering
sorts keys by exponent value.

Zero means zero: only a coefficient equal to 0 is dropped, so which terms a
sum keeps, and so which Laurent order leads, depends only on exact
cancellation.  A coefficient that is not finite raises ``NumericOverflow``;
it is never dropped.  ``==`` is the one equality: coefficients agree within
``COEFF_TOL`` times the largest of them, or of 1.  It is not transitive, so a
``ParamPoly`` has no hash, nor has a record holding one (``records``).

Dropping zeros and the finite check run in one finishing step,
``_finished``, which also turns ``-0.0`` into ``0.0``.  The constructor
normalises keys and merges coefficients, then finishes.  The arithmetic
(``+``, ``-``, ``*``, ``scale``, ``by_power``, ``inverse``, ``mono_pow`` and
``zero``, ``one``, ``number``, ``var``, ``monomial``) builds one canonical
``ExpKey`` per monomial with ``complex`` coefficients and only finishes
(``ParamPoly._canonical``), so each result is what the constructor would
make of its terms.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Mapping

from .errors import NumericOverflow, UnboundParameter, UnsupportedStructure
from .records import FrozenRecord

COEFF_TOL = 1e-12

#: parameters bound automatically during numeric evaluation
NUMERIC_CONSTANTS: dict[str, float] = {"pi": math.pi}

#: formal logarithm parameters: name -> base ParamPoly (single positive monomial)
_LOG_BASES: dict[str, "ParamPoly"] = {}


class Param(FrozenRecord):
    """A named scalar parameter, positive unless declared otherwise."""

    __slots__ = ("name", "positive", "default")

    def __init__(self, name: str, positive: bool = True, default: float | None = None):
        self.name = name
        self.positive = positive
        self.default = default


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
    # a nonzero x never renders as 0, however small
    if frac and abs(float(frac) - x) <= 1e-12 * max(1.0, abs(x)):
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
                key = _exp_key(key)
                if key in merged:  # two keys of one monomial, one of them unsorted
                    coeff += merged.pop(key)
                merged[key] = complex(coeff)
        object.__setattr__(self, "terms", _finished(merged))

    @classmethod
    def _canonical(cls, terms: dict[ExpKey, complex]) -> "ParamPoly":
        """The poly of terms canonical but for zeros: one ``ExpKey`` per monomial,
        sorted and without zero exponents, and ``complex`` coefficients.  The
        arithmetic builds its results so; this only runs the finishing step."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", _finished(terms))
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ParamPoly":
        return ParamPoly._canonical({})

    @staticmethod
    def one() -> "ParamPoly":
        return ParamPoly._canonical({_NO_PARAMS: 1 + 0j})

    @staticmethod
    def number(c) -> "ParamPoly":
        return ParamPoly._canonical({_NO_PARAMS: complex(c)})

    @staticmethod
    def var(name: str, exponent=1, coeff=1.0) -> "ParamPoly":
        e = _fraction(exponent)
        return ParamPoly._canonical({_NO_PARAMS if e == 0 else ExpKey(((name, e),)): complex(coeff)})

    @staticmethod
    def monomial(coeff, exponents: Mapping[str, Fraction]) -> "ParamPoly":
        key = ExpKey(sorted((n, _fraction(e)) for n, e in exponents.items() if e != 0))
        return ParamPoly._canonical({key: complex(coeff)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1.0}

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
        # half the sums of the reduction have a zero side: the other side is the result
        if not other.terms:
            return self
        if not self.terms:
            return other
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged[key] + coeff if key in merged else coeff
        return ParamPoly._canonical(merged)

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._canonical({k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "ParamPoly":
        c = complex(c)
        if c == 0:
            return ParamPoly.zero()
        return ParamPoly._canonical({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        out: dict[ExpKey, complex] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _merge_keys(k1, k2)
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return ParamPoly._canonical(out)

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
        new_key = ExpKey((n, p * e) for n, p in key if p * e != 0)
        return ParamPoly._canonical({new_key: complex(new_coeff)})

    def inverse(self) -> "ParamPoly":
        mono = self.single_monomial()
        if mono is None:
            raise UnsupportedStructure(f"inverse of a non-monomial: {self.render()}")
        coeff, key = mono
        return ParamPoly._canonical({ExpKey((n, -p) for n, p in key): 1.0 / coeff})

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
        """Substitute an atom by a ParamPoly (integer exponents only)."""
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
            rest = ExpKey(item for item in key if item[0] != name) if power else key
            parts.setdefault(power, {})[rest] = coeff
        return {power: ParamPoly._canonical(terms) for power, terms in parts.items()}

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
                except (OverflowError, ZeroDivisionError):  # 0 ** -1 is infinite too
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
        keys = set(self.terms) | set(other.terms)
        scale = max(
            [abs(c) for c in self.terms.values()]
            + [abs(c) for c in other.terms.values()]
            + [1.0]
        )
        return all(
            abs(self.terms.get(k, 0) - other.terms.get(k, 0)) <= COEFF_TOL * scale for k in keys
        )

    # a tolerant equality is not transitive: no hash can agree with it
    __hash__ = None

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
    """The key of ``(name, exponent)`` pairs in any order: sorted, zero exponents dropped."""
    if not pairs:
        return _NO_PARAMS
    return ExpKey(sorted(item for item in pairs if item[1] != 0))


def _finished(terms: dict[ExpKey, complex]) -> dict[ExpKey, complex]:
    """The terms without exact zeros, ``-0.0`` made ``0.0``; ``NumericOverflow`` if one is not finite."""
    out = {key: 0 + c for key, c in terms.items() if c != 0}
    if not all(map(cmath.isfinite, out.values())):
        key, c = next((k, c) for k, c in out.items() if not cmath.isfinite(c))
        mono = "*".join(f"{n}^{e}" for n, e in key) or "1"
        raise NumericOverflow(f"the coefficient of {mono} is not finite: {c}")
    return out


def _merge_keys(k1: ExpKey, k2: ExpKey) -> ExpKey:
    if not k2:
        return k1
    if not k1:
        return k2
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
