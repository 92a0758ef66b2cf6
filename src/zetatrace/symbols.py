"""Phase decomposition, power-series powers and matrix-symbol exponentials.

Integrands live in a small polynomial algebra over "axis symbols" (gauged
integration variables, group radii, direction components) whose coefficients
are parameter polynomials times explicit powers of the time-volume symbol T.
Matrix Hamiltonians are restricted to the scalar-plus-involution form
``b I + c K`` with ``K^2 = I``, whose exponential has the exact closed form
``e^(-i b t) (cos(c t) I - i sin(c t) K)``; the trigonometric functions are
rewritten into ``e^(+-i c t)`` pairs immediately.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegenerateCase,
    NotInvolution,
    ShapeMismatch,
    UnsupportedStructure,
)
from .params import ParamPoly, _fraction


@dataclass(frozen=True)
class Axis:
    """A gauged integration axis."""

    name: str
    kind: str = "momentum"  # position | momentum | field
    group: str | None = None


class TPoly:
    """ParamPoly coefficients keyed by an explicit rational power of T."""

    __slots__ = ("parts",)

    def __init__(self, parts: Mapping[Fraction, ParamPoly] | None = None):
        cleaned: dict[Fraction, ParamPoly] = {}
        for tp, poly in (parts or {}).items():
            if not poly.is_zero():
                cleaned[_fraction(tp)] = cleaned.get(_fraction(tp), ParamPoly.zero()) + poly
        self.parts = {tp: p for tp, p in cleaned.items() if not p.is_zero()}

    @staticmethod
    def of(poly: ParamPoly, t_power=0) -> "TPoly":
        return TPoly({_fraction(t_power): poly})

    @staticmethod
    def zero() -> "TPoly":
        return TPoly()

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "TPoly") -> "TPoly":
        parts = dict(self.parts)
        for tp, poly in other.parts.items():
            parts[tp] = parts.get(tp, ParamPoly.zero()) + poly
        return TPoly(parts)

    def __mul__(self, other):
        if isinstance(other, TPoly):
            out: dict[Fraction, ParamPoly] = {}
            for t1, p1 in self.parts.items():
                for t2, p2 in other.parts.items():
                    key = t1 + t2
                    out[key] = out.get(key, ParamPoly.zero()) + p1 * p2
            return TPoly(out)
        if isinstance(other, ParamPoly):
            return TPoly({tp: p * other for tp, p in self.parts.items()})
        return TPoly({tp: p.scale(other) for tp, p in self.parts.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "TPoly":
        return self * (-1)

    def plain(self) -> ParamPoly:
        """The T-free part, erroring if any T power is present."""
        if not self.parts:
            return ParamPoly.zero()
        if set(self.parts) != {Fraction(0)}:
            raise UnsupportedStructure("coefficient carries explicit T powers")
        return self.parts[Fraction(0)]

    def eval(self, bindings, t_value: float) -> complex:
        return sum(
            p.eval(bindings) * t_value ** float(tp) for tp, p in self.parts.items()
        )

    def __repr__(self):
        body = " + ".join(
            f"({p.render()})*T^{tp}" if tp else f"({p.render()})"
            for tp, p in sorted(self.parts.items())
        )
        return body or "0"


MonoKey = tuple[tuple[str, int], ...]


class AxisPoly:
    """Polynomial in axis symbols with TPoly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[MonoKey, TPoly] | None = None):
        cleaned: dict[MonoKey, TPoly] = {}
        for key, coeff in (terms or {}).items():
            if not coeff.is_zero():
                prev = cleaned.get(key)
                cleaned[key] = coeff if prev is None else prev + coeff
        self.terms = {k: c for k, c in cleaned.items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "AxisPoly":
        return AxisPoly()

    @staticmethod
    def constant(poly: ParamPoly, t_power=0) -> "AxisPoly":
        return AxisPoly({(): TPoly.of(poly, t_power)})

    @staticmethod
    def number(c) -> "AxisPoly":
        return AxisPoly.constant(ParamPoly.number(c))

    @staticmethod
    def symbol(name: str, degree: int = 1, coeff: ParamPoly | None = None) -> "AxisPoly":
        key: MonoKey = ((name, degree),) if degree else ()
        return AxisPoly({key: TPoly.of(coeff if coeff is not None else ParamPoly.one())})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "AxisPoly") -> "AxisPoly":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, TPoly.zero()) + c
        return AxisPoly(terms)

    def __sub__(self, other: "AxisPoly") -> "AxisPoly":
        return self + (-other)

    def __neg__(self) -> "AxisPoly":
        return AxisPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AxisPoly):
            out: dict[MonoKey, TPoly] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = _merge_monos(k1, k2)
                    prod = c1 * c2
                    out[key] = out.get(key, TPoly.zero()) + prod
            return AxisPoly(out)
        if isinstance(other, (ParamPoly, TPoly, int, float, complex)):
            return AxisPoly({k: c * other for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "AxisPoly":
        out = AxisPoly.number(1)
        for _ in range(n):
            out = out * self
        return out

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def symbols(self) -> set[str]:
        return {name for key in self.terms for name, _ in key}

    def degree_in(self, name: str) -> int:
        deg = 0
        for key in self.terms:
            for n, d in key:
                if n == name:
                    deg = max(deg, d)
        return deg

    def coefficient_of(self, name: str, degree: int) -> "AxisPoly":
        """Coefficient of name^degree (the remaining monomial part is kept)."""
        out: dict[MonoKey, TPoly] = {}
        for key, coeff in self.terms.items():
            d = dict(key).get(name, 0)
            if d == degree:
                rest = tuple((n, p) for n, p in key if n != name)
                out[rest] = out.get(rest, TPoly.zero()) + coeff
        return AxisPoly(out)

    def constant_part(self) -> TPoly:
        return self.terms.get((), TPoly.zero())

    def monomials(self) -> Iterable[tuple[MonoKey, TPoly]]:
        return self.terms.items()

    def substitute(self, name: str, value: "AxisPoly") -> "AxisPoly":
        out = AxisPoly.zero()
        for key, coeff in self.terms.items():
            d = dict(key).get(name, 0)
            rest = tuple((n, p) for n, p in key if n != name)
            piece = AxisPoly({rest: coeff})
            out = out + piece * (value ** d)
        return out

    def eval(self, axis_values: Mapping[str, complex], bindings, t_value: float = 1.0) -> complex:
        total = 0j
        for key, coeff in self.terms.items():
            v = coeff.eval(bindings, t_value)
            for name, deg in key:
                v *= axis_values[name] ** deg
            total += v
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms.items()):
            syms = "*".join(f"{n}^{d}" if d != 1 else n for n, d in key)
            parts.append(f"({coeff!r})" + (f"*{syms}" if syms else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"AxisPoly({self.render()})"


def _merge_monos(k1: MonoKey, k2: MonoKey) -> MonoKey:
    d = dict(k1)
    for n, p in k2:
        d[n] = d.get(n, 0) + p
    return tuple(sorted((n, p) for n, p in d.items() if p))


# ---------------------------------------------------------------------------
# Phase decomposition
# ---------------------------------------------------------------------------


@dataclass
class PhaseDecomposition:
    """Per-axis quadratic/linear phase coefficients plus the constant part.

    ``h2[axis]`` and ``h1[axis]`` are ParamPoly coefficients of axis^2 and
    axis^1; ``h0`` collects the axis-free remainder (constant plus an optional
    inverse-power tail in a radial symbol).
    """

    h2: dict[str, ParamPoly]
    h1: dict[str, ParamPoly]
    h0_const: ParamPoly
    h0_tail: dict[int, ParamPoly] = field(default_factory=dict)

    def reassemble(self, radial_symbol: str | None = None) -> AxisPoly:
        out = AxisPoly.constant(self.h0_const)
        for name, c in self.h2.items():
            if not c.is_zero():
                out = out + AxisPoly.symbol(name, 2, c)
        for name, c in self.h1.items():
            if not c.is_zero():
                out = out + AxisPoly.symbol(name, 1, c)
        for j, c in self.h0_tail.items():
            if radial_symbol is None:
                raise UnsupportedStructure("tail terms need a radial symbol")
            out = out + AxisPoly.symbol(radial_symbol, -j, c)
        return out


def decompose_phase(h: AxisPoly, axes: Sequence[str]) -> PhaseDecomposition:
    """Extract h2 and h1 per axis and the constant part.

    The input must be a sum of per-axis monomials of degree at most two;
    cross-axis couplings and higher degrees are rejected.  Axes with
    h2 = h1 = 0 but nonconstant dependence raise ``DegenerateCase``.
    """
    h2: dict[str, ParamPoly] = {}
    h1: dict[str, ParamPoly] = {}
    const = ParamPoly.zero()
    tail: dict[int, ParamPoly] = {}
    for key, coeff in h.terms.items():
        names = [n for n, _ in key]
        if len(names) > 1:
            raise UnsupportedStructure(f"cross-axis phase coupling: {key}")
        if not names:
            const = const + coeff.plain()
            continue
        (name, deg), = key
        if name not in axes:
            raise UnsupportedStructure(f"phase depends on unknown symbol {name}")
        poly = coeff.plain()
        if deg == 2:
            h2[name] = h2.get(name, ParamPoly.zero()) + poly
        elif deg == 1:
            h1[name] = h1.get(name, ParamPoly.zero()) + poly
        elif deg < 0:
            tail[-deg] = tail.get(-deg, ParamPoly.zero()) + poly
        else:
            raise DegenerateCase(
                f"axis {name} has neither quadratic nor linear phase but degree {deg}"
            )
    for name in axes:
        if h2.get(name, ParamPoly.zero()).is_zero() and h1.get(name, ParamPoly.zero()).is_zero():
            if h.degree_in(name) > 0:
                raise DegenerateCase(f"axis {name}: h2 = h1 = 0 with nonconstant phase")
    return PhaseDecomposition(h2, h1, const, tail)


# ---------------------------------------------------------------------------
# Power-series powers
# ---------------------------------------------------------------------------


def series_pow(coeffs: Sequence, n: int, order: int):
    """Coefficients of (sum_k a_k X^k)^n to X^order via the product recursion.

    c_0 = a_0^n and m a_0 c_m = sum_{k=1..m} (k n - m + k) a_k c_{m-k}.
    Works over any field-like coefficients (Fraction, float, complex).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not coeffs:
        return []
    if n == 0:
        one = coeffs[0] ** 0 if not isinstance(coeffs[0], (int, float, complex)) else 1
        return [one] + [0 * coeffs[0]] * order
    # factor out the lowest nonzero power so a_0 != 0
    lead = 0
    while lead < len(coeffs) and _is_zero_like(coeffs[lead]):
        lead += 1
    if lead == len(coeffs):
        return [0 * coeffs[0]] * (order + 1)
    shifted = list(coeffs[lead:])
    a0 = shifted[0]
    out = [None] * (order + 1)
    out[0] = a0 ** n
    for m in range(1, order + 1):
        acc = None
        for k in range(1, m + 1):
            ak = shifted[k] if k < len(shifted) else 0 * a0
            if _is_zero_like(ak):
                continue
            piece = (k * n - m + k) * ak * out[m - k]
            acc = piece if acc is None else acc + piece
        if acc is None:
            out[m] = 0 * a0
        else:
            out[m] = acc / (m * a0) if not hasattr(acc, "divide") else acc.divide(
                a0.scale(m)
            )
    shift = lead * n
    result = [0 * a0] * (order + 1)
    for i, c in enumerate(out):
        if shift + i <= order:
            result[shift + i] = c
    return result


def _is_zero_like(x) -> bool:
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


# ---------------------------------------------------------------------------
# Matrix symbols with involution structure
# ---------------------------------------------------------------------------


@dataclass
class MatrixSymbol:
    """Hamiltonian symbol b I + c K with K^2 = I.

    ``kmatrix`` entries are AxisPolys over direction components (or constants);
    K^2 = I is verified numerically on construction at random points of the
    unit sphere in the direction symbols.
    """

    dim: int
    scalar: AxisPoly
    coeff: AxisPoly
    kmatrix: tuple[tuple[AxisPoly, ...], ...]
    direction_syms: tuple[str, ...] = ()

    def __post_init__(self):
        rng = random.Random(1723)
        identity = [[1.0 if i == j else 0.0 for j in range(self.dim)] for i in range(self.dim)]
        for _ in range(4):
            vals = self._random_direction(rng)
            K = self.k_numeric(vals)
            if not _allclose(_matmul(K, K), identity, atol=1e-9):
                raise NotInvolution("K^2 != I at a sampled direction")

    def _random_direction(self, rng) -> dict[str, float]:
        return dict(zip(self.direction_syms, _unit_vector(rng, len(self.direction_syms))))

    def k_numeric(self, axis_values: Mapping[str, complex]) -> list[list[complex]]:
        return [[e.eval(axis_values, {}, 1.0) for e in row] for row in self.kmatrix]

    def k_trace(self) -> AxisPoly:
        tr = AxisPoly.zero()
        for i in range(self.dim):
            tr = tr + self.kmatrix[i][i]
        return tr


@dataclass
class EvolutionPiece:
    """One exponential branch of e^(-i(bI + cK)t): weight_I * I + weight_K * K times e^(s i c t)."""

    osc_sign: int
    weight_identity: complex
    weight_k: complex


@dataclass
class InvolutionEvolution:
    """Closed form e^(-ibt)(cos(ct) I - i sin(ct) K) split into e^(+-ict) pieces."""

    symbol: MatrixSymbol
    pieces: tuple[EvolutionPiece, ...]


def involution_exp(m: MatrixSymbol) -> InvolutionEvolution:
    """e^(-i(bI + cK)t) with the trig parts rewritten as e^(+-ict) pairs."""
    pieces = (
        EvolutionPiece(+1, 0.5, -0.5),
        EvolutionPiece(-1, 0.5, +0.5),
    )
    return InvolutionEvolution(m, pieces)


@dataclass
class IntegrandPiece:
    """One scalar piece of the composed trace integrand.

    ``amp`` multiplies e^(-iT * (h2 u^2 + h1 u per axis)) together with the
    piece's extra linear oscillation sign on the radial symbol.
    """

    amp: AxisPoly
    osc_sign: int = 0  # sign s in e^(s i c T r); 0 for purely quadratic models


def compose_observable(
    evolution: InvolutionEvolution | None,
    observable: AxisPoly | MatrixSymbol,
) -> list[IntegrandPiece]:
    """Pointwise product of the evolution symbol with an observable, traced.

    Scalar evolutions (``evolution is None``) simply carry the observable.
    Matrix observables must share the evolution's involution: they are
    decomposed as beta I + gamma K and verified numerically.
    """
    if evolution is None:
        if isinstance(observable, MatrixSymbol):
            raise ShapeMismatch("matrix observable with a scalar evolution")
        return [IntegrandPiece(amp=observable)]

    sym = evolution.symbol
    if isinstance(observable, MatrixSymbol):
        if observable.dim != sym.dim:
            raise ShapeMismatch(
                f"evolution is {sym.dim}x{sym.dim}, observable {observable.dim}x{observable.dim}"
            )
        beta, gamma = observable.scalar, observable.coeff
        _verify_span(sym, observable)
    else:
        beta, gamma = observable, AxisPoly.zero()

    n = AxisPoly.number(sym.dim)
    tr_k = sym.k_trace()
    out = []
    for p in evolution.pieces:
        # trace((wI I + wK K)(beta I + gamma K)) = dim (wI beta + wK gamma) + trK (wI gamma + wK beta)
        amp = n * (beta * p.weight_identity + gamma * p.weight_k)
        amp = amp + tr_k * (gamma * p.weight_identity + beta * p.weight_k)
        out.append(IntegrandPiece(amp=amp, osc_sign=p.osc_sign))
    return out


def _verify_span(evo_sym: MatrixSymbol, obs: MatrixSymbol):
    """Check numerically that the observable matrix equals beta I + gamma K."""
    rng = random.Random(3319)
    syms = tuple(sorted(set(evo_sym.direction_syms) | set(obs.direction_syms)))
    for _ in range(3):
        axis_vals = dict(zip(syms, _unit_vector(rng, len(syms))))
        K = evo_sym.k_numeric(axis_vals)
        target = obs.k_numeric(axis_vals)  # obs.kmatrix must equal K
        if not _allclose(K, target, atol=1e-9):
            raise ShapeMismatch("observable involution differs from the evolution's")


def _unit_vector(rng: random.Random, n: int) -> list[float]:
    """n Gaussian draws from ``rng`` scaled to unit length (empty for n = 0)."""
    vec = [rng.gauss(0, 1) for _ in range(n)]
    norm = math.sqrt(sum(v * v for v in vec))
    return [v / norm for v in vec] if vec else vec


def _matmul(a: Sequence[Sequence[complex]], b: Sequence[Sequence[complex]]) -> list[list[complex]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _allclose(a: Sequence[Sequence[complex]], b: Sequence[Sequence[complex]], atol: float) -> bool:
    """numpy.allclose(a, b, atol=atol) for equal shapes: |a - b| <= atol + 1e-5 |b| entrywise.

    Matrices of different shapes are not close.
    """
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        return False
    return all(
        abs(x - y) <= atol + 1e-5 * abs(y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )
