"""Phase decomposition, power-series powers and matrix-symbol exponentials.

Integrands live in a small polynomial algebra over "axis symbols" (gauged
integration variables, group radii, direction components) whose coefficients
are ``ParamPoly``s.  The time-volume symbol ``T`` is one of their parameters,
so an explicit power of T is one more rational exponent on a named positive
symbol; ``ParamPoly.by_power("T")`` splits a coefficient by those powers.
Matrix Hamiltonians are restricted to the scalar-plus-involution form
``b I + c K`` with ``K^2 = I``, whose exponential has the exact closed form
``e^(-i b t) (cos(c t) I - i sin(c t) K)``; the trigonometric functions are
rewritten into ``e^(+-i c t)`` pairs immediately.  ``K^2 = I`` need only
hold on the unit sphere of direction symbols, and it is decided exactly, by
reducing polynomials modulo ``sum h^2 = 1``, never by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegenerateCase,
    NotInvolution,
    ShapeMismatch,
    UnsupportedStructure,
)
from .params import ParamPoly


#: the time-volume symbol, a parameter of every amplitude coefficient
T = "T"


def t_free(poly: ParamPoly) -> ParamPoly:
    """``poly`` itself, checked to carry no explicit power of ``T``."""
    if T in poly.params():
        raise UnsupportedStructure("coefficient carries explicit T powers")
    return poly


MonoKey = tuple[tuple[str, int], ...]


class AxisPoly:
    """Polynomial in axis symbols with ParamPoly coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[MonoKey, ParamPoly] | None = None):
        # one coefficient per key already: only zero coefficients are dropped, and the
        # others are shared, not copied (no ``ParamPoly`` is changed in place)
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "AxisPoly":
        return AxisPoly()

    @staticmethod
    def constant(poly: ParamPoly, t_power=0) -> "AxisPoly":
        """``poly * T^t_power`` as an axis-free polynomial."""
        return AxisPoly({(): poly * ParamPoly.var(T, t_power) if t_power else poly})

    @staticmethod
    def number(c) -> "AxisPoly":
        return AxisPoly.constant(ParamPoly.number(c))

    @staticmethod
    def symbol(name: str, degree: int = 1, coeff: ParamPoly | None = None) -> "AxisPoly":
        key: MonoKey = ((name, degree),) if degree else ()
        return AxisPoly({key: coeff if coeff is not None else ParamPoly.one()})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "AxisPoly") -> "AxisPoly":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return AxisPoly(terms)

    def __sub__(self, other: "AxisPoly") -> "AxisPoly":
        return self + (-other)

    def __neg__(self) -> "AxisPoly":
        return AxisPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AxisPoly):
            out: dict[MonoKey, ParamPoly] = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key = _merge_monos(k1, k2)
                    prod = c1 * c2
                    out[key] = out[key] + prod if key in out else prod
            return AxisPoly(out)
        if isinstance(other, (ParamPoly, int, float, complex)):
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
        out: dict[MonoKey, ParamPoly] = {}
        for key, coeff in self.terms.items():
            d = dict(key).get(name, 0)
            if d == degree:
                rest = tuple((n, p) for n, p in key if n != name)
                out[rest] = out[rest] + coeff if rest in out else coeff
        return AxisPoly(out)

    def constant_part(self) -> ParamPoly:
        return self.terms.get((), ParamPoly.zero())

    def monomials(self) -> Iterable[tuple[MonoKey, ParamPoly]]:
        return self.terms.items()

    def substitute(self, name: str, value: "AxisPoly") -> "AxisPoly":
        out = AxisPoly.zero()
        for key, coeff in self.terms.items():
            d = dict(key).get(name, 0)
            rest = tuple((n, p) for n, p in key if n != name)
            piece = AxisPoly({rest: coeff})
            out = out + piece * (value ** d)
        return out

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms.items()):
            syms = "*".join(f"{n}^{d}" if d != 1 else n for n, d in key)
            parts.append(f"({coeff.render()})" + (f"*{syms}" if syms else ""))
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
    axis^1; ``h0_const`` is the axis-free remainder.
    """

    h2: dict[str, ParamPoly]
    h1: dict[str, ParamPoly]
    h0_const: ParamPoly


def decompose_phase(h: AxisPoly, axes: Sequence[str]) -> PhaseDecomposition:
    """Extract h2 and h1 per axis and the constant part.

    The input must be a sum of per-axis monomials of degree at most two;
    cross-axis couplings, inverse powers and higher degrees are rejected.
    Axes with h2 = h1 = 0 but nonconstant dependence raise ``DegenerateCase``.
    """
    h2: dict[str, ParamPoly] = {}
    h1: dict[str, ParamPoly] = {}
    const = ParamPoly.zero()
    for key, coeff in h.terms.items():
        names = [n for n, _ in key]
        if len(names) > 1:
            raise UnsupportedStructure(f"cross-axis phase coupling: {key}")
        if not names:
            const = const + t_free(coeff)
            continue
        (name, deg), = key
        if name not in axes:
            raise UnsupportedStructure(f"phase depends on unknown symbol {name}")
        poly = t_free(coeff)
        if deg == 2:
            h2[name] = h2.get(name, ParamPoly.zero()) + poly
        elif deg == 1:
            h1[name] = h1.get(name, ParamPoly.zero()) + poly
        elif deg < 0:
            raise UnsupportedStructure("inverse-power phase tails are not reduced symbolically")
        else:
            raise DegenerateCase(
                f"axis {name} has neither quadratic nor linear phase but degree {deg}"
            )
    for name in axes:
        if h2.get(name, ParamPoly.zero()).is_zero() and h1.get(name, ParamPoly.zero()).is_zero():
            if h.degree_in(name) > 0:
                raise DegenerateCase(f"axis {name}: h2 = h1 = 0 with nonconstant phase")
    return PhaseDecomposition(h2, h1, const)


# ---------------------------------------------------------------------------
# Power-series powers
# ---------------------------------------------------------------------------


def series_pow(coeffs: Sequence, n: int, order: int) -> list:
    """Coefficients of (sum_k a_k X^k)^n to X^order via the product recursion.

    c_0 = a_0^n and m a_0 c_m = sum_{k=1..m} (k n - m + k) a_k c_{m-k}.
    Works over numbers (Fraction, float, complex).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not coeffs:
        return []
    if n == 0:
        return [1] + [0] * order
    # factor out the lowest nonzero power so a_0 != 0
    lead = next((i for i, a in enumerate(coeffs) if a != 0), None)
    if lead is None:
        return [0] * (order + 1)
    shifted = coeffs[lead:]
    a0 = shifted[0]
    out = [a0**n]
    for m in range(1, order + 1):
        top = min(m, len(shifted) - 1)
        acc = sum((k * n - m + k) * shifted[k] * out[m - k] for k in range(1, top + 1))
        out.append(acc / (m * a0))
    return ([0] * (lead * n) + out)[: order + 1]


# ---------------------------------------------------------------------------
# Matrix symbols with involution structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixSymbol:
    """Hamiltonian symbol b I + c K with K^2 = I on the unit sphere of directions.

    ``kmatrix`` entries are AxisPolys over the direction symbols (or
    constants).  Construction squares K over ``AxisPoly``, reduces each entry
    of K^2 - I modulo sum h^2 = 1 (``reduce_on_sphere``) and requires exactly
    zero; a K that is not square, or squares to I only up to rounding, raises
    ``NotInvolution``.
    """

    scalar: AxisPoly
    coeff: AxisPoly
    kmatrix: tuple[tuple[AxisPoly, ...], ...]
    direction_syms: tuple[str, ...] = ()

    def __post_init__(self):
        k, n = self.kmatrix, self.dim
        if any(len(row) != n for row in k):
            raise NotInvolution(f"K is not square: rows of lengths {[len(row) for row in k]}")
        for i in range(n):
            for j in range(n):
                # sum the products first, then subtract: the sum may be exactly 1
                entry = sum((k[i][l] * k[l][j] for l in range(n)), AxisPoly.zero())
                if i == j:
                    entry = entry - AxisPoly.number(1)
                if not reduce_on_sphere(entry, self.direction_syms).is_zero():
                    raise NotInvolution(f"K^2 != I in entry ({i}, {j}) on the unit sphere")

    @property
    def dim(self) -> int:
        return len(self.kmatrix)

    def k_trace(self) -> AxisPoly:
        tr = AxisPoly.zero()
        for i in range(self.dim):
            tr = tr + self.kmatrix[i][i]
        return tr


def reduce_on_sphere(poly: AxisPoly, directions: Sequence[str]) -> AxisPoly:
    """``poly`` modulo sum h^2 = 1 over ``directions``, exactly.

    Each power h^d (d >= 2) of the last direction h becomes
    h^(d-2) (1 - sum of the other directions squared), until h appears to
    degree at most 1.  One polynomial generates the ideal, so the remainder is
    unique: it is zero exactly when ``poly`` vanishes on the unit sphere.
    """
    if not directions or poly.degree_in(directions[-1]) < 2:
        return poly
    *others, h = directions
    rest = AxisPoly.number(1)
    for name in others:
        rest = rest - AxisPoly.symbol(name, 2)
    while (d := poly.degree_in(h)) >= 2:
        c = poly.coefficient_of(h, d)
        poly = poly - c * AxisPoly.symbol(h, d) + c * AxisPoly.symbol(h, d - 2) * rest
    return poly


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
    decomposed as beta I + gamma K, and their K is checked to equal the
    evolution's exactly on the unit sphere of directions.
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
    """Check exactly that the observable's K equals the evolution's on the unit sphere."""
    syms = tuple(sorted(set(evo_sym.direction_syms) | set(obs.direction_syms)))
    for evo_row, obs_row in zip(evo_sym.kmatrix, obs.kmatrix):
        for e, o in zip(evo_row, obs_row):
            if not reduce_on_sphere(o - e, syms).is_zero():
                raise ShapeMismatch("observable involution differs from the evolution's")
