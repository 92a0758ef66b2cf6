"""Axis splitting, phase decomposition and matrix-symbol exponentials.

Integrands are ``ParamPoly``s in which "axis symbols" (gauged integration
variables, group radii, direction components) are atoms with integer
exponents, next to the model's parameters and the time-volume symbol ``T``.
Which atoms are axis symbols is the model's gauge groups' to say:
``axis_terms`` splits a poly by them into (axis degrees, coefficient) pairs,
and ``ParamPoly.by_power("T")`` splits a coefficient by its powers of T.
Matrix Hamiltonians are restricted to the scalar-plus-involution form
``b I + c K`` with ``K^2 = I``, whose exponential has the exact closed form
``e^(-i b t) (cos(c t) I - i sin(c t) K)``; the trigonometric functions are
rewritten into ``e^(+-i c t)`` pairs immediately.  ``K^2 = I`` need only
hold on the unit sphere of direction symbols, and it is decided exactly, by
reducing polynomials modulo ``sum h^2 = 1``, never by sampling.
"""

from __future__ import annotations

from typing import Collection, Sequence

from .errors import (
    DegenerateCase,
    NotInvolution,
    ShapeMismatch,
    UnsupportedStructure,
)
from .params import ExpKey, ParamPoly
from .records import FrozenRecord, Record


#: the time-volume symbol, a parameter of every amplitude coefficient
T = "T"


def t_free(poly: ParamPoly) -> ParamPoly:
    """``poly`` itself, checked to carry no explicit power of ``T``."""
    if T in poly.params():
        raise UnsupportedStructure("coefficient carries explicit T powers")
    return poly


def axis_terms(
    poly: ParamPoly, axes: Collection[str]
) -> list[tuple[tuple[tuple[str, int], ...], ParamPoly]]:
    """``poly`` as (axis degrees, coefficient) pairs: the one split of an integrand.

    The axis degrees are the ``(name, int)`` pairs of the atoms in ``axes``,
    sorted by name; the coefficient holds the other atoms.  Pairs come in
    order of first appearance of their axis part, and each coefficient keeps
    its terms in the poly's order.
    """
    parts: dict[tuple[tuple[str, int], ...], dict[ExpKey, complex]] = {}
    for key, coeff in poly.terms.items():
        axis = tuple((n, e) for n, e in key if n in axes)
        if axis:
            if any(e.denominator != 1 for _, e in axis):
                raise UnsupportedStructure(f"non-integer axis power in {poly.render()}")
            axis = tuple((n, int(e)) for n, e in axis)
            key = ExpKey(item for item in key if item[0] not in axes)
        parts.setdefault(axis, {})[key] = coeff
    return [(axis, ParamPoly._canonical(terms)) for axis, terms in parts.items()]


# ---------------------------------------------------------------------------
# Phase decomposition
# ---------------------------------------------------------------------------


class ReducedPhase(Record):
    """Evolution phase e^(-iT(g2 u^2 + g1 u)) per reduced symbol u times e^(i const T), scaled by 1/hbar.

    ``g2[u]`` and ``g1[u]`` are ParamPoly coefficients of u^2 and u^1.
    """

    __slots__ = ("g2", "g1", "const", "osc_coeff", "osc_symbol")

    def __init__(self, g2: dict[str, ParamPoly], g1: dict[str, ParamPoly],
                 const: ParamPoly,  # minus the axis-free part
                 osc_coeff: ParamPoly | None = None,  # |c| for the involution pieces
                 osc_symbol: str | None = None):
        self.g2 = g2
        self.g1 = g1
        self.const = const
        self.osc_coeff = osc_coeff
        self.osc_symbol = osc_symbol


def decompose_phase(h: ParamPoly, axes: Collection[str]) -> ReducedPhase:
    """Split ``h`` into g2 and g1 per axis and the constant: minus the axis-free part.

    ``h`` is split by the phase ``axes`` alone (``axis_terms``); every other
    atom is part of a coefficient.  Each axis part must be one axis to the
    power one or two: cross-axis couplings, inverse powers and higher
    degrees are rejected.  Which atoms a phase may hold at all is checked
    before, by ``engine.reduced_sides``.
    """
    g2: dict[str, ParamPoly] = {}
    g1: dict[str, ParamPoly] = {}
    const = ParamPoly.zero()
    for key, coeff in axis_terms(h, axes):
        if len(key) > 1:
            raise UnsupportedStructure(f"cross-axis phase coupling: {key}")
        if not key:
            const = -t_free(coeff)
            continue
        (name, deg), = key
        poly = t_free(coeff)
        if deg == 2:
            g2[name] = poly
        elif deg == 1:
            g1[name] = poly
        elif deg < 0:
            raise UnsupportedStructure("inverse-power phase tails are not reduced symbolically")
        else:
            raise DegenerateCase(
                f"axis {name} has neither quadratic nor linear phase but degree {deg}"
            )
    return ReducedPhase(g2, g1, const)


# ---------------------------------------------------------------------------
# Matrix symbols with involution structure
# ---------------------------------------------------------------------------


class MatrixSymbol(FrozenRecord):
    """Hamiltonian symbol b I + c K with K^2 = I on the unit sphere of directions.

    ``kmatrix`` entries are polys over the direction symbols (or
    constants).  Construction squares K, reduces each entry
    of K^2 - I modulo sum h^2 = 1 (``reduce_on_sphere``) and requires exactly
    zero; a K that is not square, or squares to I only up to rounding, raises
    ``NotInvolution``.
    """

    __slots__ = ("scalar", "coeff", "kmatrix", "direction_syms")

    def __init__(self, scalar: ParamPoly, coeff: ParamPoly, kmatrix: tuple[tuple[ParamPoly, ...], ...],
                 direction_syms: tuple[str, ...] = ()):
        self.scalar = scalar
        self.coeff = coeff
        self.kmatrix = kmatrix
        self.direction_syms = direction_syms
        k, n = kmatrix, self.dim
        if any(len(row) != n for row in k):
            raise NotInvolution(f"K is not square: rows of lengths {[len(row) for row in k]}")
        for i in range(n):
            for j in range(n):
                # sum the products first, then subtract: the sum may be exactly 1
                entry = sum((k[i][l] * k[l][j] for l in range(n)), ParamPoly.zero())
                if i == j:
                    entry = entry - ParamPoly.one()
                if not reduce_on_sphere(entry, self.direction_syms).is_zero():
                    raise NotInvolution(f"K^2 != I in entry ({i}, {j}) on the unit sphere")

    @property
    def dim(self) -> int:
        return len(self.kmatrix)

    def k_trace(self) -> ParamPoly:
        tr = ParamPoly.zero()
        for i in range(self.dim):
            tr = tr + self.kmatrix[i][i]
        return tr


def reduce_on_sphere(poly: ParamPoly, directions: Sequence[str]) -> ParamPoly:
    """``poly`` modulo sum h^2 = 1 over ``directions``, exactly.

    Each power h^d (d >= 2) of the last direction h becomes
    h^(d-2) (1 - sum of the other directions squared), until h appears to
    degree at most 1.  One polynomial generates the ideal, so the remainder is
    unique: it is zero exactly when ``poly`` vanishes on the unit sphere.
    """
    if not directions or _degree(poly, directions[-1]) < 2:
        return poly
    *others, h = directions
    rest = ParamPoly.one()
    for name in others:
        rest = rest - ParamPoly.var(name, 2)
    while (d := _degree(poly, h)) >= 2:
        c = poly.by_power(h)[d]
        poly = poly - c * ParamPoly.var(h, d) + c * ParamPoly.var(h, d - 2) * rest
    return poly


def _degree(poly: ParamPoly, name: str):
    """The highest power of ``name`` in ``poly``; 0 if it has none."""
    return max((e for key in poly.terms for n, e in key if n == name), default=0)


class EvolutionPiece(Record):
    """One exponential branch of e^(-i(bI + cK)t): weight_I * I + weight_K * K times e^(s i c t)."""

    __slots__ = ("osc_sign", "weight_identity", "weight_k")

    def __init__(self, osc_sign: int, weight_identity: complex, weight_k: complex):
        self.osc_sign = osc_sign
        self.weight_identity = weight_identity
        self.weight_k = weight_k


class InvolutionEvolution(Record):
    """Closed form e^(-ibt)(cos(ct) I - i sin(ct) K) split into e^(+-ict) pieces."""

    __slots__ = ("symbol", "pieces")

    def __init__(self, symbol: MatrixSymbol, pieces: tuple[EvolutionPiece, ...]):
        self.symbol = symbol
        self.pieces = pieces


def involution_exp(m: MatrixSymbol) -> InvolutionEvolution:
    """e^(-i(bI + cK)t) with the trig parts rewritten as e^(+-ict) pairs."""
    pieces = (
        EvolutionPiece(+1, 0.5, -0.5),
        EvolutionPiece(-1, 0.5, +0.5),
    )
    return InvolutionEvolution(m, pieces)


class IntegrandPiece(Record):
    """One scalar piece of the composed trace integrand.

    ``amp`` multiplies e^(-iT * (h2 u^2 + h1 u per axis)) together with the
    piece's extra linear oscillation sign on the radial symbol.
    """

    __slots__ = ("amp", "osc_sign")

    def __init__(self, amp: ParamPoly,
                 osc_sign: int = 0):  # sign s in e^(s i c T r); 0 for purely quadratic models
        self.amp = amp
        self.osc_sign = osc_sign


def compose_observable(
    evolution: InvolutionEvolution | None,
    observable: ParamPoly | MatrixSymbol,
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
        beta, gamma = observable, ParamPoly.zero()

    n = ParamPoly.number(sym.dim)
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
