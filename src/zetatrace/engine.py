"""End-to-end pipeline: gauge, reduce, regularize, take limits.

``expectation`` builds numerator and denominator trace integrals with the
same gauge, reduces every gauged axis through the closed-form tables, and
eliminates the regulators sequentially before the thermal limit.  The module
also houses the trace-at-zero formula for non-critical homogeneous
amplitudes and the effective-potential analysis for constant background
fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Callable, Mapping, Sequence

from . import rational
from .errors import (
    CriticalDegree,
    DegenerateCase,
    DivergentLimit,
    LogOfNonmonomial,
    NumericOverflow,
    UnsolvablePotential,
    UnsupportedStructure,
    ValidationError,
    ZeroQuadraticCoefficient,
)
from .laurent import DEFAULT_ORDER, MeroFactorProduct
from .params import Param, ParamPoly, _fraction
from .rational import Q
from .records import FrozenRecord, Record
from .symbols import (
    IntegrandPiece,
    InvolutionEvolution,
    MatrixSymbol,
    ReducedPhase,
    T,
    axis_terms,
    compose_observable,
    decompose_phase,
    involution_exp,
)
from .tables import AffineExp, PAPER, PRINCIPAL, angular_moment, gauss_radial, osc_linear
from .terms import (
    Divergent,
    TAsymTerm,
    TAsymptote,
    ZetaTerm,
    ZetaTermSum,
    ratio_limit,
    thermal_limit,
    value_at_zero,
)


class GaugeGroup(FrozenRecord):
    """Axes gauged jointly under one regulator.

    ``separable`` groups insert |u|^(z/k) per axis and reduce axis by axis;
    ``radial`` groups insert the rotation-invariant gauge ||xi||^z and reduce
    through one radial variable plus sphere moments.  A group without axes,
    or with another reduction, is a ``ValidationError``.
    """

    __slots__ = ("name", "axes", "regulator", "reduction")

    def __init__(self, name: str, axes: tuple[str, ...], regulator: str, reduction: str = "separable"):
        if reduction not in ("separable", "radial"):
            raise ValidationError(f"gauge group {name}: unknown reduction {reduction!r}")
        if not axes:
            raise ValidationError(f"gauge group {name} has no axes")
        self.name = name
        self.axes = axes
        self.regulator = regulator
        self.reduction = reduction

    @property
    def radial(self) -> bool:
        """Reduced through one radius and sphere moments: a radial group of two or more axes."""
        return self.reduction == "radial" and len(self.axes) > 1

    def radius_symbol(self) -> str:
        return self.axes[0] if len(self.axes) == 1 else f"|{self.name}|"

    def gauged(self) -> tuple[str, ...]:
        """The symbols the group's gauge applies to: its axes, or a radial group's radius."""
        return (self.radius_symbol(),) if self.radial else self.axes

    def symbols(self) -> tuple[str, ...]:
        """The symbols the group integrates: the gauged ones, then a radial group's directions."""
        if self.radial:
            return (*self.gauged(), *(f"{a}^" for a in self.axes))
        return self.gauged()


class ModelSpec(Record):
    """Declarative model: gauge groups (which name its axes), Hamiltonian symbol, observables.

    ``tokens`` are sector labels whose traces factor out of both sums and
    cancel; the trace ends every numerator and denominator term with them.
    ``field_param`` is a potential model's constant field, a signed parameter
    of H; such a model's volume is T X, written ``TX``
    (``effective_potential``).  ``derived[name] = (source observable,
    multiplier)`` gives the value multiplier * <source>.  ``expected`` and
    ``derived`` default to a new empty dict, ``prefactor`` to 1.
    """

    __slots__ = ("name", "description", "params", "groups", "hamiltonian", "observables", "expected",
                 "hbar", "prefactor", "tokens", "field_param", "derived")

    def __init__(
        self,
        name: str,
        description: str,
        params: tuple[Param, ...],
        groups: tuple[GaugeGroup, ...],
        hamiltonian: ParamPoly | MatrixSymbol,
        observables: dict[str, ParamPoly | MatrixSymbol],
        expected: dict[str, ParamPoly] | None = None,
        hbar: str | None = None,
        prefactor: ParamPoly | None = None,
        tokens: tuple[str, ...] = (),
        field_param: str | None = None,
        derived: dict[str, tuple[str, ParamPoly]] | None = None,
    ):
        self.name = name
        self.description = description
        self.params = params
        self.groups = groups
        self.hamiltonian = hamiltonian
        self.observables = observables
        self.expected = {} if expected is None else expected
        self.hbar = hbar
        self.prefactor = ParamPoly.one() if prefactor is None else prefactor
        self.tokens = tokens
        self.field_param = field_param
        self.derived = {} if derived is None else derived

    def regulators(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(g.regulator for g in self.groups))

    def default_bindings(self) -> dict[str, float]:
        return {p.name: p.default for p in self.params if p.default is not None}

    def integrated_symbols(self) -> set[str]:
        """Every symbol a gauge group integrates (``GaugeGroup.symbols``)."""
        return {s for g in self.groups for s in g.symbols()}


def gauge_text(model: ModelSpec) -> str:
    """The trace's gauge line: |u|^(share*z) by symbol, share 1/N on N separable axes, 1 on a radius."""
    parts: dict[str, str] = {}
    for g in model.groups:
        syms = g.gauged()
        parts.update((s, f"|{s}|^({Fraction(1, len(syms))}*{g.regulator})") for s in syms)
    return " ".join(parts[s] for s in sorted(parts))


# ---------------------------------------------------------------------------
# Phase handling
# ---------------------------------------------------------------------------


def _build_phase(model: ModelSpec) -> tuple[ReducedPhase, InvolutionEvolution | None]:
    """H/hbar split by ``decompose_phase`` alone, and a matrix H's evolution.

    A scalar H splits over the gauged symbols.  H = b I + c K splits part by
    part over the integrated ones: b must be axis-free, c one radial symbol
    to the power one.
    """
    hbar_inv = ParamPoly.var(model.hbar, -1) if model.hbar else ParamPoly.one()
    if isinstance(model.hamiltonian, MatrixSymbol):
        integrated = model.integrated_symbols()
        scalar = decompose_phase(model.hamiltonian.scalar * hbar_inv, integrated)
        if scalar.g2 or scalar.g1:
            raise UnsupportedStructure("matrix scalar part must be axis-free")
        coeff = decompose_phase(model.hamiltonian.coeff * hbar_inv, integrated)
        if coeff.g2 or len(coeff.g1) != 1 or not coeff.const.is_zero():
            raise UnsupportedStructure("involution coefficient must be linear in one radial symbol")
        ((sym, c),) = coeff.g1.items()
        phase = ReducedPhase(g2={}, g1={}, const=scalar.const, osc_coeff=c, osc_symbol=sym)
        return phase, involution_exp(model.hamiltonian)
    return decompose_phase(model.hamiltonian * hbar_inv, {s for g in model.groups for s in g.gauged()}), None


def complete_square(
    phase: ReducedPhase, amp: ParamPoly, axis: str
) -> tuple[ReducedPhase, ParamPoly, ParamPoly, ParamPoly]:
    """Shift one axis to kill its linear phase.

    Returns (new phase, substituted amplitude, phase constant h1^2/(4 h2)
    gained by e^(+i * const * T), shift h1/(2 h2)).  The gauge later applies
    to the shifted variable.
    """
    h2 = phase.g2.get(axis, ParamPoly.zero())
    h1 = phase.g1.get(axis, ParamPoly.zero())
    if h2.is_zero():
        raise ZeroQuadraticCoefficient(f"axis {axis} has h2 = 0")
    if h1.is_zero():
        return phase, amp, ParamPoly.zero(), ParamPoly.zero()
    shift = h1 * h2.inverse().scale(0.5)
    const = h1 * h1 * h2.inverse().scale(0.25)
    new_amp = amp.subs(axis, ParamPoly.var(axis) - shift)
    new_phase = ReducedPhase(
        dict(phase.g2), {k: (ParamPoly.zero() if k == axis else v) for k, v in phase.g1.items()},
        phase.const, phase.osc_coeff, phase.osc_symbol,
    )
    return new_phase, new_amp, const, shift


# ---------------------------------------------------------------------------
# Enumeration of the reduced integrals
# ---------------------------------------------------------------------------


class ReducedIntegral(FrozenRecord):
    """One closed-form integral of the reduction, in a single regulator.

    ``gauss`` is int_R |u|^q e^(-i rate T u^2) du and ``osc`` is
    int_0^inf r^q e^(sign i rate T r) dr; ``rate`` is a positive monomial.
    """

    __slots__ = ("kind", "q", "sign", "rate")

    def __init__(self, kind: str, q: AffineExp, sign: int, rate: ParamPoly):  # kind: gauss | osc
        self.kind = kind
        self.q = q
        self.sign = sign
        self.rate = rate

    def exact_key(self) -> tuple:
        """The integral by value; the rate by its float coefficients, not by tolerant equality."""
        return self.kind, self.q, self.sign, tuple(sorted(self.rate.terms.items()))


#: the most branches one side of a derivation may have: its time and memory grow with the count
MAX_BRANCHES = 4096
#: one reduced symbol's alternatives as (multiplier, integral index) pairs
Alternatives = list[tuple[ParamPoly, int]]
#: one side's items: coefficient, T power, per-symbol alternatives
Enumeration = list[tuple[ParamPoly, Fraction, tuple[Alternatives, ...]]]


def _sign_split(poly: ParamPoly) -> tuple[int, ParamPoly]:
    mono = poly.single_monomial()
    if mono is None:
        raise UnsupportedStructure(f"phase coefficient is not a monomial: {poly.render()}")
    coeff, key = mono
    if coeff.imag != 0:
        raise UnsupportedStructure("phase coefficient must be real")
    sign = 1 if coeff.real > 0 else -1
    return sign, ParamPoly._canonical({key: complex(abs(coeff.real))})


def _alternatives(
    q: AffineExp, degree: int, moment: ParamPoly | None, g2: ParamPoly, g1: ParamPoly
) -> list[tuple[ParamPoly, ReducedIntegral]]:
    """One gauged symbol's integral of u^degree |u|^(share z) e^(-iT(g2 u^2 + g1 u)).

    ``moment`` is None for a full-line axis u; for a radial group's radius
    u = r > 0 it is the sphere moment of the group's direction degrees, and
    the integral is taken over r times that moment.  The alternatives are
    (multiplier, integral) pairs; an integral that vanishes (an odd degree
    under an axis Gaussian, a zero moment) has none.
    """
    axis = moment is None
    if not axis and moment.is_zero():
        return []
    has2, has1 = not g2.is_zero(), not g1.is_zero()
    if has2 and has1:
        raise UnsupportedStructure(f"complete the square before reducing this {'axis' if axis else 'group'}")
    if has2:
        if axis and degree % 2:
            return []
        sgn, rate = _sign_split(g2)
        if sgn < 0:
            raise UnsupportedStructure("quadratic phase coefficient must be positive")
        # the table's Gaussian runs over the full line: a radius takes half of it
        return [(ParamPoly.number(1.0) if axis else moment.scale(0.5), ReducedIntegral("gauss", q, 1, rate))]
    if has1:
        sgn, rate = _sign_split(g1)
        # u = direction * r: e^(-iT g1 u) = e^(-i sgn direction |g1| T r); a radius has one direction
        rays = [(ParamPoly.number(complex(d**degree)), d) for d in (1, -1)] if axis else [(moment, 1)]
        return [(mult, ReducedIntegral("osc", q, -sgn * d, rate)) for mult, d in rays]
    raise DegenerateCase("axis carries no phase; its gauge integral has no extension" if axis
                         else "radial group carries no phase")


def reduced_sides(
    model: ModelSpec, observables: Sequence[ParamPoly | MatrixSymbol]
) -> tuple[ReducedPhase, list[ReducedIntegral], list[Enumeration]]:
    """The reduction's front end: the reduced phase, the distinct integrals and an enumeration per observable.

    Every entry point calls it, and every structural check of a derivation
    runs here, before it returns: no table row, Laurent series or quadrature
    runs first.  The model's symbols are checked first, once.  An axis in
    two groups, or a declared parameter named like an axis or an integrated
    symbol, is a ``ValidationError``; so is a potential model's field that
    is not a parameter declared signed (``positive=False``: a constant field
    takes both signs) and an atom of the Hamiltonian.  An atom that is not
    a declared parameter, ``pi`` or ``T`` must be gauged
    (``GaugeGroup.gauged``) in a scalar Hamiltonian (``hbar`` must be
    declared), and integrated (``GaugeGroup.symbols``) in a matrix
    Hamiltonian or an observable; any other atom is an
    ``UnsupportedStructure``.  The phase split, each observable's
    composition with the evolution and its enumeration
    (``reduced_integrals``, with every per-symbol check) run next, in that
    order.  A side with more than ``MAX_BRANCHES`` branches (the sum over
    its items of the product of their symbols' alternative counts) is an
    ``UnsupportedStructure``.  The integrals are the table that every side
    indexes: one per distinct integral, in order of first use.
    """
    axes = [a for g in model.groups for a in g.axes]
    if twice := sorted({a for a in axes if axes.count(a) > 1}):
        raise ValidationError(f"axes in more than one gauge group: {twice}")
    integrated = model.integrated_symbols()
    if clash := sorted(p.name for p in model.params if p.name in integrated or p.name in axes):
        raise ValidationError(f"parameters named like a grouped symbol: {clash}")
    signed = {p.name for p in model.params if not p.positive}
    if model.field_param is not None and model.field_param not in (signed & _atoms(model.hamiltonian)):
        raise ValidationError(f"field {model.field_param} is not a signed parameter of the Hamiltonian")
    known = {p.name for p in model.params} | {"pi", T}
    gauged = {s for g in model.groups for s in g.gauged()}
    phase_symbols = integrated if isinstance(model.hamiltonian, MatrixSymbol) else gauged
    hbar = {model.hbar} if model.hbar else set()  # the phase is H/hbar
    if unknown := (_atoms(model.hamiltonian) | hbar) - phase_symbols - known:
        raise UnsupportedStructure(f"phase depends on unknown symbol {min(unknown)}")
    for o in observables:
        if unknown := _atoms(o) - integrated - known:
            raise UnsupportedStructure(
                f"amplitude symbols outside any gauge group: {sorted(unknown)}"
            )
    phase, evo = _build_phase(model)
    moments: dict[tuple, ParamPoly] = {}
    table: dict[tuple, tuple[int, ReducedIntegral]] = {}  # exact key -> (index, integral)
    enumerations = [
        reduced_integrals(compose_observable(evo, o), model, phase, moments, table) for o in observables
    ]
    for items in enumerations:
        if (branches := sum([math.prod(map(len, symbols)) for _, _, symbols in items])) > MAX_BRANCHES:
            raise UnsupportedStructure(f"one side has {branches} branches, more than the {MAX_BRANCHES} allowed")
    return phase, [integral for _, integral in table.values()], enumerations


def _atoms(symbol: ParamPoly | MatrixSymbol) -> set[str]:
    """The names of every atom of a scalar symbol or of a matrix symbol's entries."""
    if isinstance(symbol, ParamPoly):
        return symbol.params()
    entries = (symbol.scalar, symbol.coeff, *(e for row in symbol.kmatrix for e in row))
    return set().union(*(e.params() for e in entries))


def reduced_integrals(
    pieces: Sequence[IntegrandPiece], model: ModelSpec, phase: ReducedPhase,
    moments: dict[tuple, ParamPoly], table: dict[tuple, tuple[int, ReducedIntegral]],
) -> Enumeration:
    """The reduction's only enumeration of closed-form integrals.

    Per piece, axis part of the amplitude (``axis_terms`` over the model's
    integrated symbols) and T power this lists the coefficient, the T power
    and each reduced symbol's alternatives, group by group: (multiplier,
    index) pairs into the derivation's table of distinct integrals.  A
    branch picks one alternative per symbol and is worth the coefficient
    times the picked multipliers and integrals; handing branches out in this
    factored form evaluates each integral once.  A symbol with no
    alternatives (odd degree under a Gaussian, zero sphere moment) makes its
    item vanish.  Every per-symbol check runs as the list is built, by one
    rule for axes and radii (``_symbol_alternatives``).  ``reduced_sides``
    shares ``moments`` and ``table`` between its sides.  ``reduce_pieces``
    maps the indices to table rows, ``oracle._build_quotient`` to points.
    """
    integrated = model.integrated_symbols()
    memo: dict[tuple, Alternatives] = {}
    items: Enumeration = []
    for piece in pieces:
        for axis_key, coeff in axis_terms(piece.amp, integrated):
            symbols = _symbol_alternatives(piece, dict(axis_key), model, phase, memo, moments, table)
            items.extend((poly, t_power, symbols) for t_power, poly in coeff.by_power(T).items())
    return items


def _symbol_alternatives(
    piece: IntegrandPiece,
    degrees: Mapping[str, int],
    model: ModelSpec,
    phase: ReducedPhase,
    memo: dict[tuple, Alternatives],
    moments: dict[tuple, ParamPoly],
    table: dict[tuple, tuple[int, ReducedIntegral]],
) -> tuple[Alternatives, ...]:
    """One item's alternatives: a list per gauged symbol (``GaugeGroup.gauged``), group by group.

    A full-line axis and a radial group's radius go through one rule,
    ``_alternatives``, with every per-symbol check.  A symbol's exponent is
    its share 1/len(gauged) of the regulator (``gauge_text``) plus its degree
    and the radial Jacobian's dim - len(gauged); only a radial group's sphere
    moment is computed apart.  ``table`` indexes each integral by its
    ``ReducedIntegral.exact_key``: the one rule of which integrals are the
    same.  The memo key is the symbol, its regulator and degree, the
    piece's oscillation sign and the direction degrees (None on an axis).
    """
    out = []
    for group in model.groups:
        gauged, dim = group.gauged(), len(group.axes)
        # a radial group's direction degrees; a full-line axis has none
        hats = tuple(degrees.get(f"{a}^", 0) for a in group.axes) if group.radial else None
        for s in gauged:
            d = degrees.get(s, 0)
            key = (s, group.regulator, d, piece.osc_sign, hats)
            if key not in memo:
                if hats is not None and (hats, dim) not in moments:
                    moments[hats, dim] = angular_moment(hats, dim)
                # the symbol's share of z; the radial Jacobian r^(dim - 1) on a radius
                q = AffineExp(group.regulator, (1, len(gauged)), (d + dim - len(gauged), 1))
                g2, g1 = phase.g2.get(s, ParamPoly.zero()), phase.g1.get(s, ParamPoly.zero())
                if piece.osc_sign and phase.osc_symbol == s:  # the involution's linear phase
                    g1 = g1 - phase.osc_coeff.scale(piece.osc_sign)
                memo[key] = [
                    (mult, table.setdefault(integral.exact_key(), (len(table), integral))[0])
                    for mult, integral in _alternatives(q, d, moments.get((hats, dim)), g2, g1)
                ]
            out.append(memo[key])
    return tuple(out)


def table_rows(integrals: Sequence[ReducedIntegral], policy: str) -> list[ZetaTerm]:
    """The table row of each of a derivation's distinct integrals (``reduced_sides``), in index order."""
    if policy not in (PAPER, PRINCIPAL):  # checked where it is read, oscillatory rows or none
        raise ValidationError(f"branch must be {PAPER!r} or {PRINCIPAL!r}, got {policy!r}")
    return [
        gauss_radial(i.q, i.rate) if i.kind == "gauss" else osc_linear(i.q, i.sign, policy, i.rate)
        for i in integrals
    ]


def reduce_pieces(items: Enumeration, model: ModelSpec, rows: Sequence[ZetaTerm]) -> ZetaTermSum:
    """Reduce one side's enumeration to the canonical term sum, one term per branch.

    ``rows`` holds the table row of each integral index (``table_rows``);
    ``build_trace_sums`` passes one list to both sides.  A branch picks one
    alternative per symbol (``itertools.product``: the last symbol fastest)
    in one pass: the item's coefficient times the prefactor and each picked
    multiplier that is not exactly 1, in pick order, and its indices
    counted.  Its ``ZetaTerm`` has each distinct row's factors and ``T``
    exponents times its count (a row's prefactor is 1).  The evolution's
    constant phase is common to every branch and is left out
    (``_term_suffix`` renders it).
    """
    out: list[ZetaTerm] = []
    for poly, t_power, symbols in items:
        base = poly * model.prefactor
        for picks in product(*symbols):
            coeff, counts = base, {}
            for mult, i in picks:
                if not mult.is_one():  # times exactly 1 leaves the same bits
                    coeff = coeff * mult
                counts[i] = counts.get(i, 0) + 1
            if not coeff.is_zero():
                out.append(_branch_term(coeff, counts, t_power, rows))
    return ZetaTermSum(out, model.regulators())


def _branch_term(
    coeff: ParamPoly, counts: dict[int, int], t_power: Fraction, rows: Sequence[ZetaTerm]
) -> ZetaTerm:
    # integrals repeat across symbols: each distinct row's factors and exponents times its multiplicity
    distinct = [(rows[i], n) for i, n in counts.items()]
    t_lin: dict[str, Q] = {}
    t_const = rational.of(t_power)
    for row, n in distinct:
        t_const = rational.add(t_const, rational.mul(row.t_const, (n, 1)))
        for reg, a in row.t_lin:
            a = rational.mul(a, (n, 1))
            t_lin[reg] = rational.add(t_lin[reg], a) if reg in t_lin else a
    factors = tuple(f if n == 1 else f.raised(n) for row, n in distinct for f in row.coeff.factors)
    t_lin_items = tuple(sorted((reg, a) for reg, a in t_lin.items() if a[0] != 0))
    return ZetaTerm(MeroFactorProduct(coeff, factors), t_lin_items, t_const)


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------


#: one derivation step: its text, or a callable that renders the text when read
Step = str | Callable[[], str]


def _render_steps(steps: Sequence[Step]) -> list[str]:
    return [s if isinstance(s, str) else s() for s in steps]


class ExpectationResult(Record):
    __slots__ = ("model", "observable", "value", "finite_t", "steps")

    def __init__(self, model: str, observable: str, value: ParamPoly | Divergent,
                 finite_t: TAsymptote | None, steps: list[Step] | None = None):
        self.model = model
        self.observable = observable
        self.value = value
        self.finite_t = finite_t
        self.steps = [] if steps is None else steps

    @property
    def trace(self) -> list[str]:
        """The derivation text, one line per step, rendered when read."""
        return _render_steps(self.steps)


def build_trace_sums(
    model: ModelSpec,
    observable: ParamPoly | MatrixSymbol,
    policy: str,
) -> tuple[ZetaTermSum, ZetaTermSum, list[Step]]:
    """Numerator and denominator term sums under the same gauge, and the steps so far.

    Both sums index one list of table rows, one per distinct integral
    (``table_rows``), so each row is built once per call.  The steps render
    the gauge and both sums only when the trace is read.
    """
    phase, integrals, (num_items, den_items) = reduced_sides(model, (observable, ParamPoly.one()))
    rows = table_rows(integrals, policy)
    num = reduce_pieces(num_items, model, rows)
    den = reduce_pieces(den_items, model, rows)
    suffix = _term_suffix(model, phase.const)
    steps: list[Step] = [
        lambda: f"gauge: {gauge_text(model)}",
        f"reduce: numerator {len(num.terms)} terms, denominator {len(den.terms)} terms",
        lambda: f"numerator = {num.render(suffix)}",
        lambda: f"denominator = {den.render(suffix)}",
    ]
    return num, den, steps


def _term_suffix(model: ModelSpec, phase: ParamPoly, t_symbol: str = "T") -> str:
    """What ends every rendered term of a derivation: its common phase e^(i c T), then its sector labels."""
    suffix = "" if phase.is_zero() else f" * e^(i*({phase.render(mul='*')})*{t_symbol})"
    return suffix + (f" * [{','.join(sorted(model.tokens))}]" if model.tokens else "")


def _check_order(series_order: int) -> None:
    """A derivation's series order, checked where it enters: order 0 would never end."""
    if type(series_order) is not int or series_order < 1:
        raise ValidationError(f"series order must be an int >= 1, got {series_order!r}")


def expectation(
    model: ModelSpec,
    observable_name: str,
    policy: str = PAPER,
    series_order: int = DEFAULT_ORDER,
) -> ExpectationResult:
    _check_order(series_order)
    obs = model.observables[observable_name]
    num, den, steps = build_trace_sums(model, obs, policy)
    try:
        finite_t = ratio_limit(num, den, series_order, trace=steps)
    except DivergentLimit as exc:
        return ExpectationResult(
            model.name, observable_name, Divergent(str(exc)), None,
            steps + [f"limit: divergent ({exc})"],
        )
    value = thermal_limit(finite_t)
    steps.append(
        lambda: f"regulator limits: finite-T value = {finite_t.render()}"
    )
    steps.append(
        lambda: "thermal limit: "
        + (value.render() if isinstance(value, ParamPoly) else repr(value))
    )
    return ExpectationResult(model.name, observable_name, value, finite_t, steps)


# ---------------------------------------------------------------------------
# Trace at zero for non-critical homogeneous amplitudes
# ---------------------------------------------------------------------------


class KVAmplitudeSpec(Record):
    """Amplitude data for the closed trace-at-zero formula.

    Homogeneous terms (degree, log order, angular part) supported on
    ||xi|| >= 1.  An angular part is a constant ParamPoly, multiplied by the
    sphere volume ``vol_x``, 1 unless given.
    """

    __slots__ = ("dimension", "terms", "vol_x")

    def __init__(self, dimension: int, terms: tuple[tuple[Fraction, int, ParamPoly], ...] = (),
                 vol_x: ParamPoly | None = None):
        if dimension < 1:
            raise UnsupportedStructure("dimension must be >= 1")
        for d, l, _ in terms:
            if l < 0:
                raise UnsupportedStructure("log order must be nonnegative")
        self.dimension = dimension
        self.terms = terms
        self.vol_x = ParamPoly.one() if vol_x is None else vol_x


def kv_trace_at_zero(spec: KVAmplitudeSpec) -> ParamPoly:
    """Sum of the homogeneous terms' trace-at-zero contributions.

    Each term contributes
    (-1)^(l+1) l! * vol(X) * int_sphere(angular) / (N + d)^(l+1);
    degrees d = -N are critical and rejected.  A factor
    l!/(N + d)^(l+1) that leaves the float range is a ``NumericOverflow``,
    and so is a term with nonzero volume and angular part whose contribution
    rounds to 0 (a product of nonzero polynomials is never exactly 0).
    Distinct terms may still cancel exactly in the sum.
    """
    n = spec.dimension
    total = ParamPoly.zero()
    for i, (d, l, angular) in enumerate(spec.terms, start=1):
        d = _fraction(d)
        if d == -n:
            raise CriticalDegree(f"degree {d} is critical in dimension {n}")
        sphere = angular * angular_moment((), n)
        try:
            if l > 170:  # 171! is past the float range, and a far larger l! is slow to form
                raise OverflowError
            factor = ((-1) ** (l + 1)) * math.factorial(l) / float(n + d) ** (l + 1)
        except (OverflowError, ZeroDivisionError):  # or the power underflows to 0
            raise NumericOverflow(
                f"term {i}: l!/(N + d)^(l+1) leaves the float range (N = {n}, l = {l})"
            ) from None
        contribution = (spec.vol_x * sphere).scale(factor)
        if contribution.is_zero() and not (spec.vol_x.is_zero() or sphere.is_zero()):
            raise NumericOverflow(f"term {i}: vol(X) * angular * l!/(N + d)^(l+1) underflows to 0")
        total = total + contribution
    return total


# ---------------------------------------------------------------------------
# Effective potential for constant background fields
# ---------------------------------------------------------------------------


class PotentialResult(Record):
    """The potential V(field) after the volume limit, its extrema and masses, and the steps."""

    __slots__ = ("potential", "critical_points", "minima", "masses", "residual", "steps")

    def __init__(self, potential: ParamPoly, critical_points: list[ParamPoly], minima: list[ParamPoly],
                 masses: list[ParamPoly], residual: TAsymptote, steps: list[Step] | None = None):
        self.potential = potential
        self.critical_points = critical_points
        self.minima = minima
        self.masses = masses
        self.residual = residual
        self.steps = [] if steps is None else steps

    @property
    def trace(self) -> list[str]:
        """The derivation text, one line per step, rendered when read."""
        return _render_steps(self.steps)


def effective_potential(
    model: ModelSpec,
    policy: str = PAPER,
    series_order: int = DEFAULT_ORDER,
) -> PotentialResult:
    """ln Z / (-i T X) for a constant field, then extrema and masses.

    The partition function must reduce to e^(-i T X P(field)) times a positive
    monomial times a numeric phase; the logarithm is then taken structurally
    and the non-polynomial remainder vanishes in the volume limit.  The
    volume is T X, so the trace and the residual write it ``TX``.
    """
    _check_order(series_order)
    if model.field_param is None:
        raise UnsupportedStructure(f"model {model.name} is not a potential model")
    phase, integrals, (z_items,) = reduced_sides(model, (ParamPoly.one(),))
    z_sum = reduce_pieces(z_items, model, table_rows(integrals, policy))
    z0 = value_at_zero(z_sum, series_order)
    if len(z0.terms) != 1:
        raise LogOfNonmonomial("partition function is not a single structured term")
    t = z0.terms[0]
    pot = -phase.const  # ln e^(i phase T X) / (-i T X) = -phase
    mono = t.coeff.single_monomial()
    if mono is None:
        raise LogOfNonmonomial(f"residual factor is not a monomial: {t.coeff.render()}")
    residual = TAsymptote([TAsymTerm(t.coeff, t.t_power, t.log_power, phase.const)], "TX")

    phi = model.field_param
    d1 = pot.diff(phi)
    d2 = d1.diff(phi)
    crit = _solve_odd_cubic(d1, phi)
    minima, masses = [], []
    for point in crit:
        curv = d2.subs(phi, point)
        sign = _definite_sign(curv)
        if sign > 0:
            minima.append(point)
            mass = curv.mono_pow(Fraction(1, 2))
            if mass not in masses:
                masses.append(mass)
    steps: list[Step] = [
        lambda: f"gauge: {gauge_text(model)}",
        lambda: f"partition sum = {z_sum.render(_term_suffix(model, phase.const, 'TX'), 'TX')}",
        lambda: f"V = {pot.render()} + ln({t.coeff.render()} * TX^{t.t_power}) / (-i*TX)",
        lambda: (
            "critical points: " + ", ".join(p.render() for p in crit)
            + f"; minima: {[p.render() for p in minima]}; masses: {[m.render() for m in masses]}"
        ),
    ]
    return PotentialResult(pot, crit, minima, masses, residual, steps)


def _solve_odd_cubic(d1: ParamPoly, phi: str) -> list[ParamPoly]:
    """Roots of A*phi + B*phi^3 as parameter monomials (plus phi = 0)."""
    parts = d1.by_power(phi)
    for e in parts:
        if e not in (1, 3):
            raise UnsolvablePotential(
                f"derivative term phi^{e} outside the phi*(a + b*phi^2) pattern"
            )
    a = parts.get(Fraction(1), ParamPoly.zero())
    b = parts.get(Fraction(3), ParamPoly.zero())
    roots = [ParamPoly.zero()]
    if b.is_zero():
        return roots
    ratio = -(a * b.inverse())
    if not ratio.is_positive_monomial():
        raise UnsolvablePotential(f"-A/B = {ratio.render()} is not a positive monomial")
    root = ratio.mono_pow(Fraction(1, 2))
    roots += [root, -root]
    return roots


def _definite_sign(poly: ParamPoly) -> int:
    """Sign of a single real monomial under declared parameter positivity."""
    mono = poly.single_monomial()
    if mono is None:
        raise UnsolvablePotential(f"curvature {poly.render()} has indefinite sign")
    coeff, _ = mono
    if coeff.imag != 0:
        raise UnsolvablePotential("curvature is not real")
    return 1 if coeff.real > 0 else -1
