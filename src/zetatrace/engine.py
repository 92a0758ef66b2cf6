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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .errors import (
    CriticalDegree,
    DegenerateCase,
    DivergentLimit,
    LogOfNonmonomial,
    NumericOverflow,
    UncoveredAxis,
    UnsolvablePotential,
    UnsupportedStructure,
    ZeroQuadraticCoefficient,
)
from .laurent import DEFAULT_ORDER, MeroFactorProduct
from .params import Param, ParamPoly, _fraction
from .symbols import (
    Axis,
    AxisPoly,
    IntegrandPiece,
    InvolutionEvolution,
    MatrixSymbol,
    PhaseDecomposition,
    T,
    compose_observable,
    decompose_phase,
    involution_exp,
    t_free,
)
from .tables import AffineExp, BranchPolicy, PAPER, angular_moment, gauss_radial, osc_linear
from .terms import (
    Divergent,
    TAsymptote,
    ZetaTerm,
    ZetaTermSum,
    ratio_limit,
    thermal_limit,
    value_at_zero,
)


@dataclass(frozen=True)
class GaugeGroup:
    """Axes gauged jointly under one regulator.

    ``separable`` groups insert |u|^(z/k) per axis and reduce axis by axis;
    ``radial`` groups insert the rotation-invariant gauge ||xi||^z and reduce
    through one radial variable plus sphere moments.
    """

    name: str
    axes: tuple[str, ...]
    regulator: str
    reduction: str = "separable"

    def radius_symbol(self) -> str:
        if len(self.axes) == 1:
            return self.axes[0]
        return f"|{self.name}|"


@dataclass
class ModelSpec:
    """Declarative model: axes, gauge grouping, Hamiltonian symbol, observables."""

    name: str
    description: str
    params: tuple[Param, ...]
    axes: tuple[Axis, ...]
    groups: tuple[GaugeGroup, ...]
    hamiltonian: AxisPoly | MatrixSymbol
    observables: dict[str, AxisPoly | MatrixSymbol]
    expected: dict[str, ParamPoly] = field(default_factory=dict)
    hbar: str | None = None
    prefactor: ParamPoly = field(default_factory=ParamPoly.one)
    #: sector labels whose traces factor out of both sums and cancel; the trace
    #: ends every numerator and denominator term with them
    tokens: tuple[str, ...] = ()
    t_symbol: str = "T"
    kind: str = "expectation"  # expectation | potential
    field_param: str | None = None
    derived: dict[str, tuple[str, ParamPoly]] = field(default_factory=dict)
    #: derived[name] = (source observable, multiplier): value = multiplier * <source>

    def regulators(self) -> tuple[str, ...]:
        seen = []
        for g in self.groups:
            if g.regulator not in seen:
                seen.append(g.regulator)
        return tuple(seen)

    def default_bindings(self) -> dict[str, float]:
        return {p.name: p.default for p in self.params if p.default is not None}


@dataclass
class GaugePlan:
    """Gauge exponent inserted per reduced symbol: |u|^(share * z)."""

    shares: dict[str, tuple[str, Fraction]]  # symbol -> (regulator, share)

    def render(self) -> str:
        parts = [f"|{sym}|^({share}*{reg})" for sym, (reg, share) in sorted(self.shares.items())]
        return " ".join(parts)


def apply_gauge(model: ModelSpec) -> GaugePlan:
    """Insert the gauge family: product gauge on separable groups, ||.||^z on radial ones."""
    grouped = {a for g in model.groups for a in g.axes}
    for ax in model.axes:
        if ax.name not in grouped:
            raise UncoveredAxis(f"axis {ax.name} belongs to no gauge group")
    shares: dict[str, tuple[str, Fraction]] = {}
    for g in model.groups:
        if g.reduction == "separable" or len(g.axes) == 1:
            share = Fraction(1, len(g.axes))
            for a in g.axes:
                shares[a] = (g.regulator, share)
        else:
            shares[g.radius_symbol()] = (g.regulator, Fraction(1))
    return GaugePlan(shares)


# ---------------------------------------------------------------------------
# Phase handling
# ---------------------------------------------------------------------------


@dataclass
class ReducedPhase:
    """Evolution phase split per reduced symbol, already scaled by T/hbar."""

    g2: dict[str, ParamPoly]
    g1: dict[str, ParamPoly]
    const: ParamPoly  # e^(i * const * T)
    osc_coeff: ParamPoly | None = None  # |c| for the involution pieces
    osc_symbol: str | None = None


def _build_phase(model: ModelSpec) -> tuple[ReducedPhase, InvolutionEvolution | None]:
    hbar_inv = (
        ParamPoly.var(model.hbar, -1) if model.hbar else ParamPoly.one()
    )
    if isinstance(model.hamiltonian, MatrixSymbol):
        evo = involution_exp(model.hamiltonian)
        b = t_free(model.hamiltonian.scalar.constant_part())
        if model.hamiltonian.scalar.symbols():
            raise UnsupportedStructure("matrix scalar part must be axis-free")
        c = model.hamiltonian.coeff
        syms = c.symbols()
        if len(syms) != 1:
            raise UnsupportedStructure("involution coefficient must be one radial symbol")
        (sym,) = syms
        coeff = t_free(c.coefficient_of(sym, 1).constant_part())
        if coeff.is_zero() or not (c - AxisPoly.symbol(sym, 1, coeff)).is_zero():
            raise UnsupportedStructure("involution coefficient must be linear in the radius")
        phase = ReducedPhase(
            g2={},
            g1={},
            const=-(b * hbar_inv),
            osc_coeff=coeff * hbar_inv,
            osc_symbol=sym,
        )
        return phase, evo
    symbols = sorted(
        {a.name for a in model.axes} | {g.radius_symbol() for g in model.groups}
    )
    decomp = decompose_phase(model.hamiltonian, symbols)
    phase = ReducedPhase(
        g2={k: v * hbar_inv for k, v in decomp.h2.items()},
        g1={k: v * hbar_inv for k, v in decomp.h1.items()},
        const=-(decomp.h0_const * hbar_inv),
    )
    return phase, None


def complete_square(
    phase: PhaseDecomposition, amp: AxisPoly, axis: str
) -> tuple[PhaseDecomposition, AxisPoly, ParamPoly, ParamPoly]:
    """Shift one axis to kill its linear phase.

    Returns (new phase, substituted amplitude, phase constant h1^2/(4 h2)
    gained by e^(+i * const * T), shift h1/(2 h2)).  The gauge later applies
    to the shifted variable.
    """
    h2 = phase.h2.get(axis, ParamPoly.zero())
    h1 = phase.h1.get(axis, ParamPoly.zero())
    if h2.is_zero():
        raise ZeroQuadraticCoefficient(f"axis {axis} has h2 = 0")
    if h1.is_zero():
        return phase, amp, ParamPoly.zero(), ParamPoly.zero()
    shift = h1 * h2.inverse().scale(0.5)
    const = h1 * h1 * h2.inverse().scale(0.25)
    new_amp = amp.substitute(
        axis, AxisPoly.symbol(axis) - AxisPoly.constant(shift)
    )
    new_phase = PhaseDecomposition(
        h2=dict(phase.h2),
        h1={k: (ParamPoly.zero() if k == axis else v) for k, v in phase.h1.items()},
        h0_const=phase.h0_const,
    )
    return new_phase, new_amp, const, shift


# ---------------------------------------------------------------------------
# Enumeration of the reduced integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedIntegral:
    """One closed-form integral of the reduction, in a single regulator.

    ``gauss`` is int_R |u|^q e^(-i rate T u^2) du and ``osc`` is
    int_0^inf r^q e^(sign i rate T r) dr; ``rate`` is a positive monomial.
    """

    kind: str  # gauss | osc
    q: AffineExp
    sign: int
    rate: ParamPoly


#: one reduced symbol's alternatives as (multiplier, integral) pairs
Alternatives = list[tuple[ParamPoly, ReducedIntegral]]


def _sign_split(poly: ParamPoly) -> tuple[int, ParamPoly]:
    mono = poly.single_monomial()
    if mono is None:
        raise UnsupportedStructure(f"phase coefficient is not a monomial: {poly.render()}")
    coeff, key = mono
    if coeff.imag != 0:
        raise UnsupportedStructure("phase coefficient must be real")
    sign = 1 if coeff.real > 0 else -1
    return sign, ParamPoly({key: abs(coeff.real)})


def _axis_alternatives(
    q: AffineExp, degree: int, g2: ParamPoly, g1: ParamPoly
) -> Alternatives:
    """One full-line axis integral int_R u^degree |u|^(share z) e^(-iT(g2 u^2 + g1 u)) du."""
    has2 = not g2.is_zero()
    has1 = not g1.is_zero()
    if has2 and has1:
        raise UnsupportedStructure("complete the square before reducing this axis")
    if has2:
        if degree % 2:
            return []
        sgn, rate = _sign_split(g2)
        if sgn < 0:
            raise UnsupportedStructure("quadratic phase coefficient must be positive")
        return [(ParamPoly.number(1.0), ReducedIntegral("gauss", q, 1, rate))]
    if has1:
        sgn, rate = _sign_split(g1)
        # u = direction * r: e^(-iT g1 u) = e^(-i sgn direction |g1| T r)
        return [
            (ParamPoly.number(complex(direction**degree)),
             ReducedIntegral("osc", q, -sgn * direction, rate))
            for direction in (1, -1)
        ]
    raise DegenerateCase("axis carries no phase; its gauge integral has no extension")


def _radial_alternatives(
    q: AffineExp, moment: ParamPoly, g2: ParamPoly, g1: ParamPoly
) -> Alternatives:
    """Radial integral over an N-dimensional group with its sphere moment attached."""
    has2 = not g2.is_zero()
    has1 = not g1.is_zero()
    if has2 and has1:
        raise UnsupportedStructure("complete the square before reducing this group")
    if has2:
        sgn, rate = _sign_split(g2)
        if sgn < 0:
            raise UnsupportedStructure("quadratic phase coefficient must be positive")
        return [(moment.scale(0.5), ReducedIntegral("gauss", q, 1, rate))]
    if has1:
        sgn, rate = _sign_split(g1)
        return [(moment, ReducedIntegral("osc", q, -sgn, rate))]
    raise DegenerateCase("radial group carries no phase")


def reduced_integrals(
    pieces: Sequence[IntegrandPiece],
    model: ModelSpec,
    phase: ReducedPhase,
    plan: GaugePlan,
) -> Iterator[tuple[ParamPoly, Fraction, Iterator[Alternatives]]]:
    """The reduction's only enumeration of closed-form integrals.

    Per piece, amplitude monomial and T power this yields the coefficient,
    the T power and a lazy iterator over the reduced symbols, group by
    group, giving each symbol's alternatives.  A branch picks one
    alternative per symbol and is worth the coefficient times the picked
    multipliers and integrals; handing branches out in this factored form
    evaluates each integral once.  A symbol with no alternatives (odd degree
    under a Gaussian, zero sphere moment) makes its item vanish.  Every
    structural check of the reduction runs here, as the iterator reaches
    the symbol.  Within one call each symbol's alternatives are computed
    once and then shared (the same list object) by every item with the same
    key: the symbol, its degree and the piece's oscillation sign, plus the
    direction degrees for a radial group.  A check that raises stores
    nothing, so it raises again, with the same message, at every item that
    reaches it.  ``reduce_pieces`` maps the integrals to table rows,
    ``oracle.model_quotient`` to quadratures.
    """
    memo: dict[tuple, Alternatives] = {}
    for piece in pieces:
        for mono_key, coeff in piece.amp.monomials():
            degrees = dict(mono_key)
            for t_power, poly in coeff.by_power(T).items():
                yield poly, t_power, _symbol_alternatives(piece, degrees, model, phase, plan, memo)


def _symbol_alternatives(
    piece: IntegrandPiece,
    degrees: Mapping[str, int],
    model: ModelSpec,
    phase: ReducedPhase,
    plan: GaugePlan,
    memo: dict[tuple, Alternatives],
) -> Iterator[Alternatives]:
    def phase_of(symbol: str) -> tuple[ParamPoly, ParamPoly]:
        g2 = phase.g2.get(symbol, ParamPoly.zero())
        g1 = phase.g1.get(symbol, ParamPoly.zero())
        if piece.osc_sign and phase.osc_symbol == symbol:
            g1 = g1 - phase.osc_coeff.scale(piece.osc_sign)
        return g2, g1

    consumed: set[str] = set()
    for group in model.groups:
        dim = len(group.axes)
        if group.reduction == "radial" and dim > 1:
            rsym = group.radius_symbol()
            hats = [f"{a}^" for a in group.axes]
            consumed |= {rsym, *hats}
            hat_degrees = tuple(degrees.get(h, 0) for h in hats)
            d = degrees.get(rsym, 0)
            key = (rsym, d, piece.osc_sign, hat_degrees)
            alternatives = memo.get(key)
            if alternatives is None:
                moment = angular_moment(hat_degrees, dim)
                if moment.is_zero():
                    alternatives = []
                else:
                    reg, _ = plan.shares[rsym]
                    q = AffineExp.of(reg, 1, d + dim - 1)
                    alternatives = _radial_alternatives(q, moment, *phase_of(rsym))
                memo[key] = alternatives
            yield alternatives
            continue
        # separable: axis by axis on the full line
        for a in group.axes:
            consumed.add(a)
            d = degrees.get(a, 0)
            key = (a, d, piece.osc_sign)
            alternatives = memo.get(key)
            if alternatives is None:
                reg, share = plan.shares[a]
                alternatives = _axis_alternatives(AffineExp.of(reg, share, d), d, *phase_of(a))
                memo[key] = alternatives
            yield alternatives
    leftovers = set(degrees) - consumed
    if leftovers:
        raise UnsupportedStructure(
            f"amplitude symbols outside any gauge group: {sorted(leftovers)}"
        )


def reduce_pieces(
    pieces: Sequence[IntegrandPiece],
    model: ModelSpec,
    phase: ReducedPhase,
    plan: GaugePlan,
    policy: BranchPolicy,
    rows: dict[tuple, ZetaTerm],
) -> ZetaTermSum:
    """Reduce integrand pieces to the canonical term sum, one term per branch.

    ``rows`` holds the table row of each distinct integral, keyed exactly
    (``_table_row``); a row is built on its first use and then shared by
    reference.  ``build_trace_sums`` passes one store to both of its calls,
    so the two sides share their rows.  A branch grows as its coefficient and
    the tuple of its picked rows, each scaled by its multiplier, and becomes
    one ``ZetaTerm`` at the end: the coefficient times every picked
    prefactor in pick order, the picked factors concatenated, the ``T``
    exponents summed and the evolution phase.  An alternatives list that
    ``reduced_integrals`` shares between items is turned into its scaled
    rows once.
    """
    out: list[ZetaTerm] = []
    # alternatives list id -> (the list, which keeps the id from reuse; its scaled rows)
    picks_of: dict[int, tuple[Alternatives, list[ZetaTerm]]] = {}
    for poly, t_power, symbols in reduced_integrals(pieces, model, phase, plan):
        branches: list[tuple[ParamPoly, tuple[ZetaTerm, ...]]] = [(poly * model.prefactor, ())]
        for alternatives in symbols:
            if id(alternatives) not in picks_of:
                picks_of[id(alternatives)] = (alternatives, [
                    _scaled(_table_row(integral, policy, rows), mult)
                    for mult, integral in alternatives
                ])
            picks = picks_of[id(alternatives)][1]
            branches = [
                (_times(coeff, row.coeff.prefactor), picked + (row,))
                for coeff, picked in branches
                for row in picks
            ]
        out.extend(
            _branch_term(coeff, picked, t_power, phase.const)
            for coeff, picked in branches
            if not coeff.is_zero()
        )
    return ZetaTermSum(out, model.regulators(), model.t_symbol)


# a product with a factor of exactly 1 is bit-identical to the other factor
def _times(coeff: ParamPoly, factor: ParamPoly) -> ParamPoly:
    return coeff if factor.is_one() else coeff * factor


def _scaled(row: ZetaTerm, mult: ParamPoly) -> ZetaTerm:
    return row if mult.is_one() else row.scaled(mult)


def _branch_term(
    coeff: ParamPoly,
    picked: tuple[ZetaTerm, ...],
    t_power: Fraction,
    phase: ParamPoly,
) -> ZetaTerm:
    # rows repeat across symbols: each distinct row's exponents times its multiplicity
    distinct: dict[int, list] = {}
    for row in picked:
        distinct.setdefault(id(row), [row, 0])[1] += 1
    t_lin: dict[str, Fraction] = {}
    t_const = t_power
    for row, n in distinct.values():
        t_const += n * row.t_const
        for reg, a in row.t_lin:
            t_lin[reg] = t_lin.get(reg, 0) + n * a
    factors = tuple(f for row in picked for f in row.coeff.factors)
    t_lin_items = tuple(sorted((reg, a) for reg, a in t_lin.items() if a != 0))
    return ZetaTerm(MeroFactorProduct(coeff, factors), t_lin_items, t_const, 0, phase)


def _table_row(
    integral: ReducedIntegral, policy: BranchPolicy, rows: dict[tuple, ZetaTerm]
) -> ZetaTerm:
    # exact key: the rate by its monomials and float coefficients, never by
    # ParamPoly's tolerant equality, which could alias two different rates
    rate = tuple(sorted(integral.rate.terms.items()))
    key = (integral.kind, integral.q, integral.sign, rate, policy.mode)
    row = rows.get(key)
    if row is None:
        if integral.kind == "gauss":
            row = gauss_radial(integral.q, policy, integral.rate)
        else:
            row = osc_linear(integral.q, integral.sign, policy, integral.rate)
        rows[key] = row
    return row


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------


#: one derivation step: its text, or a callable that renders the text when read
Step = str | Callable[[], str]


def _render_steps(steps: Sequence[Step]) -> list[str]:
    return [s if isinstance(s, str) else s() for s in steps]


@dataclass
class ExpectationResult:
    model: str
    observable: str
    value: ParamPoly | Divergent
    finite_t: TAsymptote | None
    branch: str
    series_order: int
    steps: list[Step] = field(default_factory=list)

    @property
    def trace(self) -> list[str]:
        """The derivation text, one line per step, rendered when read."""
        return _render_steps(self.steps)


def build_trace_sums(
    model: ModelSpec,
    observable: AxisPoly | MatrixSymbol,
    policy: BranchPolicy,
) -> tuple[ZetaTermSum, ZetaTermSum, list[Step]]:
    """Numerator and denominator term sums under the same gauge, and the steps so far.

    Both sums draw their table rows from one store, so each distinct row is
    built once per call.  The steps render the gauge and both sums only when
    the trace is read.
    """
    plan = apply_gauge(model)
    phase, evo = _build_phase(model)
    num_pieces = compose_observable(evo, observable)
    den_pieces = compose_observable(evo, AxisPoly.number(1))
    rows: dict[tuple, ZetaTerm] = {}
    num = reduce_pieces(num_pieces, model, phase, plan, policy, rows)
    den = reduce_pieces(den_pieces, model, phase, plan, policy, rows)
    tokens = sorted(model.tokens)
    steps: list[Step] = [
        lambda: f"gauge: {plan.render()}",
        f"reduce: numerator {len(num.terms)} terms, denominator {len(den.terms)} terms",
        lambda: f"numerator = {num.render(tokens)}",
        lambda: f"denominator = {den.render(tokens)}",
    ]
    return num, den, steps


def expectation(
    model: ModelSpec,
    observable_name: str,
    policy: BranchPolicy = PAPER,
    series_order: int = DEFAULT_ORDER,
) -> ExpectationResult:
    obs = model.observables[observable_name]
    num, den, steps = build_trace_sums(model, obs, policy)
    try:
        finite_t = ratio_limit(num, den, series_order, trace=steps)
    except DivergentLimit as exc:
        return ExpectationResult(
            model.name, observable_name, Divergent(str(exc)), None,
            policy.mode, series_order, steps + [f"limit: divergent ({exc})"],
        )
    value = thermal_limit(finite_t)
    steps.append(
        lambda: f"regulator limits: finite-{model.t_symbol} value = {finite_t.render()}"
    )
    steps.append(
        lambda: "thermal limit: "
        + (value.render() if isinstance(value, ParamPoly) else repr(value))
    )
    return ExpectationResult(
        model.name, observable_name, value, finite_t, policy.mode, series_order, steps
    )


# ---------------------------------------------------------------------------
# Trace at zero for non-critical homogeneous amplitudes
# ---------------------------------------------------------------------------


@dataclass
class KVAmplitudeSpec:
    """Amplitude data for the closed trace-at-zero formula.

    Homogeneous terms (degree, log order, angular part) are supported on
    ||xi|| >= 1.  An angular part is either a constant ParamPoly (multiplied
    by the sphere volume; zero diagonal phase) or a callable returning the
    already-integrated sphere value, which is how a nonzero diagonal phase
    enters.  The unit-ball and integrable remainders are numeric payloads.
    """

    dimension: int
    terms: tuple[tuple[Fraction, int, ParamPoly | Callable[[], complex]], ...] = ()
    vol_x: ParamPoly = field(default_factory=ParamPoly.one)
    ball_payload: Callable[[], complex] | None = None
    integrable_payload: Callable[[], complex] | None = None

    def __post_init__(self):
        for d, l, _ in self.terms:
            if l < 0:
                raise UnsupportedStructure("log order must be nonnegative")


def kv_trace_at_zero(spec: KVAmplitudeSpec) -> ParamPoly:
    """Sum of the three trace-at-zero contributions.

    The homogeneous part contributes
    (-1)^(l+1) l! * vol(X) * int_sphere(angular) / (N + d)^(l+1)
    per term; degrees d = -N are critical and rejected.  A factor
    l!/(N + d)^(l+1) that leaves the float range is a ``NumericOverflow``.
    """
    n = spec.dimension
    total = ParamPoly.zero()
    if spec.ball_payload is not None:
        total = total + ParamPoly.number(complex(spec.ball_payload()))
    if spec.integrable_payload is not None:
        total = total + ParamPoly.number(complex(spec.integrable_payload()))
    for i, (d, l, angular) in enumerate(spec.terms, start=1):
        d = _fraction(d)
        if d == -n:
            raise CriticalDegree(f"degree {d} is critical in dimension {n}")
        if callable(angular):
            sphere = ParamPoly.number(complex(angular()))
        else:
            sphere = angular * angular_moment((), n)
        try:
            if l > 170:  # 171! is past the float range, and a far larger l! is slow to form
                raise OverflowError
            factor = ((-1) ** (l + 1)) * math.factorial(l) / float(n + d) ** (l + 1)
        except (OverflowError, ZeroDivisionError):  # or the power underflows to 0
            raise NumericOverflow(
                f"term {i}: l!/(N + d)^(l+1) leaves the float range (N = {n}, l = {l})"
            ) from None
        total = total + (spec.vol_x * sphere).scale(factor)
    return total


# ---------------------------------------------------------------------------
# Effective potential for constant background fields
# ---------------------------------------------------------------------------


@dataclass
class PotentialResult:
    potential: ParamPoly  # V(field) after the volume limit
    critical_points: list[ParamPoly]
    minima: list[ParamPoly]
    masses: list[ParamPoly]
    residual: TAsymptote
    steps: list[Step] = field(default_factory=list)

    @property
    def trace(self) -> list[str]:
        """The derivation text, one line per step, rendered when read."""
        return _render_steps(self.steps)


def effective_potential(
    model: ModelSpec,
    policy: BranchPolicy = PAPER,
    series_order: int = DEFAULT_ORDER,
) -> PotentialResult:
    """ln Z / (-i T X) for a constant field, then extrema and masses.

    The partition function must reduce to e^(-i T X P(field)) times a positive
    monomial times a numeric phase; the logarithm is then taken structurally
    and the non-polynomial remainder vanishes in the volume limit.
    """
    if model.kind != "potential" or model.field_param is None:
        raise UnsupportedStructure(f"model {model.name} is not a potential model")
    plan = apply_gauge(model)
    phase, evo = _build_phase(model)
    z_sum = reduce_pieces(
        compose_observable(evo, AxisPoly.number(1)), model, phase, plan, policy, {}
    )
    z0 = value_at_zero(z_sum, series_order)
    if len(z0.terms) != 1:
        raise LogOfNonmonomial("partition function is not a single structured term")
    t = z0.terms[0]
    pot = -t.phase  # ln e^(i phase T X) / (-i T X) = -phase
    mono = t.coeff.single_monomial()
    if mono is None:
        raise LogOfNonmonomial(f"residual factor is not a monomial: {t.coeff.render()}")
    residual = TAsymptote([t], model.t_symbol)

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
            if all(not mass.almost_equal(m) for m in masses):
                masses.append(mass)
    steps: list[Step] = [
        lambda: f"gauge: {plan.render()}",
        lambda: f"partition sum = {z_sum.render(sorted(model.tokens))}",
        lambda: (
            f"V = {pot.render()} + ln({t.coeff.render()} * {model.t_symbol}^{t.t_power}) "
            f"/ (-i*{model.t_symbol})"
        ),
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
