import cmath
import math
import pickle
import re
import signal
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetatrace import rational
from zetatrace.engine import build_trace_sums
from zetatrace.errors import DivergentLimit, PoleAtZero, UnsupportedStructure
from zetatrace.laurent import (
    MAX_ORDER,
    FactorKind,
    MeroFactorProduct,
    PrimitiveFactor,
    expand_factor,
    expand_product,
    positive_base,
)
from zetatrace.models import harmonic_oscillator_1d, schwinger_boson_mass, topological_oscillator
from zetatrace.params import ExpKey, ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL, AffineExp, osc_linear
from zetatrace.terms import (
    Divergent,
    TAsymptote,
    TAsymTerm,
    ZetaTerm,
    ZetaTermSum,
    _expand_sum_in,
    _merge_tlin,
    _pair_key,
    divide_by_reference,
    ratio_limit,
    thermal_limit,
    value_at_zero,
)

import lanczos
from term_scaling import scaled
from factor_values import product_value
from fits import decay_exponent


GAMMA_Z = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (0, 1))  # Gamma(z)
T_MINUS_Z = (("z", (-1, 1)),)  # the slopes of T^-z


def gamma_term(sign=1.0, t_lin=()):
    """sign * Gamma(z) * T^(t_lin . z)."""
    return ZetaTerm(MeroFactorProduct(ParamPoly.number(sign), (GAMMA_Z,)), t_lin=t_lin)


def test_value_at_zero_cancelled_poles_leave_log():
    # Gamma(z) T^(-z) - Gamma(z): the 1/z poles cancel, the cross term is -ln T
    s = ZetaTermSum([gamma_term(1.0, T_MINUS_Z), gamma_term(-1.0)])
    ta = value_at_zero(s)
    assert len(ta.terms) == 1
    t = ta.terms[0]
    assert t.t_power == 0 and t.log_power == 1
    assert t.coeff.eval() == pytest.approx(-1.0)
    # numeric witness: Gamma(z)(T^-z - 1) at small z, T = 10, extrapolated in z
    T = 10.0
    f = lambda z: lanczos.gamma(z) * (T**-z - 1)
    direct = 2 * f(5e-5) - f(1e-4)
    assert ta.eval({}, T) == pytest.approx(direct, rel=1e-6)


def test_value_at_zero_constant():
    s = ZetaTermSum([ZetaTerm(MeroFactorProduct(ParamPoly.number(3.25)))])
    ta = value_at_zero(s)
    assert [(t.t_power, t.log_power) for t in ta.terms] == [(0, 0)]
    assert ta.terms[0].coeff.eval() == pytest.approx(3.25)


def test_value_at_zero_reports_uncancelled_pole():
    s = ZetaTermSum([gamma_term(1.0, T_MINUS_Z)])
    with pytest.raises(PoleAtZero) as err:
        value_at_zero(s)
    assert err.value.order == 1


def osc_sum(terms, regulators=("z",)):
    return ZetaTermSum(terms, regulators)


def q(b):
    return AffineExp("z", rational.ONE, (b, 1))


def test_ratio_limit_fermion_reduction_chain():
    """The displayed 3+1-dimensional reduction: both sides vanish at z = 0 and the
    z^1 coefficients leave m - 3/T under the conventional Laplace phases."""
    m = ParamPoly.var("m")
    den_terms = [osc_linear(q(2), +1, PAPER), osc_linear(q(2), -1, PAPER)]
    num_terms = [scaled(t, m) for t in den_terms]
    # -i * (osc(z+3,+) - osc(z+3,-)) reproduces the displayed numerator
    num_terms.append(scaled(osc_linear(q(3), +1, PAPER), ParamPoly.number(-1j)))
    num_terms.append(scaled(osc_linear(q(3), -1, PAPER), ParamPoly.number(1j)))
    ta = ratio_limit(osc_sum(num_terms), osc_sum(den_terms))
    for t_value in (10.0, 100.0):
        got = ta.eval({"m": 1.3}, t_value)
        assert got == pytest.approx(1.3 - 3.0 / t_value, rel=1e-12)


def test_ratio_limit_identity():
    terms = [osc_linear(q(2), +1, PAPER), osc_linear(q(2), -1, PAPER)]
    ta = ratio_limit(osc_sum(list(terms)), osc_sum(list(terms)))
    assert thermal_limit(ta).eval() == pytest.approx(1.0)


def test_ratio_limit_boson_chain_decays_like_one_over_t():
    """Gamma((z+3)/2)(2/T)^((z+3)/2)-type over Gamma((z+1)/2)(2/T)^((z+1)/2)-type."""
    half = ParamPoly.number(0.5)
    num = ZetaTerm(
        MeroFactorProduct(
            ParamPoly.one(),
            (
                PrimitiveFactor(FactorKind.GAMMA, (1, 2), (3, 2)),
                PrimitiveFactor(FactorKind.EXP_IPI, (-1, 4), (-3, 4)),
                PrimitiveFactor(FactorKind.CONST_POW, (-1, 2), (-3, 2), base=positive_base(half)),
            ),
        ),
        t_lin=(("z", (-1, 2)),),
        t_const=(-3, 2),
    )
    den = ZetaTerm(
        MeroFactorProduct(
            ParamPoly.one(),
            (
                PrimitiveFactor(FactorKind.GAMMA, (1, 2), (1, 2)),
                PrimitiveFactor(FactorKind.EXP_IPI, (-1, 4), (-1, 4)),
                PrimitiveFactor(FactorKind.CONST_POW, (-1, 2), (-1, 2), base=positive_base(half)),
            ),
        ),
        t_lin=(("z", (-1, 2)),),
        t_const=(-1, 2),
    )
    ta = ratio_limit(osc_sum([num]), osc_sum([den]))
    assert len(ta.terms) == 1
    assert ta.terms[0].t_power == -1
    assert isinstance(thermal_limit(ta), ParamPoly)
    assert thermal_limit(ta).is_zero()
    exponent = decay_exponent(lambda t: ta.eval({}, t), [10, 20, 40, 80])
    assert exponent == pytest.approx(-1.0, abs=0.01)


def test_ratio_limit_divergent_when_denominator_vanishes_faster():
    num = osc_sum([gamma_term(1.0)])  # Gamma(z): pole of order 1
    den = osc_sum([ZetaTerm(MeroFactorProduct(ParamPoly.one()))])
    with pytest.raises(DivergentLimit):
        ratio_limit(num, den)


def test_ratio_limit_zero_when_numerator_vanishes_faster():
    num = osc_sum([ZetaTerm(MeroFactorProduct(ParamPoly.one()))])
    den = osc_sum([gamma_term(1.0)])
    ta = ratio_limit(num, den)
    assert not ta.terms


def test_phase_cancellation_between_numerator_and_denominator():
    phase = ParamPoly.var("m").scale(-1)
    n = ZetaTermSum([ZetaTerm(MeroFactorProduct(ParamPoly.var("m")), phase=phase)])
    d = ZetaTermSum([ZetaTerm(MeroFactorProduct(ParamPoly.one()), phase=phase)])
    assert thermal_limit(ratio_limit(n, d)) == ParamPoly.var("m")


def test_thermal_limit_cases():
    m = ParamPoly.var("m")
    # m - 3/T -> m
    ta = TAsymptote([TAsymTerm(m), TAsymTerm(ParamPoly.number(-3), Fraction(-1))])
    assert thermal_limit(ta) == m
    # e^2/pi + c/T -> e^2/pi
    val = ParamPoly.monomial(1, {"e": Fraction(2), "pi": Fraction(-1)})
    ta2 = TAsymptote([TAsymTerm(val), TAsymTerm(ParamPoly.number(-1j), Fraction(-1))])
    assert thermal_limit(ta2) == val
    # ln T -> divergent
    ta3 = TAsymptote([TAsymTerm(ParamPoly.one(), Fraction(0), 1)])
    assert isinstance(thermal_limit(ta3), Divergent)


def test_thermal_limit_rejects_surviving_oscillation():
    ta = TAsymptote([TAsymTerm(ParamPoly.one(), phase=ParamPoly.var("omega"))])
    out = thermal_limit(ta)
    assert isinstance(out, Divergent)
    assert "oscillatory" in out.reason


def test_value_at_zero_linearity():
    s1 = ZetaTermSum([gamma_term(1.0, T_MINUS_Z), gamma_term(-1.0)])
    s2 = ZetaTermSum([ZetaTerm(MeroFactorProduct(ParamPoly.number(2.0)))])
    joint = value_at_zero(ZetaTermSum(s1.terms + s2.terms))
    a, b = value_at_zero(s1), value_at_zero(s2)
    for t_value in (3.0, 7.0):
        assert joint.eval({}, t_value) == pytest.approx(a.eval({}, t_value) + b.eval({}, t_value))


SUM_POOL = [
    lambda: osc_sum([osc_linear(q(0), +1, PAPER)]),
    lambda: osc_sum([osc_linear(q(1), +1, PAPER), osc_linear(q(1), -1, PAPER)]),
    lambda: osc_sum([osc_linear(q(2), +1, PRINCIPAL), osc_linear(q(2), -1, PRINCIPAL)]),
    lambda: osc_sum([gamma_term(2.0, T_MINUS_Z), gamma_term(-2.0)]),
    lambda: osc_sum([ZetaTerm(MeroFactorProduct(ParamPoly.var("m")), t_const=(-2, 1))]),
]


@given(st.sampled_from(SUM_POOL))
def test_ratio_limit_of_sum_with_itself_is_one(make):
    s = make()
    ta = ratio_limit(s, s)
    assert thermal_limit(ta).eval() == pytest.approx(1.0)


def test_ratio_limit_unresolved_zero_over_zero_escalates_then_fails():
    from zetatrace.errors import ZeroOverZeroUnresolved

    pair = [
        ZetaTerm(MeroFactorProduct(ParamPoly.one())),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-1.0))),
    ]
    with pytest.raises(ZeroOverZeroUnresolved):
        ratio_limit(osc_sum(list(pair)), osc_sum(list(pair)))


@pytest.mark.xfail(strict=True, raises=UnsupportedStructure,
                   reason="the lead denominator coefficient 2 + ln(1/2) is not a monomial, so it has no inverse")
def test_ratio_limit_divides_by_a_lead_coefficient_with_a_formal_log():
    # z / ((1/2)^z - 1 + 2z): both sides vanish at z = 0, and the z^1 coefficients leave 1/(2 + ln(1/2));
    # the numeric quotient z/(2^-z - 1 + 2z) converges there
    z = PrimitiveFactor(FactorKind.AFFINE, (1, 1), (0, 1))
    half_z = PrimitiveFactor(FactorKind.CONST_POW, (1, 1), (0, 1), base=positive_base(ParamPoly.number(0.5)))
    num = osc_sum([ZetaTerm(MeroFactorProduct(ParamPoly.one(), (z,)))])
    den = osc_sum([
        ZetaTerm(MeroFactorProduct(ParamPoly.one(), (half_z,))),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-1.0))),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(2.0), (z,))),
    ])
    value = thermal_limit(ratio_limit(num, den)).eval()
    assert value == pytest.approx(1 / (2 + math.log(0.5)), rel=1e-12)


def test_multi_regulator_sequential_elimination():
    # f(z1) * g(z2) / (same structure): regular values per regulator
    t = ZetaTerm(
        MeroFactorProduct(
            ParamPoly.number(2.0),
            (
                PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 1), regulator="z1"),
                PrimitiveFactor(FactorKind.AFFINE, (1, 1), (3, 1), regulator="z2"),
            ),
        ),
    )
    d = ZetaTerm(
        MeroFactorProduct(
            ParamPoly.one(),
            (PrimitiveFactor(FactorKind.AFFINE, (1, 1), (3, 1), regulator="z2"),),
        ),
    )
    ta = ratio_limit(
        ZetaTermSum([t], ("z1", "z2")), ZetaTermSum([d], ("z1", "z2"))
    )
    assert thermal_limit(ta).eval() == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Division by a reference denominator term
# ---------------------------------------------------------------------------


def _model_sums(make):
    model = make()
    (obs,) = model.observables.values()
    num, den, _ = build_trace_sums(model, obs, PAPER)
    return num, den, model.default_bindings()


def _fermion_chain():
    m = ParamPoly.var("m")
    den = [osc_linear(q(2), +1, PAPER), osc_linear(q(2), -1, PAPER)]
    num = [scaled(t, m) for t in den]
    num.append(scaled(osc_linear(q(3), +1, PAPER), ParamPoly.number(-1j)))
    num.append(scaled(osc_linear(q(3), -1, PAPER), ParamPoly.number(1j)))
    return osc_sum(num), osc_sum(den), {"m": 1.3}


def _log_chain():
    # (Gamma(z) T^-z - Gamma(z)) / (2 Gamma(z+1)) -> -ln(T)/2
    gamma_1 = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 1))
    den = ZetaTerm(MeroFactorProduct(ParamPoly.number(2.0), (gamma_1,)))
    return osc_sum([gamma_term(1.0, T_MINUS_Z), gamma_term(-1.0)]), osc_sum([den]), {}


def _mixed_chain():
    """Terms that lack the reference's phase or Gamma, or carry a power of another base."""
    m, half = ParamPoly.var("m"), ParamPoly.number(0.5)
    power = partial(PrimitiveFactor, FactorKind.CONST_POW)

    def term(coeff, factors, t_lin=(), t_const=rational.ZERO):
        return ZetaTerm(MeroFactorProduct(coeff, factors), t_lin, t_const)

    den = [
        term(ParamPoly.one(), (
            PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 1)),
            PrimitiveFactor(FactorKind.EXP_IPI, (1, 4), (0, 1)),
            power((1, 2), (1, 2), base=positive_base(half)),
        ), T_MINUS_Z),
        term(half, (
            PrimitiveFactor(FactorKind.GAMMA, (1, 3), (2, 3)),
            power((1, 1), (0, 1), base=positive_base(ParamPoly.number(3.0))),
        )),
    ]
    num = [
        term(m.scale(3.0), (
            PrimitiveFactor(FactorKind.GAMMA, (1, 1), (2, 1)),
            PrimitiveFactor(FactorKind.EXP_IPI, (1, 2), (1, 2)),
            power((1, 1), (1, 1), base=positive_base(half)),
        ), T_MINUS_Z, (-1, 1)),
        term(m.scale(1.5), (
            power((1, 1), (0, 1), base=positive_base(ParamPoly.monomial(2.0, {"a": 1}))),
        ), t_const=(-1, 1)),
    ]
    return osc_sum(num), osc_sum(den), {"m": 1.3}


def _cancelling_chain():
    """Both sides vanish at z = 0, so the slopes of unpaired factors set the limit."""
    m = ParamPoly.var("m")
    # no const_pow here: its ln(base) would leave a non-monomial lead denominator
    shared = (PrimitiveFactor(FactorKind.EXP_IPI, (1, 2), (0, 1)),)
    gamma_1 = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 1))
    # a Gamma of another slope: no partner for the reference's Gamma(z+1)
    gamma_half = PrimitiveFactor(FactorKind.GAMMA, (1, 2), (1, 1))
    den = [
        ZetaTerm(MeroFactorProduct(ParamPoly.one(), (gamma_1,) + shared)),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-1.0), (gamma_half,))),
    ]
    num = [
        ZetaTerm(MeroFactorProduct(m, (gamma_1,) + shared), t_lin=T_MINUS_Z),
        ZetaTerm(MeroFactorProduct(-m, (gamma_half,))),
    ]
    return osc_sum(num), osc_sum(den), {"m": 1.3}


RATIO_POOL = [
    _fermion_chain,
    _log_chain,
    _mixed_chain,
    _cancelling_chain,
    lambda: _model_sums(harmonic_oscillator_1d),
    lambda: _model_sums(topological_oscillator),
    lambda: _model_sums(schwinger_boson_mass),
]

_LEAD_RE = re.compile(r"limit (\w+) -> 0: lead orders num = (\S+), den = (\S+) ")


def _lead_orders(trace):
    return [m.groups() for m in map(_LEAD_RE.match, trace) if m]


def _quotient_near_zero(num, den, bindings, t_value, eps=1e-5):
    """n(z)/d(z) on the regulator diagonal, Richardson-extrapolated to z = 0."""

    def value(s, z):
        total = 0j
        for t in s.terms:
            power = sum(rational.to_float(a) for _, a in t.t_lin) * z + rational.to_float(t.t_const)
            v = product_value(t.coeff, z, bindings) * t_value**power
            v *= math.log(t_value) ** t.t_log * cmath.exp(1j * t.phase.eval(bindings) * t_value)
            total += v
        return total

    q = lambda z: value(num, z) / value(den, z)
    return 2 * q(eps) - q(2 * eps)


@pytest.mark.parametrize("make", RATIO_POOL)
def test_ratio_limit_matches_the_quotient_near_zero(make):
    num, den, bindings = make()
    ta = ratio_limit(num, den)
    point = {**bindings, "a": 0.8}
    for t_value in (7.0, 23.0):
        expected = _quotient_near_zero(num, den, point, t_value)
        assert ta.eval(point, t_value) == pytest.approx(expected, rel=1e-6)


@st.composite
def common_factors(draw, regulators):
    """A ZetaTerm of Gammas (shifted, fresh, with a pole), phases, powers and T^(a z)."""
    reg = lambda: draw(st.sampled_from(regulators))
    gamma = partial(PrimitiveFactor, FactorKind.GAMMA)
    factors = [
        gamma((1, 2), (2 * draw(st.integers(0, 3)) + 1, 2), regulator=reg())
        for _ in range(draw(st.integers(0, 2)))
    ]  # integer shifts of the Gamma(z/2 + 1/2) class the Gaussian tables produce
    factors += [
        gamma(rational.ONE, (draw(st.integers(1, 3)), 1), regulator=reg())
        for _ in range(draw(st.integers(0, 1)))
    ]
    if draw(st.booleans()):  # a class no table produces
        factors.append(gamma((1, 3), (2, 3), regulator=reg()))
    if draw(st.booleans()):  # a pole at z = 0
        factors.append(gamma(rational.ONE, (-draw(st.integers(0, 1)), 1), regulator=reg()))
    fracs = st.sampled_from([(0, 1), (-1, 4), (1, 2), (3, 2)])
    for _ in range(draw(st.integers(0, 2))):
        factors.append(PrimitiveFactor(FactorKind.EXP_IPI, draw(fracs), draw(fracs), regulator=reg()))
    bases = st.sampled_from([ParamPoly.number(0.5), ParamPoly.monomial(2.0, {"a": 1})]).map(positive_base)
    for _ in range(draw(st.integers(0, 2))):
        base = draw(bases)
        power = PrimitiveFactor(FactorKind.CONST_POW, draw(fracs), draw(fracs), base=base, regulator=reg())
        factors.append(power)
    prefactor = draw(st.sampled_from([1.0, -2.5, 0.5j, 3.0 - 1.0j]))
    slopes = [(r, draw(fracs)) for r in regulators]
    return ZetaTerm(
        MeroFactorProduct(ParamPoly.number(prefactor), tuple(draw(st.permutations(factors)))),
        t_lin=tuple((r, a) for r, a in slopes if a != rational.ZERO),
        t_const=draw(fracs),
    )


@given(st.data())
def test_ratio_limit_invariant_under_a_common_factor(data):
    """n*c / d*c has the same limit as n/d; the traced lead orders shift by c's order."""
    num, den, bindings = data.draw(st.sampled_from(RATIO_POOL))()
    c = data.draw(common_factors(num.regulators))
    base_trace, trace = [], []
    base = ratio_limit(num, den, trace=base_trace)

    def with_c(s):
        return ZetaTermSum([
            ZetaTerm(
                MeroFactorProduct(t.coeff.prefactor * c.coeff.prefactor, t.coeff.factors + c.coeff.factors),
                _merge_tlin(t.t_lin, c.t_lin), rational.add(t.t_const, c.t_const), t.t_log, t.phase,
            )
            for t in s.terms
        ], s.regulators, s.t_symbol)

    got = ratio_limit(with_c(num), with_c(den), trace=trace)
    points = [({**bindings, "a": 0.8}, 7.0), ({**bindings, "a": 1.7}, 23.0)]
    for point, t_value in points:
        assert got.eval(point, t_value) == pytest.approx(base.eval(point, t_value), rel=1e-9)
    order = {r: 0 for r in num.regulators}
    for f in c.coeff.factors:
        order[f.regulator] -= f.pole_order()
    shifted = [
        (r, str(int(pn) + order[r]), str(int(pd) + order[r]))
        for r, pn, pd in _lead_orders(base_trace)
    ]
    assert _lead_orders(trace) == shifted


def test_reference_with_a_pole_leaves_affine_factors_at_offset_zero():
    # (m Gamma(z) T^-z + Gamma(z+1)/T) / (Gamma(z) T^-z + Gamma(z+2)): r = Gamma(z) T^-z
    def term(coeff, beta, t_lin=(), t_const=rational.ZERO):
        gamma = PrimitiveFactor(FactorKind.GAMMA, rational.ONE, (beta, 1))
        return ZetaTerm(MeroFactorProduct(coeff, (gamma,)), t_lin=t_lin, t_const=t_const)

    m = ParamPoly.var("m")
    num = osc_sum([term(m, 0, T_MINUS_Z), term(ParamPoly.one(), 1, t_const=(-1, 1))])
    den = osc_sum([term(ParamPoly.one(), 0, T_MINUS_Z), term(ParamPoly.one(), 2)])
    n_div, d_div, orders = divide_by_reference(num, den)
    assert orders == {"z": -1}
    assert n_div.terms[0].coeff.factors == () and d_div.terms[0].coeff.factors == ()
    z, z_plus_1 = (PrimitiveFactor(FactorKind.AFFINE, (1, 1), (b, 1)) for b in (0, 1))
    assert n_div.terms[1].coeff.factors == (z,)
    assert d_div.terms[1].coeff.factors == (z, z_plus_1)
    assert n_div.terms[1].t_lin == (("z", (1, 1)),)
    trace = []
    ta = ratio_limit(num, den, trace=trace)
    assert _lead_orders(trace) == [("z", "-1", "-1")]
    assert thermal_limit(ta) == m
    assert ta.eval({"m": 1.3}, 10.0) == pytest.approx(1.3, rel=1e-12)


def test_division_pairs_factors_within_their_regulator():
    def term(*factors):
        return ZetaTerm(MeroFactorProduct(ParamPoly.one(), factors))

    e = partial(PrimitiveFactor, FactorKind.EXP_IPI)
    regs = ("z1", "z2")
    den = ZetaTermSum([term(e((1, 2), (0, 1), regulator="z1"), e((1, 1), (1, 2), regulator="z2"))], regs)
    num = ZetaTermSum([term(e((1, 1), (1, 1), regulator="z2"), e((1, 2), (0, 1), regulator="z1"))], regs)
    n_div, d_div, orders = divide_by_reference(num, den)
    assert orders == {}
    assert d_div.terms[0].coeff.factors == ()
    assert n_div.terms[0].coeff.factors == (e((0, 1), (1, 2), regulator="z2"),)


def gamma_quotient(b, r):
    """Gamma(z + b) / Gamma(z + r) as the affine factors division leaves."""
    if b >= r:
        return [PrimitiveFactor(FactorKind.AFFINE, (1, 1), (j, 1)) for j in range(r, b)]
    return [PrimitiveFactor(FactorKind.AFFINE, (1, 1), (j, 1), power=-1) for j in range(r - 1, b - 1, -1)]


@given(st.data())
def test_division_pairs_each_divisor_gamma_with_the_first_nearest_partner(data):
    """Exact offsets and the nearest-offset fallback pick what a plain nearest-first scan
    over the copies of each Gamma, in the products' canonical order, picks."""
    offsets = data.draw(st.lists(st.integers(-2, 4), min_size=1, max_size=5))
    refs = data.draw(st.lists(st.integers(-2, 4), min_size=1, max_size=len(offsets)))
    g = lambda b: PrimitiveFactor(FactorKind.GAMMA, (1, 1), (b, 1))
    num_product = MeroFactorProduct(ParamPoly.one(), tuple(g(b) for b in offsets))
    den_product = MeroFactorProduct(ParamPoly.one(), tuple(g(r) for r in refs))
    n_div, d_div, _ = divide_by_reference(osc_sum([ZetaTerm(num_product)]), osc_sum([ZetaTerm(den_product)]))
    copies = lambda p: [f.beta[0] for f in p.factors for _ in range(f.power)]
    free = list(enumerate(copies(num_product)))
    slots = [[g(b)] for _, b in free]
    for r in copies(den_product):
        k = min(range(len(free)), key=lambda k: abs(free[k][1] - r))
        i, b = free.pop(k)
        slots[i] = gamma_quotient(b, r)
    assert n_div.terms[0].coeff.factors == MeroFactorProduct(
        ParamPoly.one(), tuple(x for slot in slots for x in slot)
    ).factors
    assert d_div.terms[0].coeff.factors == ()


def test_unpaired_phases_are_inverted_in_every_term():
    e = partial(PrimitiveFactor, FactorKind.EXP_IPI)
    one = lambda *factors: ZetaTerm(MeroFactorProduct(ParamPoly.one(), factors))
    den = osc_sum([one(e((1, 2), (1, 1)))])
    num = osc_sum([one(), one(GAMMA_Z), one(e((1, 2), (0, 1)))])
    n_div, d_div, _ = divide_by_reference(num, den)
    inverse = e((-1, 2), (-1, 1))
    assert [t.coeff.factors for t in n_div.terms] == [
        (inverse,), (GAMMA_Z, inverse), (e((0, 1), (-1, 1)),)
    ]
    assert d_div.terms[0].coeff.factors == ()


@pytest.mark.parametrize("kind", [FactorKind.EXP_IPI, FactorKind.CONST_POW])
def test_division_leaves_one_factor_per_phase_or_base(kind):
    """e^(i pi (z/2 - 1/4 + 3/2)) over e^(i pi (-1/4)) e^(i pi 3/2) is the one factor
    e^(-i pi z/2): pairing one by one left e^(i pi (-z/2 - 1/4)) e^(i pi 7/4) e^(i pi (-3/2))."""
    base = positive_base(ParamPoly.number(0.5)) if kind == FactorKind.CONST_POW else None
    f = lambda a, b: PrimitiveFactor(kind, a, b, base=base)
    one = lambda *factors: ZetaTerm(MeroFactorProduct(ParamPoly.one(), factors))
    common = (f((0, 1), (-1, 4)), f((0, 1), (3, 2)))
    den = osc_sum([one(f((1, 2), (0, 1)), *common), one(*common), one(*common[:1])])
    _, d_div, _ = divide_by_reference(osc_sum([]), den)
    assert [t.coeff.factors for t in d_div.terms] == [(), (f((-1, 2), (0, 1)),), (f((-1, 2), (-3, 2)),)]


def test_common_constant_phases_leave_the_limit_unchanged():
    # with the three phases above left in a term, whose float product is not
    # exactly 1, the denominator's lead coefficients no longer cancelled
    num, den, bindings = _cancelling_chain()
    common = tuple(PrimitiveFactor(FactorKind.EXP_IPI, (0, 1), b) for b in ((-1, 4), (3, 2)))
    with_common = lambda s: osc_sum([
        ZetaTerm(MeroFactorProduct(t.coeff.prefactor, t.coeff.factors + common), t.t_lin) for t in s.terms
    ])
    trace = []
    got = ratio_limit(with_common(num), with_common(den), trace=trace)
    assert _lead_orders(trace) == [("z", "1", "1")]
    assert got.eval(bindings, 7.0) == pytest.approx(ratio_limit(num, den).eval(bindings, 7.0), rel=1e-12)


def test_merged_drops_only_buckets_that_cancel_exactly():
    near = ParamPoly.number(-1.0 + 1e-11)
    s = ZetaTermSum([
        ZetaTerm(MeroFactorProduct(ParamPoly.number(1.0))),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(2.0)), t_const=(1, 1)),
        ZetaTerm(MeroFactorProduct(near)),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(0.5)), t_const=(2, 1)),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-0.5)), t_const=(2, 1)),
    ])
    merged = s.merged().terms
    assert [t.t_const for t in merged] == [(0, 1), (1, 1)]
    assert merged[0].coeff.prefactor.terms == {(): 1.0 + (-1.0 + 1e-11)}


def test_phases_that_differ_in_the_last_digits_are_not_merged():
    w = ParamPoly.var("w")
    w_near = ParamPoly.var("w", coeff=1 + 1e-13)
    s = ZetaTermSum([ZetaTerm(MeroFactorProduct(ParamPoly.one()), phase=p) for p in (w, w_near, w)])
    assert [t.phase.terms for t in s.merged().terms] == [w.terms, w_near.terms]
    asym = TAsymptote([TAsymTerm(ParamPoly.one(), phase=p) for p in (w, w_near, w)])
    assert [t.phase.terms for t in asym.terms] == [w.terms, w_near.terms]
    assert [t.coeff.terms for t in asym.terms] == [{(): 2.0}, {(): 1.0}]


def test_merged_keys_factors_as_a_multiset():
    g = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 2))
    e = PrimitiveFactor(FactorKind.EXP_IPI, (1, 1), (0, 1))
    s = ZetaTermSum([
        ZetaTerm(MeroFactorProduct(ParamPoly.number(1.0), (g, e, g))),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(2.0), (g, g, e))),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(4.0), (g, e, e))),
    ])
    merged = s.merged().terms
    assert [t.coeff.factors for t in merged] == [(g.raised(2), e), (g, e.raised(2))]
    assert [t.coeff.prefactor.terms for t in merged] == [{(): 3.0}, {(): 4.0}]


one_factor_of_each_kind = pytest.mark.parametrize("make", [
    lambda: PrimitiveFactor(FactorKind.GAMMA, (1, 2), (-1, 1), regulator="z2"),
    lambda: PrimitiveFactor(FactorKind.EXP_IPI, (-1, 4), (3, 4)),
    lambda: PrimitiveFactor(FactorKind.AFFINE, (2, 1), (1, 3), power=-2),
    lambda: PrimitiveFactor(
        FactorKind.CONST_POW, (1, 1), (0, 1),
        base=positive_base(ParamPoly.monomial(2 / 9, {"J": Fraction(1, 2)})), regulator="z1",
    ),
], ids=["gamma", "half-turn", "affine", "const-pow"])


@one_factor_of_each_kind
def test_primitive_factor_hash_contract(make):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) == hash(b)
    fields = (a.kind, a.alpha, a.beta, a.power, a.base, a.regulator)
    assert a != fields and fields != a
    assert a != type("Twin", (PrimitiveFactor,), {"__slots__": ()})(*fields)
    for i, other in enumerate([FactorKind.AFFINE, (3, 1), (5, 7), 4, (1.5, ExpKey()), "z9"]):
        if other != fields[i]:
            assert PrimitiveFactor(*fields[:i], other, *fields[i + 1:]) != a, i
    loaded = pickle.loads(pickle.dumps(a))
    assert loaded == b and hash(loaded) == hash(b)
    assert loaded.fold_key == b.fold_key


@one_factor_of_each_kind
def test_an_unpickled_factor_takes_the_branches_of_its_kind(make):
    """A kind is a plain string, and an unpickled one is a fresh string: the
    code compares kinds with ``==``, where ``is`` would take another branch."""
    factor = make()
    loaded = pickle.loads(pickle.dumps(factor))
    assert loaded.kind == factor.kind and loaded.kind is not factor.kind
    coeffs = lambda series: (series.lead, [repr(c.terms) for c in series.coeffs])
    assert coeffs(expand_factor(loaded, 4)) == coeffs(expand_factor(factor, 4))
    assert _pair_key(loaded) == _pair_key(factor)


# ---------------------------------------------------------------------------
# Lead-first elimination against the full expansion
# ---------------------------------------------------------------------------


def full_expansion_lead(s, regulator, order):
    """Lead order and merged lead coefficient, every term expanded to truncation ``order``.

    The reference that lead-first elimination must reproduce bit for bit:
    each coefficient built from the terms' full expansions, below where the
    shortest term ends, searched from the lowest power.
    """
    rest = tuple(r for r in s.regulators if r != regulator)
    out, top = {}, None
    for term in s.terms:
        local = tuple(f for f in term.coeff.factors if f.regulator == regulator)
        rest_factors = tuple(f for f in term.coeff.factors if f.regulator != regulator)
        a = term.t_coeff(regulator)
        t_lin = tuple((r, v) for r, v in term.t_lin if r != regulator)
        base = expand_product(MeroFactorProduct(term.coeff.prefactor, local), order)
        end = base.lead + len(base.coeffs)
        top = end if top is None else min(top, end)
        for j, cpoly in enumerate(base.coeffs):
            if cpoly.is_zero():
                continue
            p0 = base.lead + j
            for k in range(end - p0 if a != rational.ZERO else 1):
                factor = rational.to_float(a) ** k / math.factorial(k) if k else 1.0
                out.setdefault(p0 + k, []).append(ZetaTerm(
                    MeroFactorProduct(cpoly.scale(factor), rest_factors), t_lin, term.t_const,
                    term.t_log + k, term.phase,
                ))
    for p in sorted(p for p in out if p < top):
        coeff = ZetaTermSum(out[p], rest, s.t_symbol).merged()
        if coeff.terms:
            return p, coeff
    return None, ZetaTermSum.zero(rest, s.t_symbol)


def full_expansion_to_lead(sums, regulator, order):
    """The order-doubling loop over full expansions: every sum at every truncation."""
    k = order
    while True:
        found = [full_expansion_lead(s, regulator, k) for s in sums]
        if all(lead is not None for lead, _ in found) or k >= MAX_ORDER:
            return [lead for lead, _ in found], [coeff for _, coeff in found], k
        k *= 2


def expand_to_lead(sums, regulator, order):
    """Each sum's lead and lead coefficient in one regulator, and the largest truncation."""
    found = [_expand_sum_in(s, regulator, order) for s in sums]
    return [lead for lead, _, _ in found], [coeff for _, coeff, _ in found], max(k for _, _, k in found)


def exact_terms(s):
    """Every term's structure and the repr of its coefficients, in sum order."""
    return s.regulators, [
        (t.coeff.factors, t.t_lin, t.t_const, t.t_log,
         repr(list(t.phase.terms.items())), repr(list(t.coeff.prefactor.terms.items())))
        for t in s.terms
    ]


lead_slopes = st.sampled_from([rational.of(Fraction(k, d)) for k in (-3, -1, 1, 2) for d in (1, 3, 4)])
lead_bases = st.builds(
    lambda c, e: positive_base(ParamPoly.monomial(c, {"J": e})),
    st.sampled_from([2 / 9, 5 / 7, 3.0]),
    st.sampled_from([Fraction(1), Fraction(-1, 2)]),
)


def lead_factors(z):
    """Any factor in regulator z: Gammas with and without poles, half-turns,
    affine powers at zero and nonzero offsets, and const_pows of zero and
    nonzero slope."""
    reg, gamma, integer = st.just(z), st.just(FactorKind.GAMMA), st.integers(-2, 2).map(lambda n: (n, 1))
    return st.one_of(
        st.builds(PrimitiveFactor, gamma, lead_slopes, integer, regulator=reg),
        st.builds(PrimitiveFactor, gamma, lead_slopes, st.sampled_from([(1, 2), (-3, 2)]), regulator=reg),
        st.builds(PrimitiveFactor, st.just(FactorKind.EXP_IPI), lead_slopes, lead_slopes, regulator=reg),
        st.builds(PrimitiveFactor, st.just(FactorKind.AFFINE), lead_slopes, st.sampled_from([(0, 1), (2, 3)]),
                  st.integers(-2, 2).filter(bool), regulator=reg),
        st.builds(lambda base, a, b: PrimitiveFactor(FactorKind.CONST_POW, a, b, base=base, regulator=z),
                  lead_bases, st.sampled_from([(0, 1), (1, 3)]), lead_slopes),
    )


def unit_lead_factors(z):
    """Factors in regulator z whose z^0 coefficient is exactly 1."""
    reg = st.just(z)
    return st.one_of(
        st.builds(PrimitiveFactor, st.just(FactorKind.EXP_IPI), lead_slopes,
                  st.sampled_from([(0, 1), (2, 1)]), regulator=reg),
        st.builds(PrimitiveFactor, st.just(FactorKind.AFFINE), lead_slopes, st.just(rational.ONE),
                  st.integers(-2, 2).filter(bool), regulator=reg),
        st.builds(lambda base, a: PrimitiveFactor(FactorKind.CONST_POW, a, (0, 1), base=base, regulator=z),
                  lead_bases, lead_slopes),
    )


lead_prefactors = st.builds(
    lambda c, w: ParamPoly.number(c) + ParamPoly.var("w", coeff=w),
    st.sampled_from([3 / 7, -2 / 9, 1.5j]),
    st.sampled_from([0.0, 5 / 7]),
)
t_slopes = st.sampled_from([(0, 1), (-1, 2), (1, 3)])


def t_lins(z):
    """The slopes of T^(a z), a drawn from ``t_slopes``: none at a = 0."""
    return t_slopes.map(lambda a: ((z, a),) if a != rational.ZERO else ())


@st.composite
def lead_sums(draw, z, regulators, most=2):
    """A sum in regulator z of free terms and pairs that cancel at their shared lead.

    A pair is c B U T^(a z) - c B V T^(b z), with U and V of lead 1: its lead
    coefficients cancel exactly, so the lead shows only past the terms' own
    leads.  A term may also come with its exact negation, which cancels at
    every order.
    """
    terms = []
    for _ in range(draw(st.integers(0, most))):
        factors = tuple(draw(st.lists(lead_factors(z), max_size=3)))
        terms.append(ZetaTerm(MeroFactorProduct(draw(lead_prefactors), factors),
                              t_lin=draw(t_lins(z)), t_const=draw(t_slopes)))
    for _ in range(draw(st.integers(0 if terms else 1, most))):
        base = tuple(draw(st.lists(lead_factors(z), max_size=2)))
        c = draw(lead_prefactors)
        for sign in (c, -c):
            extra = tuple(draw(st.lists(unit_lead_factors(z), max_size=2)))
            terms.append(ZetaTerm(MeroFactorProduct(sign, base + extra), t_lin=draw(t_lins(z))))
    if draw(st.booleans()):
        t = terms[draw(st.integers(0, len(terms) - 1))]
        terms.append(ZetaTerm(MeroFactorProduct(-t.coeff.prefactor, t.coeff.factors), t.t_lin, t.t_const))
    return ZetaTermSum(draw(st.permutations(terms)), regulators)


@st.composite
def lead_problems(draw):
    """One or two sums in one or two regulators; a two-regulator sum is a
    product of one sum per regulator, so its lead coefficients in z1 cancel
    again in z2."""
    regulators = draw(st.sampled_from([("z1",), ("z1", "z2")]))
    most = 3 - len(regulators)  # terms per kind: a product of two sums is long
    sums = []
    for _ in range(draw(st.integers(1, 2))):
        s = draw(lead_sums("z1", regulators, most))
        if len(regulators) == 2:
            s2 = draw(lead_sums("z2", regulators, most))
            # terms of one regulator each, with no ln T or phase: z1 slopes sort before z2 slopes
            s = ZetaTermSum([
                ZetaTerm(
                    MeroFactorProduct(
                        a.coeff.prefactor * b.coeff.prefactor, a.coeff.factors + b.coeff.factors
                    ),
                    a.t_lin + b.t_lin, rational.add(a.t_const, b.t_const),
                )
                for a in s.terms for b in s2.terms
            ], regulators)
        sums.append(s)
    return sums, draw(st.sampled_from([2, 3, 4]))


@given(lead_problems())
def test_lead_first_elimination_is_the_full_expansion_bit_for_bit(problem):
    sums, order = problem
    for reg in sums[0].regulators:
        leads, coeffs, k = expand_to_lead(sums, reg, order)
        want_leads, want_coeffs, want_k = full_expansion_to_lead(sums, reg, order)
        assert (leads, k) == (want_leads, want_k)
        assert [exact_terms(c) for c in coeffs] == [exact_terms(c) for c in want_coeffs]
        sums = coeffs


def test_lead_first_elimination_falls_back_past_a_cancelling_lead():
    # every term's lead is z^-1, and the leads cancel: the sum leads at z^0
    s = ZetaTermSum([
        ZetaTerm(MeroFactorProduct(ParamPoly.number(3 / 7), (GAMMA_Z,)), t_lin=(("z", (-1, 2)),)),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-3 / 7), (GAMMA_Z,))),
    ])
    (lead,), (coeff,), k = expand_to_lead([s], "z", 4)
    want_leads, want_coeffs, want_k = full_expansion_to_lead([s], "z", 4)
    assert (lead, k) == (0, 4) and ([lead], k) == (want_leads, want_k)
    assert exact_terms(coeff) == exact_terms(want_coeffs[0])
    assert [t.t_log for t in coeff.terms] == [1]


def test_lead_first_elimination_doubles_the_truncation_for_a_vanishing_sum():
    gamma = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (-1, 1))
    t = ZetaTerm(MeroFactorProduct(ParamPoly.number(0.3), (gamma,)))
    vanishing = ZetaTermSum([t, scaled(t, ParamPoly.number(-1.0))])
    leads, coeffs, k = expand_to_lead([vanishing, ZetaTermSum([t])], "z", 3)
    assert (leads, k) == ([None, -1], 24)
    assert coeffs[0].terms == []


def _count_vanishing_sum_expansion(monkeypatch, order):
    """Expand a sum that cancels exactly; return the result, truncations and merge count."""
    from zetatrace import terms

    gamma = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (-1, 1))  # leads at z^-1
    t = ZetaTerm(MeroFactorProduct(ParamPoly.number(0.3), (gamma,)))
    truncations, merges = [], []
    coefficients, merged = terms._coefficients, ZetaTermSum.merged
    monkeypatch.setattr(terms, "_coefficients",
                        lambda s, reg, order: truncations.append(order) or coefficients(s, reg, order))
    monkeypatch.setattr(ZetaTermSum, "merged", lambda s: merges.append(s) or merged(s))
    lead, coeff, k = _expand_sum_in(ZetaTermSum([t, scaled(t, ParamPoly.number(-1.0))]), "z", order)
    return (lead, coeff.terms, k), truncations, len(merges)


def test_a_vanishing_sum_expands_each_truncation_and_merges_each_power_once(monkeypatch):
    """Truncation 0, the order, then doubled: each retry starts where the last stopped."""
    result, truncations, merges = _count_vanishing_sum_expansion(monkeypatch, 3)
    assert result == (None, [], 24)
    assert truncations == [0, 3, 6, 12, 24]
    assert merges == 25  # z^-1 .. z^23


def test_a_vanishing_sum_at_order_zero_expands_truncation_zero_once(monkeypatch):
    """Order 0 does not repeat truncation 0 before doubling from 1."""
    result, truncations, merges = _count_vanishing_sum_expansion(monkeypatch, 0)
    assert result == (None, [], 16)
    assert truncations == [0, 1, 2, 4, 8, 16]
    assert merges == 17  # z^-1 .. z^15


@pytest.fixture
def alarm():
    """Fail a call that does not return within 5 s instead of stalling the suite."""
    def hung(signum, frame):
        raise TimeoutError("the truncation schedule did not end")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_order_zero_ends_past_a_cancelling_lead(alarm):
    """The retry after truncation 0 is at truncation 1, not a doubled 0."""
    # 3/7 Gamma(z) (T^(-z/2) - 1): the z^-1 leads cancel, the value is -3/14 ln T
    s = ZetaTermSum([
        ZetaTerm(MeroFactorProduct(ParamPoly.number(3 / 7), (GAMMA_Z,)), t_lin=(("z", (-1, 2)),)),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-3 / 7), (GAMMA_Z,))),
    ])
    assert value_at_zero(s, 0).terms == value_at_zero(s, 4).terms
    assert value_at_zero(s, 0).terms[0].log_power == 1
    one = ZetaTermSum([ZetaTerm(MeroFactorProduct(ParamPoly.one()))])
    trace = []
    assert ratio_limit(s, one, 0, trace).terms == ratio_limit(s, one, 4).terms
    assert trace == ["limit z -> 0: lead orders num = 0, den = 0 (truncation 1)"]


def test_value_at_zero_takes_the_regulators_in_declared_order():
    """2 z1 Gamma(z2): zero if z1 goes first, a simple pole in z2 if z2 does."""
    factors = (
        PrimitiveFactor(FactorKind.AFFINE, (1, 1), (0, 1), regulator="z1"),
        PrimitiveFactor(FactorKind.GAMMA, (1, 1), (0, 1), regulator="z2"),
    )
    term = ZetaTerm(MeroFactorProduct(ParamPoly.number(2.0), factors))
    assert value_at_zero(ZetaTermSum([term], ("z1", "z2"))).terms == []
    with pytest.raises(PoleAtZero) as caught:
        value_at_zero(ZetaTermSum([term], ("z2", "z1")))
    assert caught.value.order == 1


# ---------------------------------------------------------------------------
# Products built without the canonical check are canonical
# ---------------------------------------------------------------------------


def test_every_product_built_without_the_check_is_canonical(monkeypatch):
    """``MeroFactorProduct._canonical`` skips the fold check: wherever the pipeline
    calls it, the public constructor would have left the factors as they are."""
    from pathlib import Path

    from zetatrace.modelfile import parse_model_text, to_model_spec
    from zetatrace.models import REGISTRY, RegistryEntry, run_model

    trusted = MeroFactorProduct._canonical.__func__
    calls = []

    def checked(cls, prefactor, factors):
        assert MeroFactorProduct(prefactor, factors).factors is factors, factors
        calls.append(len(factors))
        return trusted(cls, prefactor, factors)

    monkeypatch.setattr(MeroFactorProduct, "_canonical", classmethod(checked))
    golden = Path(__file__).resolve().parent / "golden"
    files = {}
    for path in sorted(golden.glob("*.zt")):
        spec = to_model_spec(parse_model_text(path.read_text(encoding="utf-8"), path.stem))
        files[path.stem] = RegistryEntry(lambda spec=spec, **kw: spec, spec.description, "")
    assert files
    for name in [*REGISTRY, *files]:
        for policy in (PAPER, PRINCIPAL):
            for order in (4, 8, 16):
                run_model(name, policy, order, registry=files)
    assert calls and any(calls)
