import cmath
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetatrace import oracle
from zetatrace.engine import build_trace_sums
from zetatrace.errors import DivergentLimit, PoleAtZero
from zetatrace.laurent import MeroFactorProduct, PrimitiveFactor
from zetatrace.models import harmonic_oscillator_1d, schwinger_boson_mass, topological_oscillator
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL, AffineExp, osc_linear
from zetatrace.terms import (
    Divergent,
    TAsymptote,
    TAsymTerm,
    ZetaTerm,
    ZetaTermSum,
    _tlin,
    divide_by_reference,
    ratio_limit,
    thermal_limit,
    value_at_zero,
)


def gamma_term(sign=1.0, t_lin=Fraction(0), t_const=Fraction(0)):
    """sign * Gamma(z) * T^(t_lin z + t_const)."""
    return ZetaTerm(
        MeroFactorProduct(ParamPoly.number(sign), (PrimitiveFactor.gamma(1, 0),)),
        t_lin=((("z"), t_lin),) if t_lin else (),
        t_const=t_const,
    )


def test_value_at_zero_cancelled_poles_leave_log():
    # Gamma(z) T^(-z) - Gamma(z): the 1/z poles cancel, the cross term is -ln T
    s = ZetaTermSum([gamma_term(1.0, Fraction(-1)), gamma_term(-1.0)])
    ta = value_at_zero(s)
    assert len(ta.terms) == 1
    t = ta.terms[0]
    assert t.t_power == 0 and t.log_power == 1
    assert t.coeff.as_number() == pytest.approx(-1.0)
    # numeric witness: Gamma(z)(T^-z - 1) at small z, T = 10, extrapolated in z
    T = 10.0
    f = lambda z: oracle.gamma(z) * (T**-z - 1)
    direct = 2 * f(5e-5) - f(1e-4)
    assert ta.eval({}, T) == pytest.approx(direct, rel=1e-6)


def test_value_at_zero_constant():
    s = ZetaTermSum([ZetaTerm.from_poly(ParamPoly.number(3.25))])
    ta = value_at_zero(s)
    assert ta.constant_part().as_number() == pytest.approx(3.25)


def test_value_at_zero_reports_uncancelled_pole():
    s = ZetaTermSum([gamma_term(1.0, Fraction(-1))])
    with pytest.raises(PoleAtZero) as err:
        value_at_zero(s)
    assert err.value.order == 1


def osc_sum(terms, regulators=("z",)):
    return ZetaTermSum(terms, regulators)


def q(b, a=1):
    return AffineExp.of("z", a, b)


def test_ratio_limit_fermion_reduction_chain():
    """The displayed 3+1-dimensional reduction: both sides vanish at z = 0 and the
    z^1 coefficients leave m - 3/T under the conventional Laplace phases."""
    m = ParamPoly.var("m")
    den_terms = [osc_linear(q(2), +1, PAPER), osc_linear(q(2), -1, PAPER)]
    num_terms = [t.scaled(m) for t in den_terms]
    # -i * (osc(z+3,+) - osc(z+3,-)) reproduces the displayed numerator
    num_terms.append(osc_linear(q(3), +1, PAPER).scaled(ParamPoly.number(-1j)))
    num_terms.append(osc_linear(q(3), -1, PAPER).scaled(ParamPoly.number(1j)))
    ta = ratio_limit(osc_sum(num_terms), osc_sum(den_terms))
    for t_value in (10.0, 100.0):
        got = ta.eval({"m": 1.3}, t_value)
        assert got == pytest.approx(1.3 - 3.0 / t_value, rel=1e-12)


def test_ratio_limit_identity():
    terms = [osc_linear(q(2), +1, PAPER), osc_linear(q(2), -1, PAPER)]
    ta = ratio_limit(osc_sum(list(terms)), osc_sum(list(terms)))
    assert thermal_limit(ta).as_number() == pytest.approx(1.0)


def test_ratio_limit_boson_chain_decays_like_one_over_t():
    """Gamma((z+3)/2)(2/T)^((z+3)/2)-type over Gamma((z+1)/2)(2/T)^((z+1)/2)-type."""
    half = ParamPoly.number(0.5)
    num = ZetaTerm(
        MeroFactorProduct(
            ParamPoly.one(),
            (
                PrimitiveFactor.gamma(Fraction(1, 2), Fraction(3, 2)),
                PrimitiveFactor.exp_ipi(Fraction(-1, 4), Fraction(-3, 4)),
                PrimitiveFactor.const_pow(half, Fraction(-1, 2), Fraction(-3, 2)),
            ),
        ),
        t_lin=(("z", Fraction(-1, 2)),),
        t_const=Fraction(-3, 2),
    )
    den = ZetaTerm(
        MeroFactorProduct(
            ParamPoly.one(),
            (
                PrimitiveFactor.gamma(Fraction(1, 2), Fraction(1, 2)),
                PrimitiveFactor.exp_ipi(Fraction(-1, 4), Fraction(-1, 4)),
                PrimitiveFactor.const_pow(half, Fraction(-1, 2), Fraction(-1, 2)),
            ),
        ),
        t_lin=(("z", Fraction(-1, 2)),),
        t_const=Fraction(-1, 2),
    )
    ta = ratio_limit(osc_sum([num]), osc_sum([den]))
    assert len(ta.terms) == 1
    assert ta.terms[0].t_power == -1
    assert isinstance(thermal_limit(ta), ParamPoly)
    assert thermal_limit(ta).is_zero()
    exponent = oracle.decay_exponent(lambda t: ta.eval({}, t), [10, 20, 40, 80])
    assert exponent == pytest.approx(-1.0, abs=0.01)


def test_ratio_limit_divergent_when_denominator_vanishes_faster():
    num = osc_sum([gamma_term(1.0)])  # Gamma(z): pole of order 1
    den = osc_sum([ZetaTerm.from_poly(ParamPoly.one())])
    with pytest.raises(DivergentLimit):
        ratio_limit(num, den)


def test_ratio_limit_zero_when_numerator_vanishes_faster():
    num = osc_sum([ZetaTerm.from_poly(ParamPoly.one())])
    den = osc_sum([gamma_term(1.0)])
    ta = ratio_limit(num, den)
    assert ta.is_zero()


def test_token_cancellation():
    tok = ("sector:A", "sector:A", "vol")
    n = ZetaTermSum([ZetaTerm.from_poly(ParamPoly.var("m"), tokens=tok)])
    d = ZetaTermSum([ZetaTerm.from_poly(ParamPoly.one(), tokens=tok)])
    ta = ratio_limit(n, d)
    assert thermal_limit(ta) == ParamPoly.var("m")


def test_phase_cancellation_between_numerator_and_denominator():
    phase = ParamPoly.var("m").scale(-1)
    n = ZetaTermSum([ZetaTerm.from_poly(ParamPoly.var("m"), phase=phase)])
    d = ZetaTermSum([ZetaTerm.from_poly(ParamPoly.one(), phase=phase)])
    assert thermal_limit(ratio_limit(n, d)) == ParamPoly.var("m")


def test_thermal_limit_cases():
    m = ParamPoly.var("m")
    # m - 3/T -> m
    ta = TAsymptote.constant(m) + TAsymptote(
        [type(TAsymptote.constant(m).terms[0])(ParamPoly.number(-3), Fraction(-1), 0, ParamPoly.zero())]
    )
    assert thermal_limit(ta) == m
    # e^2/pi + c/T -> e^2/pi
    val = ParamPoly.monomial(1, {"e": Fraction(2), "pi": Fraction(-1)})
    ta2 = TAsymptote.constant(val) + TAsymptote(
        [type(ta.terms[0])(ParamPoly.number(-1j), Fraction(-1), 0, ParamPoly.zero())]
    )
    assert thermal_limit(ta2) == val
    # ln T -> divergent
    ta3 = TAsymptote([type(ta.terms[0])(ParamPoly.one(), Fraction(0), 1, ParamPoly.zero())])
    assert isinstance(thermal_limit(ta3), Divergent)


def test_thermal_limit_rejects_surviving_oscillation():
    ta = TAsymptote(
        [type(TAsymptote.constant(ParamPoly.one()).terms[0])(
            ParamPoly.one(), Fraction(0), 0, ParamPoly.var("omega")
        )]
    )
    out = thermal_limit(ta)
    assert isinstance(out, Divergent)
    assert "oscillatory" in out.reason


def test_value_at_zero_linearity():
    s1 = ZetaTermSum([gamma_term(1.0, Fraction(-1)), gamma_term(-1.0)])
    s2 = ZetaTermSum([ZetaTerm.from_poly(ParamPoly.number(2.0))])
    joint = value_at_zero(ZetaTermSum(s1.terms + s2.terms))
    split = value_at_zero(s1) + value_at_zero(s2)
    for t_value in (3.0, 7.0):
        assert joint.eval({}, t_value) == pytest.approx(split.eval({}, t_value))


SUM_POOL = [
    lambda: osc_sum([osc_linear(q(0), +1, PAPER)]),
    lambda: osc_sum([osc_linear(q(1), +1, PAPER), osc_linear(q(1), -1, PAPER)]),
    lambda: osc_sum([osc_linear(q(2), +1, PRINCIPAL), osc_linear(q(2), -1, PRINCIPAL)]),
    lambda: osc_sum([gamma_term(2.0, Fraction(-1)), gamma_term(-2.0)]),
    lambda: osc_sum(
        [ZetaTerm.from_poly(ParamPoly.var("m"), t_const=Fraction(-2))]
    ),
]


@given(st.sampled_from(SUM_POOL))
def test_ratio_limit_of_sum_with_itself_is_one(make):
    s = make()
    ta = ratio_limit(s, s)
    assert thermal_limit(ta).as_number() == pytest.approx(1.0)


def test_ratio_limit_unresolved_zero_over_zero_escalates_then_fails():
    from zetatrace.errors import ZeroOverZeroUnresolved

    pair = [
        ZetaTerm.from_poly(ParamPoly.one()),
        ZetaTerm.from_poly(ParamPoly.number(-1.0)),
    ]
    with pytest.raises(ZeroOverZeroUnresolved):
        ratio_limit(osc_sum(list(pair)), osc_sum(list(pair)))


def test_multi_regulator_sequential_elimination():
    # f(z1) * g(z2) / (same structure): regular values per regulator
    t = ZetaTerm(
        MeroFactorProduct(
            ParamPoly.number(2.0),
            (
                PrimitiveFactor.gamma(1, 1, "z1"),
                PrimitiveFactor.affine(1, 3, regulator="z2"),
            ),
        ),
    )
    d = ZetaTerm(
        MeroFactorProduct(
            ParamPoly.one(),
            (PrimitiveFactor.affine(1, 3, regulator="z2"),),
        ),
    )
    ta = ratio_limit(
        ZetaTermSum([t], ("z1", "z2")), ZetaTermSum([d], ("z1", "z2"))
    )
    assert thermal_limit(ta).as_number() == pytest.approx(2.0)


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
    num = [t.scaled(m) for t in den]
    num.append(osc_linear(q(3), +1, PAPER).scaled(ParamPoly.number(-1j)))
    num.append(osc_linear(q(3), -1, PAPER).scaled(ParamPoly.number(1j)))
    return osc_sum(num), osc_sum(den), {"m": 1.3}


def _log_chain():
    # (Gamma(z) T^-z - Gamma(z)) / (2 Gamma(z+1)) -> -ln(T)/2
    den = ZetaTerm(MeroFactorProduct(ParamPoly.number(2.0), (PrimitiveFactor.gamma(1, 1),)))
    return osc_sum([gamma_term(1.0, Fraction(-1)), gamma_term(-1.0)]), osc_sum([den]), {}


def _mixed_chain():
    """Terms that lack the reference's phase or Gamma, or carry a power of another base."""
    m, half = ParamPoly.var("m"), ParamPoly.number(0.5)

    def term(coeff, factors, t_lin, t_const):
        return ZetaTerm(MeroFactorProduct(coeff, factors), _tlin({"z": t_lin}), t_const)

    den = [
        term(ParamPoly.one(), (
            PrimitiveFactor.gamma(1, 1),
            PrimitiveFactor.exp_ipi(Fraction(1, 4), 0),
            PrimitiveFactor.const_pow(half, Fraction(1, 2), Fraction(1, 2)),
        ), -1, 0),
        term(half, (
            PrimitiveFactor.gamma(Fraction(1, 3), Fraction(2, 3)),
            PrimitiveFactor.const_pow(ParamPoly.number(3.0), 1, 0),
        ), 0, 0),
    ]
    num = [
        term(m.scale(3.0), (
            PrimitiveFactor.gamma(1, 2),
            PrimitiveFactor.exp_ipi(Fraction(1, 2), Fraction(1, 2)),
            PrimitiveFactor.const_pow(half, 1, 1),
        ), -1, -1),
        term(m.scale(1.5), (
            PrimitiveFactor.const_pow(ParamPoly.monomial(2.0, {"a": 1}), 1, 0),
        ), 0, -1),
    ]
    return osc_sum(num), osc_sum(den), {"m": 1.3}


def _cancelling_chain():
    """Both sides vanish at z = 0, so the slopes of unpaired factors set the limit."""
    m = ParamPoly.var("m")
    # no const_pow here: its ln(base) would leave a non-monomial lead denominator
    shared = (PrimitiveFactor.exp_ipi(Fraction(1, 2), 0),)
    den = [
        ZetaTerm(MeroFactorProduct(ParamPoly.one(), (PrimitiveFactor.gamma(1, 1),) + shared)),
        # a Gamma of another slope: no partner for the reference's Gamma(z+1)
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-1.0), (PrimitiveFactor.gamma(Fraction(1, 2), 1),))),
    ]
    num = [
        ZetaTerm(
            MeroFactorProduct(m, (PrimitiveFactor.gamma(1, 1),) + shared), t_lin=_tlin({"z": -1})
        ),
        ZetaTerm(MeroFactorProduct(-m, (PrimitiveFactor.gamma(Fraction(1, 2), 1),))),
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
            power = sum(float(a) for _, a in t.t_lin) * z + float(t.t_const)
            v = t.coeff.numeric(z, oracle.gamma, bindings) * t_value**power
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
    half = Fraction(1, 2)
    factors = [
        PrimitiveFactor.gamma(half, half + draw(st.integers(0, 3)), reg())
        for _ in range(draw(st.integers(0, 2)))
    ]  # integer shifts of the Gamma(z/2 + 1/2) class the Gaussian tables produce
    factors += [
        PrimitiveFactor.gamma(1, draw(st.integers(1, 3)), reg())
        for _ in range(draw(st.integers(0, 1)))
    ]
    if draw(st.booleans()):  # a class no table produces
        factors.append(PrimitiveFactor.gamma(Fraction(1, 3), Fraction(2, 3), reg()))
    if draw(st.booleans()):  # a pole at z = 0
        factors.append(PrimitiveFactor.gamma(1, -draw(st.integers(0, 1)), reg()))
    fracs = st.sampled_from([Fraction(0), Fraction(-1, 4), Fraction(1, 2), Fraction(3, 2)])
    for _ in range(draw(st.integers(0, 2))):
        factors.append(PrimitiveFactor.exp_ipi(draw(fracs), draw(fracs), reg()))
    bases = st.sampled_from([ParamPoly.number(0.5), ParamPoly.monomial(2.0, {"a": 1})])
    for _ in range(draw(st.integers(0, 2))):
        factors.append(PrimitiveFactor.const_pow(draw(bases), draw(fracs), draw(fracs), reg()))
    prefactor = draw(st.sampled_from([1.0, -2.5, 0.5j, 3.0 - 1.0j]))
    t_lin = _tlin({r: draw(fracs) for r in regulators})
    return ZetaTerm(
        MeroFactorProduct(ParamPoly.number(prefactor), tuple(draw(st.permutations(factors)))),
        t_lin=t_lin,
        t_const=draw(fracs),
    )


@given(st.data())
def test_ratio_limit_invariant_under_a_common_factor(data):
    """n*c / d*c has the same limit as n/d; the traced lead orders shift by c's order."""
    num, den, bindings = data.draw(st.sampled_from(RATIO_POOL))()
    c = data.draw(common_factors(num.regulators))
    base_trace, trace = [], []
    base = ratio_limit(num, den, trace=base_trace)
    common = ZetaTermSum([c], num.regulators, num.t_symbol)
    got = ratio_limit(num * common, den * common, trace=trace)
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
    def term(coeff, beta, t_lin=Fraction(0), t_const=Fraction(0)):
        return ZetaTerm(
            MeroFactorProduct(coeff, (PrimitiveFactor.gamma(1, beta),)),
            t_lin=_tlin({"z": t_lin}),
            t_const=t_const,
        )

    m = ParamPoly.var("m")
    num = osc_sum([term(m, 0, Fraction(-1)), term(ParamPoly.one(), 1, t_const=Fraction(-1))])
    den = osc_sum([term(ParamPoly.one(), 0, Fraction(-1)), term(ParamPoly.one(), 2)])
    n_div, d_div, orders = divide_by_reference(num, den)
    assert orders == {"z": -1}
    assert n_div.terms[0].coeff.factors == () and d_div.terms[0].coeff.factors == ()
    assert n_div.terms[1].coeff.factors == (PrimitiveFactor.affine(1, 0),)
    assert d_div.terms[1].coeff.factors == (
        PrimitiveFactor.affine(1, 0), PrimitiveFactor.affine(1, 1)
    )
    assert n_div.terms[1].t_lin == (("z", Fraction(1)),)
    trace = []
    ta = ratio_limit(num, den, trace=trace)
    assert _lead_orders(trace) == [("z", "-1", "-1")]
    assert thermal_limit(ta) == m
    assert ta.eval({"m": 1.3}, 10.0) == pytest.approx(1.3, rel=1e-12)


def test_division_pairs_factors_within_their_regulator():
    def term(*factors):
        return ZetaTerm(MeroFactorProduct(ParamPoly.one(), factors))

    e = PrimitiveFactor.exp_ipi
    den = ZetaTermSum([term(e(Fraction(1, 2), 0, "z1"), e(1, Fraction(1, 2), "z2"))], ("z1", "z2"))
    num = ZetaTermSum([term(e(1, 1, "z2"), e(Fraction(1, 2), 0, "z1"))], ("z1", "z2"))
    n_div, d_div, orders = divide_by_reference(num, den)
    assert orders == {}
    assert d_div.terms[0].coeff.factors == ()
    assert n_div.terms[0].coeff.factors == (e(0, Fraction(1, 2), "z2"),)


def test_merged_drops_only_buckets_that_cancel_exactly():
    near = ParamPoly.number(-1.0 + 1e-11)
    s = ZetaTermSum([
        ZetaTerm.from_poly(ParamPoly.number(1.0)),
        ZetaTerm.from_poly(ParamPoly.number(2.0), t_const=1),
        ZetaTerm.from_poly(near),
        ZetaTerm.from_poly(ParamPoly.number(0.5), t_const=2),
        ZetaTerm.from_poly(ParamPoly.number(-0.5), t_const=2),
    ])
    merged = s.merged().terms
    assert [t.t_const for t in merged] == [0, 1]
    assert merged[0].coeff.prefactor.terms == {(): 1.0 + (-1.0 + 1e-11)}
    assert not s.is_zero()


def test_phases_that_differ_in_the_last_digits_are_not_merged():
    w = ParamPoly.var("w")
    w_near = ParamPoly.var("w", coeff=1 + 1e-13)
    s = ZetaTermSum([ZetaTerm.from_poly(ParamPoly.one(), phase=p) for p in (w, w_near, w)])
    assert [t.phase.terms for t in s.merged().terms] == [w.terms, w_near.terms]
    asym = TAsymptote([TAsymTerm(ParamPoly.one(), phase=p) for p in (w, w_near, w)])
    assert [t.phase.terms for t in asym.terms] == [w.terms, w_near.terms]
    assert [t.coeff.terms for t in asym.terms] == [{(): 2.0}, {(): 1.0}]
