import cmath
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetatrace import rational
from zetatrace.engine import build_trace_sums
from zetatrace.errors import DivergentLimit, PoleAtZero
from zetatrace.laurent import MAX_ORDER, MeroFactorProduct, PrimitiveFactor, expand_product
from zetatrace.models import harmonic_oscillator_1d, schwinger_boson_mass, topological_oscillator
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL, AffineExp, osc_linear
from zetatrace.terms import (
    Divergent,
    TAsymptote,
    TAsymTerm,
    ZetaTerm,
    ZetaTermSum,
    _expand_to_lead,
    _tlin,
    divide_by_reference,
    ratio_limit,
    thermal_limit,
    value_at_zero,
)

import lanczos
from factor_values import product_value
from fits import decay_exponent


def gamma_term(sign=1.0, t_lin=Fraction(0), t_const=Fraction(0)):
    """sign * Gamma(z) * T^(t_lin z + t_const)."""
    return ZetaTerm(
        MeroFactorProduct(ParamPoly.number(sign), (PrimitiveFactor.gamma(1, 0),)),
        t_lin=_tlin({"z": t_lin}),
        t_const=rational.of(t_const),
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
    f = lambda z: lanczos.gamma(z) * (T**-z - 1)
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
        t_lin=_tlin({"z": Fraction(-1, 2)}),
        t_const=rational.of(Fraction(-3, 2)),
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
        t_lin=_tlin({"z": Fraction(-1, 2)}),
        t_const=rational.of(Fraction(-1, 2)),
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
    den = osc_sum([ZetaTerm.from_poly(ParamPoly.one())])
    with pytest.raises(DivergentLimit):
        ratio_limit(num, den)


def test_ratio_limit_zero_when_numerator_vanishes_faster():
    num = osc_sum([ZetaTerm.from_poly(ParamPoly.one())])
    den = osc_sum([gamma_term(1.0)])
    ta = ratio_limit(num, den)
    assert ta.is_zero()


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
        return ZetaTerm(MeroFactorProduct(coeff, factors), _tlin({"z": t_lin}), rational.of(t_const))

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
        t_const=rational.of(draw(fracs)),
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
            t_const=rational.of(t_const),
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
    assert n_div.terms[1].t_lin == (("z", (1, 1)),)
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


def gamma_quotient(b, r):
    """Gamma(z + b) / Gamma(z + r) as the affine factors division leaves."""
    if b >= r:
        return [PrimitiveFactor.affine(1, j) for j in range(r, b)]
    return [PrimitiveFactor.affine(1, j, power=-1) for j in range(r - 1, b - 1, -1)]


@given(st.data())
def test_division_pairs_each_divisor_gamma_with_the_first_nearest_partner(data):
    """Exact offsets and the nearest-offset fallback pick what a plain nearest-first scan picks."""
    offsets = data.draw(st.lists(st.integers(-2, 4), min_size=1, max_size=5))
    refs = data.draw(st.lists(st.integers(-2, 4), min_size=1, max_size=len(offsets)))
    g = lambda b: PrimitiveFactor.gamma(1, b)
    num = osc_sum([ZetaTerm(MeroFactorProduct(ParamPoly.one(), tuple(g(b) for b in offsets)))])
    den = osc_sum([ZetaTerm(MeroFactorProduct(ParamPoly.one(), tuple(g(r) for r in refs)))])
    n_div, d_div, _ = divide_by_reference(num, den)
    free, slots = list(enumerate(offsets)), [[g(b)] for b in offsets]
    for r in refs:
        k = min(range(len(free)), key=lambda k: abs(free[k][1] - r))
        i, b = free.pop(k)
        slots[i] = gamma_quotient(b, r)
    assert n_div.terms[0].coeff.factors == tuple(x for slot in slots for x in slot)
    assert d_div.terms[0].coeff.factors == ()


def test_unpaired_phases_are_inverted_in_every_term():
    e = PrimitiveFactor.exp_ipi
    one = lambda *factors: ZetaTerm(MeroFactorProduct(ParamPoly.one(), factors))
    den = osc_sum([one(e(Fraction(1, 2), 1))])
    num = osc_sum([one(), one(PrimitiveFactor.gamma(1, 0)), one(e(Fraction(1, 2), 0))])
    n_div, d_div, _ = divide_by_reference(num, den)
    inverse = e(Fraction(-1, 2), -1)
    assert [t.coeff.factors for t in n_div.terms] == [
        (inverse,), (PrimitiveFactor.gamma(1, 0), inverse), (e(0, -1),)
    ]
    assert d_div.terms[0].coeff.factors == ()


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
    assert [t.t_const for t in merged] == [(0, 1), (1, 1)]
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


def test_merged_keys_factors_as_a_multiset():
    g, e = PrimitiveFactor.gamma(1, Fraction(1, 2)), PrimitiveFactor.exp_ipi(1, 0)
    s = ZetaTermSum([
        ZetaTerm(MeroFactorProduct(ParamPoly.number(1.0), (g, e, g))),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(2.0), (g, g, e))),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(4.0), (g, e, e))),
    ])
    merged = s.merged().terms
    assert [t.coeff.factors for t in merged] == [(g, e, g), (g, e, e)]
    assert [t.coeff.prefactor.terms for t in merged] == [{(): 3.0}, {(): 4.0}]


@pytest.mark.parametrize("make", [
    lambda: PrimitiveFactor.gamma(Fraction(1, 2), -1, "z2"),
    lambda: PrimitiveFactor.exp_ipi(Fraction(-1, 4), Fraction(3, 4)),
    lambda: PrimitiveFactor.affine(2, Fraction(1, 3), -2),
    lambda: PrimitiveFactor.const_pow(ParamPoly.monomial(2 / 9, {"J": Fraction(1, 2)}), 1, 0, "z1"),
], ids=["gamma", "half-turn", "affine", "const-pow"])
def test_primitive_factor_hash_contract(make):
    a, b = make(), make()
    assert a == b and hash(a) == hash(b) == hash(b)
    object.__setattr__(a, "_hash", 12345)  # as if pickled by a process with another string-hash seed
    loaded = pickle.loads(pickle.dumps(a))
    assert loaded == b and hash(loaded) == hash(b)


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


def exact_terms(s):
    """Every term's structure and the repr of its coefficients, in sum order."""
    return s.regulators, [
        (t.coeff.factors, t.t_lin, t.t_const, t.t_log,
         repr(list(t.phase.terms.items())), repr(list(t.coeff.prefactor.terms.items())))
        for t in s.terms
    ]


lead_slopes = st.sampled_from([Fraction(k, d) for k in (-3, -1, 1, 2) for d in (1, 3, 4)])
lead_bases = st.builds(
    lambda c, e: ParamPoly.monomial(c, {"J": e}),
    st.sampled_from([2 / 9, 5 / 7, 3.0]),
    st.sampled_from([Fraction(1), Fraction(-1, 2)]),
)


def lead_factors(z):
    """Any factor in regulator z: Gammas with and without poles, half-turns,
    affine powers at zero and nonzero offsets, and const_pows of zero and
    nonzero slope."""
    return st.one_of(
        st.builds(PrimitiveFactor.gamma, lead_slopes, st.integers(-2, 2), st.just(z)),
        st.builds(PrimitiveFactor.gamma, lead_slopes, st.sampled_from([Fraction(1, 2), Fraction(-3, 2)]), st.just(z)),
        st.builds(PrimitiveFactor.exp_ipi, lead_slopes, lead_slopes, st.just(z)),
        st.builds(PrimitiveFactor.affine, lead_slopes, st.sampled_from([0, Fraction(2, 3)]),
                  st.integers(-2, 2).filter(bool), st.just(z)),
        st.builds(PrimitiveFactor.const_pow, lead_bases, st.sampled_from([Fraction(0), Fraction(1, 3)]),
                  lead_slopes, st.just(z)),
    )


def unit_lead_factors(z):
    """Factors in regulator z whose z^0 coefficient is exactly 1."""
    return st.one_of(
        st.builds(PrimitiveFactor.exp_ipi, lead_slopes, st.sampled_from([0, 2]), st.just(z)),
        st.builds(PrimitiveFactor.affine, lead_slopes, st.just(1), st.integers(-2, 2).filter(bool), st.just(z)),
        st.builds(PrimitiveFactor.const_pow, lead_bases, lead_slopes, st.just(0), st.just(z)),
    )


lead_prefactors = st.builds(
    lambda c, w: ParamPoly.number(c) + ParamPoly.var("w", coeff=w),
    st.sampled_from([3 / 7, -2 / 9, 1.5j]),
    st.sampled_from([0.0, 5 / 7]),
)
t_slopes = st.sampled_from([Fraction(0), Fraction(-1, 2), Fraction(1, 3)])


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
                              t_lin=_tlin({z: draw(t_slopes)}), t_const=rational.of(draw(t_slopes))))
    for _ in range(draw(st.integers(0 if terms else 1, most))):
        base = tuple(draw(st.lists(lead_factors(z), max_size=2)))
        c = draw(lead_prefactors)
        for sign in (c, -c):
            extra = tuple(draw(st.lists(unit_lead_factors(z), max_size=2)))
            terms.append(ZetaTerm(MeroFactorProduct(sign, base + extra), t_lin=_tlin({z: draw(t_slopes)})))
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
            s = s * draw(lead_sums("z2", regulators, most))
        sums.append(s)
    return sums, draw(st.sampled_from([2, 3, 4]))


@given(lead_problems())
def test_lead_first_elimination_is_the_full_expansion_bit_for_bit(problem):
    sums, order = problem
    for reg in sums[0].regulators:
        leads, coeffs, k = _expand_to_lead(sums, reg, order)
        want_leads, want_coeffs, want_k = full_expansion_to_lead(sums, reg, order)
        assert (leads, k) == (want_leads, want_k)
        assert [exact_terms(c) for c in coeffs] == [exact_terms(c) for c in want_coeffs]
        sums = coeffs


def test_lead_first_elimination_falls_back_past_a_cancelling_lead():
    # every term's lead is z^-1, and the leads cancel: the sum leads at z^0
    gamma = PrimitiveFactor.gamma(1, 0)
    s = ZetaTermSum([
        ZetaTerm(MeroFactorProduct(ParamPoly.number(3 / 7), (gamma,)), t_lin=_tlin({"z": Fraction(-1, 2)})),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-3 / 7), (gamma,))),
    ])
    (lead,), (coeff,), k = _expand_to_lead([s], "z", 4)
    want_leads, want_coeffs, want_k = full_expansion_to_lead([s], "z", 4)
    assert (lead, k) == (0, 4) and ([lead], k) == (want_leads, want_k)
    assert exact_terms(coeff) == exact_terms(want_coeffs[0])
    assert [t.t_log for t in coeff.terms] == [1]


def test_lead_first_elimination_doubles_the_truncation_for_a_vanishing_sum():
    t = ZetaTerm(MeroFactorProduct(ParamPoly.number(0.3), (PrimitiveFactor.gamma(1, -1),)))
    vanishing = ZetaTermSum([t, t.scaled(ParamPoly.number(-1.0))])
    leads, coeffs, k = _expand_to_lead([vanishing, ZetaTermSum([t])], "z", 3)
    assert (leads, k) == ([None, -1], 24)
    assert coeffs[0].terms == []
