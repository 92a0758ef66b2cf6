import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetatrace.errors import DivergentLimit, NumericOverflow, ZeroOverZeroUnresolved
from zetatrace.laurent import (
    EXPONENT_KINDS,
    FactorKind,
    LaurentSeries,
    MeroFactorProduct,
    PrimitiveFactor,
    expand_factor,
    expand_product,
    gamma_value,
    half_turn,
    positive_base,
)
from zetatrace import rational
from zetatrace.params import ParamPoly
from zetatrace.terms import ZetaTerm, ZetaTermSum, ratio_limit, thermal_limit

import lanczos
from factor_values import coeff_at, factor_value


def c(series, power):
    coeff = coeff_at(series, power)
    return coeff.eval() if coeff is not None else 0j


def log_gamma_derivatives(x0=1.0, h=1e-4):
    """Finite-difference first and second derivative of ln Gamma on the real axis."""
    f = lambda x: math.lgamma(x)
    d1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
    d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
    return d1, d2


def test_gamma_z_plus_one_series_matches_finite_differences():
    d1, d2 = log_gamma_derivatives()
    series = expand_factor(PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 1)), order=2)
    assert series.lead == 0
    # Gamma(1+z) = exp(lnGamma(1+z)): c1 = d1, c2 = (d1^2 + d2)/2
    assert c(series, 0) == pytest.approx(1.0, abs=1e-12)
    assert c(series, 1) == pytest.approx(d1, abs=1e-8)
    assert c(series, 2) == pytest.approx((d1**2 + d2) / 2, abs=1e-6)
    # known closed forms: -euler_gamma and euler_gamma^2/2 + pi^2/12
    g = 0.5772156649015329
    assert c(series, 1) == pytest.approx(-g, abs=1e-12)
    assert c(series, 2) == pytest.approx(g**2 / 2 + math.pi**2 / 12, abs=1e-12)


def test_exp_ipi_identity():
    series = expand_factor(PrimitiveFactor(FactorKind.EXP_IPI, (0, 1), (0, 1)), order=2)
    assert c(series, 0) == 1
    assert c(series, 1) == 0


def test_affine_z_plus_three():
    series = expand_factor(PrimitiveFactor(FactorKind.AFFINE, (1, 1), (3, 1)), order=2)
    assert series.lead == 0
    assert c(series, 0) == 3
    assert c(series, 1) == 1
    assert c(series, 2) == 0


def test_gamma_times_z_cancels_pole():
    prod = MeroFactorProduct(
        ParamPoly.one(),
        (
            PrimitiveFactor(FactorKind.GAMMA, (1, 1), (0, 1)),
            PrimitiveFactor(FactorKind.AFFINE, (1, 1), (0, 1)),
        ),
    )
    series = expand_product(prod, order=4)
    assert series.lead == 0
    # Richardson check of the numeric product at z = 1e-4, 1e-5
    f = lambda z: lanczos.gamma(z) * z
    v1, v2 = f(1e-4), f(1e-5)
    extrapolated = (10 * v2 - v1) / 9
    assert c(series, 0) == pytest.approx(extrapolated, rel=1e-8)


def test_gamma_squared_has_double_pole():
    prod = MeroFactorProduct(
        ParamPoly.one(),
        (PrimitiveFactor(FactorKind.GAMMA, (1, 1), (0, 1)),) * 2,
    )
    series = expand_product(prod, order=4)
    assert series.lead == -2
    assert c(series, -2) == pytest.approx(1.0)


def test_paper_style_prefactor_value_at_zero():
    # -i e^(-i pi z / 2) Gamma(z + 1) -> -i at z = 0
    prod = MeroFactorProduct(
        ParamPoly.number(-1j),
        (
            PrimitiveFactor(FactorKind.EXP_IPI, (-1, 2), (0, 1)),
            PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 1)),
        ),
    )
    series = expand_product(prod, order=3)
    assert c(series, 0) == pytest.approx(-1j)


def zsum(*terms):
    return ZetaTermSum(list(terms), ("z",))


def factor_term(*factors, coeff=1.0):
    return ZetaTerm(MeroFactorProduct(ParamPoly.number(coeff), factors))


def limit_value(n, d):
    return thermal_limit(ratio_limit(n, d)).eval()


def test_ratio_limit_z_over_z():
    z = factor_term(PrimitiveFactor(FactorKind.AFFINE, (1, 1), (0, 1)))
    assert limit_value(zsum(z), zsum(z)) == pytest.approx(1.0)


def test_ratio_limit_cancelling_phase_factor():
    # (e^(-i pi (z+2)) - 1) over itself -> 1
    num = zsum(factor_term(PrimitiveFactor(FactorKind.EXP_IPI, (-1, 1), (-2, 1))), factor_term(coeff=-1.0))
    assert limit_value(num, num) == pytest.approx(1.0)


def test_ratio_limit_order_comparison():
    z = zsum(factor_term(PrimitiveFactor(FactorKind.AFFINE, (1, 1), (0, 1))))
    z2 = zsum(factor_term(PrimitiveFactor(FactorKind.AFFINE, (1, 1), (0, 1), power=2)))
    assert not ratio_limit(z2, z).terms
    with pytest.raises(DivergentLimit):
        ratio_limit(z, z2)


def test_ratio_limit_zero_over_zero():
    zero = zsum(factor_term(), factor_term(coeff=-1.0))
    with pytest.raises(ZeroOverZeroUnresolved):
        ratio_limit(zero, zero)


def test_ratio_limit_regular_quotient():
    num = zsum(factor_term(PrimitiveFactor(FactorKind.AFFINE, (1, 1), (3, 1))))  # 3 + z
    den = zsum(factor_term(PrimitiveFactor(FactorKind.AFFINE, (1, 1), (1, 1))))  # 1 + z
    assert limit_value(num, den) == pytest.approx(3.0)


FACTORS = [
    PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 1)),
    PrimitiveFactor(FactorKind.GAMMA, (1, 2), (3, 2)),
    PrimitiveFactor(FactorKind.EXP_IPI, (-1, 2), (-1, 2)),
    PrimitiveFactor(FactorKind.EXP_IPI, (-3, 2), (1, 2)),
    PrimitiveFactor(FactorKind.AFFINE, (1, 1), (3, 1)),
    PrimitiveFactor(FactorKind.AFFINE, (1, 2), (2, 1), power=-1),
]


@given(
    st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3),
    st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3),
)
def test_expand_product_is_multiplicative(fa, fb):
    a = MeroFactorProduct(ParamPoly.one(), tuple(fa))
    b = MeroFactorProduct(ParamPoly.one(), tuple(fb))
    joint = expand_product(MeroFactorProduct(ParamPoly.one(), tuple(fa + fb)), order=4)
    split = expand_product(a, order=4).mul(expand_product(b, order=4))
    top = min(joint.lead + len(joint.coeffs), split.lead + len(split.coeffs))
    for p in range(max(joint.lead, split.lead), top):
        x = (coeff_at(joint, p) or ParamPoly.zero()).eval({})
        y = (coeff_at(split, p) or ParamPoly.zero()).eval({})
        assert abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))


def folded_product(p, order):
    """The ParamPoly fold ``expand_product`` must reproduce bit for bit.

    Its own truncated product loop, not ``LaurentSeries.mul``, so that the
    property compares two implementations.
    """
    coeffs = [ParamPoly.one()] + [ParamPoly.zero()] * order
    lead = 0
    for f in p.factors:
        series = expand_factor(f, order)
        n = min(len(coeffs), len(series.coeffs))
        out = [ParamPoly.zero() for _ in range(n)]
        for i, a in enumerate(coeffs):
            for j, b in enumerate(series.coeffs):
                if i + j < n:
                    out[i + j] = out[i + j] + a * b
        lead, coeffs = lead + series.lead, out
    return LaurentSeries(lead, coeffs).scale(p.prefactor)


def exact(series):
    """Lead, terms, and their repr in insertion order: later sums add in that order."""
    return series.lead, [c.terms for c in series.coeffs], [repr(list(c.terms.items())) for c in series.coeffs]


slopes = st.sampled_from([rational.of(Fraction(k, d)) for k in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 4)])
half_integers = st.integers(-3, 3).map(lambda k: (2 * k + 1, 2))
poles = st.integers(-3, 0).map(lambda n: (n, 1))
# Gamma(x)^k, regular or at a pole, for k = 1..3
gammas = st.builds(PrimitiveFactor, st.just(FactorKind.GAMMA), slopes, half_integers | poles, st.integers(1, 3))
numeric_factors = st.one_of(
    gammas,
    st.builds(PrimitiveFactor, st.just(FactorKind.EXP_IPI), slopes, slopes),
    st.builds(PrimitiveFactor, st.just(FactorKind.AFFINE), slopes, st.just(rational.ZERO),
              st.integers(-3, 3).filter(bool)),
    st.builds(PrimitiveFactor, st.just(FactorKind.AFFINE), slopes, slopes, st.integers(-3, 3).filter(bool)),
)
bases = st.builds(
    lambda c, e: positive_base(ParamPoly.monomial(c, {"J": e, "m": Fraction(1, 2)})),
    st.sampled_from([0.3, 2.0, 7.5]),
    st.sampled_from([Fraction(1), Fraction(-1, 2)]),
)
# a zero slope makes a constant, numbers times one monomial like the factors above
const_pows = st.builds(
    lambda base, a, b: PrimitiveFactor(FactorKind.CONST_POW, a, b, base=base),
    bases, slopes | st.just(rational.ZERO), slopes,
)
any_factors = st.booleans().flatmap(lambda power: const_pows if power else numeric_factors)
monomials = st.builds(
    ParamPoly.monomial,
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    st.dictionaries(st.sampled_from(["pi", "T", "J", "ln(J)"]), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(-2)]), max_size=2),
)
prefactors = st.lists(monomials, min_size=1, max_size=3).map(lambda ms: sum(ms, ParamPoly.zero()))


@settings(max_examples=200)
@given(
    st.lists(numeric_factors, max_size=4),
    st.lists(any_factors, max_size=3),
    prefactors,
    st.integers(2, 16),
)
def test_expand_product_is_the_param_poly_fold_bit_for_bit(head, tail, prefactor, order):
    p = MeroFactorProduct(prefactor, tuple(head + tail))
    assert exact(expand_product(p, order)) == exact(folded_product(p, order))


@given(gammas.filter(lambda g: g.power > 1), st.integers(0, 16))
def test_a_gamma_power_is_the_param_poly_fold_of_its_copies_bit_for_bit(g, order):
    one = g.remade(g.alpha, g.beta)
    copies = MeroFactorProduct._canonical(ParamPoly.one(), (one,) * g.power)  # unfolded
    assert exact(expand_factor(g, order)) == exact(folded_product(copies, order))


@pytest.mark.parametrize("factor, order", [
    (PrimitiveFactor(FactorKind.GAMMA, (1, 1), (171, 1)), 4),  # 170! psi(171)^4 / 4! overflows
    (PrimitiveFactor(FactorKind.GAMMA, (1, 1), (150, 1), power=2), 2),  # (149!)^2 overflows
])
def test_a_series_past_the_float_range_overflows_alone_and_in_a_product(factor, order):
    half = PrimitiveFactor(FactorKind.EXP_IPI, (-1, 2), (1, 2))
    sloped = PrimitiveFactor(FactorKind.CONST_POW, (1, 1), (1, 2),
                             base=positive_base(ParamPoly.monomial(2.0, {"J": Fraction(1)})))
    with pytest.raises(NumericOverflow, match="not finite"):
        expand_factor(factor, order)
    for factors in [(half, factor), (half, factor, sloped), (sloped, factor)]:
        with pytest.raises(NumericOverflow, match="not finite"):
            expand_product(MeroFactorProduct(ParamPoly.one(), factors), order)


@pytest.mark.parametrize("tiny", [
    PrimitiveFactor(FactorKind.CONST_POW, rational.ZERO, (2, 1),
                    base=positive_base(ParamPoly.monomial(1e-300, {"J": Fraction(1)}))),  # 1e-600 J^2
    PrimitiveFactor(FactorKind.GAMMA, (1, 1), (-1000, 3)),  # Gamma(-1000/3) ~ 1e-700
])
def test_a_factor_that_underflows_expands_to_zero_alone_and_after_a_gamma(tiny):
    gamma = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 2))
    for series in [expand_factor(tiny, 4), expand_product(MeroFactorProduct(ParamPoly.number(3.0), (gamma, tiny)), 4)]:
        assert series.lead == 0 and len(series.coeffs) == 5
        assert all(c.is_zero() for c in series.coeffs)


def raw_fold(factors, order):
    """The series of the factors as listed, repeats and split phases included."""
    series = LaurentSeries(0, [ParamPoly.one()] + [ParamPoly.zero()] * order)
    for f in factors:
        series = series.mul(expand_factor(f, order))
    return series


# a few distinct factors, drawn with repetition, so that keys repeat
repeated_factors = st.lists(any_factors, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
)


@settings(max_examples=100)
@given(repeated_factors, slopes, slopes, st.integers(2, 8), st.data())
def test_a_product_is_canonical_however_its_factors_are_listed(factors, a, b, order, data):
    p = MeroFactorProduct(ParamPoly.one(), tuple(factors))
    keys = [f.fold_key for f in p.factors]
    assert len(set(keys)) == len(keys)
    assert keys == [k for k in dict.fromkeys(f.fold_key for f in factors) if k in keys]  # first occurrence
    for f in p.factors:
        assert (f.alpha, f.beta) != (rational.ZERO, rational.ZERO) if f.kind in EXPONENT_KINDS else f.power
    # shuffled, each phase and power split into two whose exponents sum to its own
    split = [
        g for f in factors for g in (
            [PrimitiveFactor(f.kind, rational.sub(f.alpha, a), rational.sub(f.beta, b),
                             f.power, f.base, f.regulator),
             PrimitiveFactor(f.kind, a, b, f.power, f.base, f.regulator)]
            if f.kind in EXPONENT_KINDS else [f]
        )
    ]
    q = MeroFactorProduct(ParamPoly.number(2.0), tuple(data.draw(st.permutations(split))))
    assert ZetaTerm(p).structure_key() == ZetaTerm(q).structure_key()
    (merged,) = ZetaTermSum([ZetaTerm(p), ZetaTerm(q)]).merged().terms
    assert merged.coeff.prefactor.terms == {(): 3.0}
    got, want = expand_product(p, order), raw_fold(factors, order)
    assert (got.lead, len(got.coeffs)) == (want.lead, len(want.coeffs))
    bindings = {"J": 1.3, "m": 0.7}
    xs, ys = ([c.eval(bindings) for c in s.coeffs] for s in (got, want))
    scale = max(1.0, *map(abs, ys))
    assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(xs, ys)), (xs, ys)


def test_a_repeated_gamma_is_one_factor_with_its_power():
    g = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (-1, 1))  # Gamma(z-1): residue -1 at z = 0
    p = MeroFactorProduct(ParamPoly.one(), (g, g, g))
    assert p.factors == (g.raised(3),) and p.render() == "1 * Gamma(z-1)^3"
    assert p.factors[0].pole_order() == 3
    series = expand_product(p, order=2)
    assert series.lead == -3
    assert c(series, -3) == pytest.approx(-1.0, rel=1e-14)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("z", [1e-3, 1e-4])
def test_series_matches_direct_numeric_value(factor, z):
    series = expand_factor(factor, order=6)
    approx = sum(
        (coeff_at(series, p) or ParamPoly.zero()).eval({}) * z ** p
        for p in range(series.lead, series.lead + len(series.coeffs))
    )
    direct = factor_value(factor, z)
    assert approx == pytest.approx(direct, rel=1e-5)


def test_gamma_at_negative_integer_argument_with_regulator():
    # Gamma(z - 1) has a simple pole at z = 0 with residue -1
    series = expand_factor(PrimitiveFactor(FactorKind.GAMMA, (1, 1), (-1, 1)), order=4)
    assert series.lead == -1
    assert c(series, -1) == pytest.approx(-1.0)
    z = 1e-5
    approx = sum(
        c(series, p) * z**p for p in range(series.lead, series.lead + len(series.coeffs))
    )
    assert approx == pytest.approx(lanczos.gamma(z - 1), rel=1e-6)


@pytest.mark.parametrize("a", [Fraction(1), Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3)])
def test_gamma_at_a_pole_matches_a_40_digit_taylor_series(a):
    """Each Laurent coefficient of Gamma(a z - n) against the Taylor series of
    z Gamma(a z - n) by 40-digit numerical differentiation; its value at z = 0
    is the residue (-1)^n / (n! a)."""
    for n in range(4):
        series = expand_factor(PrimitiveFactor(FactorKind.GAMMA, rational.of(a), (-n, 1)), order=8)
        assert (series.lead, len(series.coeffs)) == (-1, 9)
        with mpmath.workdps(40):
            x = mpmath.mpf(a.numerator) / a.denominator
            residue = (-1) ** n / (mpmath.factorial(n) * x)
            want = mpmath.taylor(lambda z: z * mpmath.gamma(x * z - n) if z else residue, 0, 8)
        for got, w in zip(series.coeffs, map(complex, want)):
            assert abs(got.eval() - w) <= 4e-15 * abs(w), (n, got, w)


def test_half_turn_exact_values():
    assert half_turn(rational.of(Fraction(0))) == 1
    assert half_turn(rational.of(Fraction(1))) == -1
    assert half_turn(rational.of(Fraction(1, 2))) == 1j
    assert half_turn(rational.of(Fraction(-3, 2))) == 1j
    assert half_turn(rational.of(Fraction(-9, 2))) == -1j


def test_gamma_value_half_integers_symbolic_in_pi():
    g = gamma_value(rational.of(Fraction(1, 2)))
    assert g.render() == "pi^1/2"
    ratio = gamma_value(rational.of(Fraction(3, 2))) * gamma_value(rational.of(Fraction(1, 2))).inverse()
    assert ratio.eval() == pytest.approx(0.5)


def test_gamma_value_rejects_arguments_past_the_float_range():
    # the last integer and half-integer arguments whose Gamma is a finite float
    assert gamma_value(rational.of(Fraction(171))).eval() == float(math.factorial(170))
    assert gamma_value(rational.of(Fraction(343, 2))).terms
    assert gamma_value(rational.of(Fraction(-343, 2))).terms
    for beta in (Fraction(172), Fraction(345, 2), Fraction(-345, 2), Fraction(10**12)):
        with pytest.raises(NumericOverflow, match=rf"Gamma\({beta}\) leaves the float range"):
            gamma_value(rational.of(beta))


def test_const_pow_expansion_uses_formal_logs():
    base = ParamPoly.monomial(2.0, {"J": Fraction(1)})
    f = PrimitiveFactor(FactorKind.CONST_POW, (1, 1), (3, 2), base=positive_base(base))
    series = expand_factor(f, order=3)
    z = 1e-3
    bindings = {"J": 1.7}
    approx = sum(
        (coeff_at(series, p) or ParamPoly.zero()).eval(bindings) * z**p
        for p in range(0, len(series.coeffs))
    )
    direct = (2 * 1.7) ** (z + 1.5)
    assert approx == pytest.approx(direct, rel=1e-9)
