import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetatrace import engine, oracle
from zetatrace.engine import ReducedIntegral
from zetatrace.errors import GammaPole
from zetatrace.laurent import FactorKind, PrimitiveFactor, positive_base
from zetatrace.params import ParamPoly
from zetatrace.tables import (
    PAPER,
    PRINCIPAL,
    AffineExp,
    angular_moment,
    gauss_radial,
    osc_linear,
)

import lanczos
from factor_values import product_value
from zetatrace.rational import of, to_float


def term_value(term, z, t_value, bindings=None):
    """Numeric value of a table row at explicit z and T."""
    v = product_value(term.coeff, z, bindings)
    texp = to_float(term.t_const) + sum(to_float(a) * z for _, a in term.t_lin)
    return v * t_value**texp


def factor_strings(term):
    return [f.render() for f in term.coeff.factors]


Q_Z = AffineExp("z", (1, 1), (0, 1))  # the exponent z


class TestOscLinear:
    def test_paper_positive_row(self):
    	# -i e^(-i pi z/2) Gamma(z+1) T^(-z-1)
        term = osc_linear(Q_Z, +1, PAPER)
        assert "Gamma(z+1)" in factor_strings(term)
        for z in (0.0, 0.3, -0.2):
            expected = -1j * cmath.exp(-1j * math.pi * z / 2) * lanczos.gamma(z + 1) * 10.0 ** (-z - 1)
            assert term_value(term, z, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_paper_negative_row(self):
        # +i e^(-3 i pi z/2) Gamma(z+1) T^(-z-1)
        term = osc_linear(Q_Z, -1, PAPER)
        for z in (0.0, 0.3, -0.2):
            expected = 1j * cmath.exp(-3j * math.pi * z / 2) * lanczos.gamma(z + 1) * 10.0 ** (-z - 1)
            assert term_value(term, z, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_principal_q_zero_gives_i_over_t(self):
        term = osc_linear(AffineExp("z", (0, 1), (0, 1)), +1, PRINCIPAL)
        assert term_value(term, 0.0, 4.0) == pytest.approx(1j / 4.0, rel=1e-12)
        # derived by quadrature
        assert oracle.damped_quadrature(0.0, 4.0) == pytest.approx(1j / 4.0, rel=1e-12)

    def test_principal_rows_are_conjugate_for_real_q(self):
        for qb in (0.25, 1.5):
            plus = term_value(osc_linear(Q_Z, +1, PRINCIPAL), qb, 7.0)
            minus = term_value(osc_linear(Q_Z, -1, PRINCIPAL), qb, 7.0)
            assert plus == pytest.approx(minus.conjugate(), rel=1e-12)

    def test_paper_rows_are_not_conjugate(self):
        # the conventional table is asymmetric at non-integer exponents
        qb = 0.25
        plus = term_value(osc_linear(Q_Z, +1, PAPER), qb, 7.0)
        minus = term_value(osc_linear(Q_Z, -1, PAPER), qb, 7.0)
        assert abs(plus - minus.conjugate()) > 1e-3 * abs(plus)

    def test_gamma_pole_without_regulator(self):
        with pytest.raises(GammaPole):
            osc_linear(AffineExp("z", (0, 1), (-1, 1)), +1, PAPER)


class TestGaussRadial:
    def test_fresnel_value(self):
        # int_R e^(-i u^2) du = sqrt(pi) e^(-i pi/4): rate*T = 1 at T = 1
        term = gauss_radial(AffineExp("z", (0, 1), (0, 1)))
        got = term_value(term, 0.0, 1.0)
        expected = math.sqrt(math.pi) * cmath.exp(-1j * math.pi / 4)
        assert got == pytest.approx(expected, rel=1e-12)
        # t = u^2: int_0^inf t^(-1/2) e^(-i t) dt
        assert oracle.damped_quadrature(-0.5, -1.0) == pytest.approx(expected, rel=1e-12)

    def test_branch_insensitive(self):
        # the engine's row for one Gaussian integral is one row under both policies
        integral = ReducedIntegral("gauss", Q_Z, 1, ParamPoly.monomial(0.5, {"J": Fraction(-1)}))
        paper = engine._table_row(integral, PAPER, {})
        principal = engine._table_row(integral, PRINCIPAL, {})
        assert paper.coeff.factors == principal.coeff.factors
        assert paper.coeff.prefactor == principal.coeff.prefactor
        assert (paper.t_lin, paper.t_const) == (principal.t_lin, principal.t_const)
        for z in (0.0, -0.2):
            a = term_value(paper, z, 9.0, {"J": 1.5})
            assert a == term_value(principal, z, 9.0, {"J": 1.5})

    def test_relation_to_conjugate_side_convention(self):
        """The worked 2D gauge-theory chain displays the conjugate-side value
        -i e^(-(3 i pi/2)(z-1)/2) Gamma((z+1)/2) (2/T)^((z+1)/2); the engine row
        equals its conjugate times e^(i pi z) (verbatim at z = 0).  Reproducing
        the displayed slope would flip the sign of every ratio across an even
        exponent gap, breaking the rotor susceptibility; see the notes in
        tables.py."""
        t_value = 6.0
        half = ParamPoly.number(0.5)

        def displayed(z):
            return (
                -1j
                * cmath.exp(-1.5j * math.pi * (z - 1) / 2)
                * lanczos.gamma((z + 1) / 2)
                * (2 / t_value) ** ((z + 1) / 2)
            )

        term = gauss_radial(Q_Z, rate=half)
        for z in (0.0, 0.3, -0.2):
            engine = term_value(term, z, t_value)
            relation = displayed(z).conjugate() * cmath.exp(-1j * math.pi * z)
            assert engine == pytest.approx(relation, rel=1e-12)
            assert abs(engine) == pytest.approx(abs(displayed(z)), rel=1e-12)
        assert term_value(term, 0.0, t_value) == pytest.approx(
            displayed(0.0).conjugate(), rel=1e-12
        )

    def test_odd_exponent_parity_zero(self):
        # odd integrands u |u|^q drop out before the table is consulted: the
        # moment of an odd direction power vanishes
        assert angular_moment((1,), 1).is_zero()
        assert angular_moment((3,), 1).is_zero()


exponents = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@given(a=exponents, b=exponents, scaled=st.booleans())
def test_gaussian_row_factors(a, b, scaled):
    """Gamma(a/2 z + (b+1)/2) e^(i pi (-a/4 z - (b+1)/4)) (rate T)^(-a/2 z - (b+1)/2), exactly."""
    rate = ParamPoly.monomial(0.5, {"J": Fraction(-1)}) if scaled else None
    c = (b + 1) / 2
    if a == 0 and c.denominator == 1 and c <= 0:
        with pytest.raises(GammaPole):
            gauss_radial(AffineExp("z", of(a), of(b)), rate)
        return
    row = gauss_radial(AffineExp("z", of(a), of(b)), rate)
    want = [
        PrimitiveFactor(FactorKind.GAMMA, of(a / 2), of(c)),
        PrimitiveFactor(FactorKind.EXP_IPI, of(-a / 4), of(-c / 2)),
    ]
    if scaled:
        want.append(PrimitiveFactor(FactorKind.CONST_POW, of(-a / 2), of(-c), base=positive_base(rate)))
    assert list(row.coeff.factors) == want
    assert row.coeff.prefactor == ParamPoly.one()
    assert row.t_lin == (("z", of(-a / 2)),) and row.t_const == of(-c)


class TestSphere:
    def test_volumes(self):
        assert angular_moment((), 3) == ParamPoly.monomial(4, {"pi": 1})
        assert angular_moment((), 2) == ParamPoly.monomial(2, {"pi": 1})
        assert angular_moment((), 1) == ParamPoly.number(2)

    def test_constant_angular_part(self):
        m = ParamPoly.var("m")
        out = m.scale(4) * angular_moment((), 3)
        assert out == m * ParamPoly.monomial(16, {"pi": 1})

    def test_odd_component_vanishes(self):
        assert angular_moment((1, 0, 0), 3).is_zero()

    def test_quadratic_moment_on_circle(self):
        # direct quadrature of cos^2 over [0, 2 pi)
        import numpy as np

        theta = np.linspace(0, 2 * math.pi, 20001)
        direct = np.trapezoid(np.cos(theta) ** 2, theta)
        got = angular_moment((2, 0), 2)
        assert got.eval({}) == pytest.approx(direct, rel=1e-6)
        assert got == ParamPoly.monomial(1, {"pi": 1})

    def test_sum_of_squared_components_is_volume(self):
        for dim in (1, 2, 3, 4):
            total = ParamPoly.zero()
            for j in range(dim):
                powers = tuple(2 if i == j else 0 for i in range(dim))
                total = total + angular_moment(powers, dim)
            assert total == angular_moment((), dim)


def test_every_row_matches_damped_quadrature():
    rng = random.Random(20240817)
    for _ in range(5):
        qv = rng.uniform(-0.4, 2.0)
        tv = rng.uniform(2.0, 12.0)
        q = AffineExp("z", (0, 1), of(Fraction(round(qv * 16), 16)))
        qf = to_float(q.b)
        plus = term_value(osc_linear(q, +1, PRINCIPAL), 0.0, tv)
        assert plus == pytest.approx(oracle.damped_quadrature(qf, tv), rel=1e-11)
        minus = term_value(osc_linear(q, -1, PRINCIPAL), 0.0, tv)
        assert minus == pytest.approx(oracle.damped_quadrature(qf, -tv), rel=1e-11)
        gauss = term_value(gauss_radial(q), 0.0, tv)
        assert gauss == pytest.approx(oracle.damped_quadrature((qf - 1.0) / 2.0, -tv), rel=1e-11)


def test_table_rows_at_negative_z_match_quadrature():
    for z in (-0.3, -0.1):
        tv = 5.0
        got = term_value(osc_linear(Q_Z, +1, PRINCIPAL), z, tv)
        assert got == pytest.approx(oracle.damped_quadrature(z, tv), rel=1e-11)
        gotg = term_value(gauss_radial(Q_Z), z, tv)
        assert gotg == pytest.approx(oracle.damped_quadrature((z - 1.0) / 2.0, -tv), rel=1e-11)


def test_rate_scaling():
    rate = ParamPoly.monomial(0.5, {"J": Fraction(-1)})
    term = osc_linear(Q_Z, +1, PRINCIPAL, rate=rate)
    bindings = {"J": 2.0}
    got = term_value(term, -0.1, 8.0, bindings)
    # effective T' = rate * T = 8/4 = 2
    want = term_value(osc_linear(Q_Z, +1, PRINCIPAL), -0.1, 2.0)
    assert got == pytest.approx(want, rel=1e-10)
