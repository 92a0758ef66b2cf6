import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetatrace.errors import NumericOverflow, UnboundParameter, UnsupportedStructure
from zetatrace.params import ParamPoly, format_real, log_param


def mono(c, **exps):
    return ParamPoly.monomial(c, {k: Fraction(v) for k, v in exps.items()})


def test_scale_by_two():
    half = mono(0.5, hbar=1, omega=1)
    assert half.scale(2) == mono(1, hbar=1, omega=1)


def test_additive_cancellation():
    m = mono(1, m=1)
    assert (m + (-m)).is_zero()


def test_exponent_addition_on_multiply():
    a = mono(1, mu=1, **{"lambda": Fraction(-1, 2)})
    assert a * a == mono(1, mu=2, **{"lambda": -1})


def test_eval_e_squared_over_pi():
    p = mono(1, e=2, pi=-1)
    assert p.eval({"e": 1.0}) == pytest.approx(1 / math.pi)


def test_eval_half_hbar_omega():
    p = mono(0.5, hbar=1, omega=1)
    assert p.eval({"hbar": 1.0, "omega": 2.0}) == pytest.approx(1.0)


def test_eval_sqrt_six_over_lambda_mu():
    p = mono(math.sqrt(6), mu=1, **{"lambda": Fraction(-1, 2)})
    assert p.eval({"lambda": 6.0, "mu": 3.0}) == pytest.approx(3.0)


def test_eval_unbound_raises():
    with pytest.raises(UnboundParameter):
        mono(1, m=1).eval({})


def test_eval_overflowing_power_raises_a_zetatrace_error():
    with pytest.raises(NumericOverflow, match=r"^mu\^2 overflows at mu = 1e\+200$"):
        mono(1, mu=2).eval({"mu": 1e200})


def test_pi_bound_automatically():
    assert mono(1, pi=2).eval({}) == pytest.approx(math.pi**2)


names = st.sampled_from(["a", "b", "c"])
exponents = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
coeffs = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False
)


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    total = ParamPoly.zero()
    for _ in range(n):
        name = draw(names)
        e = draw(exponents)
        c = draw(coeffs)
        total = total + ParamPoly.monomial(c, {name: e})
    return total


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b).almost_equal(b + a)
    assert (a * b).almost_equal(b * a)
    assert ((a + b) + c).almost_equal(a + (b + c))
    assert ((a * b) * c).almost_equal(a * (b * c), tol=1e-9)
    assert (a * (b + c)).almost_equal(a * b + a * c, tol=1e-9)


@given(polys(), polys())
def test_eval_is_ring_homomorphism(a, b):
    bindings = {"a": 1.3, "b": 0.7, "c": 2.1}
    lhs = (a * b).eval(bindings)
    rhs = a.eval(bindings) * b.eval(bindings)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_mono_pow_and_inverse():
    p = mono(4, J=2)
    assert p.mono_pow(Fraction(1, 2)) == mono(2, J=1)
    assert (p * p.inverse()).is_one()


def test_mono_pow_rejects_sums():
    with pytest.raises(UnsupportedStructure):
        (mono(1, a=1) + mono(1, b=1)).mono_pow(Fraction(1, 2))


def test_render_canonical():
    assert mono(1, e=2, pi=-1).render() == "e^2 * pi^-1"
    assert mono(0.5, hbar=1, omega=1).render() == "1/2 * hbar * omega"
    assert mono(0.5, hbar=1, omega=1).render_text() == "(1/2)·hbar·omega"


def test_render_is_stable():
    p = mono(0.25, J=-1, pi=-2)
    assert p.render() == p.render()
    q = mono(1, b=1) + mono(2, a=1)
    assert q.render() == "2 * a + b"


def test_format_real_irrational_stays_decimal():
    assert format_real(math.sqrt(6)) == "2.44948974278"
    assert format_real(0.5) == "1/2"
    assert format_real(1.0 - 1e-13) == "1"


def test_diff_and_subs():
    p = mono(-0.5, mu=2, phi=2) + mono(Fraction(1, 24), **{"lambda": 1, "phi": 4})
    d = p.diff("phi")
    assert d == mono(-1, mu=2, phi=1) + mono(Fraction(1, 6), **{"lambda": 1, "phi": 3})
    at_zero = d.subs("phi", ParamPoly.zero())
    assert at_zero.is_zero()


def test_log_param_evaluates_to_log_of_base():
    base = mono(2, J=1)
    lg = log_param(base)
    assert lg.eval({"J": 3.0}) == pytest.approx(math.log(6.0))
