import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetatrace.errors import NumericOverflow, UnboundParameter, UnsupportedStructure
from zetatrace.params import ExpKey, ParamPoly, format_real, log_param


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


def test_eval_negative_power_of_zero_raises():
    with pytest.raises(NumericOverflow, match=r"^J\^-1 overflows at J = 0$"):
        ParamPoly.var("J", -1).eval({"J": 0.0})


def test_eval_overflowing_product_of_finite_powers_raises():
    # each power is in range, their product is not
    message = r"^lam\^-1/2 \* mu overflows at lam = 1e-300, mu = 1e\+200$"
    with pytest.raises(NumericOverflow, match=message):
        mono(1, mu=1, lam=Fraction(-1, 2)).eval({"mu": 1e200, "lam": 1e-300})


def test_eval_overflowing_sum_of_finite_terms_raises():
    with pytest.raises(NumericOverflow, match="overflows"):
        (mono(1e308) + mono(1e308, a=1)).eval({"a": 1.0})


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


def close(p, q, tol=1e-9):
    """Coefficients agree within ``tol`` times the largest of them, or of 1: ``==`` with a looser bound."""
    scale = max([abs(c) for c in (*p.terms.values(), *q.terms.values())] + [1.0])
    return all(abs(p.terms.get(k, 0) - q.terms.get(k, 0)) <= tol * scale for k in p.terms.keys() | q.terms.keys())


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert close((a * b) * c, a * (b * c))
    assert close(a * (b + c), a * b + a * c)


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


def test_format_real_prints_twelve_digits_from_1e15_on():
    assert format_real(1e307) == "1e+307"
    assert format_real(-2.5e20) == "-2.5e+20"
    assert format_real(1e15) == "1e+15"
    assert format_real(999999999999999.0) == "999999999999999"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1, math.inf)])
def test_a_non_finite_coefficient_raises_instead_of_pruning_the_poly(bad):
    a = (("a", Fraction(1)),)
    # before and after a finite term: max() hides a nan that does not come first
    for terms in ({(): 1.0, a: bad}, {a: bad, (): 1.0}, {a: bad}):
        with pytest.raises(NumericOverflow, match="not finite"):
            ParamPoly(terms)


def test_overflowing_arithmetic_raises():
    big = ParamPoly.number(1e308)
    with pytest.raises(NumericOverflow):
        big * ParamPoly.number(10)
    with pytest.raises(NumericOverflow):
        big + big


def test_exponent_keys_hash_and_compare_like_plain_tuples():
    pairs = (("J", Fraction(-1, 2)), ("m", Fraction(3)))
    key = ExpKey(pairs)
    assert hash(key) == hash(tuple(key)) == hash(pairs)
    assert key == pairs and pairs == key and ExpKey() == ()
    assert {pairs: 1}[key] == 1 and {key: 1}[pairs] == 1
    assert ParamPoly({pairs: 2.0}) == ParamPoly({key: 2.0})
    assert ParamPoly({pairs: 2.0}).terms == {pairs: 2.0}
    assert ParamPoly.one().terms == {(): 1.0}
    product = mono(2, J=1) * mono(3, m=3) + ParamPoly({pairs: 1.0})
    assert all(type(k) is ExpKey for k in product.terms)


def test_an_unsorted_key_names_the_same_monomial():
    total = ParamPoly({(("b", 1), ("a", 1)): 1.0}) + ParamPoly.monomial(1.0, {"a": 1, "b": 1})
    assert total.terms == {(("a", 1), ("b", 1)): 2.0}
    assert total.render() == "2 * a * b"


def test_an_unsorted_exponent_key_names_the_same_monomial():
    # the public constructor normalises every key, an ExpKey built by hand too
    total = ParamPoly({ExpKey((("b", 1), ("a", 1))): 1.0}) + ParamPoly.monomial(1.0, {"a": 1, "b": 1})
    assert total.terms == {(("a", 1), ("b", 1)): 2.0}
    assert total.render() == "2 * a * b"


def test_plain_keys_are_sorted_stripped_of_zero_exponents_and_summed():
    p = ParamPoly({
        (("a", 1), ("b", 0)): 1.0,
        (("a", 1),): 2.0,
        (("c", 1), ("b", 1)): 3.0,
        ExpKey((("b", 1), ("c", 1))): -3.0,
        (("e", 2), ("d", 1)): 4.0,
        ExpKey((("d", 1), ("e", 2))): 5.0,
    })
    assert p.terms == {(("a", 1),): 3.0, (("d", 1), ("e", 2)): 9.0}
    assert all(type(k) is ExpKey for k in p.terms)


def test_only_exact_zeros_are_dropped():
    small = ParamPoly.var("X").scale(1e-13)
    total = small + ParamPoly.var("Y")
    assert total.terms == {(("X", 1),): 1e-13, (("Y", 1),): 1.0}
    assert (small + ParamPoly.var("X", coeff=-1e-13)).terms == {}


def test_exactness_tests_need_exact_values():
    assert ParamPoly.one().is_one() and not ParamPoly.number(1 + 1e-15).is_one()
    assert not ParamPoly.number(complex(1, 1e-20)).is_positive_monomial()
    with pytest.raises(UnsupportedStructure):
        ParamPoly.number(complex(4, 1e-20)).mono_pow(Fraction(1, 2))


def test_a_param_poly_is_unhashable():
    # == is tolerant and so not transitive: no hash can agree with it
    with pytest.raises(TypeError):
        hash(ParamPoly.one())


def test_exponent_keys_survive_pickling():
    poly = mono(2, J=Fraction(1, 2)) + ParamPoly.var("m") + ParamPoly.one()
    loaded = pickle.loads(pickle.dumps(poly))
    assert loaded.terms == poly.terms
    assert all(type(k) is ExpKey and hash(k) == hash(tuple(k)) for k in loaded.terms)


def test_an_unpickled_key_hashes_afresh():
    key = ExpKey((("J", Fraction(1, 2)),))
    key._hash = 12345  # as if pickled by a process with another string-hash seed
    loaded = pickle.loads(pickle.dumps(key))
    assert loaded == key and hash(loaded) == hash(tuple(key))


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


@st.composite
def multi_polys(draw, names=("a", "b", "c", "T")):
    """Sums of monomials in any subset of ``names``."""
    total = ParamPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        exps = draw(st.dictionaries(st.sampled_from(names), exponents, max_size=len(names)))
        total = total + ParamPoly.monomial(draw(coeffs), exps)
    return total


@given(multi_polys(), st.sampled_from(["a", "b", "c", "T"]))
def test_by_power_parts_sum_back_to_the_terms(p, name):
    parts = p.by_power(name)
    powers = [dict(key).get(name, Fraction(0)) for key in p.terms]
    assert list(parts) == list(dict.fromkeys(powers))  # order of first appearance
    back = {}
    for power, part in parts.items():
        assert name not in part.params()
        for key, coeff in (part * ParamPoly.var(name, power)).terms.items():
            assert key not in back
            back[key] = coeff
    assert back == p.terms


@given(multi_polys(names=("a", "b", "c")))
def test_by_power_of_an_absent_parameter_is_the_poly_itself(p):
    parts = p.by_power("T")
    if p.is_zero():
        assert parts == {}
    else:
        assert list(parts) == [0] and parts[0].terms == p.terms


# ---------------------------------------------------------------------------
# The arithmetic builds its results canonical: the constructor changes nothing
# ---------------------------------------------------------------------------


def exact_terms(p: ParamPoly) -> list:
    """Every term in order, with its key's type and its coefficient's repr: signed zeros count."""
    return [(key, type(key), repr(c)) for key, c in p.terms.items()]


def assert_canonical(p: ParamPoly):
    # as plain tuples the keys go through all of the constructor's key normalisation
    assert exact_terms(p) == exact_terms(ParamPoly({tuple(k): c for k, c in p.terms.items()}))


# halves and signed zeros: sums cancel exactly and products leave -0.0 parts
parts = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -3.0, 1e-13])
exact_coeffs = st.builds(complex, parts, parts)


@st.composite
def raw_polys(draw, names=("a", "b", "c")):
    """Polys from the public constructor: keys unsorted, with zero exponents, repeated."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        pairs = draw(st.dictionaries(st.sampled_from(names), exponents, max_size=len(names)))
        key = tuple(draw(st.permutations(list(pairs.items()))))
        terms[key] = draw(exact_coeffs)
    return ParamPoly(terms)


@given(raw_polys(), raw_polys(), exact_coeffs, st.sampled_from(["a", "b", "c"]))
def test_arithmetic_results_are_canonical_as_built(a, b, c, name):
    for result in (a + b, a - b, -a, a * b, a * c, a.scale(c), a * 2, a ** 2):
        assert_canonical(result)
    for part in a.by_power(name).values():
        assert_canonical(part)


@given(st.dictionaries(st.sampled_from(["a", "b", "c"]), exponents, max_size=3), exact_coeffs, exponents)
def test_monomial_results_are_canonical_as_built(exps, c, e):
    m = ParamPoly.monomial(c, exps)
    if not m.is_zero():
        assert_canonical(m.inverse())
    positive = ParamPoly.monomial(abs(c) + 0.25, exps)
    assert_canonical(positive.mono_pow(e))
    assert_canonical(positive.mono_pow(0))


def test_the_finishing_step_turns_a_negative_zero_part_into_zero():
    # in floats, 2j * (-1 + 0j) and -(2j) are (-0-2j)
    for p in (ParamPoly.number(2j) * ParamPoly.number(-1), -ParamPoly.number(2j)):
        assert exact_terms(p) == [((), ExpKey, "-2j")]
    assert exact_terms(ParamPoly.one()) == exact_terms(ParamPoly({(): 1.0}))
    assert exact_terms(ParamPoly.number(3)) == exact_terms(ParamPoly({(): 3}))
