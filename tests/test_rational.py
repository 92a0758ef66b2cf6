"""The regulator exponents' integer pairs (``zetatrace.rational``) against ``Fraction``."""

import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from zetatrace import rational

fractions = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@settings(max_examples=300)
@given(fractions, fractions)
def test_pairs_compute_as_fraction_does(x, y):
    p, q = rational.of(x), rational.of(y)
    assert rational.fraction(p) == x
    ops = ((rational.add, operator.add), (rational.sub, operator.sub), (rational.mul, operator.mul))
    for pair_op, op in ops:
        got, want = pair_op(p, q), op(x, y)
        assert got == (want.numerator, want.denominator), pair_op.__name__
        assert rational.to_float(got).hex() == float(want).hex()
        assert rational.text(got) == str(want)
    assert rational.neg(p) == rational.of(-x)
    # a value's sign is its numerator's, so pairs compare through their difference
    assert (rational.sub(p, q)[0] < 0) == (x < y)
    assert (rational.sub(p, q)[0] == 0) == (x == y) == (p == q)
    assert rational.to_float(p).hex() == float(x).hex()
    assert rational.text(p) == str(x)


@settings(max_examples=100)
@given(fractions, fractions)
def test_equal_values_are_equal_pairs_with_equal_hashes(x, y):
    # one value reached two ways: (x + y) - y and x, x * 1 and x + 0
    for a, b in (
        (rational.sub(rational.add(rational.of(x), rational.of(y)), rational.of(y)), rational.of(x)),
        (rational.mul(rational.of(x), rational.ONE), rational.add(rational.of(x), rational.ZERO)),
        (rational.mul(rational.of(x), rational.ZERO), rational.sub(rational.of(y), rational.of(y))),
    ):
        assert a == b and hash(a) == hash(b)
    assert rational.sub(rational.of(x), rational.of(x)) == rational.ZERO
