import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetatrace.errors import (
    DegenerateCase,
    NotInvolution,
    ShapeMismatch,
    UnsupportedStructure,
)
from zetatrace.params import ExpKey, ParamPoly
from zetatrace.symbols import (
    MatrixSymbol,
    axis_terms,
    compose_observable,
    decompose_phase,
    involution_exp,
    reduce_on_sphere,
)

from evolution_matrix import matrix_numeric
from phase_values import reassemble
from power_series import series_pow


def mono(c, **exps):
    return ParamPoly.monomial(c, {k: Fraction(v) for k, v in exps.items()})


var, number = ParamPoly.var, ParamPoly.number


def degree(poly: ParamPoly, name: str) -> int:
    return max(poly.by_power(name), default=0)


# ---------------------------------------------------------------------------
# series_pow: the product recursion against brute-force powering
# ---------------------------------------------------------------------------


def brute_pow(coeffs, n, order):
    out = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(n):
        nxt = [Fraction(0)] * (order + 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                if i + j <= order:
                    nxt[i + j] += a * b
        out = nxt
    return out


def test_recursion_cube_of_binomial():
    coeffs = [Fraction(1), Fraction(2)]
    got = series_pow(coeffs, 3, 3)
    assert got == [Fraction(1), Fraction(6), Fraction(12), Fraction(8)]


def test_recursion_matches_brute_force_powering():
    rng = random.Random(5150)
    for _ in range(50):
        deg = rng.randint(0, 6)
        n = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg + 1)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        order = deg * n
        assert series_pow(coeffs, n, order) == brute_pow(coeffs, n, order)


def test_recursion_with_leading_zero():
    # (X + X^2)^2 = X^2 + 2 X^3 + X^4
    got = series_pow([Fraction(0), Fraction(1), Fraction(1)], 2, 4)
    assert got == [0, 0, 1, 2, 1]


# ---------------------------------------------------------------------------
# involution exponentials
# ---------------------------------------------------------------------------


def pauli_x():
    one, zero = number(1), ParamPoly.zero()
    return ((zero, one), (one, zero))


def schwinger_symbol():
    return MatrixSymbol(
        scalar=var("m"),
        coeff=var("xi"),
        kmatrix=pauli_x(),
    )


def test_involution_exp_schwinger_trace():
    evo = involution_exp(schwinger_symbol())
    pieces = compose_observable(evo, number(1))
    # trace of the evolution alone: e^(-imT)(e^(iT xi) + e^(-iT xi))
    assert len(pieces) == 2
    for p in pieces:
        assert p.amp.eval() == pytest.approx(1.0)
    assert {p.osc_sign for p in pieces} == {1, -1}


def test_involution_with_zero_coefficient_is_scalar():
    sym = MatrixSymbol(
        scalar=var("b"),
        coeff=ParamPoly.zero(),
        kmatrix=pauli_x(),
    )
    evo = involution_exp(sym)
    t, xi = 0.9, 1.7
    got = matrix_numeric(evo, t, {"xi": xi}, {"b": 0.5})
    want = cmath.exp(-1j * 0.5 * t) * np.eye(2)
    assert np.allclose(got, want)


def dirac3_k():
    one, zero = number(1), ParamPoly.zero()
    h = [var(s) for s in ("h1", "h2", "h3")]
    sv = ((h[2], h[0] + (-1j) * h[1]), (h[0] + 1j * h[1], -h[2]))
    return (
        (zero, zero, sv[0][0], sv[0][1]),
        (zero, zero, sv[1][0], sv[1][1]),
        (sv[0][0], sv[0][1], zero, zero),
        (sv[1][0], sv[1][1], zero, zero),
    )


def test_dirac_trace_structure():
    sym = MatrixSymbol(
        scalar=var("m"),
        coeff=var("r"),
        kmatrix=dirac3_k(),
        direction_syms=("h1", "h2", "h3"),
    )
    evo = involution_exp(sym)
    pieces = compose_observable(evo, sym)
    # summed trace: 4 m cos(Tr) - 4 i r sin(Tr) as e^(+-irT) pieces 2(m -+ r)
    amps = {p.osc_sign: p.amp for p in pieces}
    for s in (1, -1):
        amp = amps[s]
        m_c = amp.by_power("r")[0]
        r_c = amp.by_power("r")[1]
        assert m_c == var("m").scale(2)
        assert r_c.eval() == pytest.approx(-2.0 * s)


def test_involution_group_law():
    sym = schwinger_symbol()
    evo = involution_exp(sym)
    rng = random.Random(99)
    for _ in range(5):
        t1, t2 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        vals = {"xi": rng.uniform(-2, 2)}
        binds = {"m": rng.uniform(0.5, 2)}
        e1 = matrix_numeric(evo, t1, vals, binds)
        e2 = matrix_numeric(evo, t2, vals, binds)
        e12 = matrix_numeric(evo, t1 + t2, vals, binds)
        assert np.allclose(e1 @ e2, e12, atol=1e-9)


def test_involution_matches_expm():
    from scipy.linalg import expm

    sym = schwinger_symbol()
    evo = involution_exp(sym)
    t = 0.77
    vals, binds = {"xi": 1.3}, {"m": 0.9}
    H = np.array([[0.9, 1.3], [1.3, 0.9]])
    want = expm(-1j * H * t)
    got = matrix_numeric(evo, t, vals, binds)
    assert np.allclose(got, want, atol=1e-12)


def test_not_involution_rejected():
    one, zero = number(1), ParamPoly.zero()
    with pytest.raises(NotInvolution):
        MatrixSymbol(
            scalar=ParamPoly.zero(),
            coeff=var("xi"),
            kmatrix=((one, one), (one, one)),
        )


def test_compose_scalar_observable_broadcast():
    evo = involution_exp(schwinger_symbol())
    obs = var("m")
    pieces = compose_observable(evo, obs)
    for p in pieces:
        assert p.amp == ParamPoly.var("m")


def test_compose_identity_observable_keeps_evolution():
    pieces = compose_observable(None, var("xi", 2))
    assert len(pieces) == 1
    assert pieces[0].osc_sign == 0
    assert degree(pieces[0].amp, "xi") == 2


def test_compose_matrix_oracle_2x2():
    """Explicit 2x2 symbolic multiply + trace against the structural formula."""
    evo = involution_exp(schwinger_symbol())
    pieces = compose_observable(evo, schwinger_symbol())
    rng = random.Random(7)
    for _ in range(4):
        t = rng.uniform(0.2, 1.5)
        xi = rng.uniform(-2.0, 2.0)
        m = rng.uniform(0.5, 2.0)
        H = np.array([[m, xi], [xi, m]])
        E = np.array(
            [
                [cmath.cos(t * xi), -1j * cmath.sin(t * xi)],
                [-1j * cmath.sin(t * xi), cmath.cos(t * xi)],
            ]
        ) * cmath.exp(-1j * m * t)
        want = np.trace(E @ H)
        got = sum(
            p.amp.eval({"xi": xi, "m": m}) * cmath.exp(1j * p.osc_sign * xi * t)
            for p in pieces
        ) * cmath.exp(-1j * m * t)
        assert got == pytest.approx(want, rel=1e-12)


def numbers(rows):
    return tuple(tuple(number(x) for x in row) for row in rows)


def sigma_dot(h1, h2, h3):
    """sigma . n over three direction symbols: K^2 = |n|^2 I."""
    h = [var(s) for s in (h1, h2, h3)]
    return ((h[2], h[0] + (-1j) * h[1]), (h[0] + 1j * h[1], -h[2]))


def test_span_check_rejects_a_nearby_involution():
    # the observable's K is sigma_x rotated by 1e-3 towards sigma_z: still K^2 = I
    evo = involution_exp(schwinger_symbol())
    eps = 1e-3
    tilted = MatrixSymbol(
        scalar=ParamPoly.zero(),
        coeff=number(1),
        kmatrix=numbers(((math.sin(eps), math.cos(eps)), (math.cos(eps), -math.sin(eps)))),
    )
    with pytest.raises(ShapeMismatch, match="involution differs"):
        compose_observable(evo, tilted)
    same = MatrixSymbol(scalar=ParamPoly.zero(), coeff=number(1), kmatrix=pauli_x())
    assert len(compose_observable(evo, same)) == 2


def test_involution_check_rejects_an_off_diagonal_defect():
    # K = I + 5e-4 sigma_x gives K^2 = I + 1e-3 sigma_x (diagonal 1 + 2.5e-7)
    with pytest.raises(NotInvolution):
        MatrixSymbol(
            scalar=ParamPoly.zero(),
            coeff=var("xi"),
            kmatrix=numbers(((1.0, 5e-4), (5e-4, 1.0))),
        )


def test_involution_check_is_exact():
    # a K that squares to I only up to rounding is not an involution
    def diag(d):
        return MatrixSymbol(
            scalar=ParamPoly.zero(),
            coeff=var("xi"),
            kmatrix=numbers(((d, 0.0), (0.0, 1.0))),
        )

    for d in (1 + 4e-6, 1 + 2**-52):
        with pytest.raises(NotInvolution):
            diag(d)
    diag(-1.0)


def test_involution_check_rejects_a_kmatrix_of_the_wrong_shape():
    with pytest.raises(NotInvolution):
        MatrixSymbol(  # two rows of three entries
            scalar=ParamPoly.zero(),
            coeff=var("xi"),
            kmatrix=numbers(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))),
        )


def test_sigma_dot_direction_involution_passes_the_span_check():
    sym = MatrixSymbol(
        scalar=var("m"),
        coeff=var("r"),
        kmatrix=sigma_dot("h1", "h2", "h3"),
        direction_syms=("h1", "h2", "h3"),
    )
    evo = involution_exp(sym)
    assert {p.osc_sign for p in compose_observable(evo, sym)} == {1, -1}
    swapped = MatrixSymbol(
        scalar=ParamPoly.zero(),
        coeff=var("r"),
        kmatrix=sigma_dot("h2", "h1", "h3"),
        direction_syms=("h1", "h2", "h3"),
    )
    with pytest.raises(ShapeMismatch, match="involution differs"):
        compose_observable(evo, swapped)


def test_span_check_is_exact_for_any_order_of_the_direction_symbols():
    for order in itertools.permutations(("h1", "h2", "h3")):
        sym = MatrixSymbol(
            scalar=var("m"),
            coeff=var("r"),
            kmatrix=sigma_dot("h1", "h2", "h3"),
            direction_syms=order,
        )
        evo = involution_exp(sym)
        assert len(compose_observable(evo, sym)) == 2
        swapped = MatrixSymbol(
            scalar=ParamPoly.zero(),
            coeff=var("r"),
            kmatrix=sigma_dot("h2", "h1", "h3"),
            direction_syms=order,
        )
        with pytest.raises(ShapeMismatch, match="involution differs"):
            compose_observable(evo, swapped)


def test_sigma_dot_without_direction_symbols_is_not_an_involution():
    # off the unit sphere (sigma . h)^2 = |h|^2 I, not I
    with pytest.raises(NotInvolution):
        MatrixSymbol(
            scalar=ParamPoly.zero(),
            coeff=var("r"),
            kmatrix=sigma_dot("h1", "h2", "h3"),
        )


DIRECTIONS = ("h1", "h2", "h3")


@st.composite
def direction_polys(draw):
    """Polynomials in h1, h2, h3 of degree <= 4 with small integer coefficients.

    Each exponent is drawn under what the earlier ones leave of the degree
    bound, so no draw is thrown away.
    """
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps, left = [], 4
        for _ in DIRECTIONS:
            exps.append(draw(st.integers(0, left)))
            left -= exps[-1]
        key = tuple((h, e) for h, e in zip(DIRECTIONS, exps) if e)
        terms[key] = draw(st.integers(-3, 3))
    return ParamPoly(terms)


@given(direction_polys())
def test_sphere_reduction_is_a_remainder_that_agrees_on_the_sphere(poly):
    rem = reduce_on_sphere(poly, DIRECTIONS)
    assert degree(rem, "h3") <= 1
    rng = random.Random(5)
    for _ in range(3):
        v = [rng.gauss(0, 1) for _ in DIRECTIONS]
        norm = math.sqrt(sum(x * x for x in v))
        point = {h: x / norm for h, x in zip(DIRECTIONS, v)}
        assert abs(rem.eval(point) - poly.eval(point)) <= 1e-9
    sphere = sum((var(h, 2) for h in DIRECTIONS), number(-1))
    assert reduce_on_sphere(poly * sphere, DIRECTIONS).is_zero()


def test_sphere_reduction_without_directions_is_the_identity():
    poly = var("h1", 3) + number(2)
    assert reduce_on_sphere(poly, ()) is poly


def test_shape_mismatch():
    evo = involution_exp(schwinger_symbol())
    other = MatrixSymbol(
        scalar=ParamPoly.zero(),
        coeff=var("r"),
        kmatrix=dirac3_k(),
        direction_syms=("h1", "h2", "h3"),
    )
    with pytest.raises(ShapeMismatch):
        compose_observable(evo, other)


# ---------------------------------------------------------------------------
# decompose_phase
# ---------------------------------------------------------------------------


def harmonic_phase():
    return (
        mono(0.5, m=1, omega=2, x=2)
        + mono(0.5, hbar=2, m=-1, xi=2)
        + mono(0.5, hbar=1, omega=1)
    )


def test_decompose_harmonic_oscillator():
    # oracle: expand hbar*omega*(sigma_adag * sigma_a + 1/2) in the scalar algebra
    x = var("x")
    xi = var("xi")
    root = mono(1, m=Fraction(1, 2), omega=Fraction(1, 2), hbar=Fraction(-1, 2)).scale(
        1 / math.sqrt(2)
    )
    a = (x + xi * mono(1j, hbar=1, m=-1, omega=-1)) * root
    adag = (x + xi * mono(-1j, hbar=1, m=-1, omega=-1)) * root
    h = (adag * a + number(0.5)) * mono(1, hbar=1, omega=1)
    d = decompose_phase(h, ["x", "xi"])
    assert d.g2["x"] == mono(0.5, m=1, omega=2)
    assert d.g2["xi"] == mono(0.5, hbar=2, m=-1)
    assert -d.const == mono(0.5, hbar=1, omega=1)
    assert d.g1.get("x", ParamPoly.zero()).is_zero()


def test_decompose_rotor():
    h = mono(0.5, J=-1, xi=2)
    d = decompose_phase(h, ["xi"])
    assert d.g2["xi"] == mono(0.5, J=-1)
    assert not d.g1
    assert d.const.is_zero()


def test_decompose_linear_axis():
    h = mono(-1, xi=1)
    d = decompose_phase(h, ["xi"])
    assert d.g1["xi"] == ParamPoly.number(-1)


def test_decompose_rejects_cubic():
    h = var("xi", 3)
    with pytest.raises(DegenerateCase):
        decompose_phase(h, ["xi"])


def test_decompose_rejects_cross_terms():
    h = var("x") * var("xi")
    with pytest.raises(UnsupportedStructure, match=r"^cross-axis phase coupling: \(\('x', 1\), \('xi', 1\)\)$"):
        decompose_phase(h, ["x", "xi"])


def test_decompose_reassemble_roundtrip():
    h = harmonic_phase()
    d = decompose_phase(h, ["x", "xi"])
    back = reassemble(d)
    assert (back - h).is_zero()


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_decompose_reassemble_random_quadratics(a2, a1, a0):
    h = mono(a2, u=2) + mono(a1, u=1) + number(a0)
    if a2 == 0 and a1 == 0:
        decomposed = decompose_phase(h, ["u"])
        assert -decomposed.const == ParamPoly.number(a0)
        return
    d = decompose_phase(h, ["u"])
    assert (reassemble(d) - h).is_zero()


# ---------------------------------------------------------------------------
# axis_terms: the one split of an integrand by its axis symbols
# ---------------------------------------------------------------------------


@st.composite
def integrands(draw):
    """Polys in the axes x, y and the parameters m, T, in any order and with repeated axis parts."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = draw(st.dictionaries(st.sampled_from(["x", "y", "m", "T"]), st.integers(-2, 2)))
        terms[tuple(draw(st.permutations(list(exps.items()))))] = draw(st.sampled_from([1.0, -0.5, 2j]))
    return ParamPoly(terms)


@given(integrands())
def test_axis_terms_split_every_term_once_in_order(p):
    def axis_of(key):
        return tuple((n, e) for n, e in key if n in ("x", "y"))

    parts = axis_terms(p, {"x", "y"})
    # one pair per axis part, in order of first appearance
    assert [axis for axis, _ in parts] == list(dict.fromkeys(map(axis_of, p.terms)))
    for axis, coeff in parts:
        assert all(type(e) is int for _, e in axis)
        assert all(type(k) is ExpKey and not axis_of(k) for k in coeff.terms)
        # each coefficient times its axis part gives back the poly's terms, in order
        own = [(k, c) for k, c in p.terms.items() if axis_of(k) == axis]
        assert [(tuple(sorted(k + axis)), c) for k, c in coeff.terms.items()] == own
    assert sum(len(coeff.terms) for _, coeff in parts) == len(p.terms)


def test_axis_terms_reject_a_non_integer_axis_power():
    with pytest.raises(UnsupportedStructure, match="non-integer axis power"):
        axis_terms(mono(1, x=Fraction(1, 2), m=1), {"x"})
