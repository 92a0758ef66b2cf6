import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
from zetatrace.params import ParamPoly
from zetatrace.symbols import (
    AxisPoly,
    MatrixSymbol,
    compose_observable,
    decompose_phase,
    involution_exp,
    series_pow,
)

from evolution_matrix import matrix_numeric


def mono(c, **exps):
    return ParamPoly.monomial(c, {k: Fraction(v) for k, v in exps.items()})


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
    one, zero = AxisPoly.number(1), AxisPoly.zero()
    return ((zero, one), (one, zero))


def schwinger_symbol():
    return MatrixSymbol(
        dim=2,
        scalar=AxisPoly.constant(ParamPoly.var("m")),
        coeff=AxisPoly.symbol("xi"),
        kmatrix=pauli_x(),
    )


def test_involution_exp_schwinger_trace():
    evo = involution_exp(schwinger_symbol())
    pieces = compose_observable(evo, AxisPoly.number(1))
    # trace of the evolution alone: e^(-imT)(e^(iT xi) + e^(-iT xi))
    assert len(pieces) == 2
    for p in pieces:
        assert p.amp.constant_part().plain().as_number() == pytest.approx(1.0)
    assert {p.osc_sign for p in pieces} == {1, -1}


def test_involution_with_zero_coefficient_is_scalar():
    sym = MatrixSymbol(
        dim=2,
        scalar=AxisPoly.constant(ParamPoly.var("b")),
        coeff=AxisPoly.symbol("xi", coeff=ParamPoly.zero()),
        kmatrix=pauli_x(),
    )
    evo = involution_exp(sym)
    t, xi = 0.9, 1.7
    got = matrix_numeric(evo, t, {"xi": xi}, {"b": 0.5})
    want = cmath.exp(-1j * 0.5 * t) * np.eye(2)
    assert np.allclose(got, want)


def dirac3_k():
    one, zero = AxisPoly.number(1), AxisPoly.zero()
    h = [AxisPoly.symbol(s) for s in ("h1", "h2", "h3")]
    sv = ((h[2], h[0] + (-1j) * h[1]), (h[0] + 1j * h[1], -h[2]))
    return (
        (zero, zero, sv[0][0], sv[0][1]),
        (zero, zero, sv[1][0], sv[1][1]),
        (sv[0][0], sv[0][1], zero, zero),
        (sv[1][0], sv[1][1], zero, zero),
    )


def test_dirac_trace_structure():
    sym = MatrixSymbol(
        dim=4,
        scalar=AxisPoly.constant(ParamPoly.var("m")),
        coeff=AxisPoly.symbol("r"),
        kmatrix=dirac3_k(),
        direction_syms=("h1", "h2", "h3"),
    )
    evo = involution_exp(sym)
    pieces = compose_observable(evo, sym)
    # summed trace: 4 m cos(Tr) - 4 i r sin(Tr) as e^(+-irT) pieces 2(m -+ r)
    amps = {p.osc_sign: p.amp for p in pieces}
    for s in (1, -1):
        amp = amps[s]
        m_c = amp.coefficient_of("r", 0).constant_part().plain()
        r_c = amp.coefficient_of("r", 1).constant_part().plain()
        assert m_c == ParamPoly.var("m").scale(2)
        assert r_c.as_number() == pytest.approx(-2.0 * s)


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
    one, zero = AxisPoly.number(1), AxisPoly.zero()
    with pytest.raises(NotInvolution):
        MatrixSymbol(
            dim=2,
            scalar=AxisPoly.zero(),
            coeff=AxisPoly.symbol("xi"),
            kmatrix=((one, one), (one, one)),
        )


def test_compose_scalar_observable_broadcast():
    evo = involution_exp(schwinger_symbol())
    obs = AxisPoly.constant(ParamPoly.var("m"))
    pieces = compose_observable(evo, obs)
    for p in pieces:
        assert p.amp.constant_part().plain() == ParamPoly.var("m")


def test_compose_identity_observable_keeps_evolution():
    pieces = compose_observable(None, AxisPoly.symbol("xi", 2))
    assert len(pieces) == 1
    assert pieces[0].osc_sign == 0
    assert pieces[0].amp.degree_in("xi") == 2


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
            p.amp.eval({"xi": xi}, {"m": m}) * cmath.exp(1j * p.osc_sign * xi * t)
            for p in pieces
        ) * cmath.exp(-1j * m * t)
        assert got == pytest.approx(want, rel=1e-12)


def numbers(rows):
    return tuple(tuple(AxisPoly.number(x) for x in row) for row in rows)


def sigma_dot(h1, h2, h3):
    """sigma . n over three direction symbols: K^2 = |n|^2 I."""
    h = [AxisPoly.symbol(s) for s in (h1, h2, h3)]
    return ((h[2], h[0] + (-1j) * h[1]), (h[0] + 1j * h[1], -h[2]))


def test_span_check_rejects_a_nearby_involution():
    # the observable's K is sigma_x rotated by 1e-3 towards sigma_z: still K^2 = I
    evo = involution_exp(schwinger_symbol())
    eps = 1e-3
    tilted = MatrixSymbol(
        dim=2,
        scalar=AxisPoly.zero(),
        coeff=AxisPoly.number(1),
        kmatrix=numbers(((math.sin(eps), math.cos(eps)), (math.cos(eps), -math.sin(eps)))),
    )
    with pytest.raises(ShapeMismatch, match="involution differs"):
        compose_observable(evo, tilted)
    same = MatrixSymbol(
        dim=2, scalar=AxisPoly.zero(), coeff=AxisPoly.number(1), kmatrix=pauli_x()
    )
    assert len(compose_observable(evo, same)) == 2


def test_involution_check_rejects_an_off_diagonal_defect():
    # K = I + 5e-4 sigma_x gives K^2 = I + 1e-3 sigma_x (diagonal 1 + 2.5e-7)
    with pytest.raises(NotInvolution):
        MatrixSymbol(
            dim=2,
            scalar=AxisPoly.zero(),
            coeff=AxisPoly.symbol("xi"),
            kmatrix=numbers(((1.0, 5e-4), (5e-4, 1.0))),
        )


def test_involution_check_keeps_the_relative_tolerance():
    # |K^2 - I| <= 1e-9 + 1e-5 |I| entrywise, as numpy.allclose(K @ K, I, atol=1e-9)
    def diag(d):
        return MatrixSymbol(
            dim=2,
            scalar=AxisPoly.zero(),
            coeff=AxisPoly.symbol("xi"),
            kmatrix=numbers(((d, 0.0), (0.0, 1.0))),
        )

    diag(1 + 4e-6)  # K^2 has 1 + 8e-6 on the diagonal
    with pytest.raises(NotInvolution):
        diag(1 + 6e-6)  # 1 + 1.2e-5


def test_involution_check_rejects_a_kmatrix_of_the_wrong_shape():
    with pytest.raises(NotInvolution):
        MatrixSymbol(  # 3x3 entries for a 2x2 symbol
            dim=2,
            scalar=AxisPoly.zero(),
            coeff=AxisPoly.symbol("xi"),
            kmatrix=numbers(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
        )


def test_sigma_dot_direction_involution_passes_the_span_check():
    sym = MatrixSymbol(
        dim=2,
        scalar=AxisPoly.constant(ParamPoly.var("m")),
        coeff=AxisPoly.symbol("r"),
        kmatrix=sigma_dot("h1", "h2", "h3"),
        direction_syms=("h1", "h2", "h3"),
    )
    evo = involution_exp(sym)
    assert {p.osc_sign for p in compose_observable(evo, sym)} == {1, -1}
    swapped = MatrixSymbol(
        dim=2,
        scalar=AxisPoly.zero(),
        coeff=AxisPoly.symbol("r"),
        kmatrix=sigma_dot("h2", "h1", "h3"),
        direction_syms=("h1", "h2", "h3"),
    )
    with pytest.raises(ShapeMismatch, match="involution differs"):
        compose_observable(evo, swapped)


SPAN_DRAWS = """
from zetatrace.params import ParamPoly
from zetatrace.symbols import AxisPoly, MatrixSymbol, compose_observable, involution_exp

h = [AxisPoly.symbol(s) for s in ("h1", "h2", "h3")]
sym = MatrixSymbol(
    dim=2,
    scalar=AxisPoly.constant(ParamPoly.var("m")),
    coeff=AxisPoly.symbol("r"),
    kmatrix=((h[2], h[0] + (-1j) * h[1]), (h[0] + 1j * h[1], -h[2])),
    direction_syms=("h1", "h2", "h3"),
)
evo = involution_exp(sym)
draws = []
k_numeric = MatrixSymbol.k_numeric

def recording(self, axis_values):
    draws.append(sorted(axis_values.items()))
    return k_numeric(self, axis_values)

MatrixSymbol.k_numeric = recording
compose_observable(evo, sym)
print(repr(draws))
"""


def test_span_check_draws_the_same_directions_under_any_hash_seed():
    # set iteration order follows PYTHONHASHSEED; the sampled directions must not
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", SPAN_DRAWS], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].startswith("[[('h1', ")
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_shape_mismatch():
    evo = involution_exp(schwinger_symbol())
    other = MatrixSymbol(
        dim=4,
        scalar=AxisPoly.zero(),
        coeff=AxisPoly.symbol("r"),
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
        AxisPoly.symbol("x", 2, mono(0.5, m=1, omega=2))
        + AxisPoly.symbol("xi", 2, mono(0.5, hbar=2, m=-1))
        + AxisPoly.constant(mono(0.5, hbar=1, omega=1))
    )


def test_decompose_harmonic_oscillator():
    # oracle: expand hbar*omega*(sigma_adag * sigma_a + 1/2) in the scalar algebra
    x = AxisPoly.symbol("x")
    xi = AxisPoly.symbol("xi")
    root = mono(1, m=Fraction(1, 2), omega=Fraction(1, 2), hbar=Fraction(-1, 2)).scale(
        1 / math.sqrt(2)
    )
    a = (x + xi * mono(1j, hbar=1, m=-1, omega=-1)) * root
    adag = (x + xi * mono(-1j, hbar=1, m=-1, omega=-1)) * root
    h = (adag * a + AxisPoly.number(0.5)) * mono(1, hbar=1, omega=1)
    d = decompose_phase(h, ["x", "xi"])
    assert d.h2["x"] == mono(0.5, m=1, omega=2)
    assert d.h2["xi"] == mono(0.5, hbar=2, m=-1)
    assert d.h0_const == mono(0.5, hbar=1, omega=1)
    assert d.h1.get("x", ParamPoly.zero()).is_zero()


def test_decompose_rotor():
    h = AxisPoly.symbol("xi", 2, mono(0.5, J=-1))
    d = decompose_phase(h, ["xi"])
    assert d.h2["xi"] == mono(0.5, J=-1)
    assert not d.h1
    assert d.h0_const.is_zero()


def test_decompose_linear_axis():
    h = AxisPoly.symbol("xi", 1, ParamPoly.number(-1))
    d = decompose_phase(h, ["xi"])
    assert d.h1["xi"] == ParamPoly.number(-1)


def test_decompose_rejects_cubic():
    h = AxisPoly.symbol("xi", 3)
    with pytest.raises(DegenerateCase):
        decompose_phase(h, ["xi"])


def test_decompose_rejects_cross_terms():
    h = AxisPoly.symbol("x") * AxisPoly.symbol("xi")
    with pytest.raises(UnsupportedStructure):
        decompose_phase(h, ["x", "xi"])


def test_decompose_reassemble_roundtrip():
    h = harmonic_phase()
    d = decompose_phase(h, ["x", "xi"])
    back = d.reassemble()
    assert (back - h).is_zero()


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_decompose_reassemble_random_quadratics(a2, a1, a0):
    h = (
        AxisPoly.symbol("u", 2, ParamPoly.number(a2))
        + AxisPoly.symbol("u", 1, ParamPoly.number(a1))
        + AxisPoly.constant(ParamPoly.number(a0))
    )
    if a2 == 0 and a1 == 0:
        decomposed = decompose_phase(h, ["u"])
        assert decomposed.h0_const == ParamPoly.number(a0)
        return
    d = decompose_phase(h, ["u"])
    assert (d.reassemble() - h).is_zero()
