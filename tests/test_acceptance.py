"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``zetatrace check``
for the model-level subset).  Tolerances are pinned here and nowhere else.
"""

import math
import random
import textwrap
from fractions import Fraction

import pytest

from zetatrace import oracle
from zetatrace.engine import (
    KVAmplitudeSpec,
    effective_potential,
    expectation,
    kv_trace_at_zero,
)
from zetatrace.laurent import FactorKind, MeroFactorProduct, PrimitiveFactor, expand_product
from zetatrace.models import (
    REGISTRY,
    dirac_fermion,
    harmonic_oscillator_1d,
    harmonic_oscillator_nd,
    phi4,
    run_model,
    schwinger_boson_mass,
    schwinger_free,
    topological_oscillator,
)
from zetatrace.modelfile import parse_model_text, to_model_spec
from zetatrace.oracle import potential_numeric
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL, AffineExp, angular_moment, gauss_radial, osc_linear
from zetatrace.terms import ZetaTermSum, ratio_limit, thermal_limit

from factor_values import coeff_at, product_value
from fits import decay_exponent
from model_render import render_model
from power_series import series_pow
from term_scaling import scaled
from zetatrace.rational import of, to_float


def mono(c, **exps):
    return ParamPoly.monomial(c, {k: Fraction(v) for k, v in exps.items()})


def report(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_01_harmonic_oscillator_1d():
    expected = mono(0.5, hbar=1, omega=1)
    res = expectation(harmonic_oscillator_1d(), "H", PAPER)
    assert res.value == expected
    rng = random.Random(101)
    for _ in range(10):
        b = {"m": rng.uniform(0.5, 3), "hbar": rng.uniform(0.5, 3), "omega": rng.uniform(0.5, 3)}
        got, want = res.value.eval(b), expected.eval(b)
        assert abs(got - want) <= 1e-9 * abs(want)
    report(1, "<H> = hbar*omega/2 exactly, numeric cross-check at 10 bindings")


def test_criterion_02_harmonic_oscillator_nd():
    for n in (2, 3):
        expected = mono(0.5 * n, hbar=1, omega=1)
        grouped = expectation(harmonic_oscillator_nd(n), "H", PAPER).value
        per_axis = expectation(harmonic_oscillator_nd(n, per_axis=True), "H", PAPER).value
        assert grouped == expected
        assert grouped == per_axis
    report(2, "<H> = N*hbar*omega/2 for N in {2,3}; grouped == per-axis gauge")


def test_criterion_03_topological_oscillator():
    run = run_model("topological_oscillator", PAPER)
    assert run.results["chi_top"].value == mono(0.25, pi=-2, J=-1)
    assert run.results["energy_gap"].value == mono(0.5, J=-1)
    report(3, "chi_top = 1/(4 pi^2 J) and gap = 1/(2 J) exactly")


def test_criterion_04_schwinger_free_volume_cancels():
    res = expectation(schwinger_free(), "H_m", PAPER)
    assert res.value == ParamPoly.var("m")
    assert "X" not in res.value.params()
    for t in res.finite_t.terms:
        assert "X" not in t.coeff.params()
    report(4, "<H_m> = m with the spatial volume cancelling structurally")


def test_criterion_05_dirac_fermion():
    for n in (1, 2, 3):
        res = expectation(dirac_fermion(n), "H_m", PAPER)
        assert res.value == ParamPoly.var("m"), f"N={n}"
    # the worked 3+1-dimensional reduction chain: numerator
    # 4m cos * r^(z+2) - i (osc(z+3,+) - osc(z+3,-)) over 4 cos * r^(z+2),
    # all under the conventional Laplace phases; z -> 0 leaves m - 3/T.
    vol = mono(4, pi=1)
    m = ParamPoly.var("m")

    def q(b):
        return AffineExp("z", (1, 1), (b, 1))

    den_terms = [
        scaled(osc_linear(q(2), +1, PAPER), vol),
        scaled(osc_linear(q(2), -1, PAPER), vol),
    ]
    num_terms = [scaled(t, m) for t in den_terms]
    num_terms += [
        scaled(osc_linear(q(3), +1, PAPER), vol * ParamPoly.number(-1j)),
        scaled(osc_linear(q(3), -1, PAPER), vol * ParamPoly.number(1j)),
    ]
    finite_t = ratio_limit(ZetaTermSum(num_terms), ZetaTermSum(den_terms))
    for tv in (10.0, 100.0):
        got = finite_t.eval({"m": 1.0}, tv)
        assert abs(got - (1.0 - 3.0 / tv)) <= 1e-9
    report(5, "<H_m> = m for N in {1,2,3}; reduction chain leaves m - 3/T at finite T")


def test_criterion_06_schwinger_boson_mass():
    expected = mono(1, e=2, pi=-1)
    res = expectation(schwinger_boson_mass(), "m_g^2", PAPER)
    assert res.value == expected
    decaying = [t for t in res.finite_t.terms if t.t_power != 0]
    assert len(decaying) == 1

    def term_only(tv):
        t = decaying[0]
        return t.coeff.eval({"e": 1.0}) * tv ** float(t.t_power)

    exponent = decay_exponent(term_only, [10, 20, 40, 80])
    assert abs(exponent + 1.0) <= 0.01
    report(6, "m_g^2 = e^2/pi; field-ratio term decays with exponent -1 +- 0.01")


def test_criterion_07_phi4():
    pot = effective_potential(phi4(), PAPER)
    root = mono(math.sqrt(6), mu=1, **{"lambda": Fraction(-1, 2)})
    assert len(pot.critical_points) == 3
    assert pot.critical_points[0].is_zero()
    assert {p.render() for p in pot.critical_points[1:]} == {root.render(), (-root).render()}
    assert all(not p.is_zero() for p in pot.minima)  # zero classified non-minimum
    assert {p.render() for p in pot.minima} == {root.render(), (-root).render()}
    assert pot.masses == [mono(math.sqrt(2), mu=1)]
    minima, masses = potential_numeric(phi4(), {"mu": 1.0, "lambda": 6.0})
    assert sorted(minima) == pytest.approx([-1.0, 1.0], abs=1e-9)
    for mass in masses:
        assert abs(mass - math.sqrt(2)) <= 1e-4  # second differences limit the fallback
    for p in pot.minima:
        assert abs(abs(p.eval({"mu": 1.0, "lambda": 6.0})) - 1.0) <= 1e-9
    assert abs(pot.masses[0].eval({"mu": 1.0}) - math.sqrt(2)) <= 1e-9
    report(7, "critical points {0, +-sqrt(6/lambda) mu}; minima and mass sqrt(2) mu")


def test_criterion_08_trace_at_zero_formula():
    for dim in (1, 2, 3):
        for d in (-2.5, -3.0, -4.0):
            if d == -dim:
                continue
            for log_order in (0, 1):
                spec = KVAmplitudeSpec(
                    dimension=dim, terms=((Fraction(d), log_order, ParamPoly.one()),)
                )
                got = kv_trace_at_zero(spec).eval({}).real
                # direct continuation: vol * l! / (-(d + dim) - z)^(l+1) at z = 0
                vol = angular_moment((), dim).eval({}).real
                want = vol * math.factorial(log_order) / (-(d + dim)) ** (log_order + 1)
                assert abs(got - want) <= 1e-9 * abs(want)
    report(8, "trace-at-zero equals the directly continued gauged integral, 1e-9")


def test_criterion_09_tables_match_quadrature():
    rng = random.Random(20260809)
    for _ in range(5):
        qv = round(rng.uniform(-0.4, 2.0), 3)
        tv = rng.uniform(2.0, 12.0)
        q = AffineExp("z", (0, 1), of(Fraction(str(qv))))

        def value(term):
            v = product_value(term.coeff, 0.0)
            return v * tv ** to_float(term.t_const)

        got_p = value(osc_linear(q, +1, PRINCIPAL))
        assert got_p == pytest.approx(oracle.damped_quadrature(qv, tv), rel=1e-5)
        got_m = value(osc_linear(q, -1, PRINCIPAL))
        assert got_m == pytest.approx(oracle.damped_quadrature(qv, -tv), rel=1e-5)
        got_g = value(gauss_radial(q))
        assert got_g == pytest.approx(oracle.damped_quadrature((qv - 1.0) / 2.0, -tv), rel=1e-5)
    report(9, "all three table rows match damped quadrature at 5 random (q, T)")


def test_criterion_10_branch_invariance():
    for name in REGISTRY:
        paper = run_model(name, PAPER)
        principal = run_model(name, PRINCIPAL)
        assert paper.passed and principal.passed, name
        if paper.potential is not None:
            assert paper.potential.minima == principal.potential.minima
            assert paper.potential.masses == principal.potential.masses
            continue
        for obs, res in paper.results.items():
            assert res.value == principal.results[obs].value, (name, obs)
    report(10, "all 7 models return identical final values under both branches")


def test_criterion_11_power_series_recursion():
    rng = random.Random(1111)

    def brute(coeffs, n, order):
        out = [Fraction(1)] + [Fraction(0)] * order
        for _ in range(n):
            nxt = [Fraction(0)] * (order + 1)
            for i, a in enumerate(out):
                for j, b in enumerate(coeffs):
                    if i + j <= order:
                        nxt[i + j] += a * b
            out = nxt
        return out

    for _ in range(50):
        deg = rng.randint(0, 6)
        n = rng.randint(1, 5)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg + 1)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1, 2)
        order = deg * n
        assert series_pow(coeffs, n, order) == brute(coeffs, n, order)
    report(11, "product recursion matches brute-force powering on 50 random polynomials")


def test_criterion_12_property_suites():
    # series ring law on a sample product
    fa = (
        PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 1)),
        PrimitiveFactor(FactorKind.EXP_IPI, (-1, 2), (0, 1)),
    )
    fb = (PrimitiveFactor(FactorKind.AFFINE, (1, 1), (3, 1)),)
    joint = expand_product(MeroFactorProduct(ParamPoly.one(), fa + fb), 4)
    split = expand_product(MeroFactorProduct(ParamPoly.one(), fa), 4).mul(
        expand_product(MeroFactorProduct(ParamPoly.one(), fb), 4)
    )
    for p in range(0, 4):
        x = (coeff_at(joint, p) or ParamPoly.zero()).eval({})
        y = (coeff_at(split, p) or ParamPoly.zero()).eval({})
        assert abs(x - y) <= 1e-9 * max(1.0, abs(x))

    # ratio_limit(s, s) = 1
    s = ZetaTermSum(
        [osc_linear(AffineExp("z", (1, 1), (1, 1)), +1, PAPER),
         osc_linear(AffineExp("z", (1, 1), (1, 1)), -1, PAPER)]
    )
    assert thermal_limit(ratio_limit(s, s)).eval() == pytest.approx(1.0)

    # involution group law at random bindings
    from zetatrace.symbols import involution_exp
    import numpy as np
    from evolution_matrix import matrix_numeric

    evo = involution_exp(schwinger_free().hamiltonian)
    rng = random.Random(12)
    for _ in range(3):
        t1, t2 = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
        vals, binds = {"xi": rng.uniform(-2, 2)}, {"m": rng.uniform(0.5, 2)}
        e1 = matrix_numeric(evo, t1, vals, binds)
        e2 = matrix_numeric(evo, t2, vals, binds)
        assert np.allclose(e1 @ e2, matrix_numeric(evo, t1 + t2, vals, binds), atol=1e-9)

    # parse/render identity on a canonical model file
    text = textwrap.dedent(
        """
        [params]
        J = positive
        [axes]
        xi = momentum
        [phase]
        xi^2/(2*J)
        [observable]
        (T*xi/(2*pi*J))^2/(-i*T)
        """
    )
    parsed = parse_model_text(text, "rotor")
    canonical = render_model(parsed)
    assert render_model(parse_model_text(canonical, "rotor")) == canonical
    a = expectation(to_model_spec(parsed), "observable", PAPER).value
    b = expectation(to_model_spec(parse_model_text(canonical, "rotor")), "observable", PAPER).value
    assert a == b
    report(12, "series ring law, ratio identity, group law, parse/render identity")
