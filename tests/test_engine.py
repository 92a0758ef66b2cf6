import math
import random
from fractions import Fraction

import pytest

from zetatrace import oracle
from zetatrace.engine import (
    _real_roots,
    GaugeGroup,
    KVAmplitudeSpec,
    ModelSpec,
    apply_gauge,
    build_trace_sums,
    complete_square,
    effective_potential,
    expectation,
    kv_trace_at_zero,
    potential_numeric,
)
from zetatrace.errors import (
    CriticalDegree,
    UncoveredAxis,
    UnsolvablePotential,
    ZeroQuadraticCoefficient,
)
from zetatrace.models import (
    dirac_fermion,
    harmonic_oscillator_1d,
    harmonic_oscillator_nd,
    phi4,
    schwinger_boson_mass,
    schwinger_free,
    topological_oscillator,
)
from zetatrace.params import Param, ParamPoly
from zetatrace.symbols import Axis, AxisPoly, PhaseDecomposition
from zetatrace.tables import PAPER, PRINCIPAL
from zetatrace.terms import thermal_limit


def mono(c, **exps):
    return ParamPoly.monomial(c, {k: Fraction(v) for k, v in exps.items()})


# ---------------------------------------------------------------------------
# apply_gauge
# ---------------------------------------------------------------------------


def test_gauge_1d_oscillator_has_two_regulators():
    plan = apply_gauge(harmonic_oscillator_1d())
    assert plan.shares["xi"] == ("z1", Fraction(1))
    assert plan.shares["x"] == ("z2", Fraction(1))


def test_gauge_grouped_3d_oscillator_shares_a_third():
    plan = apply_gauge(harmonic_oscillator_nd(3))
    for j in (1, 2, 3):
        assert plan.shares[f"xi{j}"] == ("z1", Fraction(1, 3))
        assert plan.shares[f"x{j}"] == ("z2", Fraction(1, 3))


def test_gauge_rotor_single_axis():
    plan = apply_gauge(topological_oscillator())
    assert plan.shares == {"xi": ("z", Fraction(1))}


def test_gauge_uncovered_axis_rejected():
    model = topological_oscillator()
    model.groups = ()
    with pytest.raises(UncoveredAxis):
        apply_gauge(model)


# ---------------------------------------------------------------------------
# complete_square
# ---------------------------------------------------------------------------


def test_complete_square_unit_case():
    # r^2 + 2r -> (r+1)^2 - 1; amplitude picks up the shifted argument
    phase = PhaseDecomposition(
        h2={"r": ParamPoly.one()}, h1={"r": ParamPoly.number(2)}, h0_const=ParamPoly.zero()
    )
    amp = AxisPoly.symbol("r")
    new_phase, new_amp, const, shift = complete_square(phase, amp, "r")
    assert new_phase.h1["r"].is_zero()
    assert const.as_number() == pytest.approx(1.0)
    assert shift.as_number() == pytest.approx(1.0)
    # amp(r - shift) = r - 1
    assert new_amp.constant_part().plain().as_number() == pytest.approx(-1.0)


def test_complete_square_identity_when_no_linear_part():
    phase = PhaseDecomposition(h2={"r": ParamPoly.one()}, h1={}, h0_const=ParamPoly.zero())
    amp = AxisPoly.symbol("r", 2)
    new_phase, new_amp, const, shift = complete_square(phase, amp, "r")
    assert const.is_zero() and shift.is_zero()
    assert (new_amp - amp).is_zero()


def test_complete_square_rotor_with_source():
    # h2 = 1/(2J), synthetic h1 = c: shift = cJ, constant = c^2 J / 2
    phase = PhaseDecomposition(
        h2={"xi": mono(0.5, J=-1)}, h1={"xi": ParamPoly.var("c")}, h0_const=ParamPoly.zero()
    )
    _, _, const, shift = complete_square(phase, AxisPoly.number(1), "xi")
    assert shift == ParamPoly.monomial(1, {"c": 1, "J": 1})
    assert const == ParamPoly.monomial(0.5, {"c": 2, "J": 1})
    # oracle: expand h2 (xi + shift)^2 - const and compare coefficients
    h2v, cv, jv = 0.5 / 1.7, 0.6, 1.7
    for xi in (-1.0, 0.4, 2.2):
        original = h2v * xi**2 + cv * xi
        shifted = h2v * (xi + cv * jv) ** 2 - 0.5 * cv**2 * jv
        assert original == pytest.approx(shifted, rel=1e-12)


def test_complete_square_requires_quadratic_part():
    phase = PhaseDecomposition(h2={}, h1={"r": ParamPoly.one()}, h0_const=ParamPoly.zero())
    with pytest.raises(ZeroQuadraticCoefficient):
        complete_square(phase, AxisPoly.number(1), "r")


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_rotor_denominator_single_gaussian_term():
    model = topological_oscillator()
    num, den, _ = build_trace_sums(model, AxisPoly.number(1), PAPER)
    assert len(den.terms) == 1
    term = den.terms[0]
    # Gamma((z+1)/2) (i T / (2J))^(-(z+1)/2): check numerically at z = -0.1
    z, tv, jv = -0.1, 7.0, 1.4
    got = term.coeff.numeric(z, gamma_fn=oracle.gamma, bindings={"J": jv})
    got *= tv ** (float(term.t_const) + float(dict(term.t_lin)["z"]) * z)
    want = oracle.gauss_power_osc(z, tv / (2 * jv))
    assert got == pytest.approx(want, rel=1e-6)


def test_reduce_fermion_denominator_both_oscillation_signs():
    model = dirac_fermion(3)
    num, den, _ = build_trace_sums(model, model.observables["H_m"], PAPER)
    assert len(den.terms) == 2
    # vol(S^2) = 4 pi times the half-line rows with exponent z + 2
    for term in den.terms:
        assert term.t_const == Fraction(-3)
        pref = term.coeff.prefactor
        # dim/2 * 4pi = 2 * 4pi = 8pi
        assert pref == mono(8, pi=1)


def test_reduce_boson_numerator_shifted_gauss_exponent():
    model = schwinger_boson_mass()
    obs = model.observables["m_g^2"]
    num, den, _ = build_trace_sums(model, obs, PAPER)
    t_consts = sorted(t.t_const for t in num.terms)
    assert t_consts == [Fraction(-3, 2), Fraction(-1, 2)]
    assert all(t.tokens == ("sector:A", "sector:xi-x") for t in num.terms)
    assert len(den.terms) == 1 and den.terms[0].t_const == Fraction(-1, 2)


def test_same_gauge_contract():
    model = harmonic_oscillator_1d()
    num, den, _ = build_trace_sums(model, model.observables["H"], PAPER)
    assert num.regulators == den.regulators == ("z1", "z2")
    assert num.t_symbol == den.t_symbol


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------


def test_expectation_identity_observable_is_one():
    model = topological_oscillator()
    model.observables["one"] = AxisPoly.number(1)
    res = expectation(model, "one", PAPER)
    assert res.value.as_number() == pytest.approx(1.0)


def test_expectation_harmonic_oscillator():
    res = expectation(harmonic_oscillator_1d(), "H", PAPER)
    assert res.value == mono(0.5, hbar=1, omega=1)


def test_expectation_rotor_chi_top():
    res = expectation(topological_oscillator(), "chi_top", PAPER)
    assert res.value == mono(0.25, pi=-2, J=-1)
    gap = res.value * mono(2, pi=2)
    assert gap == mono(0.5, J=-1)


def test_expectation_volume_cancels():
    res = expectation(schwinger_free(), "H_m", PAPER)
    assert res.value == ParamPoly.var("m")
    assert "X" not in res.value.params()


def test_reality_of_final_values():
    rng = random.Random(4242)
    for model, obs in [
        (harmonic_oscillator_1d(), "H"),
        (topological_oscillator(), "chi_top"),
        (dirac_fermion(3), "H_m"),
        (schwinger_boson_mass(), "m_g^2"),
    ]:
        value = expectation(model, obs, PAPER).value
        bindings = {p.name: rng.uniform(0.5, 2.5) for p in model.params}
        assert abs(value.eval(bindings).imag) < 1e-9


def test_gauge_grouping_invariance_nd():
    grouped = expectation(harmonic_oscillator_nd(3), "H", PAPER).value
    per_axis = expectation(harmonic_oscillator_nd(3, per_axis=True), "H", PAPER).value
    assert grouped == per_axis


def test_engine_matches_numeric_oracle_at_finite_t():
    cases = [
        (topological_oscillator(), "chi_top", {"J": 1.0}),
        (harmonic_oscillator_1d(), "H", {"m": 1.0, "hbar": 1.0, "omega": 1.0}),
        (schwinger_free(), "H_m", {"m": 1.0, "X": 1.0}),
        (dirac_fermion(3), "H_m", {"m": 1.0}),
        (schwinger_boson_mass(), "m_g^2", {"e": 1.0, "m": 1.0}),
    ]
    for model, obs, bindings in cases:
        res = expectation(model, obs, PRINCIPAL)
        for tv in (5.0, 10.0, 20.0):
            engine_value = res.finite_t.eval(bindings, tv)
            numeric = oracle.small_z_ratio(model, obs, (-0.2, -0.1, -0.05), tv, bindings)
            assert engine_value == pytest.approx(numeric, rel=1e-4), (model.name, tv)


# ---------------------------------------------------------------------------
# trace at zero
# ---------------------------------------------------------------------------


def direct_homogeneous_tail(dim, d, l):
    """Closed form of int_{||xi|| >= 1} |xi|^(d+z) ln^l |xi| d xi at z = 0.

    The radial integral is l!/(-(d + dim) - z)^(l+1) times the sphere volume.
    """
    from zetatrace.tables import sphere_volume

    vol = sphere_volume(dim).eval({}).real
    return vol * math.factorial(l) / (-(d + dim)) ** (l + 1)


def test_kv_trace_single_term_examples():
    spec = KVAmplitudeSpec(dimension=1, terms=((Fraction(-3), 0, ParamPoly.one()),))
    assert kv_trace_at_zero(spec).as_number() == pytest.approx(1.0)
    spec_log = KVAmplitudeSpec(dimension=1, terms=((Fraction(-3), 1, ParamPoly.one()),))
    assert kv_trace_at_zero(spec_log).as_number() == pytest.approx(0.5)


def test_kv_trace_empty_spec_is_zero():
    assert kv_trace_at_zero(KVAmplitudeSpec(dimension=2)).is_zero()


def test_kv_trace_matches_direct_continuation():
    for dim in (1, 2, 3):
        for d in (-2.5, -3, -4):
            if d == -dim:
                continue
            for l in (0, 1):
                spec = KVAmplitudeSpec(
                    dimension=dim,
                    terms=((Fraction(d), l, ParamPoly.one()),),
                )
                got = kv_trace_at_zero(spec).eval({}).real
                want = direct_homogeneous_tail(dim, d, l)
                assert got == pytest.approx(want, rel=1e-9)


def test_kv_trace_critical_degree_rejected():
    spec = KVAmplitudeSpec(dimension=2, terms=((Fraction(-2), 0, ParamPoly.one()),))
    with pytest.raises(CriticalDegree):
        kv_trace_at_zero(spec)


def test_kv_trace_numeric_payloads_add():
    spec = KVAmplitudeSpec(
        dimension=1,
        terms=((Fraction(-3), 0, ParamPoly.one()),),
        ball_payload=lambda: 0.25,
        integrable_payload=lambda: 0.5,
    )
    assert kv_trace_at_zero(spec).as_number() == pytest.approx(1.75)


def test_kv_trace_callable_angular_for_phased_diagonal():
    import numpy as np

    # sphere integral of e^(i theta(xi)) with theta = xi_1 on the circle
    theta = np.linspace(0, 2 * math.pi, 40001)
    sphere_value = complex(
        np.trapezoid(np.exp(1j * np.cos(theta)), theta)
    )
    spec = KVAmplitudeSpec(
        dimension=2, terms=((Fraction(-3), 0, lambda: sphere_value),)
    )
    got = kv_trace_at_zero(spec).as_number()
    want = -sphere_value / (2 - 3)
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# effective potential
# ---------------------------------------------------------------------------


def test_phi4_symbolic_analysis():
    pot = effective_potential(phi4(), PAPER)
    expected_root = mono(math.sqrt(6), mu=1, **{"lambda": Fraction(-1, 2)})
    assert len(pot.critical_points) == 3
    assert pot.critical_points[0].is_zero()
    assert pot.critical_points[1] == expected_root
    assert pot.critical_points[2] == -expected_root
    assert pot.minima == [expected_root, -expected_root]
    assert pot.masses == [mono(math.sqrt(2), mu=1)]
    # zero is classified as a non-minimum
    assert all(not p.is_zero() for p in pot.minima)


def test_phi4_residual_vanishes_in_volume_limit():
    pot = effective_potential(phi4(), PAPER)
    ln_term = pot.residual.terms[0]
    assert ln_term.t_power < 0


def test_free_quadratic_potential():
    mu = Param("mu", default=1.0)
    phi = Param("phi", positive=False)
    model = ModelSpec(
        name="free_field",
        description="quadratic potential",
        params=(mu, phi),
        axes=(Axis("p", "momentum", "g"),),
        groups=(GaugeGroup("g", ("p",), "z"),),
        hamiltonian=AxisPoly.symbol("p", 2, ParamPoly.number(0.5))
        + AxisPoly.constant(mono(0.5, phi=2)),
        observables={},
        t_symbol="TX",
        kind="potential",
        field_param="phi",
    )
    pot = effective_potential(model, PAPER)
    assert pot.critical_points == [ParamPoly.zero()]
    assert pot.minima == [ParamPoly.zero()]
    assert pot.masses == [ParamPoly.one()]


def test_phi4_numeric_fallback():
    minima, masses = potential_numeric(phi4(), {"mu": 1.0, "lambda": 6.0})
    assert sorted(round(v, 6) for v in minima) == [-1.0, 1.0]
    assert all(m == pytest.approx(math.sqrt(2), abs=1e-4) for m in masses)


def test_phi4_numeric_fallback_returns_builtin_floats():
    for bindings in ({"mu": 1.0, "lambda": 6.0}, {"mu": 0.0, "lambda": 6.0}):
        minima, masses = potential_numeric(phi4(), bindings)
        assert minima and masses
        assert all(type(v) is float for v in minima + masses)


def test_phi4_numeric_fallback_keeps_the_triple_root_at_mu_zero():
    # dV = lambda/6 phi^3: three roots at 0, each a (flat) minimum
    assert _real_roots([1.0, 0.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]
    minima, masses = potential_numeric(phi4(), {"mu": 0.0, "lambda": 6.0})
    assert minima == [0.0, 0.0, 0.0]
    assert masses == [pytest.approx(math.sqrt(0.5) * 1e-4)] * 3


def test_real_roots_ignore_leading_zero_coefficients():
    assert _real_roots([0.0, 1.0, 0.0, -1.0]) == _real_roots([1.0, 0.0, -1.0])
    assert sorted(_real_roots([0.0, 0.0, 1.0, 0.0, -1.0])) == pytest.approx([-1.0, 1.0])
    assert _real_roots([2.0, 3.0]) == [-1.5]
    assert _real_roots([0.0, 5.0]) == [] and _real_roots([0.0]) == []
    # lambda = 0 turns the cubic of phi4 into -mu^2 phi: one root, a maximum
    assert potential_numeric(phi4(), {"mu": 1.0, "lambda": 0.0}) == ([], [])


def test_real_roots_match_numpy_roots():
    import numpy as np

    rng = random.Random(4242)
    for _ in range(300):
        coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 5))]
        want = sorted(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9)
        got = sorted(_real_roots(coeffs))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), coeffs


def test_real_roots_reject_non_finite_coefficient_ratios():
    for coeffs in ([1.0, math.nan, 1.0], [1.0, math.inf, 1.0], [1e-300, 0.0, -1e300]):
        with pytest.raises(UnsolvablePotential, match="non-finite"):
            _real_roots(coeffs)


def test_real_roots_of_a_badly_scaled_quadratic():
    # mpmath.eig on the unbalanced companion [[0, 1e20], [1, 0]] returns 0, 0
    assert sorted(_real_roots([1.0, 0.0, -1e20])) == pytest.approx([-1e10, 1e10], rel=1e-12)
    assert sorted(_real_roots([1.0, 0.0, -1e-20])) == pytest.approx([-1e-10, 1e-10], rel=1e-12)
    minima, _ = potential_numeric(phi4(), {"mu": 1e4, "lambda": 6e-12})
    assert minima == pytest.approx([-1e10, 1e10], rel=1e-12)


def test_branch_policy_invariance_of_expectations():
    cases = [
        (harmonic_oscillator_1d(), "H"),
        (topological_oscillator(), "chi_top"),
        (schwinger_free(), "H_m"),
        (dirac_fermion(3), "H_m"),
        (schwinger_boson_mass(), "m_g^2"),
    ]
    for model, obs in cases:
        paper_value = expectation(model, obs, PAPER).value
        principal_value = expectation(model, obs, PRINCIPAL).value
        assert paper_value == principal_value
