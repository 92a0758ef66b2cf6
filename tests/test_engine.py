import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from zetatrace import engine, oracle, rational, tables
from zetatrace.engine import (
    GaugeGroup,
    KVAmplitudeSpec,
    ModelSpec,
    build_trace_sums,
    complete_square,
    effective_potential,
    expectation,
    kv_trace_at_zero,
)
from zetatrace.errors import (
    CriticalDegree,
    DegenerateCase,
    UnsupportedStructure,
    ValidationError,
    ZeroQuadraticCoefficient,
)
from zetatrace.laurent import MeroFactorProduct
from zetatrace.models import (
    REGISTRY,
    build_model,
    dirac_fermion,
    harmonic_oscillator_1d,
    harmonic_oscillator_nd,
    phi4,
    run_model,
    schwinger_boson_mass,
    schwinger_free,
    topological_oscillator,
)
from zetatrace.params import Param, ParamPoly
from zetatrace.symbols import MatrixSymbol, ReducedPhase, compose_observable
from zetatrace.tables import PAPER, PRINCIPAL
from zetatrace.terms import Divergent, TAsymptote, ZetaTerm, ZetaTermSum, _merge_tlin

from factor_values import product_value
from term_scaling import scaled


def mono(c, **exps):
    return ParamPoly.monomial(c, {k: Fraction(v) for k, v in exps.items()})


# ---------------------------------------------------------------------------
# The gauge, as the trace's first line shows it
# ---------------------------------------------------------------------------


def _gauge_line(model, observable):
    return expectation(model, observable).trace[0]


def test_gauge_1d_oscillator_has_two_regulators():
    assert _gauge_line(harmonic_oscillator_1d(), "H") == "gauge: |x|^(1*z2) |xi|^(1*z1)"


def test_gauge_grouped_3d_oscillator_shares_a_third():
    assert _gauge_line(harmonic_oscillator_nd(3), "H") == (
        "gauge: |x1|^(1/3*z2) |x2|^(1/3*z2) |x3|^(1/3*z2) |xi1|^(1/3*z1) |xi2|^(1/3*z1) |xi3|^(1/3*z1)"
    )


def test_gauge_rotor_single_axis():
    assert _gauge_line(topological_oscillator(), "chi_top") == "gauge: |xi|^(1*z)"


@pytest.fixture
def no_table_rows(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a table row was built")

    monkeypatch.setattr(engine, "gauss_radial", refuse)
    monkeypatch.setattr(engine, "osc_linear", refuse)


def test_phase_symbol_outside_every_group_rejected(no_table_rows):
    model = topological_oscillator()
    model.groups = ()
    with pytest.raises(UnsupportedStructure, match="phase depends on unknown symbol xi"):
        expectation(model, "chi_top")


def test_amplitude_symbol_outside_every_group_rejected(no_table_rows):
    model = topological_oscillator()
    model.observables = {"chi_top": mono(1, xi=2, y=1)}
    with pytest.raises(UnsupportedStructure,
                       match=r"amplitude symbols outside any gauge group: \['y'\]"):
        expectation(model, "chi_top")


def test_a_parameter_named_like_a_grouped_axis_is_rejected(no_table_rows):
    model = topological_oscillator()
    model.params += (Param("xi"),)
    with pytest.raises(ValidationError, match=r"parameters named like a grouped symbol: \['xi'\]"):
        expectation(model, "chi_top")


def rotor_over_undeclared_k():
    """The rotor with H = xi^2/(2K) and K declared nowhere."""
    model = topological_oscillator()
    model.hamiltonian = mono(0.5, K=-1, xi=2)
    return model


def dirac_without_params():
    """The Dirac fermion with its mass, an atom of the matrix Hamiltonian's scalar part, undeclared."""
    model = dirac_fermion(3)
    model.params = ()
    return model


def oscillator_over_undeclared_hbar():
    """The 1D oscillator with its phase divided by ``hbarr``, declared nowhere.

    Before the check ``hbarr`` became a free symbol of the asymptote:
    1/2*hbar*omega - i*hbarr/T.
    """
    model = harmonic_oscillator_1d()
    model.hbar = "hbarr"
    return model


def radial_pair_with_a_phase_on_an_axis():
    """A radial group (xi1, xi2) with H = |g|^2/2 + w + 5 xi1^2: xi1 is no gauged symbol.

    Before the check the xi1 term was dropped: w*|g|^2 gave 0 and the
    asymptote -2i*w/T, as without the term.
    """
    return ModelSpec(
        name="radial_axis_phase",
        description="custom model",
        params=(Param("w"),),
        groups=(GaugeGroup("g", ("xi1", "xi2"), "z", reduction="radial"),),
        hamiltonian=mono(0.5, **{"|g|": 2}) + mono(1, w=1) + mono(5, xi1=2),
        observables={"observable": mono(1, w=1, **{"|g|": 2})},
    )


@pytest.fixture
def no_quadrature(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(oracle, "damped_quadrature", refuse)


def assert_rejected(model, message):
    """The engine and the oracle both raise ``UnsupportedStructure`` matching ``message``."""
    (observable,) = model.observables
    with pytest.raises(UnsupportedStructure, match=message):
        expectation(model, observable)
    bindings = {"F": 1.0, "J": 1.0, "K": 1.0, "m": 1.0, "w": 1.0}
    with pytest.raises(UnsupportedStructure, match=message):
        oracle.small_z_ratio(model, observable, (-0.2, -0.1), 10.0, bindings)


@pytest.mark.parametrize("build, message", [
    (rotor_over_undeclared_k, "phase depends on unknown symbol K"),
    (dirac_without_params, "phase depends on unknown symbol m"),
    (radial_pair_with_a_phase_on_an_axis, "phase depends on unknown symbol xi1"),
    (oscillator_over_undeclared_hbar, "phase depends on unknown symbol hbarr"),
], ids=["scalar", "matrix", "radial_axis", "hbar"])
def test_an_undeclared_atom_is_rejected_before_any_table_row(no_table_rows, no_quadrature, build, message):
    assert_rejected(build(), message)


def rotor_with_negative_quadratic_phase():
    """The rotor with H = -xi^2/(2J): its Gaussian has the wrong sign."""
    model = topological_oscillator()
    model.hamiltonian = mono(-0.5, J=-1, xi=2)
    return model


@pytest.mark.parametrize("build, message", [
    (lambda shifted: shifted, "complete the square before reducing this axis"),
    (lambda _: rotor_with_negative_quadratic_phase(), "quadratic phase coefficient must be positive"),
], ids=["shifted", "negative_quadratic"])
def test_a_per_symbol_check_raises_before_any_table_row(no_table_rows, no_quadrature, shifted_oscillator,
                                                        build, message):
    # the front end raises before it returns; the shifted oscillator reaches x1 after its xi1 items
    model = build(shifted_oscillator)
    with pytest.raises(UnsupportedStructure, match=message):
        engine.reduced_sides(model, (*model.observables.values(), ParamPoly.one()))
    assert_rejected(model, message)


def one_symbol_model(radial, phase, observable=lambda s: ParamPoly.one()):
    """A full-line axis ``u``, or a radial group's radius ``|g|`` over (u1, u2), with H = w + phase(s).

    ``phase`` maps the gauged symbol to the Hamiltonian's axis part;
    ``observable`` maps it to the observable, the identity by default.
    """
    group = GaugeGroup("g", ("u1", "u2"), "z", "radial") if radial else GaugeGroup("g", ("u",), "z")
    (s,) = group.gauged()
    return ModelSpec(
        name="one_symbol", description="custom model", params=(Param("w"),), groups=(group,),
        hamiltonian=mono(1, w=1) + phase(s),
        observables={"o": observable(s)},
    )


@pytest.mark.parametrize("radial", [False, True], ids=["axis", "radial"])
@pytest.mark.parametrize("phase, error, message", [
    (lambda s: mono(1, **{s: 2}) + mono(1, **{s: 1}), UnsupportedStructure,
     ("complete the square before reducing this axis", "complete the square before reducing this group")),
    (lambda s: ParamPoly.zero(), DegenerateCase,
     ("axis carries no phase; its gauge integral has no extension", "radial group carries no phase")),
    (lambda s: mono(-1, **{s: 2}), UnsupportedStructure,
     ("quadratic phase coefficient must be positive",) * 2),
], ids=["both_phases", "no_phase", "negative_quadratic"])
def test_each_per_symbol_check_holds_for_both_symbol_kinds(radial, phase, error, message):
    # message = (the axis text, the radial group text)
    model = one_symbol_model(radial, phase)
    with pytest.raises(error, match=message[radial]):
        engine.reduced_sides(model, (*model.observables.values(), ParamPoly.one()))


def schwinger_with(scalar=None, coeff=None):
    """``schwinger_free`` with its Hamiltonian's scalar part b or coefficient c (H = b I + c K) replaced."""
    model = schwinger_free()
    h = model.hamiltonian
    scalar = h.scalar if scalar is None else scalar
    coeff = h.coeff if coeff is None else coeff
    model.hamiltonian = MatrixSymbol(scalar, coeff, h.kmatrix, h.direction_syms)
    return model


LINEAR_IN_ONE = "involution coefficient must be linear in one radial symbol"


@pytest.mark.parametrize("scalar, coeff, error, message", [
    (mono(1, m=1) + mono(1, xi=1), None, UnsupportedStructure, "matrix scalar part must be axis-free"),
    (None, mono(1, xi=2), UnsupportedStructure, LINEAR_IN_ONE),
    (None, mono(1, xi=1) + mono(1, m=1), UnsupportedStructure, LINEAR_IN_ONE),
    # decompose_phase's own rejection, as for a cubic scalar phase
    (None, mono(1, xi=3), DegenerateCase, "axis xi has neither quadratic nor linear phase but degree 3"),
    (None, ParamPoly.zero(), UnsupportedStructure, LINEAR_IN_ONE),
], ids=["scalar_with_axis", "quadratic_coeff", "coeff_plus_constant", "cubic_coeff", "zero_coeff"])
def test_a_matrix_phase_other_than_b_plus_linear_c_is_rejected_before_any_table_row(
        no_table_rows, scalar, coeff, error, message):
    model = schwinger_with(scalar, coeff)
    with pytest.raises(error, match=message):
        engine.reduced_sides(model, (*model.observables.values(), ParamPoly.one()))


def test_a_side_past_the_branch_bound_is_rejected_before_any_table_row(no_table_rows, no_quadrature):
    # 13 axes, each under its own regulator with a linear phase: two rays each, 2^13 branches per side
    axes = [f"x{j}" for j in range(13)]
    model = ModelSpec(
        name="linear", description="custom model", params=(),
        groups=tuple(GaugeGroup(a, (a,), f"z{j + 1}") for j, a in enumerate(axes)),
        hamiltonian=sum((mono(1, **{a: 1}) for a in axes), ParamPoly.zero()),
        observables={"observable": ParamPoly.one()},
    )
    assert_rejected(model, f"one side has 8192 branches, more than the {engine.MAX_BRANCHES} allowed")


@pytest.mark.parametrize("radial, observable", [
    (False, lambda s: mono(1, **{s: 1})),  # an odd degree under a Gaussian
    (True, lambda s: mono(1, **{"u1^": 1})),  # an odd direction degree: the sphere moment is 0
], ids=["axis_odd_degree", "radial_odd_direction"])
def test_a_vanishing_symbol_integral_gives_no_alternatives(radial, observable):
    model = one_symbol_model(radial, lambda s: mono(1, **{s: 2}), observable)
    _, _, (num, den) = engine.reduced_sides(model, (*model.observables.values(), ParamPoly.one()))
    assert [symbols for _, _, symbols in num] == [([],)]
    assert all(alternatives for _, _, symbols in den for alternatives in symbols)


@pytest.mark.parametrize("axes, reduction, message", [
    (("xi",), "radail", "unknown reduction 'radail'"),
    ((), "separable", "gauge group e has no axes"),
    ((), "radial", "gauge group e has no axes"),
], ids=["misspelled_reduction", "no_axes", "no_axes_radial"])
def test_a_malformed_gauge_group_is_rejected(axes, reduction, message):
    with pytest.raises(ValidationError, match=message):
        GaugeGroup("e", axes, "z2", reduction)


def rotor_gauged_twice():
    """The rotor with its one axis in two groups, each under its own regulator."""
    model = topological_oscillator()
    model.groups = (GaugeGroup("a", ("xi",), "z1"), GaugeGroup("b", ("xi",), "z2"))
    return model


def test_groups_that_share_an_axis_are_rejected(no_table_rows):
    # without the check this gave chi_top = 0 and the gauge line |xi|^(1*z2)
    with pytest.raises(ValidationError, match=r"axes in more than one gauge group: \['xi'\]"):
        expectation(rotor_gauged_twice(), "chi_top")


def test_an_axis_twice_in_one_group_is_rejected(no_table_rows):
    model = harmonic_oscillator_nd(2)
    model.groups = (model.groups[0], GaugeGroup("gx", ("x1", "x1", "x2"), "z2"))
    with pytest.raises(ValidationError, match=r"axes in more than one gauge group: \['x1'\]"):
        expectation(model, "H")


def test_alternatives_memo_keeps_each_groups_regulator():
    """Past the front end's check, two groups on one axis still get their own regulators."""
    model = rotor_gauged_twice()
    phase, evo = engine._build_phase(model)
    pieces = compose_observable(evo, model.observables["chi_top"])
    table = {}
    ((_, _, symbols),) = engine.reduced_integrals(pieces, model, phase, {}, table)
    integrals = [integral for _, integral in table.values()]
    assert [integrals[alternatives[0][1]].q.regulator for alternatives in symbols] == ["z1", "z2"]


# ---------------------------------------------------------------------------
# complete_square
# ---------------------------------------------------------------------------


def test_complete_square_unit_case():
    # r^2 + 2r -> (r+1)^2 - 1; amplitude picks up the shifted argument
    phase = ReducedPhase(
        g2={"r": ParamPoly.one()}, g1={"r": ParamPoly.number(2)}, const=ParamPoly.zero()
    )
    amp = ParamPoly.var("r")
    new_phase, new_amp, const, shift = complete_square(phase, amp, "r")
    assert new_phase.g1["r"].is_zero()
    assert const.eval() == pytest.approx(1.0)
    assert shift.eval() == pytest.approx(1.0)
    # amp(r - shift) = r - 1
    assert new_amp.by_power("r")[0].eval() == pytest.approx(-1.0)


def test_complete_square_identity_when_no_linear_part():
    phase = ReducedPhase(g2={"r": ParamPoly.one()}, g1={}, const=ParamPoly.zero())
    amp = ParamPoly.var("r", 2)
    new_phase, new_amp, const, shift = complete_square(phase, amp, "r")
    assert const.is_zero() and shift.is_zero()
    assert (new_amp - amp).is_zero()


def test_complete_square_rotor_with_source():
    # h2 = 1/(2J), synthetic h1 = c: shift = cJ, constant = c^2 J / 2
    phase = ReducedPhase(
        g2={"xi": mono(0.5, J=-1)}, g1={"xi": ParamPoly.var("c")}, const=ParamPoly.zero()
    )
    _, _, const, shift = complete_square(phase, ParamPoly.one(), "xi")
    assert shift == ParamPoly.monomial(1, {"c": 1, "J": 1})
    assert const == ParamPoly.monomial(0.5, {"c": 2, "J": 1})
    # oracle: expand h2 (xi + shift)^2 - const and compare coefficients
    h2v, cv, jv = 0.5 / 1.7, 0.6, 1.7
    for xi in (-1.0, 0.4, 2.2):
        original = h2v * xi**2 + cv * xi
        shifted = h2v * (xi + cv * jv) ** 2 - 0.5 * cv**2 * jv
        assert original == pytest.approx(shifted, rel=1e-12)


def test_complete_square_requires_quadratic_part():
    phase = ReducedPhase(g2={}, g1={"r": ParamPoly.one()}, const=ParamPoly.zero())
    with pytest.raises(ZeroQuadraticCoefficient):
        complete_square(phase, ParamPoly.one(), "r")


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", REGISTRY)
def test_build_trace_sums_rejects_an_unknown_branch_by_name(name):
    # the oscillator rows alone read the branch: Gaussian-only models once ran
    # under any name, the others raised a bare ValueError from the table
    with pytest.raises(ValidationError) as caught:
        build_trace_sums(build_model(name), ParamPoly.one(), "nearest")
    assert str(caught.value) == "branch must be 'paper' or 'principal', got 'nearest'"


def test_reduce_rotor_denominator_single_gaussian_term():
    model = topological_oscillator()
    num, den, _ = build_trace_sums(model, ParamPoly.one(), PAPER)
    assert len(den.terms) == 1
    term = den.terms[0]
    # Gamma((z+1)/2) (i T / (2J))^(-(z+1)/2): check numerically at z = -0.1
    z, tv, jv = -0.1, 7.0, 1.4
    got = product_value(term.coeff, z, {"J": jv})
    got *= tv ** (rational.to_float(term.t_const) + rational.to_float(dict(term.t_lin)["z"]) * z)
    # t = u^2 turns the Gaussian into int_0^inf t^((z-1)/2) e^(-i T t/(2J)) dt
    want = oracle.damped_quadrature((z - 1.0) / 2.0, -(tv / (2 * jv)))
    assert got == pytest.approx(want, rel=1e-6)


def test_reduce_fermion_denominator_both_oscillation_signs():
    model = dirac_fermion(3)
    num, den, _ = build_trace_sums(model, model.observables["H_m"], PAPER)
    assert len(den.terms) == 2
    # vol(S^2) = 4 pi times the half-line rows with exponent z + 2
    for term in den.terms:
        assert term.t_const == (-3, 1)
        pref = term.coeff.prefactor
        # dim/2 * 4pi = 2 * 4pi = 8pi
        assert pref == mono(8, pi=1)


def test_reduce_boson_numerator_shifted_gauss_exponent():
    model = schwinger_boson_mass()
    obs = model.observables["m_g^2"]
    num, den, _ = build_trace_sums(model, obs, PAPER)
    t_consts = sorted(rational.fraction(t.t_const) for t in num.terms)
    assert t_consts == [Fraction(-3, 2), Fraction(-1, 2)]
    assert len(den.terms) == 1 and den.terms[0].t_const == (-1, 2)


def test_same_gauge_contract():
    model = harmonic_oscillator_1d()
    num, den, _ = build_trace_sums(model, model.observables["H"], PAPER)
    assert num.regulators == den.regulators == ("z1", "z2")


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------


def test_expectation_identity_observable_is_one():
    model = topological_oscillator()
    model.observables["one"] = ParamPoly.one()
    res = expectation(model, "one", PAPER)
    assert res.value.eval() == pytest.approx(1.0)


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


def test_expectation_reports_a_divergent_quotient(divergent_inverse_momentum):
    res = expectation(divergent_inverse_momentum, "observable", PAPER)
    assert isinstance(res.value, Divergent)
    assert res.value.reason == "quotient diverges like z^-1 at fixed T"
    assert res.finite_t is None
    assert res.trace[-1] == "limit: divergent (quotient diverges like z^-1 at fixed T)"


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
            assert engine_value == pytest.approx(numeric, rel=1e-9), (model.name, tv)


# ---------------------------------------------------------------------------
# trace at zero
# ---------------------------------------------------------------------------


def direct_homogeneous_tail(dim, d, l):
    """Closed form of int_{||xi|| >= 1} |xi|^(d+z) ln^l |xi| d xi at z = 0.

    The radial integral is l!/(-(d + dim) - z)^(l+1) times the sphere volume.
    """
    vol = tables.angular_moment((), dim).eval({}).real
    return vol * math.factorial(l) / (-(d + dim)) ** (l + 1)


def test_kv_trace_single_term_examples():
    spec = KVAmplitudeSpec(dimension=1, terms=((Fraction(-3), 0, ParamPoly.one()),))
    assert kv_trace_at_zero(spec).eval() == pytest.approx(1.0)
    spec_log = KVAmplitudeSpec(dimension=1, terms=((Fraction(-3), 1, ParamPoly.one()),))
    assert kv_trace_at_zero(spec_log).eval() == pytest.approx(0.5)


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


def test_kv_trace_terms_that_cancel_exactly_give_an_exact_zero():
    # d = -1 and d = -3 in dimension 2 contribute -2 pi / 1 and -2 pi / (-1)
    spec = KVAmplitudeSpec(
        dimension=2,
        terms=((Fraction(-1), 0, ParamPoly.one()), (Fraction(-3), 0, ParamPoly.one())),
    )
    assert kv_trace_at_zero(spec).is_zero()


def test_kv_trace_zero_angular_part_is_not_an_underflow():
    spec = KVAmplitudeSpec(dimension=1, terms=((Fraction(-3), 0, ParamPoly.zero()),))
    assert kv_trace_at_zero(spec).is_zero()


@pytest.mark.parametrize("dimension, terms, message", [
    (0, (), "dimension must be >= 1"),
    (-2, ((Fraction(-3), 0, ParamPoly.one()),), "dimension must be >= 1"),
    (2, ((Fraction(-3), -1, ParamPoly.one()),), "log order must be nonnegative"),
])
def test_kv_spec_rejects_a_dimension_below_one_like_a_negative_log_order(dimension, terms, message):
    with pytest.raises(UnsupportedStructure, match=message):
        KVAmplitudeSpec(dimension, terms)


def test_kv_trace_critical_degree_rejected():
    spec = KVAmplitudeSpec(dimension=2, terms=((Fraction(-2), 0, ParamPoly.one()),))
    with pytest.raises(CriticalDegree):
        kv_trace_at_zero(spec)


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
        groups=(GaugeGroup("g", ("p",), "z"),),
        hamiltonian=mono(0.5, p=2) + mono(0.5, phi=2),
        observables={},
        field_param="phi",
    )
    pot = effective_potential(model, PAPER)
    assert pot.critical_points == [ParamPoly.zero()]
    assert pot.minima == [ParamPoly.zero()]
    assert pot.masses == [ParamPoly.one()]


def phi4_with_field(name, *extra):
    model = phi4()
    model.field_param = name
    model.params += extra
    return model


@pytest.mark.parametrize("model", [
    # before the check: "curvature 0 has indefinite sign", and ([], []) from the oracle
    phi4_with_field("phj"),
    # before the check: no minima and no error
    phi4_with_field("mu"),
    phi4_with_field("psi", Param("psi", positive=False)),
], ids=["undeclared", "declared_positive", "not_in_the_hamiltonian"])
def test_a_potential_models_field_is_checked_before_any_table_row(no_table_rows, model):
    message = f"field {model.field_param} is not a signed parameter of the Hamiltonian"
    with pytest.raises(ValidationError, match=message):
        effective_potential(model, PAPER)
    with pytest.raises(ValidationError, match=message):
        oracle.potential_numeric(model, {"mu": 1.0, "lambda": 6.0, "psi": 1.0})


def test_phi4_numeric_fallback():
    minima, masses = oracle.potential_numeric(phi4(), {"mu": 1.0, "lambda": 6.0})
    assert sorted(round(v, 6) for v in minima) == [-1.0, 1.0]
    assert all(m == pytest.approx(math.sqrt(2), abs=1e-4) for m in masses)
    # lambda = 0 turns the cubic of phi4 into -mu^2 phi: one root, a maximum
    assert oracle.potential_numeric(phi4(), {"mu": 1.0, "lambda": 0.0}) == ([], [])


def test_phi4_numeric_fallback_returns_builtin_floats():
    for bindings in ({"mu": 1.0, "lambda": 6.0}, {"mu": 0.0, "lambda": 6.0}):
        minima, masses = oracle.potential_numeric(phi4(), bindings)
        assert minima and masses
        assert all(type(v) is float for v in minima + masses)


def test_phi4_numeric_fallback_keeps_the_triple_root_at_mu_zero():
    # dV = lambda/6 phi^3: three roots at 0, each a (flat) minimum
    minima, masses = oracle.potential_numeric(phi4(), {"mu": 0.0, "lambda": 6.0})
    assert minima == [0.0, 0.0, 0.0]
    assert masses == [pytest.approx(math.sqrt(0.5) * 1e-4)] * 3


def test_phi4_numeric_fallback_at_badly_scaled_bindings():
    # minima at +-1e10: a fixed step of 1e-4 would difference V below its rounding error
    minima, masses = oracle.potential_numeric(phi4(), {"mu": 1e4, "lambda": 6e-12})
    assert minima == pytest.approx([-1e10, 1e10], rel=1e-12)
    assert masses == pytest.approx([math.sqrt(2) * 1e4] * 2, rel=1e-6)


def test_phi4_closed_forms_match_the_numeric_fallback():
    pot = effective_potential(phi4(), PAPER)
    rng = random.Random(7)
    for _ in range(20):
        bindings = {"mu": 10 ** rng.uniform(-3, 3), "lambda": 10 ** rng.uniform(-6, 3)}
        minima, masses = oracle.potential_numeric(phi4(), bindings)
        closed_minima = sorted(p.eval(bindings).real for p in pot.minima)
        assert minima == pytest.approx(closed_minima, rel=1e-9), bindings
        closed_mass = pot.masses[0].eval(bindings).real
        assert masses == pytest.approx([closed_mass] * 2, rel=1e-6), bindings


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


# ---------------------------------------------------------------------------
# Table rows, memoized alternatives and one-pass branches
# ---------------------------------------------------------------------------


def _reduce_by_products(items, integrals, model, policy):
    """Each branch of one side's enumeration as a chain of term products over freshly built, scaled table rows."""
    out = []
    for poly, t_power, symbols in items:
        start = ZetaTerm(MeroFactorProduct(poly * model.prefactor), t_const=rational.of(t_power))
        branches = [start]
        for alternatives in symbols:
            rows = []
            for mult, i in alternatives:
                integral = integrals[i]
                if integral.kind == "gauss":
                    row = tables.gauss_radial(integral.q, integral.rate)
                else:
                    row = tables.osc_linear(integral.q, integral.sign, policy, integral.rate)
                rows.append(scaled(row, mult))
            branches = [
                ZetaTerm(
                    MeroFactorProduct(
                        b.coeff.prefactor * r.coeff.prefactor, b.coeff.factors + r.coeff.factors
                    ),
                    _merge_tlin(b.t_lin, r.t_lin), rational.add(b.t_const, r.t_const),
                    b.t_log + r.t_log,
                )
                for b in branches for r in rows
            ]
        out.extend(b for b in branches if not b.coeff.prefactor.is_zero())
    return out


EQUIVALENCE_MODELS = (
    [(name, {}) for name in REGISTRY]
    + [("harmonic_oscillator_nd", {"n": n}) for n in (*range(1, 7), 16, 32)]
    + [("harmonic_oscillator_nd", {"n": n, "per_axis": True}) for n in range(1, 4)]
)


@pytest.mark.parametrize("policy", [PAPER, PRINCIPAL], ids=str)
@pytest.mark.parametrize(
    "name, overrides", EQUIVALENCE_MODELS, ids=[f"{n}{o or ''}" for n, o in EQUIVALENCE_MODELS]
)
def test_reduction_equals_the_product_of_fresh_rows(name, overrides, policy):
    model = build_model(name, **overrides)
    # the unit denominator and every observable, each enumerated twice
    labels, observables = zip(("1", ParamPoly.one()), *model.observables.items())
    _, integrals, sides = engine.reduced_sides(model, observables)
    _, fresh_integrals, fresh_sides = engine.reduced_sides(model, observables)
    rows = engine.table_rows(integrals, policy)
    for label, items, fresh in zip(labels, sides, fresh_sides):
        got = engine.reduce_pieces(items, model, rows).terms
        want = _reduce_by_products(fresh, fresh_integrals, model, policy)
        assert len(got) == len(want), label
        for g, w in zip(got, want):
            assert g.coeff.factors == w.coeff.factors, label
            assert g.coeff.prefactor.terms == w.coeff.prefactor.terms, label
            assert g.t_lin == w.t_lin and g.t_const == w.t_const and g.t_log == w.t_log, label


def _count_rows(monkeypatch):
    built = []
    for name in ("gauss_radial", "osc_linear"):
        def counted(*args, _row=getattr(engine, name), **kwargs):
            row = _row(*args, **kwargs)
            built.append(row)
            return row
        monkeypatch.setattr(engine, name, counted)
    return built


def test_each_distinct_row_is_built_once_per_derivation(monkeypatch):
    # 14 pieces x 12 axes reach only 4 distinct Gaussian rows
    built = _count_rows(monkeypatch)
    model = harmonic_oscillator_nd(6)
    num, den, _ = build_trace_sums(model, model.observables["H"], PAPER)
    assert len(built) == 4
    # every factor is a product of the 4 rows' factors of one key
    row_keys = {f.fold_key for row in built for f in row.coeff.factors}
    assert all(f.fold_key in row_keys for t in num.terms + den.terms for f in t.coeff.factors)


def test_two_derivations_share_no_rows(monkeypatch):
    built = _count_rows(monkeypatch)
    model = harmonic_oscillator_nd(2)
    first = build_trace_sums(model, model.observables["H"], PAPER)
    n_first = len(built)
    second = build_trace_sums(model, model.observables["H"], PAPER)
    assert len(built) == 2 * n_first
    ids_first = {id(f) for s in first[:2] for t in s.terms for f in t.coeff.factors}
    ids_second = {id(f) for s in second[:2] for t in s.terms for f in t.coeff.factors}
    assert not ids_first & ids_second


INVARIANT_MODELS = (
    [(name, {}) for name in REGISTRY if build_model(name).observables]
    + [(name, {"n": n}) for name in ("harmonic_oscillator_nd", "dirac_fermion") for n in (2, 3)]
)


@pytest.mark.parametrize("policy", [PAPER, PRINCIPAL], ids=str)
@pytest.mark.parametrize(
    "name, overrides", INVARIANT_MODELS, ids=[f"{n}{o or ''}" for n, o in INVARIANT_MODELS]
)
def test_the_engines_rows_are_the_oracles_points(monkeypatch, name, overrides, policy):
    """The engine builds one table row per oracle point, in the oracle's order."""
    model = build_model(name, **overrides)
    bindings = {p.name: 1.1 for p in model.params}
    t_value = 10.0
    rows = []

    def point(gauss, q, sign, rate):
        omega = (-1 if gauss else sign) * (rate.eval(bindings).real * t_value)
        return gauss, rational.to_float(q.a), rational.to_float(q.b), omega

    def gauss_row(q, rate, _row=engine.gauss_radial):
        rows.append(point(True, q, 1, rate))
        return _row(q, rate)

    def osc_row(q, sign, branch, rate, _row=engine.osc_linear):
        rows.append(point(False, q, sign, rate))
        return _row(q, sign, branch, rate)

    monkeypatch.setattr(engine, "gauss_radial", gauss_row)
    monkeypatch.setattr(engine, "osc_linear", osc_row)
    for observable in model.observables:
        rows.clear()
        build_trace_sums(model, model.observables[observable], policy)
        _, points = oracle._build_quotient(model, observable, t_value, bindings)
        assert rows and rows == points, observable


def test_each_sphere_moment_is_computed_once_per_derivation(monkeypatch):
    # both sides, every radial degree and oscillation sign share the one moment
    calls = []

    def counted(powers, dim):
        calls.append((powers, dim))
        return tables.angular_moment(powers, dim)

    monkeypatch.setattr(engine, "angular_moment", counted)
    run_model("dirac_fermion", n=3)
    assert calls == [((0, 0, 0), 3)]


# ---------------------------------------------------------------------------
# The derivation text is rendered when read
# ---------------------------------------------------------------------------


GOLDEN = Path(__file__).parent / "golden"


def test_runs_render_nothing_until_the_trace_is_read(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("rendered while nobody asked")

    runs = {}
    with monkeypatch.context() as patch:
        for owner in (ZetaTermSum, TAsymptote):
            patch.setattr(owner, "render", refuse)
        patch.setattr(engine, "gauge_text", refuse)
        for name in REGISTRY:
            runs[name] = run_model(name, PAPER)
    for name, run in runs.items():
        lines = (GOLDEN / f"run_{name}_paper.txt").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines[2:]]
        if run.potential is not None:
            assert all(r["trace"] == run.potential.trace for r in records), name
        else:
            assert [r["trace"] for r in records] == [res.trace for res in run.results.values()]
