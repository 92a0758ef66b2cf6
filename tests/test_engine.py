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
    apply_gauge,
    build_trace_sums,
    complete_square,
    effective_potential,
    expectation,
    kv_trace_at_zero,
)
from zetatrace.errors import (
    CriticalDegree,
    GammaPole,
    UncoveredAxis,
    UnsupportedStructure,
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
from zetatrace.symbols import Axis, AxisPoly, PhaseDecomposition, compose_observable
from zetatrace.tables import PAPER, PRINCIPAL
from zetatrace.terms import Divergent, TAsymptote, ZetaTerm, ZetaTermSum, _merge_tlin

from factor_values import product_value


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
    assert new_amp.constant_part().as_number() == pytest.approx(-1.0)


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
# Row store, memoized alternatives and one-pass branches
# ---------------------------------------------------------------------------


def _unit_and_observables(model):
    """(label, pieces) for every observable and for the unit denominator."""
    _, evo = engine._build_phase(model)
    sides = [("1", compose_observable(evo, AxisPoly.number(1)))]
    if model.kind != "potential":
        sides += [(name, compose_observable(evo, obs)) for name, obs in model.observables.items()]
    return sides


def _reduce_by_products(pieces, model, policy):
    """Each branch as a chain of term products over freshly built, scaled table rows."""
    plan = apply_gauge(model)
    phase, _ = engine._build_phase(model)
    out = []
    for poly, t_power, symbols in engine.reduced_integrals(pieces, model, phase, plan):
        start = ZetaTerm(
            MeroFactorProduct(poly * model.prefactor),
            t_const=rational.of(t_power),
            phase=phase.const,
        )
        branches = [start]
        for alternatives in symbols:
            rows = []
            for mult, integral in alternatives:
                if integral.kind == "gauss":
                    row = tables.gauss_radial(integral.q, integral.rate)
                else:
                    row = tables.osc_linear(integral.q, integral.sign, policy, integral.rate)
                rows.append(row.scaled(mult))
            branches = [
                ZetaTerm(
                    MeroFactorProduct(
                        b.coeff.prefactor * r.coeff.prefactor, b.coeff.factors + r.coeff.factors
                    ),
                    _merge_tlin(b.t_lin, r.t_lin), rational.add(b.t_const, r.t_const),
                    b.t_log + r.t_log, b.phase + r.phase,
                )
                for b in branches for r in rows
            ]
        out.extend(b for b in branches if not b.coeff.prefactor.is_zero())
    return out


EQUIVALENCE_MODELS = (
    [(name, {}) for name in REGISTRY]
    + [("harmonic_oscillator_nd", {"n": n}) for n in range(1, 7)]
    + [("harmonic_oscillator_nd", {"n": n, "per_axis": True}) for n in range(1, 4)]
)


@pytest.mark.parametrize("policy", [PAPER, PRINCIPAL], ids=lambda p: p.mode)
@pytest.mark.parametrize(
    "name, overrides", EQUIVALENCE_MODELS, ids=[f"{n}{o or ''}" for n, o in EQUIVALENCE_MODELS]
)
def test_reduction_equals_the_product_of_fresh_rows(name, overrides, policy):
    model = build_model(name, **overrides)
    plan = apply_gauge(model)
    phase, _ = engine._build_phase(model)
    for label, pieces in _unit_and_observables(model):
        got = engine.reduce_pieces(pieces, model, phase, plan, policy, {}).terms
        want = _reduce_by_products(pieces, model, policy)
        assert len(got) == len(want), label
        for g, w in zip(got, want):
            assert g.coeff.factors == w.coeff.factors, label
            assert g.coeff.prefactor.terms == w.coeff.prefactor.terms, label
            assert g.t_lin == w.t_lin and g.t_const == w.t_const and g.t_log == w.t_log, label
            assert g.phase.terms == w.phase.terms, label


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
    # shared by reference: every factor comes from one of the 4 rows
    row_factors = {id(f) for row in built for f in row.coeff.factors}
    assert all(id(f) in row_factors for t in num.terms + den.terms for f in t.coeff.factors)


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


def test_a_raising_row_is_not_stored(monkeypatch):
    calls = []
    real = engine.gauss_radial

    def fails_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise GammaPole("first build fails")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "gauss_radial", fails_once)
    model = harmonic_oscillator_1d()
    plan = apply_gauge(model)
    phase, evo = engine._build_phase(model)
    pieces = compose_observable(evo, AxisPoly.number(1))
    rows = {}
    with pytest.raises(GammaPole, match="first build fails"):
        engine.reduce_pieces(pieces, model, phase, plan, PAPER, rows)
    assert rows == {}
    den = engine.reduce_pieces(pieces, model, phase, plan, PAPER, rows)
    assert len(rows) == 2 and len(calls) == 3  # the failed row was built again
    assert [t.coeff.factors for t in den.terms] == [
        t.coeff.factors for t in _reduce_by_products(pieces, model, PAPER)
    ]


def _item_errors(pieces, model):
    """The error each item's symbols raise, walking on after each one."""
    plan = apply_gauge(model)
    phase, _ = engine._build_phase(model)
    errors = []
    for _, _, symbols in engine.reduced_integrals(pieces, model, phase, plan):
        with pytest.raises(UnsupportedStructure) as exc:
            for _ in symbols:
                pass
        errors.append(str(exc.value))
    return errors


def test_a_raising_alternative_is_not_stored(shifted_oscillator):
    # every item reaching x1 raises, not only the first one
    pieces = compose_observable(None, AxisPoly.number(1))
    errors = _item_errors(pieces * 3, shifted_oscillator)
    assert errors == ["complete the square before reducing this axis"] * 3
    with pytest.raises(UnsupportedStructure, match="complete the square"):
        build_trace_sums(shifted_oscillator, shifted_oscillator.observables["observable"], PAPER)


def test_a_negative_quadratic_coefficient_raises_at_every_item():
    model = topological_oscillator()
    model.hamiltonian = AxisPoly.symbol("xi", 2, mono(-0.5, J=-1))
    pieces = compose_observable(None, AxisPoly.symbol("xi", 2) + AxisPoly.number(1))
    errors = _item_errors(pieces * 2, model)
    assert errors == ["quadratic phase coefficient must be positive"] * 4
    with pytest.raises(UnsupportedStructure, match="must be positive"):
        expectation(model, "chi_top", PAPER)


# ---------------------------------------------------------------------------
# The derivation text is rendered when read
# ---------------------------------------------------------------------------


GOLDEN = Path(__file__).parent / "golden"


def test_runs_render_nothing_until_the_trace_is_read(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("rendered while nobody asked")

    runs = {}
    with monkeypatch.context() as patch:
        for owner in (ZetaTermSum, TAsymptote, engine.GaugePlan):
            patch.setattr(owner, "render", refuse)
        for name in REGISTRY:
            runs[name] = run_model(name, PAPER)
    for name, run in runs.items():
        lines = (GOLDEN / f"run_{name}_paper.txt").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines[2:]]
        if run.potential is not None:
            assert all(r["trace"] == run.potential.trace for r in records), name
        else:
            assert [r["trace"] for r in records] == [res.trace for res in run.results.values()]
