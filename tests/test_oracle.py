import cmath
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from zetatrace import engine, oracle
from zetatrace.errors import NonConvergent, UnsupportedStructure, ValidationError

import lanczos
from factor_values import factor_value
from fits import decay_exponent
from zetatrace.rational import to_float


def test_lanczos_gamma_accuracy_on_strip():
    import random

    rng = random.Random(314)
    for _ in range(40):
        z = complex(rng.uniform(0.5, 5.0), rng.uniform(-5.0, 5.0))
        want = complex(special.gamma(z))
        assert lanczos.gamma(z) == pytest.approx(want, rel=1e-12)


def test_lanczos_gamma_reflection():
    for z in (-0.5, -1.5 + 0.3j, -2.7):
        want = complex(special.gamma(z))
        assert lanczos.gamma(z) == pytest.approx(want, rel=1e-10)


def test_lanczos_gamma_known_values():
    assert lanczos.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert lanczos.gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert lanczos.gamma(4.0) == pytest.approx(6.0, rel=1e-13)


def gamma_closed_form(p, omega):
    """int_0^inf r^p e^(i omega r) dr = Gamma(p+1) e^(sgn(omega) i pi (p+1)/2) / |omega|^(p+1)."""
    turn = cmath.exp(math.copysign(1, omega) * 1j * math.pi * (p + 1) / 2)
    return math.gamma(p + 1) * turn / abs(omega) ** (p + 1)


def test_damped_quadrature_pure_oscillation():
    # int_0^inf e^(i r) dr -> i
    got = oracle.damped_quadrature(0.0, 1.0)
    assert got == pytest.approx(1j, abs=1e-12)


def test_damped_quadrature_fresnel():
    # int_R e^(-i u^2) du, by t = u^2
    got = oracle.damped_quadrature(-0.5, -1.0)
    want = math.sqrt(math.pi) * cmath.exp(-1j * math.pi / 4)
    assert got == pytest.approx(want, rel=1e-12)


def test_damped_quadrature_real_gamma():
    for p in (-0.5, 1.0):
        for omega in (2.0, -2.0):
            got = oracle.damped_quadrature(p, omega)
            assert got == pytest.approx(gamma_closed_form(p, omega), rel=1e-12)


@given(
    p=st.floats(-0.98, 9.0, exclude_min=True),
    log_omega=st.floats(-3.0, 3.0),
    sign=st.sampled_from([1, -1]),
)
def test_damped_quadrature_matches_gamma_over_the_oracle_range(p, log_omega, sign):
    omega = sign * 10.0**log_omega
    assert oracle.damped_quadrature(p, omega) == pytest.approx(gamma_closed_form(p, omega), rel=1e-12)


def test_damped_quadrature_without_oscillation_has_no_abel_limit():
    with pytest.raises(NonConvergent, match="no Abel limit at omega = 0"):
        oracle.damped_quadrature(-0.5, 0.0)


@pytest.mark.parametrize("p", [-1.0, -1.5, -7.0, math.nan])
@pytest.mark.parametrize("omega", [2.0, -2.0])
def test_damped_quadrature_diverges_at_zero_for_p_at_most_minus_one(p, omega):
    with pytest.raises(NonConvergent, match="diverges at r = 0"):
        oracle.damped_quadrature(p, omega)


@pytest.mark.parametrize("p", [-0.99, -0.995, 12.0])
def test_damped_quadrature_at_the_edges_meets_gamma_or_raises(p):
    """Near p = -1 the rule truncates its left tail, at large p both rays lose accuracy."""
    try:
        got = oracle.damped_quadrature(p, 1.5)
    except NonConvergent:
        return
    assert got == pytest.approx(gamma_closed_form(p, 1.5), rel=1e-12)


@pytest.mark.parametrize(
    "p, omega, message",
    [
        (200.0, 1.0, "is not finite"),
        (1e300, 1.0, "is not finite"),
        (math.inf, 1.0, "is not finite"),
        (3.0, 1e300, "outside the float range"),
        (3.0, 1e-300, "outside the float range"),
        (2.0, math.inf, "outside the float range"),
    ],
)
def test_damped_quadrature_out_of_range_raises_instead_of_returning(p, omega, message):
    # pytest turns any numpy RuntimeWarning on the way into an error
    with pytest.raises(NonConvergent, match=message):
        oracle.damped_quadrature(p, omega)


def test_exp_sinh_nodes_are_read_only():
    for nodes in (oracle._LOG_U, oracle._U, oracle._LOG_W):
        with pytest.raises(ValueError):
            nodes[0] = 0.0


@given(
    p=st.floats(-0.9, 3.0, exclude_min=True, exclude_max=True),
    omega=st.floats(0.5, 30.0),
)
def test_damped_quadrature_at_minus_omega_is_the_exact_conjugate(p, omega):
    """What lets a batch serve (p, -omega) from its row at (p, omega) bit for bit."""
    plus = oracle.damped_quadrature(p, omega)
    minus = oracle.damped_quadrature(p, -omega)
    assert (minus.real, minus.imag) == (plus.real, -plus.imag)


def skew_second_ray(monkeypatch, rel):
    """Scale every integral on the second ray by (1 + rel)."""
    real = oracle._ray_integral

    def skewed(p, w, theta):
        value = real(p, w, theta)
        return value * (1 + rel) if theta == oracle.RAY_ANGLES[1] else value

    monkeypatch.setattr(oracle, "_ray_integral", skewed)


def test_rays_that_disagree_raise_nonconvergent(monkeypatch):
    skew_second_ray(monkeypatch, 2 * oracle.RAY_REL)
    with pytest.raises(NonConvergent, match="rays differ by"):
        oracle.damped_quadrature(0.5, 2.0)
    model, obs, bindings = ho_1d()
    with pytest.raises(NonConvergent, match="rays differ by"):
        oracle.model_quotient(model, obs, -0.1, 10.0, bindings)


def test_rays_within_the_tolerance_give_the_first_ray(monkeypatch):
    want = oracle.damped_quadrature(0.5, -2.0)
    skew_second_ray(monkeypatch, 0.5 * oracle.RAY_REL)
    assert oracle.damped_quadrature(0.5, -2.0) == want


# seed 303 of perfbench's oracle workload: the Abel-damped oracle raised here
SEED_303_M, SEED_303_T = 0.8623630368881414, 18.055025945184497


@pytest.mark.parametrize("p", [2.8, 2.9])
def test_damped_quadrature_at_the_seed_303_point(p):
    got = oracle.damped_quadrature(p, SEED_303_T)
    assert got == pytest.approx(gamma_closed_form(p, SEED_303_T), rel=1e-12)


def test_dirac_fermion_at_the_seed_303_point_matches_the_engine():
    from zetatrace.engine import expectation
    from zetatrace.models import dirac_fermion
    from zetatrace.tables import PRINCIPAL

    model, bindings = dirac_fermion(3), {"m": SEED_303_M}
    engine_value = expectation(model, "H_m", PRINCIPAL).finite_t.eval(bindings, SEED_303_T)
    got = oracle.small_z_ratio(model, "H_m", Z_SAMPLES, SEED_303_T, bindings)
    assert got == pytest.approx(engine_value, rel=1e-9)


def test_small_z_limit_linear_data():
    samples = {z: 2.0 + 3.0 * z for z in (-0.2, -0.1, -0.05)}
    assert oracle.small_z_limit(samples) == pytest.approx(2.0, abs=1e-10)


def test_small_z_limit_single_sample_rejected():
    with pytest.raises(NonConvergent):
        oracle.small_z_limit({-0.1: 1.0})


def test_small_z_limit_model_quotients():
    from zetatrace.engine import expectation
    from zetatrace.models import harmonic_oscillator_1d, topological_oscillator
    from zetatrace.tables import PRINCIPAL

    for model, obs, bindings in [
        (topological_oscillator(), "chi_top", {"J": 1.0}),
        (harmonic_oscillator_1d(), "H", {"m": 1.0, "hbar": 1.0, "omega": 1.0}),
    ]:
        tv = 10.0
        res = expectation(model, obs, PRINCIPAL)
        samples = {
            z: oracle.model_quotient(model, obs, z, tv, bindings)
            for z in (-0.2, -0.1, -0.05)
        }
        got = oracle.small_z_limit(samples)
        assert got == pytest.approx(res.finite_t.eval(bindings, tv), rel=1e-9)


def test_model_quotient_rejects_what_the_engine_rejects(shifted_oscillator):
    # quadratic and linear phase on x1: neither side may drop the linear part
    from zetatrace.engine import expectation

    model = shifted_oscillator
    with pytest.raises(UnsupportedStructure) as engine_error:
        expectation(model, "observable")
    with pytest.raises(UnsupportedStructure) as oracle_error:
        oracle.model_quotient(model, "observable", -0.1, 10.0, {"m": 1.0, "w": 1.0, "F": 1.0})
    assert "complete the square" in str(engine_error.value)
    assert str(oracle_error.value) == str(engine_error.value)


def regulator_sum_value(s, zs, t_value, bindings):
    """A term sum at explicit per-regulator values zs, with the oracle's Gamma."""
    total = 0j
    for t in s.terms:
        v = t.coeff.prefactor.eval(bindings)
        for f in t.coeff.factors:
            v *= factor_value(f, zs[f.regulator], bindings)
        v *= t_value ** (to_float(t.t_const) + sum(to_float(a) * zs[r] for r, a in t.t_lin))
        v *= math.log(t_value) ** t.t_log * cmath.exp(1j * t.phase.eval(bindings) * t_value)
        total += v
    return total


def test_a_denominator_of_exactly_zero_raises_nonconvergent_naming_the_z_sample():
    from zetatrace.models import schwinger_free

    # schwinger_free's denominator is exactly 0 at z = 0 for these values
    bindings = {"m": 13.445080768798997, "X": 84.7448993563539}
    with pytest.raises(NonConvergent, match=r"^the denominator is exactly 0 at the z sample 0\.0$"):
        oracle.small_z_ratio(schwinger_free(), "H_m", (0.0, 0.1), 763.7769812304242, bindings)


def test_model_quotient_samples_the_regulator_diagonal():
    """The oracle sets every regulator to the same z; the engine eliminates z1, then z2."""
    from zetatrace.engine import build_trace_sums
    from zetatrace.models import harmonic_oscillator_1d
    from zetatrace.tables import PRINCIPAL

    model = harmonic_oscillator_1d()
    bindings = {"m": 1.0, "hbar": 1.0, "omega": 1.0}
    tv = 10.0
    num, den, _ = build_trace_sums(model, model.observables["H"], PRINCIPAL)
    assert num.regulators == ("z1", "z2")

    def engine_quotient(z1, z2):
        zs = {"z1": z1, "z2": z2}
        return regulator_sum_value(num, zs, tv, bindings) / regulator_sum_value(den, zs, tv, bindings)

    for z in (-0.2, -0.1):
        got = oracle.model_quotient(model, "H", z, tv, bindings)
        assert got == pytest.approx(engine_quotient(z, z), rel=1e-6)
    # off the diagonal the quotient differs, so the diagonal is a choice, not an identity
    diagonal = oracle.model_quotient(model, "H", -0.2, tv, bindings)
    assert abs(engine_quotient(-0.2, -0.1) - diagonal) > 1e-3 * abs(diagonal)


def test_decay_exponent_fits_power_law():
    assert decay_exponent(lambda t: 5.0 / t, [10, 20, 40, 80]) == pytest.approx(
        -1.0, abs=1e-12
    )
    assert decay_exponent(lambda t: 2.0 / t**2, [10, 20, 40]) == pytest.approx(
        -2.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# One quadrature batch per small_z_ratio call: the store of integral values
# that both sides and every z sample share
# ---------------------------------------------------------------------------

Z_SAMPLES = (-0.2, -0.1, -0.05)


def oracle_cases():
    """The five ratio models of the engine-vs-oracle cross-check."""
    from zetatrace.models import (
        dirac_fermion,
        harmonic_oscillator_1d,
        schwinger_boson_mass,
        schwinger_free,
        topological_oscillator,
    )

    return [
        (topological_oscillator(), "chi_top"),
        (harmonic_oscillator_1d(), "H"),
        (schwinger_free(), "H_m"),
        (dirac_fermion(3), "H_m"),
        (schwinger_boson_mass(), "m_g^2"),
    ]


def ho_1d():
    # bindings away from 1, so the x and xi Gaussians have different rates
    from zetatrace.models import harmonic_oscillator_1d

    return harmonic_oscillator_1d(), "H", {"m": 1.1, "hbar": 0.9, "omega": 1.3}


def count_quadratures(monkeypatch, fail_at=None):
    """Record the (p, omega) rows of each oracle.damped_quadrature batch.

    The batch that holds row ``fail_at``, counting rows over all batches
    from 1, raises NonConvergent instead of returning.
    """
    batches = []
    real = oracle.damped_quadrature

    def counting(p, omega):
        before = sum(map(len, batches))
        batches.append(list(zip(p, omega)))
        if fail_at is not None and before < fail_at <= before + len(batches[-1]):
            raise NonConvergent("forced")
        return real(p, omega)

    monkeypatch.setattr(oracle, "damped_quadrature", counting)
    return batches


@pytest.mark.parametrize("seed", [11, 12])
def test_shared_store_gives_exactly_the_per_z_values(seed):
    import random

    rng = random.Random(seed)
    for model, obs in oracle_cases():
        bindings = {p.name: rng.uniform(0.7, 1.4) for p in model.params}
        tv = rng.uniform(5.0, 20.0)
        fresh = {z: oracle.model_quotient(model, obs, z, tv, bindings) for z in Z_SAMPLES}
        assert oracle.small_z_ratio(model, obs, Z_SAMPLES, tv, bindings) == oracle.small_z_limit(fresh)


def test_shared_store_computes_each_distinct_integral_once(monkeypatch):
    model, obs, bindings = ho_1d()
    sides, _ = oracle._build_quotient(model, obs, 10.0, bindings)
    pairs = sum(len(alternatives) for side in sides for _, symbols in side for alternatives in symbols)
    batches = count_quadratures(monkeypatch)
    oracle.small_z_ratio(model, obs, Z_SAMPLES, 10.0, bindings)
    # 24 integral rows over both sides and three z, 12 distinct (exponent, omega) pairs, one batch
    assert pairs * len(Z_SAMPLES) == 24
    assert len(batches) == 1
    assert len(batches[0]) == len(set(batches[0])) == 12


@pytest.mark.parametrize("case", [2, 3], ids=["schwinger_free", "dirac_fermion3"])
def test_shared_store_computes_a_mirror_pair_once(monkeypatch, case):
    """Every r^p e^(i omega r) of these models comes with its mirror (p, -omega)."""
    model, obs = oracle_cases()[case]
    bindings = {p.name: 1.1 for p in model.params}
    batches = count_quadratures(monkeypatch)
    oracle.small_z_ratio(model, obs, Z_SAMPLES, 10.0, bindings)
    # 12 distinct (p, omega) keys, 6 distinct (p, |omega|): one row each, at omega > 0
    (rows,) = batches
    assert len(rows) == len({(p, abs(omega)) for p, omega in rows}) == 6
    assert all(omega > 0 for _, omega in rows)


def test_shared_store_lives_for_one_call(monkeypatch):
    model, obs, bindings = ho_1d()
    batches = count_quadratures(monkeypatch)
    for tv in (10.0, 12.0, 10.0):
        oracle.small_z_ratio(model, obs, Z_SAMPLES, tv, bindings)
    assert [len(rows) for rows in batches] == [12, 12, 12]
    assert batches[2] == batches[0]


def test_small_z_ratio_enumerates_each_side_once(monkeypatch):
    """Only the quadratures depend on z: the enumeration runs once per side, not once per sample."""
    model, obs, bindings = ho_1d()
    enumerations = []
    real = engine.reduced_integrals

    def counting(*args):
        enumerations.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "reduced_integrals", counting)
    oracle.small_z_ratio(model, obs, Z_SAMPLES, 10.0, bindings)
    assert len(enumerations) == 2


def test_small_z_ratio_raises_a_structural_error_before_any_quadrature(monkeypatch, shifted_oscillator):
    batches = count_quadratures(monkeypatch)
    with pytest.raises(UnsupportedStructure, match="complete the square"):
        oracle.small_z_ratio(shifted_oscillator, "observable", Z_SAMPLES, 10.0,
                             {"m": 1.0, "w": 1.0, "F": 1.0})
    assert batches == []


def test_small_z_ratio_rejects_groups_that_share_an_axis_before_any_quadrature(monkeypatch):
    from zetatrace.engine import GaugeGroup
    from zetatrace.models import topological_oscillator

    model = topological_oscillator()
    model.groups = (GaugeGroup("a", ("xi",), "z1"), GaugeGroup("b", ("xi",), "z2"))
    batches = count_quadratures(monkeypatch)
    with pytest.raises(ValidationError, match=r"axes in more than one gauge group: \['xi'\]"):
        oracle.small_z_ratio(model, "chi_top", Z_SAMPLES, 10.0, {"J": 1.0})
    assert batches == []


def test_nonconvergent_integral_propagates_from_small_z_ratio(monkeypatch):
    model, obs, bindings = ho_1d()
    batches = count_quadratures(monkeypatch, fail_at=7)
    with pytest.raises(NonConvergent, match="forced"):
        oracle.small_z_ratio(model, obs, Z_SAMPLES, 10.0, bindings)
    assert [len(rows) for rows in batches] == [12]


def test_nonconvergent_integral_is_not_stored(monkeypatch):
    model, obs, bindings = ho_1d()
    want = oracle.model_quotient(model, obs, -0.1, 10.0, bindings)
    batches = count_quadratures(monkeypatch, fail_at=3)
    with pytest.raises(NonConvergent, match="forced"):
        oracle.model_quotient(model, obs, -0.1, 10.0, bindings)
    # the next call computes every row again and returns the unforced value
    assert oracle.model_quotient(model, obs, -0.1, 10.0, bindings) == want
    assert len(batches) == 2 and batches[1] == batches[0]


def quadrature_key():
    """(p, omega) inside the validated range, p in (-0.9, 9), |omega| in [1e-3, 1e3], either sign."""
    return st.tuples(
        st.floats(-0.9, 9.0, exclude_min=True, exclude_max=True),
        st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1, -1]), st.floats(-3.0, 3.0)),
    )


@st.composite
def quadrature_batches(draw):
    """Rows of a batch: distinct keys, then repeats and mirrors of them, shuffled."""
    keys = draw(st.lists(quadrature_key(), min_size=1, max_size=8))
    again = draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from([1, -1])), max_size=6))
    return draw(st.permutations(keys + [(p, sign * omega) for (p, omega), sign in again]))


def bits(value: complex) -> tuple[str, str]:
    return value.real.hex(), value.imag.hex()


@given(rows=quadrature_batches())
def test_a_batch_returns_each_rows_single_key_value_bit_for_bit(rows):
    ps, omegas = zip(*rows)
    batch = oracle.damped_quadrature(list(ps), list(omegas))
    assert [bits(v) for v in batch] == [bits(oracle.damped_quadrature(p, w)) for p, w in rows]


# one key per check that can fail, each raising from a batch of one
FAILING_KEYS = [
    (0.5, 0.0),  # no Abel limit
    (-1.0, 2.0),  # diverges at r = 0
    (200.0, 1.0),  # sum not finite
    (-0.995, 1.5),  # end node truncated
    (3.0, 1e300),  # outside the float range
    (12.0, 1.5),  # rays differ
]


@given(rows=quadrature_batches(), bad=st.sampled_from(FAILING_KEYS), at=st.integers(0, 14),
       sign=st.sampled_from([1, -1]))
def test_a_batch_with_a_failing_key_raises_that_keys_message(rows, bad, at, sign):
    p_bad, omega_bad = bad[0], sign * bad[1]
    with pytest.raises(NonConvergent) as single:
        oracle.damped_quadrature(p_bad, omega_bad)
    rows = list(rows)
    rows.insert(min(at, len(rows)), (p_bad, omega_bad))
    ps, omegas = zip(*rows)
    with pytest.raises(NonConvergent) as batch:
        oracle.damped_quadrature(list(ps), list(omegas))
    assert str(batch.value) == str(single.value)


# ---------------------------------------------------------------------------
# The oracle's values, to the last bit
# ---------------------------------------------------------------------------

ORACLE_RECORD = Path(__file__).parent / "golden" / "oracle_values.txt"
ORACLE_POINT_SEEDS = (1, 2)  # one fixed (bindings, T) point per seed


def oracle_value_lines() -> list[str]:
    """``repr`` of small_z_ratio, or its error text, for each oracle case and point."""
    import random

    lines = []
    for seed in ORACLE_POINT_SEEDS:
        rng = random.Random(seed)
        for model, obs in oracle_cases():
            bindings = {p.name: rng.uniform(0.7, 1.4) for p in model.params}
            tv = rng.uniform(5.0, 20.0)
            try:
                out = repr(oracle.small_z_ratio(model, obs, Z_SAMPLES, tv, bindings))
            except NonConvergent as exc:
                out = f"NonConvergent: {exc}"
            lines.append(f"{model.name} {obs} {bindings!r} T={tv!r} -> {out}")
    return lines


def oracle_record_header() -> list[str]:
    import numpy

    return [
        f"# recorded with numpy {numpy.__version__}",
        "# re-record after an intended change of values: PYTHONPATH=src python tests/test_oracle.py",
    ]


def test_oracle_values_match_the_record_bit_for_bit():
    """numpy's exp and sum and LAPACK fix these bits; a change meant to keep them leaves the file as it is."""
    recorded = ORACLE_RECORD.read_text(encoding="utf-8").splitlines()
    header = [line for line in recorded if line.startswith("#")]
    assert [line for line in recorded if not line.startswith("#")] == oracle_value_lines(), (
        f"{header[0]}; installed: {oracle_record_header()[0]}"
    )


# ---------------------------------------------------------------------------
# Numeric minima and masses of a potential
# ---------------------------------------------------------------------------


def test_potential_numeric_keeps_a_repeated_nonzero_root(monkeypatch):
    from fractions import Fraction

    from zetatrace.engine import GaugeGroup, ModelSpec
    from zetatrace.params import Param, ParamPoly

    # V = phi^4/4 - 4 phi^3/3 + 5 phi^2/2 - 2 phi, so dV = (phi - 1)^2 (phi - 2)
    v = ParamPoly.zero()
    for c, e in ((Fraction(1, 4), 4), (Fraction(-4, 3), 3), (Fraction(5, 2), 2), (-2, 1)):
        v = v + ParamPoly.monomial(c, {"phi": Fraction(e)})
    model = ModelSpec(
        name="double_root",
        description="potential whose dV has a double root at 1",
        params=(Param("phi", positive=False),),
        groups=(GaugeGroup("g", ("p",), "z"),),
        hamiltonian=ParamPoly.monomial(0.5, {"p": 2}) + v,
        observables={},
        t_symbol="TX",
        field_param="phi",
    )
    roots = []
    real_roots = oracle._real_roots
    monkeypatch.setattr(oracle, "_real_roots", lambda c: roots.append(real_roots(c)) or roots[-1])
    minima, masses = oracle.potential_numeric(model, {})
    # the double root comes back from np.roots as a pair with |imag| ~ 3e-8
    assert roots == [pytest.approx([1.0, 1.0, 2.0], rel=1e-12)]
    # V'' = 3 phi^2 - 8 phi + 5 is 1 at phi = 2 and 0 at the inflection phi = 1
    assert minima[-1] == pytest.approx(2.0, rel=1e-12)
    assert masses[-1] == pytest.approx(1.0, rel=1e-6)


def test_potential_numeric_rejects_a_ratio_model():
    from zetatrace.models import harmonic_oscillator_1d

    with pytest.raises(UnsupportedStructure, match="not a potential model"):
        oracle.potential_numeric(harmonic_oscillator_1d(), {})


if __name__ == "__main__":
    ORACLE_RECORD.write_text(
        "".join(f"{line}\n" for line in oracle_record_header() + oracle_value_lines()), encoding="utf-8"
    )
