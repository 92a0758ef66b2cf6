import cmath
import math

import pytest
from scipy import special

from zetatrace import oracle
from zetatrace.errors import DivergenceDetected, NonConvergent, UnsupportedStructure


def test_lanczos_gamma_accuracy_on_strip():
    import random

    rng = random.Random(314)
    for _ in range(40):
        z = complex(rng.uniform(0.5, 5.0), rng.uniform(-5.0, 5.0))
        want = complex(special.gamma(z))
        assert oracle.gamma(z) == pytest.approx(want, rel=1e-12)


def test_lanczos_gamma_reflection():
    for z in (-0.5, -1.5 + 0.3j, -2.7):
        want = complex(special.gamma(z))
        assert oracle.gamma(z) == pytest.approx(want, rel=1e-10)


def test_lanczos_gamma_known_values():
    assert oracle.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert oracle.gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert oracle.gamma(4.0) == pytest.approx(6.0, rel=1e-13)


def test_damped_quadrature_pure_oscillation():
    # int_0^inf e^(i r) dr -> i
    got = oracle.damped_quadrature(lambda r: 1.0, 1.0)
    assert got == pytest.approx(1j, abs=1e-6)


def test_damped_quadrature_fresnel():
    got = oracle.gauss_power_osc(0.0, 1.0)
    want = math.sqrt(math.pi) * cmath.exp(-1j * math.pi / 4)
    assert got == pytest.approx(want, rel=1e-6)


def test_damped_quadrature_real_gamma():
    # no oscillation: int_0^inf r^(-1/2) e^(-r) dr = Gamma(1/2)
    got = oracle.damped_quadrature(
        lambda r: r**-0.5 * math.exp(-r) if r > 0 else 0.0, 0.0
    )
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-8)


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
        assert got == pytest.approx(res.finite_t.eval(bindings, tv), rel=1e-4)


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
            v *= f.numeric(zs[f.regulator], gamma_fn=oracle.gamma, bindings=bindings)
        v *= t_value ** (float(t.t_const) + sum(float(a) * zs[r] for r, a in t.t_lin))
        v *= math.log(t_value) ** t.t_log * cmath.exp(1j * t.phase.eval(bindings) * t_value)
        total += v
    return total


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


def test_finite_t_sweep_recovers_constant_plus_decay():
    m = 1.37
    fit = oracle.finite_t_sweep(lambda t: m - 3.0 / t, [10, 20, 40, 80])
    assert fit.limit == pytest.approx(m, abs=1e-3)
    assert fit.residual < 1e-9


def test_finite_t_sweep_exact_constant():
    fit = oracle.finite_t_sweep(lambda t: 2.5 + 0j, [10, 20, 40])
    assert fit.limit == pytest.approx(2.5)
    assert fit.residual < 1e-12


def test_finite_t_sweep_detects_growth():
    with pytest.raises(DivergenceDetected):
        oracle.finite_t_sweep(lambda t: 0.01 * t, [10, 20, 40, 80])


def test_decay_exponent_fits_power_law():
    assert oracle.decay_exponent(lambda t: 5.0 / t, [10, 20, 40, 80]) == pytest.approx(
        -1.0, abs=1e-12
    )
    assert oracle.decay_exponent(lambda t: 2.0 / t**2, [10, 20, 40]) == pytest.approx(
        -2.0, abs=1e-12
    )


# ---------------------------------------------------------------------------
# One store of integral values per small_z_ratio call
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
    """Record (2^p, omega) of each oracle.damped_quadrature call; raise NonConvergent on call ``fail_at``."""
    calls = []
    real = oracle.damped_quadrature

    def counting(profile, omega, *args, **kwargs):
        calls.append((profile(2.0), omega))
        if len(calls) == fail_at:
            raise NonConvergent("forced")
        return real(profile, omega, *args, **kwargs)

    monkeypatch.setattr(oracle, "damped_quadrature", counting)
    return calls


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
    lookups = []
    real_lookup = oracle._quadrature

    def counting_lookup(*args):
        lookups.append(args)
        return real_lookup(*args)

    monkeypatch.setattr(oracle, "_quadrature", counting_lookup)
    calls = count_quadratures(monkeypatch)
    oracle.small_z_ratio(model, obs, Z_SAMPLES, 10.0, bindings)
    # 24 integral rows over both sides and three z, 12 distinct (exponent, omega) pairs
    assert len(lookups) == 24
    assert len(calls) == len(set(calls)) == 12


def test_shared_store_lives_for_one_call(monkeypatch):
    model, obs, bindings = ho_1d()
    calls = count_quadratures(monkeypatch)
    for tv in (10.0, 12.0, 10.0):
        oracle.small_z_ratio(model, obs, Z_SAMPLES, tv, bindings)
    assert len(calls) == 36
    assert calls[24:] == calls[:12]


def test_nonconvergent_integral_propagates_from_small_z_ratio(monkeypatch):
    model, obs, bindings = ho_1d()
    count_quadratures(monkeypatch, fail_at=7)
    with pytest.raises(NonConvergent, match="forced"):
        oracle.small_z_ratio(model, obs, Z_SAMPLES, 10.0, bindings)


def test_nonconvergent_integral_is_not_stored(monkeypatch):
    model, obs, bindings = ho_1d()
    calls = count_quadratures(monkeypatch, fail_at=3)
    store = {}
    with pytest.raises(NonConvergent, match="forced"):
        oracle.model_quotient(model, obs, -0.1, 10.0, bindings, store=store)
    assert len(calls) == 3
    assert len(store) == 2 and all(isinstance(v, complex) for v in store.values())
