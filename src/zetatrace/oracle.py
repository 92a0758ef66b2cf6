"""Independent numeric verification.

Shared with the engine: the gauge, the phase split and the enumeration of
reduced integrals (``engine.reduced_integrals``), which also holds every
structural check, so the oracle reduces exactly the sum the engine reduces
and rejects what the engine rejects.

Independent of the engine, and so what the cross-check tests: the value of
each integral and the limits.  Oscillatory half-line integrals are computed
by damped quadrature with Richardson extrapolation in the damping parameter,
Gaussian-phase integrals are linearized by the t = u^2 substitution before
quadrature, the complex Gamma function is a local Lanczos approximation, and
small-z / finite-T limits are polynomial extrapolations over sample grids.
No table row, Laurent series or term sum is built here.  Within one
cross-check (``small_z_ratio``) each distinct integral is computed once, and
its value is reused on both sides of the quotient and at every z sample.
``potential_numeric`` finds a potential's minima and masses from V alone, by
``np.roots`` and second differences, without the engine's closed forms.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import integrate

from .engine import _build_phase, apply_gauge, reduced_integrals
from .errors import DivergenceDetected, NonConvergent, UnsupportedStructure
from .symbols import AxisPoly, compose_observable

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z: complex) -> complex:
    """Complex Gamma via the Lanczos series with reflection for Re(z) < 1/2."""
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


DEFAULT_EPS = (0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125)


def _damped_half_line(profile: Callable[[float], float], omega: float, eps: float) -> complex:
    """int_0^inf profile(r) e^(i omega r) e^(-eps r) dr via weighted quadrature."""
    damped = lambda r: profile(r) * math.exp(-eps * r)
    with warnings.catch_warnings():
        # accuracy is certified by the Richardson self-check, not QUADPACK's flags
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if omega == 0.0:
            val, _ = integrate.quad(damped, 0.0, np.inf, limit=400)
            return complex(val)
        re, _ = integrate.quad(damped, 0.0, np.inf, weight="cos", wvar=abs(omega), limit=400)
        im, _ = integrate.quad(damped, 0.0, np.inf, weight="sin", wvar=abs(omega), limit=400)
    if omega < 0:
        im = -im
    return re + 1j * im


def richardson(eps_values: Sequence[float], values: Sequence[complex]) -> complex:
    """Polynomial extrapolation to eps = 0 through the sampled values."""
    n = len(eps_values)
    mat = np.array([[e**k for k in range(n)] for e in eps_values], dtype=complex)
    coeffs = np.linalg.solve(mat, np.array(values, dtype=complex))
    return complex(coeffs[0])


def damped_quadrature(
    profile: Callable[[float], float],
    omega: float,
    eps_seq: Sequence[float] = DEFAULT_EPS,
    tol: float = 1e-6,
) -> complex:
    """Abel-regularized int_0^inf profile(r) e^(i omega r) dr.

    The damping e^(-eps r) is removed by polynomial extrapolation over the
    eps sequence; disagreement between the last two extrapolants above
    ``tol`` (relative) raises ``NonConvergent``.
    """
    values = [_damped_half_line(profile, omega, e) for e in eps_seq]
    full = richardson(eps_seq, values)
    drop = richardson(eps_seq[:-1], values[:-1])
    if abs(full - drop) > tol * max(1.0, abs(full)):
        raise NonConvergent(
            f"extrapolants differ by {abs(full - drop):.3g} (value {abs(full):.3g})"
        )
    return full


def _power_osc(p: float, omega: float) -> complex:
    """Numeric int_0^inf r^p e^(i omega r) dr, Re p > -1: every reduced integral."""
    return damped_quadrature(lambda r: r**p if r > 0 else 0.0, omega)


def half_line_power_osc(q: float, t_value: float, sign: int, rate: float = 1.0) -> complex:
    """Numeric int_0^inf r^q e^(sign i rate T r) dr, Re q > -1."""
    return _power_osc(q, sign * rate * t_value)


def gauss_power_osc(q: float, a_value: float) -> complex:
    """Numeric int_R |u|^q e^(-i a u^2) du via the t = u^2 substitution.

    Equals int_0^inf t^((q-1)/2) e^(-i a t) dt, which the damped linear-phase
    quadrature handles.
    """
    return _power_osc((q - 1.0) / 2.0, -a_value)


def small_z_limit(samples: Mapping[float, complex], tol: float = 5e-3) -> complex:
    """Extrapolate sampled values f(z) to z = 0 by polynomial fit."""
    if len(samples) < 2:
        raise NonConvergent("need at least two z samples to extrapolate")
    zs = sorted(samples)
    vals = [samples[z] for z in zs]
    full = richardson(zs, vals)
    drop = richardson(zs[:-1], vals[:-1])
    if abs(full - drop) > max(tol, tol * abs(full)):
        raise NonConvergent(f"z-extrapolants differ by {abs(full - drop):.3g}")
    return full


@dataclass
class SweepFit:
    limit: complex
    residual: float


def finite_t_sweep(fn: Callable[[float], complex], t_grid: Sequence[float]) -> SweepFit:
    """Fit c + a/T + b/T^2 over the grid; growing values raise DivergenceDetected."""
    ts = np.array(sorted(t_grid), dtype=float)
    ys = np.array([fn(t) for t in ts], dtype=complex)
    mags = np.abs(ys)
    if mags[-1] > 2.0 * mags[0] + 1e-9 and mags[-1] > 1e-6:
        raise DivergenceDetected(
            f"|value| grew from {mags[0]:.3g} to {mags[-1]:.3g} along the sweep"
        )
    cols = [np.ones_like(ts), 1.0 / ts]
    if len(ts) >= 3:
        cols.append(1.0 / ts**2)
    mat = np.stack(cols, axis=1).astype(complex)
    coeffs, *_ = np.linalg.lstsq(mat, ys, rcond=None)
    fitted = mat @ coeffs
    residual = float(np.max(np.abs(fitted - ys)))
    return SweepFit(complex(coeffs[0]), residual)


def decay_exponent(fn: Callable[[float], complex], t_grid: Sequence[float]) -> float:
    """Slope of log|fn| against log T (a pure power a*T^p fits exactly)."""
    ts = np.array(sorted(t_grid), dtype=float)
    ys = np.array([abs(fn(t)) for t in ts], dtype=float)
    if np.any(ys <= 0):
        raise NonConvergent("cannot fit a decay exponent through zero values")
    slope, _ = np.polyfit(np.log(ts), np.log(ys), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Model-level quotient at numeric (z, T)
# ---------------------------------------------------------------------------


def small_z_ratio(model, observable_name: str, z_samples: Sequence[float],
                  t_value: float, bindings: Mapping[str, float]) -> complex:
    """Extrapolated z -> 0 quotient of the model's trace integrals at fixed T.

    The per-z quotients share one store of integral values, so an integral
    that recurs on both sides or at several z is computed once per call.
    """
    store: dict[tuple[float, float], complex] = {}
    samples = {
        z: model_quotient(model, observable_name, z, t_value, bindings, store=store)
        for z in z_samples
    }
    return small_z_limit(samples)


def model_quotient(model, observable_name: str, z: float, t_value: float,
                   bindings: Mapping[str, float], *,
                   store: dict[tuple[float, float], complex] | None = None) -> complex:
    """num(z, T)/den(z, T) with every reduced integral done by quadrature.

    The integrals come from the engine's enumeration
    (``engine.reduced_integrals``), so both sides reduce the same sum and
    reject the same structures; each integral is then computed by damped
    quadrature instead of read off a table row, so the Laurent and limit
    machinery is cross-checked end to end.  One ``z`` is used for every
    regulator: the quotient is sampled on the diagonal z1 = z2 = ... = z,
    while the engine eliminates the regulators one at a time.

    Each distinct integral is computed once: ``store`` maps the (exponent,
    omega) floats that ``damped_quadrature`` receives to its value.
    ``small_z_ratio`` passes one store to all its z samples; by default the
    store is fresh.
    """
    if store is None:
        store = {}
    plan = apply_gauge(model)
    phase, evo = _build_phase(model)
    obs = model.observables[observable_name]
    rotation = cmath.exp(1j * phase.const.eval(bindings) * t_value)

    def trace_value(pieces) -> complex:
        total = 0j
        for poly, t_power, symbols in reduced_integrals(pieces, model, phase, plan):
            value = poly.eval(bindings) * t_value ** float(t_power) * rotation
            for alternatives in symbols:
                value *= sum(
                    mult.eval(bindings) * _quadrature(integral, z, t_value, bindings, store)
                    for mult, integral in alternatives
                )
            total += value
        return total

    num = trace_value(compose_observable(evo, obs))
    den = trace_value(compose_observable(evo, AxisPoly.number(1)))
    return num / den


def _quadrature(integral, z: float, t_value: float, bindings: Mapping[str, float],
                store: dict[tuple[float, float], complex]) -> complex:
    """Numeric value of one ``engine.ReducedIntegral`` at regulator value z.

    The key is (p, omega) of ``_power_osc``, computed as ``gauss_power_osc``
    and ``half_line_power_osc`` compute them, so a stored value is the value
    a fresh quadrature would return.
    """
    q = float(integral.q.a) * z + float(integral.q.b)
    rate = integral.rate.eval(bindings).real
    if integral.kind == "gauss":
        key = ((q - 1.0) / 2.0, -(rate * t_value))
    else:
        key = (q, integral.sign * rate * t_value)
    if key not in store:
        store[key] = _power_osc(*key)
    return store[key]


# ---------------------------------------------------------------------------
# Effective potential at numeric bindings
# ---------------------------------------------------------------------------


def potential_numeric(model, bindings: Mapping[str, float]) -> tuple[list[float], list[float]]:
    """Minima and masses of a potential model at numeric bindings.

    V is the engine's volume-limit potential (``engine._build_phase``); the
    symbolic extrema are not used.  Each real root of dV where the second
    difference of V is positive is a minimum with mass sqrt(V'').  The step
    is 1e-4 times the largest |root| (1e-4 if every root is 0): a fixed step
    of 1e-4 differences V below its rounding error once the roots reach 1e10.
    """
    if model.kind != "potential" or model.field_param is None:
        raise UnsupportedStructure("not a potential model")
    phi = model.field_param
    pot = -_build_phase(model)[0].const
    dv = pot.diff(phi).by_power(phi)
    coeffs = {int(e): part.eval(bindings).real for e, part in dv.items()}  # dV by power of phi
    roots = _real_roots([coeffs.get(p, 0.0) for p in range(max(coeffs, default=0), -1, -1)])
    h = 1e-4 * (max((abs(r) for r in roots), default=0.0) or 1.0)
    minima, masses = [], []
    for r in roots:
        above, at, below = (pot.eval({**bindings, phi: x}).real for x in (r + h, r, r - h))
        curv = (above - 2 * at + below) / h**2
        if curv > 0:
            minima.append(r)
            masses.append(math.sqrt(curv))
    return minima, masses


def _real_roots(coeffs: Sequence[float]) -> list[float]:
    """Real roots, ascending, of a polynomial given highest power first.

    A root counts as real when |imag| <= 1e-6 * max(1, |root|): ``np.roots``
    returns a double root as a complex pair about sqrt(machine epsilon) *
    |root| apart.
    """
    return sorted(
        float(r.real) for r in np.roots(coeffs) if abs(r.imag) <= 1e-6 * max(1.0, abs(r))
    )
