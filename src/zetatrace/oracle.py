"""Independent numeric verification.

Shared with the engine: its reduction front end (``engine.reduced_sides``),
that is the gauge, the phase split, the table of distinct integrals and the
enumeration that indexes it, which also holds every structural check, so
the oracle reduces exactly the sum the engine reduces, over the integrals
the engine builds rows for, and rejects what the engine rejects.

Independent of the engine, and so what the cross-check tests: the value of
each integral and the limits.  Oscillatory half-line integrals are computed
by contour rotation (a numerical Wick rotation): one fixed exp-sinh sum
(double-exponential quadrature, numpy only) integrates along each of two
rays into the half plane where the integrand decays, and Cauchy's theorem
makes the two agree.  No Gamma function is evaluated, and the ray phases
e^(i theta (p+1)) at theta = pi/3, pi/4 are not the tables' half-turns.
Every integral, half-line or Gaussian-phase, is one (p, omega) of
``damped_quadrature``.  The small-z limit is a polynomial extrapolation
over the z samples, at one fixed T.  No table row, Laurent series or term
sum is built here.  One cross-check (``small_z_ratio``) builds what does
not depend on z once: the gauge, the phase, both sides' enumeration, every
coefficient and multiplier and the floats of each entry of the table.  All
its (p, omega) keys, over both sides and every z sample, are then one
``damped_quadrature`` batch, one row per ±omega pair.
``potential_numeric`` finds a potential's minima and masses from V alone, by
``np.roots`` and second differences, without the engine's closed forms.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, Sequence

import numpy as np

from . import rational
from .engine import reduced_sides
from .errors import NonConvergent, UnsupportedStructure
from .params import ParamPoly

# Two rays of the rotated contour; Cauchy's theorem makes their integrals equal.
RAY_ANGLES = (math.pi / 3, math.pi / 4)
RAY_REL = 1e-10
# An end node of the exp-sinh sum above this share of the sum means the rule
# truncates too much of the integrand there.
END_REL = 1e-17


def _exp_sinh_nodes():
    """log u, u and log w of the exp-sinh rule u = exp(pi/2 sinh t), t = k/48 on [-8, 2.6].

    Read-only arrays: int_0^inf f(u) du ~ sum_k u_k w_k f(u_k), where
    w = h pi/2 cosh t and u w = h du/dt.  h = 1/32 (341 nodes) is off by up
    to 5e-11 for p in (-0.9, 3.5).
    """
    h = 1.0 / 48.0
    t = np.arange(-384, 126) * h
    log_u = np.pi / 2 * np.sinh(t)
    nodes = (log_u, np.exp(log_u), np.log(h * np.pi / 2 * np.cosh(t)))
    for a in nodes:
        a.flags.writeable = False
    return nodes


_LOG_U, _U, _LOG_W = _exp_sinh_nodes()


def _ray_integral(p: np.ndarray, w: np.ndarray, theta: float) -> np.ndarray:
    """int_0^inf r^p e^(i w r) dr, w > 0, p > -1, along the ray r = s e^(i theta), per row of p and w.

    With u = w s the ray integral is e^(i theta (p+1)) w^(-(p+1)) times
    int_0^inf u^p e^(-c u) du, c = sin theta - i cos theta: an algebraic
    singularity at 0 and exponential decay, which the exp-sinh rule
    (Takahasi & Mori 1974) sums over a fixed node set.  Each node's term is
    exp((p+1) log u + log w - c u), so u^p cannot overflow near p = -1; the
    rows are one (rows, nodes) array, each row summed as in a batch of one.
    Each row, in row order, checks itself: a sum that is not finite (p in
    the hundreds), an end-node term above ``END_REL`` of the sum (p near -1,
    where the left tail is cut off) or a value outside the normal float
    range raises ``NonConvergent``.
    """
    c = complex(math.sin(theta), -math.cos(theta))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        terms = np.exp((p[:, None] + 1) * _LOG_U + _LOG_W - c * _U)
        totals = terms.sum(axis=1)
    values = []
    for p_i, w_i, total, ends in zip(p.tolist(), w.tolist(), totals.tolist(), terms[:, [0, -1]].tolist()):
        if not cmath.isfinite(total):
            raise NonConvergent(f"exp-sinh sum at p = {p_i:g} is not finite")
        end = max(map(abs, ends))
        if end > END_REL * abs(total):
            raise NonConvergent(
                f"exp-sinh sum at p = {p_i:g} is truncated (end node {end:.3g}, sum {abs(total):.3g})"
            )
        log_scale = -(p_i + 1) * math.log(w_i)
        if not abs(log_scale + math.log(abs(total))) < 700.0:  # e^709 overflows
            raise NonConvergent(f"|int_0^inf r^{p_i:g} e^(i {w_i:g} r) dr| is outside the float range")
        values.append(cmath.exp(complex(log_scale, theta * (p_i + 1))) * total)
    return np.array(values, dtype=complex)


def richardson(points: Sequence[float], values: Sequence[complex]) -> complex:
    """Polynomial extrapolation to 0 through the values sampled at the points."""
    n = len(points)
    mat = np.array([[x**k for k in range(n)] for x in points], dtype=complex)
    coeffs = np.linalg.solve(mat, np.array(values, dtype=complex))
    return complex(coeffs[0])


def damped_quadrature(p: float | Sequence[float], omega: float | Sequence[float]) -> complex | list[complex]:
    """Abel-regularized int_0^inf r^p e^(i omega r) dr, p > -1: every reduced integral.

    ``p`` and ``omega`` are floats, or equal-length sequences of rows that
    give a list of values; a float call is a batch of one, and a row's
    value has the same bits in any batch.  The Abel limit equals the
    integral along any ray r = s e^(i sgn(omega) theta), 0 < theta <= pi/2
    (a numerical Wick rotation), where the integrand decays like
    e^(-|omega| s sin theta).  It is computed on the two rays of
    ``RAY_ANGLES`` (``_ray_integral``) and the first is returned.  Both run
    at |omega|, so the value at -omega is the exact conjugate of the value
    at omega.  Checks, each step row by row: omega = 0 (no Abel limit) and
    p <= -1 (divergent at r = 0), the first ray's, the second ray's, rays
    that differ by more than ``RAY_REL`` (relative).  A batch with one
    failing row raises its message from a batch of one.

    Validated against Gamma(p+1) e^(sgn(omega) i pi (p+1)/2) / |omega|^(p+1)
    for 1e-3 <= |omega| <= 1e3: over -0.98 < p <= 9 every value is returned
    and within rel 2e-14; below about p = -0.983 the truncation check
    raises, and above about p = 9.7 the ray check does.
    """
    ps, omegas = np.atleast_1d(np.asarray(p, dtype=float)), np.atleast_1d(np.asarray(omega, dtype=float))
    for p_i, omega_i in zip(ps.tolist(), omegas.tolist()):
        if omega_i == 0.0:
            raise NonConvergent(f"int_0^inf r^{p_i:g} dr has no Abel limit at omega = 0")
        if not p_i > -1.0:
            raise NonConvergent(f"int_0^inf r^{p_i:g} e^(i omega r) dr diverges at r = 0")
    first, second = (_ray_integral(ps, np.abs(omegas), theta).tolist() for theta in RAY_ANGLES)
    values = []
    for a, b, omega_i in zip(first, second, omegas.tolist()):
        if abs(a - b) > RAY_REL * abs(a):
            raise NonConvergent(f"rays differ by {abs(a - b):.3g} (value {abs(a):.3g})")
        values.append(a.conjugate() if omega_i < 0 else a)
    return values if np.ndim(p) else values[0]


#: the largest difference, absolute or relative, between the z -> 0
#: extrapolants through all samples and through all but the last
Z_LIMIT_TOL = 5e-3


def small_z_limit(samples: Mapping[float, complex]) -> complex:
    """Extrapolate sampled values f(z) to z = 0 by polynomial fit."""
    if len(samples) < 2:
        raise NonConvergent("need at least two z samples to extrapolate")
    zs = sorted(samples)
    vals = [samples[z] for z in zs]
    full = richardson(zs, vals)
    drop = richardson(zs[:-1], vals[:-1])
    if abs(full - drop) > max(Z_LIMIT_TOL, Z_LIMIT_TOL * abs(full)):
        raise NonConvergent(f"z-extrapolants differ by {abs(full - drop):.3g}")
    return full


# ---------------------------------------------------------------------------
# Model-level quotient at numeric (z, T)
# ---------------------------------------------------------------------------


#: a distinct integral's floats: whether it is Gaussian, q = a z + b, and omega
Point = tuple[bool, float, float, float]
#: one item of a side: its weight and, per symbol, (multiplier value, point index) pairs
Item = tuple[complex, list[list[tuple[complex, int]]]]


def small_z_ratio(model, observable_name: str, z_samples: Sequence[float],
                  t_value: float, bindings: Mapping[str, float]) -> complex:
    """Extrapolated z -> 0 quotient of the model's trace integrals at fixed T.

    What does not depend on z is built once (``_build_quotient``), so a
    structural error raises before any quadrature runs; one batch computes
    every integral at every z (``_quadratures``), summed per z.
    """
    sides, points = _build_quotient(model, observable_name, t_value, bindings)
    values = _quadratures(points, z_samples)
    return small_z_limit({z: _evaluate_quotient(sides, values[z], z) for z in z_samples})


def model_quotient(model, observable_name: str, z: float, t_value: float,
                   bindings: Mapping[str, float]) -> complex:
    """num(z, T)/den(z, T) with every reduced integral done by quadrature.

    The integrals come from the engine's enumeration
    (``engine.reduced_sides``), so both sides reduce the same sum and
    reject the same structures; each integral is then computed by ray
    quadrature (``damped_quadrature``) instead of read off a table row, so
    the Laurent and limit machinery is cross-checked end to end.  One ``z``
    is used for every regulator: the quotient is sampled on the diagonal
    z1 = z2 = ... = z, while the engine eliminates the regulators one at a
    time.  This is ``small_z_ratio`` at a single z, without the limit.
    """
    sides, points = _build_quotient(model, observable_name, t_value, bindings)
    return _evaluate_quotient(sides, _quadratures(points, (z,))[z], z)


def _build_quotient(model, observable_name: str, t_value: float, bindings: Mapping[str, float]
                    ) -> tuple[tuple[list[Item], list[Item]], list[Point]]:
    """Both sides' items and the points they index, none of which depends on z.

    The points are the engine's table of distinct integrals
    (``engine.reduced_sides``), in index order.  Each item becomes its
    weight (the coefficient times T^(T power) times the evolution phase
    e^(i c T)) and its symbols' alternatives: multiplier values and
    integral indices.  Every structural check has run in ``reduced_sides``
    before the first point.  omega is sign rate T for r^q e^(sign i rate T r)
    and -rate T for a Gaussian.
    """
    phase, integrals, sides = reduced_sides(model, (model.observables[observable_name], ParamPoly.one()))
    rotation = cmath.exp(1j * phase.const.eval(bindings) * t_value)
    built = tuple(
        [(poly.eval(bindings) * t_value ** float(t_power) * rotation,
          [[(mult.eval(bindings), i) for mult, i in alternatives] for alternatives in symbols])
         for poly, t_power, symbols in items]
        for items in sides
    )
    points = [
        (i.kind == "gauss", rational.to_float(i.q.a), rational.to_float(i.q.b),
         (-1 if i.kind == "gauss" else i.sign) * (i.rate.eval(bindings).real * t_value))
        for i in integrals
    ]
    return built, points


def _quadratures(points: list[Point], z_samples: Sequence[float]) -> dict[float, list[complex]]:
    """Each point's value at each z, from one ``damped_quadrature`` batch.

    The rows are the distinct (p, |omega|) of every point at every z, in
    that order: p = q, or (q-1)/2 for a Gaussian by t = u^2.  A negative
    omega reads its row's conjugate, the bits a batch of one at it returns.
    """
    keys = {z: [((a * z + b - 1.0) / 2.0 if gauss else a * z + b, omega) for gauss, a, b, omega in points]
            for z in z_samples}
    rows = list(dict.fromkeys((p, abs(omega)) for at_z in keys.values() for p, omega in at_z))
    value = dict(zip(rows, damped_quadrature([p for p, _ in rows], [w for _, w in rows])))
    return {z: [value[p, abs(w)].conjugate() if w < 0 else value[p, abs(w)] for p, w in at_z]
            for z, at_z in keys.items()}


def _evaluate_quotient(sides: tuple[list[Item], list[Item]], values: list[complex], z: float) -> complex:
    """num(z, T)/den(z, T) from built sides and their points' values at z;
    ``NonConvergent`` where the denominator is exactly 0."""

    def trace_value(items: list[Item]) -> complex:
        total = 0j
        for value, symbols in items:
            for alternatives in symbols:
                value *= sum(mult * values[i] for mult, i in alternatives)
            total += value
        return total

    den = trace_value(sides[1])
    if den == 0:
        raise NonConvergent(f"the denominator is exactly 0 at the z sample {z!r}")
    return trace_value(sides[0]) / den


# ---------------------------------------------------------------------------
# Effective potential at numeric bindings
# ---------------------------------------------------------------------------


def potential_numeric(model, bindings: Mapping[str, float]) -> tuple[list[float], list[float]]:
    """Minima and masses of a potential model at numeric bindings.

    V is the engine's volume-limit potential, read off the reduced phase
    (``engine.reduced_sides``); the symbolic extrema are not used.  Each
    real root of dV where the second difference of V is positive is a
    minimum with mass sqrt(V'').  The step is 1e-4 times the largest |root|
    (1e-4 if every root is 0): a fixed step of 1e-4 differences V below its
    rounding error once the roots reach 1e10.
    """
    if model.field_param is None:
        raise UnsupportedStructure("not a potential model")
    phi = model.field_param
    pot = -reduced_sides(model, ())[0].const
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
