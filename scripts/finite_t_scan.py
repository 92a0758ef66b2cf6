#!/usr/bin/env python3
"""Numeric witness for the thermal limit.

For each ratio-valued model: evaluate the engine's finite-T expression over a
grid, fit constant + decay, and compare the fitted constant against the
closed-form expectation.  Also cross-checks one point per model against the
quadrature oracle's small-z extrapolation.  The fitter (``finite_t_sweep``)
lives here, its only caller; the pipeline never fits in T.
"""

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zetatrace import oracle
from zetatrace.engine import expectation
from zetatrace.errors import ZetatraceError
from zetatrace.models import (
    dirac_fermion,
    harmonic_oscillator_1d,
    schwinger_boson_mass,
    schwinger_free,
    topological_oscillator,
)
from zetatrace.tables import PRINCIPAL


class DivergenceDetected(ZetatraceError):
    """Finite-T sweep grew instead of settling."""


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


T_GRID = [10.0, 20.0, 40.0, 80.0]

CASES = [
    (harmonic_oscillator_1d(), "H"),
    (topological_oscillator(), "chi_top"),
    (schwinger_free(), "H_m"),
    (dirac_fermion(3), "H_m"),
    (schwinger_boson_mass(), "m_g^2"),
]


def main():
    for model, obs in CASES:
        bindings = {p.name: 1.0 for p in model.params}
        res = expectation(model, obs, PRINCIPAL)
        fit = finite_t_sweep(lambda t: res.finite_t.eval(bindings, t), T_GRID)
        closed = res.value.eval(bindings)
        quad = oracle.small_z_ratio(model, obs, (-0.2, -0.1, -0.05), 10.0, bindings)
        engine_10 = res.finite_t.eval(bindings, 10.0)
        print(f"{model.name:26} <{obs}>")
        print(f"   closed form      : {closed.real:+.9f}")
        print(f"   sweep limit      : {fit.limit.real:+.9f}  (residual {fit.residual:.2e})")
        print(f"   finite-T @ T=10  : {engine_10:+.9f}")
        print(f"   quadrature @ T=10: {quad:+.9f}")
        print()


if __name__ == "__main__":
    main()
