#!/usr/bin/env python3
"""Numeric witness for the thermal limit.

For each ratio-valued model: evaluate the engine's finite-T expression over a
grid, fit constant + decay, and compare the fitted constant against the
closed-form expectation.  Also cross-checks one point per model against the
quadrature oracle's small-z extrapolation.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zetatrace import oracle
from zetatrace.engine import expectation
from zetatrace.models import (
    dirac_fermion,
    harmonic_oscillator_1d,
    schwinger_boson_mass,
    schwinger_free,
    topological_oscillator,
)
from zetatrace.tables import PRINCIPAL

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
        fit = oracle.finite_t_sweep(lambda t: res.finite_t.eval(bindings, t), T_GRID)
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
