"""Power-law fits of finite-T values, for tests.

The engine states each finite-T term's power of T exactly; a test checks it
by fitting sampled values.  Nothing in ``zetatrace`` calls this.
"""

import numpy as np

from zetatrace.errors import NonConvergent


def decay_exponent(fn, t_grid) -> float:
    """Slope of log|fn| against log T (a pure power a*T^p fits exactly)."""
    ts = np.array(sorted(t_grid), dtype=float)
    ys = np.array([abs(fn(t)) for t in ts], dtype=float)
    if np.any(ys <= 0):
        raise NonConvergent("cannot fit a decay exponent through zero values")
    slope, _ = np.polyfit(np.log(ts), np.log(ys), 1)
    return float(slope)
