"""How fast this machine runs zetatrace-like work right now.

The engine's work is small dicts keyed by tuples of ``Fraction`` exponents
with complex coefficients.  On a shared host that kind of work slows by up to
1.8x for tens of seconds at a time while plain integer loops do not, so op
times are rescaled by a reference loop of the same kind, timed right before
and right after every op.  A cold CLI process is mostly interpreter start-up
and imports, which slow from one second to the next, so ``cold_cli`` ops are
rescaled by a fresh interpreter that imports mpmath instead.  Neither
reference imports anything from zetatrace: no change to the program can
change them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns

REF_MS = 2.0  # nominal time of one reference loop; rescaled times are "ms at REF_MS"
CHILD_REF_MS = 120.0  # nominal time of one reference child process

_NAMES = ("a", "b", "c", "d")
_LEFT = {
    tuple((n, Fraction(i + j, 1 + (i * j) % 3)) for j, n in enumerate(_NAMES[: 1 + i % 4])): complex(i, 1)
    for i in range(12)
}
_RIGHT = {
    tuple((n, Fraction(i - j, 2 + i % 2)) for j, n in enumerate(_NAMES[i % 3:])): complex(1, -i)
    for i in range(12)
}


def reference_loop() -> int:
    """Multiply two monomial sums the way ParamPoly multiplies."""
    out: dict = {}
    for k1, c1 in _LEFT.items():
        for k2, c2 in _RIGHT.items():
            exps = dict(k1)
            for name, e in k2:
                total = exps.get(name, Fraction(0)) + e
                if total:
                    exps[name] = total
                else:
                    exps.pop(name, None)
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0j) + c1 * c2
    return len(out)


def reference_ms() -> float:
    """Time one reference loop, in ms."""
    start = perf_counter_ns()
    reference_loop()
    return (perf_counter_ns() - start) / 1e6


def child_reference_ms() -> float:
    """Time one fresh interpreter that imports mpmath, in ms."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import mpmath"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (perf_counter_ns() - start) / 1e6


def scale(samples: list[float], nominal: float = REF_MS) -> float:
    """Factor from measured ms to ms at ``nominal``, given reference timings around the work."""
    return nominal / statistics.median(samples)
