"""Deterministic cost of one derivation: how many calls of ``zetatrace`` functions it makes.

    from cost import src_calls
    src_calls("harmonic_oscillator_nd", n=16)

``src_calls`` runs ``run_model`` once to fill the caches that
``tests/test_src_state.py`` lists, then once more under ``cProfile``, and sums
the calls of every function whose code lives in the ``zetatrace`` package.
cProfile counts every call, so the number is the same on every run, host and
hash seed.  Standard-library and builtin calls are left out, so the number
does not move with the Python patch release either.  It counts Python-level
calls, not the work inside a builtin, so it gates growth and leaves the
constant factor to the timed benchmark.  CPython 3.12 inlines list, dict and
set comprehensions, which then stop counting as calls: counts measured on
3.11 are ceilings there.
"""

import cProfile
import os
import pstats

import zetatrace
from zetatrace.laurent import DEFAULT_ORDER
from zetatrace.models import run_model
from zetatrace.tables import PAPER

SRC = os.path.dirname(zetatrace.__file__)


def src_calls(name: str, series_order: int = DEFAULT_ORDER, **overrides) -> int:
    """Calls of ``zetatrace`` functions in one warm ``run_model(name, PAPER, series_order, **overrides)``."""
    run_model(name, PAPER, series_order, **overrides)
    profile = cProfile.Profile()
    profile.runcall(run_model, name, PAPER, series_order, **overrides)
    return sum(
        calls for (path, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if os.path.dirname(path) == SRC
    )
