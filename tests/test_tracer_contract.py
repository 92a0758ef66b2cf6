"""The names the benchmark's tracer patches exist in ``src/``.

``perfbench/tracer.py`` wraps zetatrace functions at the names their callers
look them up under (``engine.ratio_limit``, ``terms._expand_sum_in``,
``oracle.damped_quadrature``, ...) and reads ``params._LOG_BASES``.  A rename
in ``src/`` breaks the benchmark's traced runs, which only the slow
``perfbench/test_bench.py`` exercises.  This installs and removes the tracer in
process; nothing under ``perfbench/`` is changed.
"""

import importlib.util
from pathlib import Path

import zetatrace.cli  # noqa: F401  (the tracer patches only modules already imported)
import zetatrace.modelfile  # noqa: F401
import zetatrace.oracle  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch_target():
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        patched = list(tracer._restore)
        assert tracer.log_bases() >= 0
    finally:
        tracer.uninstall()
    # the optional modules were found, so their targets were patched too
    names = {attr for _, attr, _ in patched}
    assert {"parse_model_text", "kv_trace_at_zero", "model_quotient", "damped_quadrature"} <= names
    for owner, attr, original in patched:
        now = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert now is original, attr
