"""The names the benchmark's tracer patches exist in ``src/``.

``perfbench/tracer.py`` wraps zetatrace functions at the names their callers
look them up under (``engine.ratio_limit``, ``terms._expand_sum_in``,
``oracle.damped_quadrature``, ...) and reads ``params._LOG_BASES``.  A rename
in ``src/`` breaks the benchmark's traced runs, which only the slow
``perfbench/test_bench.py`` exercises.  This installs and removes the tracer in
process; nothing under ``perfbench/`` is changed.
"""

import importlib.util
from fractions import Fraction
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


def test_every_span_records_a_call_on_one_op_of_each_kind():
    """A span that no op reaches reads 0 in every traced run and shows nothing."""
    from zetatrace import engine, modelfile, models, oracle
    from zetatrace.params import ParamPoly

    module = _tracer_module()
    tracer = module.Tracer()
    tracer.install()
    try:
        for name in ("harmonic_oscillator_1d", "schwinger_free"):  # a scalar and a matrix evolution
            for result in models.run_model(name).results.values():
                assert result.trace
        assert models.run_model("phi4").passed
        text = "[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\nxi^2/(2*J)\n[observable]\nxi^2/(2*J)\n"
        spec = modelfile.to_model_spec(modelfile.parse_model_text(text, "rotor"))
        entry = models.RegistryEntry(lambda: spec, "rotor", "")
        assert models.run_model("rotor", registry={"rotor": entry}).results
        kv = engine.KVAmplitudeSpec(1, ((Fraction(-3), 0, ParamPoly.one()),))
        assert not engine.kv_trace_at_zero(kv).is_zero()
        oracle.small_z_ratio(models.topological_oscillator(), "chi_top", (-0.2, -0.1, -0.05), 10.0,
                             {"J": 1.0})
    finally:
        tracer.uninstall()
    recorded = {span[1] for span in tracer.spans}
    # nothing calls oracle.model_quotient since small_z_ratio builds its sides once
    expected = {span for span, _ in module.SPAN_METRICS.values()} - {"oracle.model_quotient"}
    assert expected - recorded == set()
