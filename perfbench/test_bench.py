"""The benchmark's own tests: seeded inputs, repeatable counts, a gate that bites.

    python3 -m pytest -q perfbench/test_bench.py

Run from the root of a zetatrace checkout (about two minutes).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = ["suite", "ladder", "cold_cli", "oracle"]


def inputs_of(name: str, seed: int) -> list[tuple[str, str]]:
    wl = workloads.WORKLOADS[name](seed)
    try:
        return [(op.label, op.inputs) for ops in wl.passes for op in ops]
    finally:
        wl.close()


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first, again, other = inputs_of(name, 3), inputs_of(name, 3), inputs_of(name, 4)
    assert first == again
    assert [label for label, _ in first] != [label for label, _ in other]  # order
    shared = {i for _, i in first} & {i for _, i in other}  # coefficients, bindings, T differ
    assert shared <= {"check", "check --branch principal"}


@pytest.mark.parametrize("name", NAMES)
def test_other_seeds_pass_every_gate(name):
    for seed in (101, 102):
        wl = workloads.WORKLOADS[name](seed)
        try:
            ops = wl.warmup + [op for ops in wl.passes for op in ops]
            outcomes = [workloads.execute(op) for op in ops]
        finally:
            wl.close()
        failed = [(o.label, o.reason) for o in outcomes if o.status == "fail"]
        assert not failed
        known = {o.cls for o in outcomes if o.status == "known_defect"}
        assert known <= {"shifted"}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_repeats_count_metrics(name):
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"]
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "ratio") and k != "trace.overhead_ratio"})
    assert counts[0] == counts[1]


def _fail_ratio(wl) -> float:
    outcomes = [workloads.execute(op) for op in wl.passes[0]]
    return sum(o.status == "fail" for o in outcomes) / len(outcomes)


def test_wrong_closed_form_is_a_failure(monkeypatch):
    right = ref.registry_closed_form

    def wrong(model, overrides):
        forms = right(model, overrides)
        if model == "harmonic_oscillator_1d":
            forms = {"H": ref.mono(Fraction(1, 3), hbar=1, omega=1)}
        return forms

    monkeypatch.setattr(ref, "registry_closed_form", wrong)
    assert _fail_ratio(workloads.Suite(6)) == pytest.approx(2 / 25)  # both branches


def test_wrong_finite_t_reference_is_a_failure(monkeypatch):
    recorded = ref.load_recorded()
    key = ref.reference_key("dirac_fermion", {"n": 3}, "paper")
    coeff, p, l, phase = recorded[key].terms[-1]
    recorded[key].terms[-1] = ({k: c * (1 + 1e-8) for k, c in coeff.items()}, p, l, phase)
    monkeypatch.setattr(ref, "load_recorded", lambda: recorded)
    assert _fail_ratio(workloads.Ladder(6)) == pytest.approx(3 / 15)  # series order 4, 8, 16


def test_wrong_cli_reference_is_a_failure(monkeypatch):
    monkeypatch.setattr(ref, "kv_closed_form", lambda *a: ({(): 1.0 + 0j}, {}))
    wl = workloads.ColdCli(6)
    try:
        assert _fail_ratio(wl) == pytest.approx(1 / 5)
    finally:
        wl.close()


def test_oracle_self_check_rejection_is_a_known_defect():
    wl = workloads.Oracle(303)
    op = next(op for ops in wl.passes for op in ops if op.label == "oracle.dirac@T=18.055")
    outcome = workloads.execute(op)
    assert outcome.status == "known_defect", outcome.reason
    assert ref.ORACLE_NONCONVERGENT in outcome.reason


def test_cancelling_kv_terms_compare_at_the_scale_of_the_terms():
    from zetatrace.engine import KVAmplitudeSpec, kv_trace_at_zero
    from zetatrace.params import ParamPoly

    # -2.53125*pi + 2.53125*pi: both sides keep a float residue near 1e-16
    terms = [(Fraction(-2, 3), 2, 2.0), (Fraction(-2, 3), 1, 3.0)]
    closed, scale = ref.kv_closed_form(2, 0.75, terms)
    spec = KVAmplitudeSpec(2, tuple((d, l, ParamPoly.number(a)) for d, l, a in terms), ParamPoly.number(0.75))
    got = ref.poly_form(kv_trace_at_zero(spec))
    assert ref.compare_forms(got, closed, scale=scale) is None
    assert ref.compare_forms({k: c + 1e-9 for k, c in got.items()}, closed, scale=scale) is not None


def test_parse_rendered_inverts_the_engine_renderer():
    from zetatrace.params import ParamPoly

    polys = [
        ParamPoly.monomial(0.5, {"hbar": Fraction(1), "omega": Fraction(1)}),
        ParamPoly.monomial(math.sqrt(6), {"mu": Fraction(1), "lambda": Fraction(-1, 2)}),
        ParamPoly.monomial(-1, {"J": Fraction(-1)}) + ParamPoly.monomial(0.75j, {"m": Fraction(2)}),
        ParamPoly.monomial(0.5 - 0.5j, {"pi": Fraction(-1, 2)}),
        ParamPoly.number(-3.25),
    ]
    for poly in polys:
        want = ref.poly_form(poly)
        for text in (poly.render(), poly.render_text()):
            assert ref.compare_forms(ref.parse_rendered(text), want, ref.PRINTED_REL) is None, text


def test_benchmark_json_lists_the_metrics_run_py_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _, _ in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    proc = run_bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    printed = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: v["unit"] for k, v in printed.items()}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
