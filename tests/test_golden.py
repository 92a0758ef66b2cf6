"""Byte-for-byte CLI output against recorded golden files.

Each case runs one ``zetatrace`` command through ``cli.main`` and compares its
exit code and stdout with ``tests/golden/<name>.txt``.  The files pin the text
and JSON output (closed forms, traces, finite-T renders) so that a change to
the pipeline that should leave results alone can be shown to do so.  A model
file named in a case lives in ``tests/golden`` and is recorded by its bare
file name, so the recorded command line does not depend on where the
checkout is.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from zetatrace.cli import main
from zetatrace.models import REGISTRY

GOLDEN = Path(__file__).parent / "golden"


def _cases() -> dict[str, list[str]]:
    cases = {f"check_{b}": ["check", "--branch", b] for b in ("paper", "principal")}
    for model in REGISTRY:
        for branch in ("paper", "principal"):
            cases[f"run_{model}_{branch}"] = [
                "run", model, "--branch", branch, "--emit", "json", "--trace",
            ]
    for model in ("harmonic_oscillator_1d", "dirac_fermion"):
        cases[f"run_{model}_order16"] = [
            "run", model, "--series-order", "16", "--emit", "json", "--trace",
        ]
    # the largest reduction of the ladder: 12 axes, 13 numerator terms
    cases["run_harmonic_oscillator_nd_dim6"] = [
        "run", "harmonic_oscillator_nd", "--dim", "6", "--emit", "json", "--trace",
    ]
    # --numeric: the closed forms evaluated at the bound parameters, in both emit modes
    cases["run_phi4_numeric_text"] = [
        "run", "phi4", "--numeric", "--param", "mu=1", "--param", "lambda=6",
    ]
    cases["run_phi4_numeric_json"] = [
        "run", "phi4", "--numeric", "--emit", "json", "--param", "mu=1.3", "--param", "lambda=2.7",
    ]
    # the numeric line of an expectation model, and the potential's text trace
    cases["run_topological_oscillator_numeric"] = [
        "run", "topological_oscillator", "--numeric", "--param", "J=2",
    ]
    cases["run_phi4_trace_text"] = ["run", "phi4", "--trace"]
    # a model file whose observable mixes explicit powers of T in one axis
    # monomial (x^2 carries T^0 and T^1) and in its constant (T^0 and T^-1)
    cases["model_oscillator_mixed_t"] = [
        "model", "oscillator_mixed_t.zt", "--emit", "json", "--trace",
    ]
    return cases


CASES = _cases()


def _record(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(GOLDEN / a) if a.endswith(".zt") else a for a in argv])
    return f"$ zetatrace {' '.join(argv)}\nexit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _record(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(_record(argv), encoding="utf-8")
