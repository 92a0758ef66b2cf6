import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script_module(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


finite_t_scan = _script_module("finite_t_scan")


def test_run_all_models_runs_from_any_directory(tmp_path):
    # no PYTHONPATH: the script must find src/ next to itself, not in the cwd
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_all_models.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "== harmonic_oscillator_1d" in proc.stdout


def test_finite_t_scan_runs_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "finite_t_scan.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    blocks = [b for b in proc.stdout.split("\n\n") if b.strip()]
    assert len(blocks) == 5
    for block in blocks:
        # "   finite-T @ T=10  : +0.500000000-0.100000000j"
        values = dict(re.findall(r"^ +(finite-T|quadrature) @ T=10 *: (\S+)$", block, re.M))
        engine, quad = complex(values["finite-T"]), complex(values["quadrature"])
        assert abs(quad - engine) <= 1e-4 * abs(engine), block


def test_finite_t_sweep_recovers_constant_plus_decay():
    m = 1.37
    fit = finite_t_scan.finite_t_sweep(lambda t: m - 3.0 / t, [10, 20, 40, 80])
    assert fit.limit == pytest.approx(m, abs=1e-3)
    assert fit.residual < 1e-9


def test_finite_t_sweep_exact_constant():
    fit = finite_t_scan.finite_t_sweep(lambda t: 2.5 + 0j, [10, 20, 40])
    assert fit.limit == pytest.approx(2.5)
    assert fit.residual < 1e-12


def test_finite_t_sweep_detects_growth():
    with pytest.raises(finite_t_scan.DivergenceDetected):
        finite_t_scan.finite_t_sweep(lambda t: 0.01 * t, [10, 20, 40, 80])


#: the digests of the benchmark's ops at seed 3; a change to a workload must re-record them
PINNED_DIGESTS = {
    "ladder": "6fcdfe8011cfb12a157e38777edf73c654bf024bf011cfbd871a4077d74bb2ba  15 ops\n",
    "suite": "c66fa7f568c56edbedd71b183883f5542515c64377366a3512aa4f4f8f0e8b90  100 ops\n",
    "oracle": "f22e921e636ad774edeb52764b2f999240f9ec1e06e0e775ffbcdde7bd55cdbe  80 ops\n",
}


def test_op_digest_is_the_same_on_a_second_run(tmp_path):
    # every op's result is bit-identical from run to run, and to the pinned digest
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for workload, pinned in PINNED_DIGESTS.items():
        digests = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(SCRIPTS / "op_digest.py"), "--workloads", workload, "--seeds", "3"],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests == [pinned] * 2, workload


#: the digest of every op of every workload at the script's default seeds, 1 and 7
FULL_DIGEST = "09a7f7df02a3dc8167f5ea7f96f2cf18950aa886ba804be8fe2dcdbe64de5bb7  390 ops\n"


def test_op_digest_at_the_default_seeds_is_pinned(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "op_digest.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == FULL_DIGEST
