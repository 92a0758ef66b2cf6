import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_all_models_runs_from_any_directory(tmp_path):
    # no PYTHONPATH: the script must find src/ next to itself, not in the cwd
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_all_models.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "== harmonic_oscillator_1d" in proc.stdout
