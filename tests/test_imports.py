"""numpy and scipy stay in the quadrature oracle.

The closed-form pipeline and the whole command line run on the standard
library and mpmath; only ``zetatrace.oracle`` loads numpy and scipy.  Each
check runs a fresh interpreter, since this test process has numpy loaded
already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODEL_FILE = (
    "[params]\nJ = positive\n[axes]\nxi = momentum\n[phase]\nxi^2/(2*J)\n"
    "[observable]\n(T*xi/(2*pi*J))^2/(-i*T)\n"
)
KV_FILE = "[kv]\ndimension = 1\nvolume = 1.0\n[term]\ndegree = -3\nlog_order = 0\nangular = 1\n"


def loaded_array_libs(body: str) -> list[str]:
    """Run ``body`` in a fresh interpreter; return which of numpy/scipy it loaded."""
    code = (
        f"import json, sys\n{body}\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_loads_neither_numpy_nor_scipy(tmp_path):
    (tmp_path / "rotor.zt").write_text(MODEL_FILE)
    (tmp_path / "amp.kv").write_text(KV_FILE)
    body = f"""
import contextlib, io
import zetatrace
from zetatrace import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check"]) == 0
    assert cli.main(["run", "phi4", "--numeric", "--param", "mu=1", "--param", "lambda=6"]) == 0
    assert cli.main(["list"]) == 0
    assert cli.main(["model", {str(tmp_path / "rotor.zt")!r}]) == 0
    assert cli.main(["kv-trace", {str(tmp_path / "amp.kv")!r}]) == 0
"""
    assert loaded_array_libs(body) == []


def test_oracle_still_imports_with_numpy_and_scipy():
    assert loaded_array_libs("import zetatrace.oracle") == ["numpy", "scipy"]
