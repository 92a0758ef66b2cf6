"""numpy stays in the quadrature oracle; mpmath loads only on demand.

The closed-form pipeline and the whole command line run on the standard
library: only ``zetatrace.oracle`` loads numpy, and none loads scipy, which
only the tests use (``scipy.special`` and ``expm``); mpmath is
imported only where a Gamma value at an argument that is neither an integer
nor a half-integer, or a polygamma value, is asked for; no bundled command
asks for one.  Of the standard library, a CLI process loads neither
``dataclasses`` nor ``inspect``, and ``json`` only for ``--emit json``.
Each check runs a fresh interpreter, since this test process has numpy and
mpmath loaded already.
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

OPTIONAL_LIBS = "{'numpy', 'scipy', 'mpmath'}"


#: prints a value as one JSON line; it loads ``json`` only when first called
EMIT = "import sys\ndef emit(value):\n    import json\n    print(json.dumps(value))\n"


def fresh_interpreter(body: str) -> list:
    """Run ``body`` in a fresh interpreter; return the values it printed with ``emit``, one a line."""
    code = f"{EMIT}{body}\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def loaded_libs_after_each(steps: list[str]) -> list[list[str]]:
    """Which of numpy, scipy and mpmath are loaded after each of ``steps``."""
    report = f"emit(sorted({{m.split('.')[0] for m in sys.modules}} & {OPTIONAL_LIBS}))"
    return fresh_interpreter("\n".join(f"{step}\n{report}" for step in steps))


def cli_steps(commands: list[list[str]]) -> list[str]:
    """``from zetatrace import cli``, then one step per command, its output discarded."""
    return ["from zetatrace import cli"] + [
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0"
        for argv in commands
    ]


def test_cli_loads_neither_numpy_nor_scipy(tmp_path):
    (tmp_path / "rotor.zt").write_text(MODEL_FILE)
    (tmp_path / "amp.kv").write_text(KV_FILE)
    commands = [
        ["check"],
        ["run", "phi4", "--numeric", "--param", "mu=1", "--param", "lambda=6"],
        ["list"],
        ["model", str(tmp_path / "rotor.zt")],
        ["kv-trace", str(tmp_path / "amp.kv")],
    ]
    steps = ["import contextlib, io\nimport zetatrace"] + cli_steps(commands)
    assert loaded_libs_after_each(steps) == [[]] * len(steps)


def test_cli_loads_neither_dataclasses_nor_inspect(tmp_path):
    """About 20 ms of a cold CLI process went to ``dataclasses`` and the ``inspect`` it imports.

    A module counts only if it was not loaded before ``import zetatrace``
    (``site`` may load some).  ``json`` loads for the last command alone:
    ``--emit json`` is the only output that needs it.
    """
    (tmp_path / "rotor.zt").write_text(MODEL_FILE)
    (tmp_path / "amp.kv").write_text(KV_FILE)
    commands = [
        ["check"],
        ["kv-trace", str(tmp_path / "amp.kv")],
        ["model", str(tmp_path / "rotor.zt")],
        ["list"],
        ["run", "phi4", "--emit", "json"],
    ]
    watched = "{'dataclasses', 'inspect', 'json'}"
    snapshot = f"loaded.append(sorted((set(sys.modules) - before) & {watched}))"
    body = "\n".join(
        ["import contextlib, io", "loaded = []", "before = set(sys.modules)", "import zetatrace", snapshot]
        + [f"{step}\n{snapshot}" for step in cli_steps(commands)]
        + ["emit(loaded)"]
    )
    (loaded,) = fresh_interpreter(body)
    assert loaded == [[]] * (len(commands) + 1) + [["json"]]


def test_oracle_imports_numpy_alone():
    """The oracle loads numpy alone; scipy is for tests only."""
    assert loaded_libs_after_each(["import zetatrace.oracle"]) == [["numpy"]]


def test_mpmath_loads_on_demand_with_the_same_values():
    # a Gamma series past its lead needs psi(1); Gamma(1/3) is not exact in pi^(1/2)
    values = """
from zetatrace import laurent
series = laurent.expand_factor(laurent.PrimitiveFactor(laurent.FactorKind.GAMMA, (1, 1), (1, 1)), order=2)
emit(repr((series.lead, [c.terms for c in series.coeffs])))
emit(repr(laurent.gamma_value((1, 3)).terms))
emit('mpmath' in sys.modules)
"""
    on_demand = fresh_interpreter(values)
    preloaded = fresh_interpreter("import mpmath\n" + values)
    assert on_demand[-1] is True
    assert on_demand == preloaded


def test_package_import_loads_no_submodule():
    """``import zetatrace`` re-exports nothing: every caller imports a submodule."""
    loaded = fresh_interpreter(
        "import zetatrace\n"
        "emit(sorted(m for m in sys.modules if m.startswith('zetatrace.')))"
    )
    assert loaded == [[]]
