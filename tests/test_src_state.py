"""Every cache and module-level registry in ``src/`` is listed, with its reason.

A function under ``functools.lru_cache`` or ``functools.cache``, and a
module-level name bound to an empty ``{}``, ``[]`` or ``set()`` (or ``dict()``,
``list()``), is state that outlives a call: it grows across runs in one
process, and a value computed once can go stale.  Each one kept in
``src/zetatrace`` is listed here with what removing it costs or why it stays,
and the list must be exact: a new cache or registry is added to it with its
reason, and one that is deleted is taken off it.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zetatrace"

#: module.name -> why it stays
KEPT = {
    "laurent.polygamma_value": "without it the Gamma-past-lead properties of Tier-1 run about 1.7 times slower",
    "models._dirac_symbol": "building and checking the n = 3 matrix symbol takes 0.65 ms; "
                            "the ladder runs 5 % slower without it, the registry suite 14 %",
    "params._LOG_BASES": "ROADMAP item 1 deletes it; perfbench/tracer.py reads it until then",
}

CACHE = re.compile(r"(functools\.)?(lru_cache|cache)\b")
EMPTY_CALLS = {"dict", "list", "set"}


def _is_empty_container(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in EMPTY_CALLS and not node.args and not node.keywords)


def module_state(src: Path) -> set[str]:
    """module.name of each cached function (at any depth) and each module-level empty container."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = path.stem
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                CACHE.fullmatch(ast.unparse(d.func if isinstance(d, ast.Call) else d)) for d in node.decorator_list
            ):
                found.add(f"{module}.{node.name}")
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
            if _is_empty_container(getattr(node, "value", None)):
                found |= {f"{module}.{t.id}" for t in targets if isinstance(t, ast.Name)}
    return found


def test_every_cache_and_module_registry_in_src_is_listed():
    assert module_state(SRC) == KEPT.keys()


def test_each_shape_of_state_is_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "A = {}\nB: list = []\nC = set()\nD = dict()\nFULL = {'k': 1}\nNAMES = ('x',)\n\n\n"
        "@lru_cache(maxsize=None)\ndef e(x):\n    return x\n\n\n"
        "@functools.cache\ndef f(x):\n    return x\n\n\n"
        "class G:\n    @cache\n    def h(self):\n        memo = {}\n        return memo\n\n\n"
        "def plain():\n    local = []\n    return local\n"
    )
    assert module_state(tmp_path) == {"mod.A", "mod.B", "mod.C", "mod.D", "mod.e", "mod.f", "mod.h"}
