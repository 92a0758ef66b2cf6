"""Every function, class and method in ``src/`` is named somewhere else in ``src/``.

A top-level function or class, or a method whose name is not a dunder, that
no code in ``src/zetatrace`` names outside its own definition is a feature
the pipeline never runs: it belongs in a test helper or a script, next to
its caller.  A use is a name token; names inside strings and comments do
not count.  The few names kept without a caller in ``src/`` are listed with
the reason they stay, and the list must be exact: a listed name that gains
a caller, or is deleted, is taken off it.  The oracle's two cross-checks are
where the tests and scripts enter it, so they need no caller in ``src/``.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zetatrace"

#: module.name -> why it stays in src/ without a caller there
KEPT = {
    "models.build_model": "perfbench/workloads.py and perfbench/record.py call it",
    "oracle.model_quotient": "perfbench/tracer.py patches it, and test_tracer_contract.py pins that",
    "engine.complete_square": "shifted oscillators (ROADMAP item 4) will call it from engine._alternatives",
}

#: module.name -> the check it is: the oracle's entry points
ENTRY_POINTS = {
    "oracle.small_z_ratio": "the cross-check of a ratio model",
    "oracle.potential_numeric": "the cross-check of a potential model",
}


def definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function and class and each non-dunder method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = [node for node in tree.body if isinstance(node, (*functions, ast.ClassDef))]
    nodes += [method for node in nodes if isinstance(node, ast.ClassDef) for method in node.body
              if isinstance(method, functions) and not (method.name.startswith("__") and method.name.endswith("__"))]
    for node in nodes:
        yield node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def names(text: str):
    """(name, line) of each name token; an f-string's fields are code, any other string is not."""
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.NAME:
            yield token.string, token.start[0]
        elif token.type == tokenize.STRING and "f" in re.match("[A-Za-z]*", token.string)[0].lower():
            for node in ast.walk(ast.parse(token.string, mode="eval")):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name:
                    yield name, token.start[0] + node.lineno - 1


def uncalled_names(src: Path) -> set[str]:
    """module.name of each definition under ``src`` that no name token outside its own lines names."""
    uses: dict[str, list[tuple[str, int]]] = {}  # name -> (module, line) of each name token
    defined = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        module = path.stem
        for name, line in names(text):
            uses.setdefault(name, []).append((module, line))
        defined += [(module, *d) for d in definitions(ast.parse(text))]
    return {
        f"{module}.{name}"
        for module, name, first, last in defined
        if all(m == module and first <= line <= last for m, line in uses[name])
    }


def test_every_src_definition_has_a_caller_in_src():
    assert uncalled_names(SRC) == KEPT.keys() | ENTRY_POINTS.keys()


def test_a_name_in_a_string_or_comment_is_not_a_use(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused  # recursion names it inside its own body\n\n\n"
        "def named_in_text():\n    pass\n\n\n"
        "def in_an_f_string():\n    pass\n\n\n"
        "LABEL = f'{in_an_f_string()}'\n"
        "class Box:\n    def __init__(self):\n        pass\n\n    def method(self):\n        return used()\n\n\n"
        "# named_in_text\n"
        "NOTE = 'named_in_text Box method'\n"
    )
    assert uncalled_names(tmp_path) == {"mod.unused", "mod.named_in_text", "mod.Box", "mod.method"}
