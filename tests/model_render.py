"""A parsed model file rendered back to text, for tests.

``parse_model_text`` reads a file into section ASTs; the engine only lowers
them.  Rendering a parse back to canonical text lets the tests check that a
file round-trips: render, parse and render again give the same text.
Nothing in ``zetatrace`` calls this.
"""

from zetatrace.modelfile import _CHAINS, ParsedModel


def render_ast(node) -> str:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "sym":
        return node[1]
    if kind == "line":
        return render_ast(node[2])
    if kind == "neg":
        return f"-{_wrap(node[1], above=('+', '-', 'neg'))}"
    if kind in _CHAINS:
        # a left-deep chain, as lower_ast folds it: render it left to right, not recursively
        chain = []
        while node[0] in _CHAINS[kind]:
            chain.append(node)
            node = node[1]
        out = [render_ast(node) if kind in "+-" else _wrap(node, above=("+", "-", "neg"))]
        for op, _, rhs in reversed(chain):
            if op in "+-":
                out.append(f" {op} {_wrap(rhs, above=('+', '-') if op == '-' else ())}")
            else:
                out.append(f"{op}{_wrap(rhs, above=('+', '-', 'neg', '*', '/'))}")
        return "".join(out)
    if kind == "^":
        return f"{_wrap(node[1], above=('+', '-', 'neg', '*', '/', '^'))}^{_wrap(node[2], above=('+', '-', '*', '/', '^'))}"
    raise ValueError(kind)


def _wrap(node, above: tuple[str, ...]) -> str:
    s = render_ast(node)
    if node[0] in above:
        return f"({s})"
    return s


def render_model(model: ParsedModel) -> str:
    out = ["[params]"]
    for name, value in model.params:
        out.append(f"{name} = {'positive' if value is None else value}")
    out.append("[axes]")
    for name, kind, group in model.axes:
        out.append(f"{name} = {kind}" + (f", {group}" if group else ""))
    out.append("[phase]")
    out.append(render_ast(model.phase_ast))
    out.append("[observable]")
    out.append(render_ast(model.observable_ast))
    if model.expect_ast is not None:
        out.append("[expect]")
        out.append(render_ast(model.expect_ast))
    return "\n".join(out) + "\n"
