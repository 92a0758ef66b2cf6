"""Line-oriented model-definition files and their expression grammar.

Sections: ``[params]`` (name = positive | finite positive default), ``[axes]``
(name = kind[, group]), ``[phase]``, ``[observable]`` and optional
``[expect]``.  Expressions are built from parameters, axis names, ``i``,
``pi`` and ``T`` with ``+ - * / ^`` and parentheses; a recursive-descent
parser reports precise error positions.  Each parameter and axis name is
declared once, and ``i``, ``pi`` and ``T`` cannot be declared.  Only
constructs the engine can reduce are expressible, so a file that parses and
validates is runnable.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Iterator

from .engine import GaugeGroup, ModelSpec, _build_phase, apply_gauge, reduced_integrals
from .errors import DegenerateCase, ParseError, UnsupportedStructure, ValidationError
from .params import Param, ParamPoly
from .symbols import Axis, AxisPoly, T, compose_observable, t_free

AXIS_KINDS = ("position", "momentum", "field")

#: names the expression grammar gives a meaning of its own; a file may not declare them
RESERVED_NAMES = ("i", "pi", "T")

#: the largest exponent literal a file may write: the bundled models need 4, and a
#: power of a sum expands term by term, so a larger exponent can stall lowering
MAX_EXPONENT = 16

#: the deepest nesting of parentheses, unary minus signs and exponents a file
#: may write: the parser recurses on each level
MAX_NESTING = 100

#: the most coefficient products lowering one section may form.  A product of
#: a and b forms size(a) * size(b) of them, size counting the parameter
#: monomials of every axis term, and a power is charged factor by factor: a
#: power of a sum, or a sum of many such powers, expands term by term, and
#: lowering it costs about 15 us per product
LOWERING_BUDGET = 20_000


# ---------------------------------------------------------------------------
# Expression tokenizer / parser (AST of nested tuples)
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*|\.\d+|\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    column: int


def tokenize(text: str, line: int) -> list[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", line, pos + 1)
        pos = m.end()
        for kind in ("number", "ident", "op"):
            s = m.group(kind)
            if s is not None:
                out.append(Token(kind, s, m.start(kind) + 1))
                break
    return out


class _Parser:
    def __init__(self, tokens: list[Token], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.depth = 0

    def nested(self, tok: Token, parse):
        """``parse()`` one level deeper; a ``ParseError`` past ``MAX_NESTING``."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             self.line, tok.column)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line,
                             self.tokens[-1].column if self.tokens else 1)
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text!r}", self.line, tok.column)

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", self.line, tok.column)
        return node

    def expr(self):
        node = self.term()
        while (tok := self.peek()) and tok.kind == "op" and tok.text in "+-":
            self.next()
            rhs = self.term()
            node = (tok.text, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while (tok := self.peek()) and tok.kind == "op" and tok.text in "*/":
            self.next()
            rhs = self.unary()
            node = (tok.text, node, rhs)
        return node

    def unary(self):
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "-":
            self.next()
            return ("neg", self.nested(tok, self.unary))
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.next()
            start = self.peek()
            exponent = self.nested(tok, self.unary)
            literal = exponent
            while literal[0] == "neg":
                literal = literal[1]
            # float() reads a digit string of any length, exactly near the bound
            if literal[0] == "num" and float(literal[1]) > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {literal[1]} is larger than {MAX_EXPONENT}", self.line, start.column
                )
            return ("^", base, exponent)
        return base

    def atom(self):
        tok = self.next()
        if tok.kind == "number":
            return ("num", tok.text)
        if tok.kind == "ident":
            return ("sym", tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.nested(tok, self.expr)
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", self.line, tok.column)


def parse_expression(text: str, line: int = 1):
    tokens = tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line, 1)
    return _Parser(tokens, line).parse()


# ---------------------------------------------------------------------------
# Lowering into the axis-polynomial algebra
# ---------------------------------------------------------------------------


def lower_ast(node, axis_names: set[str], param_names: set[str], line: int = 1) -> AxisPoly:
    """Lower one section's expression; a ``ParseError`` past ``LOWERING_BUDGET``."""
    spent = 0

    def product(a: AxisPoly, b: AxisPoly, line: int) -> AxisPoly:
        nonlocal spent
        spent += _size(a) * _size(b)
        if spent > LOWERING_BUDGET:
            raise ParseError(f"expanding this expression takes more than {LOWERING_BUDGET} "
                             "coefficient products", line)
        return a * b

    def lower(node, line: int) -> AxisPoly:
        kind = node[0]
        if kind == "line":
            return lower(node[2], node[1])
        if kind == "num":
            return AxisPoly.number(float(node[1]))
        if kind == "sym":
            name = node[1]
            if name == "i":
                return AxisPoly.number(1j)
            if name == "T":
                return AxisPoly.constant(ParamPoly.var(T))
            if name in axis_names:
                return AxisPoly.symbol(name)
            if name in param_names or name == "pi":
                return AxisPoly.constant(ParamPoly.var(name))
            raise ParseError(f"unknown symbol {name!r}", line)
        if kind == "neg":
            return -lower(node[1], line)
        if kind in _CHAINS:
            # a run of one precedence is a left-deep chain, one node per term
            # (or per line of a section): fold it left to right, not recursively
            ops = _CHAINS[kind]
            chain = []
            while node[0] in ops:
                chain.append(node)
                node = node[1]
            out = lower(node, line)
            for op, _, rhs in reversed(chain):
                if op == "+":
                    out = out + lower(rhs, line)
                elif op == "-":
                    out = out - lower(rhs, line)
                elif op == "*":
                    out = product(out, lower(rhs, line), line)
                else:
                    out = product(out, _invert(lower(rhs, line), line), line)
            return out
        if kind == "^":
            base = lower(node[1], line)
            exp = _int_exponent(node[2], line)
            out = AxisPoly.number(1)
            for _ in range(abs(exp)):  # factor by factor, as AxisPoly.__pow__ does
                out = product(out, base, line)
            return out if exp >= 0 else _invert(out, line)
        raise ParseError(f"unsupported node {kind}", line)

    return lower(node, line)


_CHAINS = {"+": ("+", "-"), "-": ("+", "-"), "*": ("*", "/"), "/": ("*", "/")}


def _size(p: AxisPoly) -> int:
    """The number of parameter monomials over all axis terms of ``p``."""
    return sum(len(c.terms) for c in p.terms.values())


def _int_exponent(node, line: int) -> int:
    if node[0] == "num" and "." not in node[1]:
        return int(node[1])
    if node[0] == "neg":
        return -_int_exponent(node[1], line)
    raise ParseError("exponent must be an integer literal", line)


def _invert(p: AxisPoly, line: int) -> AxisPoly:
    if p.symbols():
        raise ParseError("division by an axis-dependent expression", line)
    parts = p.constant_part().by_power(T)
    if len(parts) != 1:
        raise ParseError("division by a non-monomial expression", line)
    ((t_power, poly),) = parts.items()
    try:
        inv = poly.inverse()
    except UnsupportedStructure as exc:
        raise ParseError(f"cannot invert {poly.render()}: {exc}", line) from exc
    return AxisPoly.constant(inv, -t_power)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


@dataclass
class ParsedModel:
    name: str
    params: list[tuple[str, float | None]] = field(default_factory=list)
    axes: list[tuple[str, str, str | None]] = field(default_factory=list)
    phase_ast: object = None
    observable_ast: object = None
    expect_ast: object = None

    def param_names(self) -> set[str]:
        return {n for n, _ in self.params}

    def axis_names(self) -> set[str]:
        return {n for n, _, _ in self.axes}


def read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def sectioned_lines(text: str, names) -> Iterator[tuple[str, int, str | None]]:
    """(section, line number, content) of each header and content line of a file of
    ``[name]`` sections, ``name`` in ``names``; a header's content is None.  ``#``
    starts a comment, and blank lines are skipped."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno, len(line))
            section = line[1:-1].strip().lower()
            if section not in names:
                raise ParseError(f"unknown section [{section}]", lineno, 2)
            yield section, lineno, None
        elif section is None:
            raise ParseError("content before any section header", lineno, 1)
        else:
            yield section, lineno, line


def parse_model_text(text: str, name: str = "custom") -> ParsedModel:
    model = ParsedModel(name)
    saw_any = False
    declared: dict[str, int] = {}  # parameter and axis names -> line of declaration

    def declare(symbol: str, lineno: int):
        if symbol in RESERVED_NAMES:
            raise ParseError(f"{symbol!r} is reserved and cannot be declared", lineno, 1)
        if symbol in declared:
            first = declared[symbol]
            raise ParseError(f"duplicate name {symbol!r} (first declared on line {first})",
                             lineno, 1)
        declared[symbol] = lineno

    for section, lineno, line in sectioned_lines(text, ("params", "axes", "phase", "observable", "expect")):
        saw_any = True
        if line is None:
            continue
        if section == "params":
            name_, _, value = line.partition("=")
            pname, pval = name_.strip(), value.strip()
            if not pname or not pval:
                raise ParseError("expected 'name = positive|value'", lineno, 1)
            declare(pname, lineno)
            if pval == "positive":
                model.params.append((pname, None))
            else:
                try:
                    number = float(pval)
                except ValueError:
                    raise ParseError(f"bad parameter value {pval!r}", lineno,
                                     line.index(pval) + 1) from None
                if not math.isfinite(number):
                    raise ParseError(f"{pname} must be finite, got {pval!r}", lineno,
                                     line.index(pval) + 1)
                if number <= 0:
                    raise ParseError(f"{pname} must be positive, got {pval!r}", lineno,
                                     line.index(pval) + 1)
                model.params.append((pname, number))
        elif section == "axes":
            name_, _, rhs = line.partition("=")
            aname = name_.strip()
            fields = [f.strip() for f in rhs.split(",")]
            if not aname or not fields or not fields[0]:
                raise ParseError("expected 'name = kind[, group]'", lineno, 1)
            declare(aname, lineno)
            kind = fields[0]
            if kind not in AXIS_KINDS:
                raise ParseError(f"unknown axis kind {kind!r}", lineno,
                                 line.index(kind) + 1)
            group = fields[1] if len(fields) > 1 and fields[1] else None
            model.axes.append((aname, kind, group))
        elif section == "phase":
            model.phase_ast = _merge_expr(model.phase_ast, line, lineno)
        elif section == "observable":
            model.observable_ast = _merge_expr(model.observable_ast, line, lineno)
        elif section == "expect":
            model.expect_ast = _merge_expr(model.expect_ast, line, lineno)
    if not saw_any:
        raise ParseError("empty model file", 1, 1)
    if model.phase_ast is None:
        raise ParseError("missing [phase] section", 1, 1)
    if model.observable_ast is None:
        raise ParseError("missing [observable] section", 1, 1)
    if not model.axes:
        raise ParseError("missing [axes] section", 1, 1)
    return model


def _merge_expr(current, line: str, lineno: int):
    """Add one expression line to a section, keeping its line number for lowering errors."""
    node = ("line", lineno, parse_expression(line, lineno))
    return node if current is None else ("+", current, node)


def to_model_spec(parsed: ParsedModel) -> ModelSpec:
    """Lower a parsed file into a runnable spec, validating reducibility.

    Validation runs the gauge, the phase split and every per-symbol check of
    the reduction (``engine.reduced_integrals``) on the observable and on the
    unit denominator, without building table rows; a failing check is a
    ``ValidationError`` with the check's own message.
    """
    params = tuple(Param(n, default=v) for n, v in parsed.params)
    pnames = parsed.param_names()
    anames = parsed.axis_names()
    axes = []
    group_members: dict[str, list[str]] = {}
    for name, kind, group in parsed.axes:
        gid = group or f"g_{name}"
        axes.append(Axis(name, kind, gid))
        group_members.setdefault(gid, []).append(name)
    groups = tuple(
        GaugeGroup(gid, tuple(members), f"z{i + 1}")
        for i, (gid, members) in enumerate(group_members.items())
    )
    phase = lower_ast(parsed.phase_ast, anames, pnames)
    observable = lower_ast(parsed.observable_ast, anames, pnames)
    expected = {}
    if parsed.expect_ast is not None:
        exp_poly = lower_ast(parsed.expect_ast, set(), pnames)
        expected["observable"] = t_free(exp_poly.constant_part())
    spec = ModelSpec(
        name=parsed.name,
        description="custom model",
        params=params,
        axes=tuple(axes),
        groups=groups,
        hamiltonian=phase,
        observables={"observable": observable},
        expected=expected,
    )
    try:
        plan = apply_gauge(spec)
        phase, evo = _build_phase(spec)
        # the reduction's per-symbol checks, for both sides, without building table rows
        for obs in (observable, AxisPoly.number(1)):
            pieces = compose_observable(evo, obs)
            for _, _, symbols in reduced_integrals(pieces, spec, phase, plan):
                for _ in symbols:
                    pass
    except (DegenerateCase, UnsupportedStructure) as exc:
        raise ValidationError(str(exc)) from exc
    return spec


def parse_model_file(path, name: str | None = None) -> ModelSpec:
    default_name = os.path.splitext(os.path.basename(str(path)))[0]
    parsed = parse_model_text(read_text(path), name or default_name)
    return to_model_spec(parsed)
