"""Command-line front end: run models, check the bundled suite, evaluate traces.

Subcommands: ``run``, ``check``, ``list``, ``kv-trace``, ``model``.  JSON
output follows a fixed field order and renders floats with 12 significant
digits so byte-stable output can be diffed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import models as model_registry
from .engine import KVAmplitudeSpec, kv_trace_at_zero
from .errors import ParseError, UnboundParameter, UsageError, ValidationError, ZetatraceError
from .laurent import DEFAULT_ORDER
from .modelfile import parse_model_file, read_text, sectioned_lines
from .models import REGISTRY, RegistryEntry, run_model
from .params import ParamPoly
from .tables import BranchPolicy
from .terms import Divergent


def _parse_params(items) -> dict[str, float]:
    out = {}
    for item in items or ():
        name, _, value = item.partition("=")
        try:
            number = float(value)
            if not name.strip() or not math.isfinite(number):
                raise ValueError
            out[name.strip()] = number
        except ValueError:
            raise UsageError(f"--param expects name=number, got {item!r}") from None
    return out


def _check_signs(model, bindings: dict[str, float]) -> None:
    """A parameter declared positive takes only a positive ``--param`` value."""
    for p in model.params:
        value = bindings.get(p.name)
        if p.positive and value is not None and value <= 0:
            problem = "must not be zero" if value == 0 else "must not be negative"
            raise UsageError(
                f"--param {p.name} {problem} ({p.name} is declared positive), got {value:g}"
            )


def _json_line(args, result, model: str, observable: str, value: str, numeric) -> str:
    """One output record, its fields in a fixed order; ``result.trace`` is read only for --trace."""
    record = {"model": model, "observable": observable, "value": value}
    if numeric is not None:
        record["numeric_value"] = _fmt_number(numeric)
    record["branch"] = args.branch
    record["series_order"] = args.series_order
    if args.trace:
        record["trace"] = list(result.trace)
    return json.dumps(record)


def _evaluate(poly: ParamPoly, bindings) -> complex:
    """``poly`` at ``bindings``; a parameter with no value is the user's to bind."""
    try:
        return poly.eval(bindings)
    except UnboundParameter as exc:
        name = exc.args[0]
        raise UsageError(
            f"parameter {name} has no value; bind it with --param {name}=<number>"
        ) from None


def _fmt_number(x: complex) -> str:
    if abs(x.imag) <= 1e-12 * max(1.0, abs(x.real)):
        return f"{x.real:.12g}"
    return f"{x.real:.12g}{x.imag:+.12g}i"


def _emit_run(run, args, bindings) -> int:
    code = 0
    if run.potential is not None:
        return _emit_potential(run, args, bindings)
    records = []
    for name, result in run.results.items():
        numeric = None
        if (args.numeric or bindings) and isinstance(result.value, ParamPoly):
            numeric = _evaluate(result.value, {**run.model.default_bindings(), **bindings})
        records.append((result, numeric))
        if isinstance(result.value, Divergent):
            code = 1
    if args.emit == "json":
        for result, numeric in records:
            value = result.value
            text = value.render(mul=" * ") if isinstance(value, ParamPoly) else f"divergent: {value.reason}"
            print(_json_line(args, result, result.model, result.observable, text, numeric))
    else:
        for result, numeric in records:
            if isinstance(result.value, Divergent):
                print(f"<{result.observable}> diverges: {result.value.reason}")
            else:
                print(f"⟨{result.observable}⟩ = {result.value.render_text()}")
            if numeric is not None:
                print(f"  numeric: {_fmt_number(numeric)}")
            if args.trace:
                for step in result.trace:
                    print(f"  | {step}")
    return code


def _emit_potential(run, args, bindings) -> int:
    pot = run.potential
    rows = [("critical_point", p) for p in pot.critical_points]
    rows += [("minimum", p) for p in pot.minima]
    rows += [("mass", p) for p in pot.masses]
    full_bindings = {**run.model.default_bindings(), **bindings}
    # every row is evaluated before anything is printed, so an overflow leaves stdout empty
    numeric = [
        _evaluate(poly, full_bindings) if args.numeric or bindings else None for _, poly in rows
    ]
    if args.emit == "json":
        for (label, poly), value in zip(rows, numeric):
            print(_json_line(args, pot, run.model.name, label, poly.render(), value))
    else:
        print(f"V({run.model.field_param}) = {pot.potential.render_text()}  (volume limit)")
        for (label, poly), value in zip(rows, numeric):
            line = f"{label}: {poly.render_text()}"
            if value is not None:
                line += f"  = {_fmt_number(value)}"
            print(line)
        if args.trace:
            for step in pot.trace:
                print(f"  | {step}")
    return 0


#: a derivation's cost grows like the cube of the dimension (64 takes under a
#: second, 400 a minute) and with the series order (20000 takes seconds)
MAX_DIM = 64
MAX_SERIES_ORDER = 256


def cmd_run(args, extra_registry=None) -> int:
    bindings = _parse_params(args.param)
    policy = BranchPolicy(args.branch)
    if args.series_order < 2:
        raise UsageError(f"--series-order must be at least 2, got {args.series_order}")
    if args.series_order > MAX_SERIES_ORDER:
        raise UsageError(f"--series-order must be at most {MAX_SERIES_ORDER}, got {args.series_order}")
    overrides = {}
    if args.dim is not None:
        if args.dim < 1:
            raise UsageError(f"--dim must be at least 1, got {args.dim}")
        if args.dim > MAX_DIM:
            raise UsageError(f"--dim must be at most {MAX_DIM}, got {args.dim}")
        overrides["n"] = args.dim
    run = run_model(
        args.model, policy, args.series_order, registry=extra_registry, **overrides
    )
    _check_signs(run.model, bindings)
    code = _emit_run(run, args, bindings)
    # a result that disagrees with its expected value is a failed run, as in ``check``
    for failure in run.failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if run.failures else code


def cmd_check(args) -> int:
    policy = BranchPolicy(args.branch)
    names = list(REGISTRY)
    failed = 0
    for name in names:
        run = run_model(name, policy)
        status = "pass" if run.passed else "FAIL"
        if not run.passed:
            failed += 1
        summary = REGISTRY[name].expected_summary
        print(f"{status:4}  {name:28} {summary}")
        for f in run.failures:
            print(f"      {f}")
    print(f"{len(names) - failed}/{len(names)} models passing ({policy.mode} branch)")
    return 1 if failed else 0


def cmd_list(args, extra_registry=None) -> int:
    for name, desc, summary in model_registry.list_models(extra_registry):
        print(f"{name:28} {desc} [{summary}]")
    return 0


def cmd_kv_trace(args) -> int:
    value = kv_trace_at_zero(_parse_kv_file(args.file))
    numeric = _fmt_number(value.eval({}))
    print(f"trace(0) = {value.render_text()}")
    print(f"numeric: {numeric}")
    return 0


#: the largest decimal exponent of a kv degree; int() reads no longer integer either
_KV_MAX_EXPONENT = 4300
_KV_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def _read_degree(text: str) -> Fraction:
    """A degree, read exactly; ``Fraction`` forms 10**exponent, so a larger one is refused."""
    m = _KV_EXPONENT.search(text)
    if m and abs(float(m.group(1))) > _KV_MAX_EXPONENT:
        raise OverflowError
    return Fraction(text)


#: per kv-file section, its keys and how each value is read
_KV_KEYS = {
    "kv": {"dimension": int, "volume": float},
    "term": {"degree": _read_degree, "log_order": int, "angular": float},
}

#: the least value of each bounded integer kv key
_KV_MINIMUM = {"dimension": 1, "log_order": 0}


def _parse_kv_file(path) -> KVAmplitudeSpec:
    sections: list[tuple[str, dict, int]] = []  # (name, values, header line)
    set_on: dict[str, int] = {}  # keys of the current section -> their line
    for section, lineno, line in sectioned_lines(read_text(path), _KV_KEYS):
        if line is None:
            if section == "kv":  # [term] sections repeat, the header does not
                first = next((at for name, _, at in sections if name == "kv"), None)
                if first is not None:
                    raise ParseError(f"duplicate section [kv] (first on line {first})", lineno, 2)
            sections.append((section, {}, lineno))
            set_on = {}
            continue
        values = sections[-1][1]
        key, _, value = (part.strip() for part in line.partition("="))
        read = _KV_KEYS[section].get(key)
        if read is None:
            raise ParseError(f"unknown key {key!r} in [{section}]", lineno, 1)
        if key in set_on:
            raise ParseError(
                f"duplicate key {key!r} in [{section}] (first set on line {set_on[key]})", lineno, 1
            )
        set_on[key] = lineno
        at = (lineno, line.index(value, len(key)) + 1)  # where the value starts
        try:
            values[key] = read(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{key} must be a number, got {value!r}", *at) from None
        except OverflowError:
            raise ParseError(
                f"{key} exponent must be at most {_KV_MAX_EXPONENT} in magnitude, got {value!r}", *at
            ) from None
        if read is float and not math.isfinite(values[key]):
            raise ParseError(f"{key} must be finite, got {value!r}", *at)
        if key in _KV_MINIMUM and values[key] < _KV_MINIMUM[key]:
            raise ParseError(f"{key} must be at least {_KV_MINIMUM[key]}, got {value!r}", *at)
    header: dict = {}
    terms = []
    for section, values, lineno in sections:
        if section == "kv":
            header.update(values)
            continue
        if "degree" not in values:
            raise ParseError("term without degree", lineno, 1)
        terms.append(
            (
                values["degree"],
                values.get("log_order", 0),
                ParamPoly.number(values.get("angular", 1.0)),
            )
        )
    if "dimension" not in header:
        raise ParseError("missing dimension in [kv] section", 1, 1)
    vol = ParamPoly.number(header["volume"]) if "volume" in header else ParamPoly.one()
    return KVAmplitudeSpec(dimension=header["dimension"], terms=tuple(terms), vol_x=vol)


def cmd_model(args) -> int:
    spec = parse_model_file(args.file)
    entry = RegistryEntry(lambda: spec, spec.description, "custom")
    registry = {spec.name: entry}
    if args.list:
        return cmd_list(args, registry)
    args.model = spec.name
    return cmd_run(args, registry)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetatrace",
        description="regularized oscillatory trace integrals and expectation values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--param", action="append", metavar="k=v",
                       help="bind a parameter for numeric output")
        p.add_argument("--branch", choices=("paper", "principal"), default="paper")
        p.add_argument("--series-order", type=int, default=DEFAULT_ORDER)
        p.add_argument("--emit", choices=("text", "json"), default="text")
        p.add_argument("--trace", action="store_true",
                       help="print the derivation steps (gauge, reduce, limits)")
        p.add_argument("--numeric", action="store_true",
                       help="evaluate results at bound/default parameters")
        p.add_argument("--dim", type=int, default=None,
                       help="spatial dimension override for N-generic models")

    run_p = sub.add_parser("run", help="evaluate one registered model")
    run_p.add_argument("model")
    add_run_flags(run_p)
    run_p.set_defaults(fn=cmd_run)

    check_p = sub.add_parser("check", help="run every bundled model against its expected value")
    check_p.add_argument("--branch", choices=("paper", "principal"), default="paper")
    check_p.set_defaults(fn=cmd_check)

    list_p = sub.add_parser("list", help="list registered models")
    list_p.set_defaults(fn=cmd_list)

    kv_p = sub.add_parser("kv-trace", help="evaluate a trace-at-zero amplitude file")
    kv_p.add_argument("file")
    kv_p.set_defaults(fn=cmd_kv_trace)

    model_p = sub.add_parser("model", help="run a custom model-definition file")
    model_p.add_argument("file")
    model_p.add_argument("--list", action="store_true", help="list instead of running")
    add_run_flags(model_p)
    model_p.set_defaults(fn=cmd_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # inside the try: a reader that left (``| head``) raises here
        return code
    except BrokenPipeError:
        # stdout is closed: send what is left to devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ParseError, ValidationError) as exc:
        # the input is at fault: a flag, a file or a model that fails validation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZetatraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
