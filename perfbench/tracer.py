"""Spans and counts around zetatrace's public functions, installed from outside.

Each wrapper replaces a function at the name its caller looks it up under
(``zetatrace.engine.ratio_limit`` is what ``expectation`` calls, and
``zetatrace.terms.expand_product`` is what the regulator elimination calls),
so the program itself is unchanged.  Spans stay in memory as
``(id, name, parent id, op id, start ns, end ns, exception name)`` and are
written out once, at the end of a run.  Nothing here is imported by an
untraced run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter
from time import perf_counter_ns

# Every per-layer metric: (name, unit, better).  BENCHMARK.json lists the same.
LADDER_CLASSES = (
    [f"ho_nd.n{n}" for n in range(1, 7)]
    + [f"ho_nd_axis.n{n}" for n in range(1, 4)]
    + [f"ho_1d.o{o}" for o in (4, 8, 16)]
    + [f"dirac.o{o}" for o in (4, 8, 16)]
)
SUITE_CLASSES = ["suite.registry", "suite.modelfile", "suite.shifted", "suite.kv"]
ORACLE_CLASSES = [f"oracle.{m}" for m in ("topo", "ho_1d", "schwinger_free", "dirac", "boson")]
CLI_CLASSES = [f"cli.{c}" for c in ("check", "check_principal", "run", "model", "kv_trace")]
OP_CLASSES = LADDER_CLASSES + SUITE_CLASSES + ORACLE_CLASSES + CLI_CLASSES

PER_LAYER = [
    ("laurent.expand_product_ms", "ms", "lower"),
    ("laurent.expand_product_calls", "count", "lower"),
    ("laurent.expand_factor_calls", "count", "lower"),
    ("laurent.series_monomials", "count", "lower"),
    ("params.mul_calls", "count", "lower"),
    ("params.mul_monomial_pairs", "count", "lower"),
    ("params.add_calls", "count", "lower"),
    ("params.log_bases", "count", "lower"),
    ("terms.ratio_limit_self_ms", "ms", "lower"),
    ("terms.value_at_zero_self_ms", "ms", "lower"),
    ("terms.thermal_limit_ms", "ms", "lower"),
    ("terms.render_ms", "ms", "lower"),
    ("terms.render_calls", "count", "lower"),
    ("terms.truncation_retries", "count", "lower"),
    ("terms.first_try_ratio", "ratio", "higher"),
    ("engine.build_trace_sums_self_ms", "ms", "lower"),
    ("engine.reduce_pieces_ms", "ms", "lower"),
    ("engine.effective_potential_self_ms", "ms", "lower"),
    ("engine.kv_trace_ms", "ms", "lower"),
    ("engine.terms_out", "count", "lower"),
    ("engine.factors_out", "count", "lower"),
    ("symbols.compose_observable_ms", "ms", "lower"),
    ("symbols.decompose_phase_ms", "ms", "lower"),
    ("symbols.involution_exp_ms", "ms", "lower"),
    ("tables.rows", "count", "lower"),
    ("tables.ms", "ms", "lower"),
    ("models.build_model_ms", "ms", "lower"),
    ("models.run_model_self_ms", "ms", "lower"),
    ("modelfile.parse_ms", "ms", "lower"),
    ("modelfile.to_spec_ms", "ms", "lower"),
    ("import.total_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("import.mpmath_ms", "ms", "lower"),
    ("import.zetatrace_self_ms", "ms", "lower"),
    ("cli.check_ms", "ms", "lower"),
    ("cli.run_ms", "ms", "lower"),
    ("cli.model_ms", "ms", "lower"),
    ("cli.kv_trace_ms", "ms", "lower"),
    ("oracle.model_quotient_ms", "ms", "lower"),
    ("oracle.damped_quadrature_ms", "ms", "lower"),
    ("oracle.damped_quadrature_calls", "count", "lower"),
    ("oracle.small_z_limit_ms", "ms", "lower"),
    ("oracle.nonconvergent", "count", "lower"),
    *[(f"op.{c}_ms", "ms", "lower") for c in OP_CLASSES],
    ("trace.overhead_ratio", "ratio", "lower"),
    ("src.lines", "count", "lower"),
    ("gate.known_defect_ratio", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# span name -> metric, and whether the metric is total or self time
SPAN_METRICS = {
    "laurent.expand_product_ms": ("laurent.expand_product", "total"),
    "terms.ratio_limit_self_ms": ("terms.ratio_limit", "self"),
    "terms.value_at_zero_self_ms": ("terms.value_at_zero", "self"),
    "terms.thermal_limit_ms": ("terms.thermal_limit", "total"),
    "terms.render_ms": ("terms.render", "total"),
    "engine.build_trace_sums_self_ms": ("engine.build_trace_sums", "self"),
    "engine.reduce_pieces_ms": ("engine.reduce_pieces", "total"),
    "engine.effective_potential_self_ms": ("engine.effective_potential", "self"),
    "engine.kv_trace_ms": ("engine.kv_trace_at_zero", "total"),
    "symbols.compose_observable_ms": ("symbols.compose_observable", "total"),
    "symbols.decompose_phase_ms": ("symbols.decompose_phase", "total"),
    "symbols.involution_exp_ms": ("symbols.involution_exp", "total"),
    "models.build_model_ms": ("models.build_model", "total"),
    "models.run_model_self_ms": ("models.run_model", "self"),
    "modelfile.parse_ms": ("modelfile.parse", "total"),
    "modelfile.to_spec_ms": ("modelfile.to_spec", "total"),
    "oracle.model_quotient_ms": ("oracle.model_quotient", "total"),
    "oracle.damped_quadrature_ms": ("oracle.damped_quadrature", "total"),
    "oracle.small_z_limit_ms": ("oracle.small_z_limit", "total"),
}
COUNT_METRICS = [
    "laurent.expand_product_calls", "laurent.expand_factor_calls", "laurent.series_monomials",
    "params.mul_calls", "params.mul_monomial_pairs", "params.add_calls",
    "terms.render_calls", "terms.truncation_retries", "engine.terms_out", "engine.factors_out",
    "tables.rows", "oracle.damped_quadrature_calls",
]


def _order_arg(args, kwargs, index: int, default: int = 4) -> int:
    return args[index] if len(args) > index else kwargs.get("order", default)


class Tracer:
    """Holds spans and per-thread counters; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------

    def counts(self) -> Counter:
        c = getattr(self._local, "counts", None)
        if c is None:
            c = self._local.counts = Counter()
            with self._lock:
                self._counters.append(c)
        return c

    def _stack(self, name: str) -> list:
        s = getattr(self._local, name, None)
        if s is None:
            s = []
            setattr(self._local, name, s)
        return s

    def total_counts(self) -> Counter:
        total = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    # -- wrappers -----------------------------------------------------------

    def spanned(self, name: str, fn, enter=None, leave=None):
        """Wrap ``fn`` in a span; ``enter(args, kwargs)`` and ``leave(counts, args, kwargs, result)``."""
        spans, ids, stack_of, tracer = self.spans, self._ids, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of("spans")
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if enter is not None:
                enter(args, kwargs)
            result, error = None, None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, parent, tracer.op, start, end, error))
                if leave is not None:
                    leave(tracer.counts(), args, kwargs, result)

        return wrapper

    def counted(self, fn, leave):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            leave(counts(), args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def timed(self, name: str, fn, *args):
        return self.spanned(name, fn)(*args)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every already-imported zetatrace module; importing none."""
        mods = sys.modules
        engine, terms, laurent = mods["zetatrace.engine"], mods["zetatrace.terms"], mods["zetatrace.laurent"]
        models, params = mods["zetatrace.models"], mods["zetatrace.params"]
        self.log_bases = lambda: len(params._LOG_BASES)

        def limit_enter(order_index):
            # requested truncation order, and the highest order used per regulator
            def enter(args, kwargs):
                self._stack("orders").append(_order_arg(args, kwargs, order_index))
                self._stack("elims").append({})
            return enter

        def limit_leave(c, args, kwargs, result):
            requested = self._stack("orders").pop()
            for k in self._stack("elims").pop().values():
                c["eliminations"] += 1
                c["first_try"] += k == requested

        def expand_leave(c, args, kwargs, result):
            c["laurent.expand_product_calls"] += 1
            c["laurent.series_monomials"] += sum(len(p.terms) for p in result.coeffs) if result else 0
            requested = self._stack("orders")
            if requested and _order_arg(args, kwargs, 1) > requested[-1]:
                c["terms.truncation_retries"] += 1

        def sum_leave(c, args, kwargs, result):
            elim = self._stack("elims")
            if elim:
                reg, k = args[1], _order_arg(args, kwargs, 2)
                elim[-1][reg] = max(elim[-1].get(reg, 0), k)

        def reduce_leave(c, args, kwargs, result):
            if result is not None:
                c["engine.terms_out"] += len(result.terms)
                c["engine.factors_out"] += sum(len(t.coeff.factors) for t in result.terms)

        def mul_leave(c, args, kwargs, result):
            c["params.mul_calls"] += 1
            other = args[1]
            if isinstance(other, params.ParamPoly):
                c["params.mul_monomial_pairs"] += len(args[0].terms) * len(other.terms)

        def bump(key):
            def leave(c, args, kwargs, result):
                c[key] += 1
            return leave

        span = self.spanned
        self.patch(terms, "expand_product", span("laurent.expand_product", terms.expand_product, leave=expand_leave))
        self.patch(laurent, "expand_factor", self.counted(laurent.expand_factor, bump("laurent.expand_factor_calls")))
        self.patch(terms, "_expand_sum_in", self.counted(terms._expand_sum_in, sum_leave))
        poly = params.ParamPoly
        self.patch(poly, "__mul__", self.counted(poly.__mul__, mul_leave))
        self.patch(poly, "__rmul__", self.counted(poly.__rmul__, mul_leave))
        self.patch(poly, "__add__", self.counted(poly.__add__, bump("params.add_calls")))
        self.patch(terms.ZetaTermSum, "render", span("terms.render", terms.ZetaTermSum.render, leave=bump("terms.render_calls")))
        self.patch(engine, "ratio_limit", span("terms.ratio_limit", engine.ratio_limit, limit_enter(2), limit_leave))
        self.patch(engine, "value_at_zero", span("terms.value_at_zero", engine.value_at_zero, limit_enter(1), limit_leave))
        self.patch(engine, "thermal_limit", span("terms.thermal_limit", engine.thermal_limit))
        self.patch(engine, "build_trace_sums", span("engine.build_trace_sums", engine.build_trace_sums))
        self.patch(engine, "reduce_pieces", span("engine.reduce_pieces", engine.reduce_pieces, leave=reduce_leave))
        self.patch(models, "effective_potential", span("engine.effective_potential", models.effective_potential))
        self.patch(engine, "kv_trace_at_zero", span("engine.kv_trace_at_zero", engine.kv_trace_at_zero))
        self.patch(engine, "compose_observable", span("symbols.compose_observable", engine.compose_observable))
        self.patch(engine, "decompose_phase", span("symbols.decompose_phase", engine.decompose_phase))
        self.patch(engine, "involution_exp", span("symbols.involution_exp", engine.involution_exp))
        for row in ("gauss_radial", "osc_linear"):
            self.patch(engine, row, span("tables.row", getattr(engine, row), leave=bump("tables.rows")))
        self.patch(engine, "angular_moment", span("tables.angular_moment", engine.angular_moment))
        for name, entry in list(models.REGISTRY.items()):
            wrapped = span("models.build_model", entry.builder)
            self._restore.append((models.REGISTRY, name, entry))
            models.REGISTRY[name] = type(entry)(wrapped, entry.description, entry.expected_summary)
        self.patch(models, "run_model", span("models.run_model", models.run_model))
        modelfile = mods.get("zetatrace.modelfile")
        if modelfile is not None:
            self.patch(modelfile, "parse_model_text", span("modelfile.parse", modelfile.parse_model_text))
            self.patch(modelfile, "to_model_spec", span("modelfile.to_spec", modelfile.to_model_spec))
        cli = mods.get("zetatrace.cli")
        if cli is not None:
            self.patch(cli, "run_model", models.run_model)
            self.patch(cli, "kv_trace_at_zero", engine.kv_trace_at_zero)
        oracle = mods.get("zetatrace.oracle")
        if oracle is not None:
            self.patch(oracle, "model_quotient", span("oracle.model_quotient", oracle.model_quotient))
            self.patch(oracle, "damped_quadrature",
                       span("oracle.damped_quadrature", oracle.damped_quadrature,
                            leave=bump("oracle.damped_quadrature_calls")))
            self.patch(oracle, "small_z_limit", span("oracle.small_z_limit", oracle.small_z_limit))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        data = {"spans": self.spans, "counts": dict(self.total_counts()), "log_bases": self.log_bases()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def span_totals(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: total ns, self ns (minus direct children) and NonConvergent count."""
    child_ns = Counter()
    for _sid, _name, parent, _op, start, end, _err in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total, self_ns, nonconv = Counter(), Counter(), Counter()
    for sid, name, _parent, _op, start, end, err in spans:
        total[name] += end - start
        self_ns[name] += end - start - child_ns[sid]
        if err == "NonConvergent":
            nonconv[name] += 1
    return total, self_ns, nonconv


def layer_metrics(spans, counts: Counter, ops: int) -> dict[str, float]:
    """Per-op averages of span times and counts over ``ops`` traced ops."""
    total, self_ns, nonconv = span_totals(spans)
    out = {}
    for metric, (span_name, kind) in SPAN_METRICS.items():
        ns = total[span_name] if kind == "total" else self_ns[span_name]
        out[metric] = ns / 1e6 / ops
    out["tables.ms"] = (total["tables.row"] + total["tables.angular_moment"]) / 1e6 / ops
    for key in COUNT_METRICS:
        out[key] = counts[key] / ops
    out["oracle.nonconvergent"] = sum(nonconv.values()) / ops
    elims = counts["eliminations"]
    out["terms.first_try_ratio"] = counts["first_try"] / elims if elims else 0.0
    return out
