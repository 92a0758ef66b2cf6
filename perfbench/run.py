"""Run one zetatrace benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a zetatrace checkout; the program is imported from
``src/``.  One client runs ops in a closed loop: the next op starts when the
last one has returned and been checked.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs half the time untraced, then installs
the tracer for whole cycles of passes and prints the per-layer metrics.

Times are rescaled to a fixed machine speed: a reference from
``calibrate.py`` is timed before and after every op, and the op's time is
multiplied by the reference's nominal time over the mean of those two
reference times.  The reference is a loop in this process, or for
``cold_cli`` a child process.  The printed lines also give the unscaled
figures.  Every line but the last is for people; the last is one JSON
object.  Each result is also appended, with the host's facts, to
``perfbench/out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 2  # extra fresh-process set-ups; setup_s is the median with this run's own


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return front * h


def quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate: every order statistic weighted by a Beta((n+1)q, (n+1)(1-q)) share.

    It varies less between runs than one or two order statistics do.
    """
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum(v * (cdf[i + 1] - cdf[i]) for i, v in enumerate(sorted_values))


def host_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = "missing"
    facts["fingerprint"] = hashlib.sha256(json.dumps(facts, sort_keys=True).encode()).hexdigest()[:12]
    return facts


def run_loop(wl, seconds: float, tracer=None, whole_cycles: bool = False):
    """Whole passes until ``seconds`` have gone by; returns (outcome, scale) pairs."""
    from workloads import execute

    rows, passes = [], 0
    before = wl.reference()
    start = time.perf_counter()
    while True:
        for op in wl.passes[passes % wl.cycle]:
            if tracer is not None:
                tracer.op = len(rows)
            outcome = execute(op)
            after = wl.reference()
            rows.append((outcome, calibrate.scale([before, after], wl.nominal_ms)))
            before = after
        passes += 1
        if time.perf_counter() - start >= seconds and (not whole_cycles or passes % wl.cycle == 0):
            return rows


def set_up(name: str, seed: int):
    """Import, input generation and one untimed warm-up pass.

    Returns the workload, the warm-up outcomes and the rescaled set-up seconds.
    """
    from workloads import WORKLOADS, execute

    cls = WORKLOADS[name]
    reference = [cls.reference() for _ in range(3)]
    start = time.perf_counter()
    wl = cls(seed)
    warm = [execute(op) for op in wl.warmup]
    seconds = time.perf_counter() - start
    reference += [cls.reference() for _ in range(3)]
    return wl, warm, seconds * calibrate.scale(reference, cls.nominal_ms)


def probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_times() -> dict[str, float]:
    """import.* metrics from ``python -X importtime -c 'import zetatrace'``, median of 3, unscaled."""
    from workloads import child_env

    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zetatrace"],
                              capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=120)
        scale = 1e-3  # us -> ms
        cum, own = {}, 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if not m:
                continue
            name = m.group(3)
            cum[name] = int(m.group(2))
            if name == "zetatrace" or name.startswith("zetatrace."):
                own += int(m.group(1))
        samples.append({
            "import.total_ms": cum.get("zetatrace", 0) * scale,
            "import.numpy_ms": cum.get("numpy", 0) * scale,
            "import.mpmath_ms": cum.get("mpmath", 0) * scale,
            "import.zetatrace_self_ms": own * scale,
        })
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def end_to_end(rows, setup_samples, rss_kb) -> dict[str, tuple[float, str]]:
    ms = sorted(o.ms * scale for o, scale in rows)
    passed = sum(o.status == "pass" for o, _ in rows)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_ms_p50": (quantile(ms, 0.5), "ms"),
        "op_ms_p90": (quantile(ms, 0.9), "ms"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "pass_ratio": (passed / len(ms), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(wl, untraced, traced, tracer) -> dict[str, tuple[float, str]]:
    """Per-op averages over the traced passes; times rescaled by their median scale."""
    import tracer as tracing

    scale = statistics.median(s for _, s in traced)
    cli_ms: dict[str, list[float]] = {}
    if wl.name == "cold_cli":
        spans, counts, log_bases = [], tracing.Counter(), 0
        for (o, op_scale), path in zip(traced, wl.trace_spans):
            data = json.loads(Path(path).read_text())
            base = len(spans)  # span ids restart in each process; keep them unique
            rows = [(sid + base, name, parent + base if parent >= 0 else -1, *rest)
                    for sid, name, parent, *rest in data["spans"]]
            spans += rows
            counts.update(data["counts"])
            log_bases = max(log_bases, data["log_bases"])
            kind = "cli.check" if o.group.startswith("cli.check") else o.group
            cli_ms.setdefault(kind, []).extend(
                (s[5] - s[4]) / 1e6 * op_scale for s in rows if s[1] == "cli.main")
    else:
        spans, counts, log_bases = tracer.spans, tracer.total_counts(), tracer.log_bases()
    values = tracing.layer_metrics(spans, counts, len(traced))
    for name in values:
        if tracing.UNITS[name] == "ms":
            values[name] *= scale
    values["params.log_bases"] = log_bases
    values.update(import_times())
    for kind in ("check", "run", "model", "kv_trace"):
        samples = cli_ms.get(f"cli.{kind}")
        values[f"cli.{kind}_ms"] = statistics.median(samples) if samples else 0.0
    by_group: dict[str, list[float]] = {}
    for o, s in untraced:
        by_group.setdefault(o.group, []).append(o.ms * s)
    for group in tracing.OP_CLASSES:
        values[f"op.{group}_ms"] = statistics.median(by_group[group]) if group in by_group else 0.0
    mean = lambda rows: sum(o.ms * s for o, s in rows) / len(rows)
    values["trace.overhead_ratio"] = mean(traced) / mean(untraced)
    values["src.lines"] = sum(len(p.read_text().splitlines()) for p in (SRC / "zetatrace").glob("*.py"))
    everything = untraced + traced
    values["gate.known_defect_ratio"] = sum(o.status == "known_defect" for o, _ in everything) / len(everything)
    with open(HERE / "out" / f"trace-{wl.name}-{wl.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "counts": dict(counts)}, fh)
    return {name: (values[name], tracing.UNITS[name]) for name, _unit, _better in tracing.PER_LAYER}


def report(args, facts, rows, warm, metrics, nominal_ms) -> int:
    outcomes = [o for o, _ in rows]
    failures = [o for o in warm + outcomes if o.status == "fail"]
    known = {}
    for o in warm + outcomes:
        if o.status == "known_defect":
            known.setdefault(o.label, o.reason)
    for o in failures[:20]:
        print(f"FAIL {o.label}: {o.reason}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures", file=sys.stderr)
    for label, reason in known.items():
        print(f"known defect (counted against pass_ratio): {label}: {reason}", file=sys.stderr)
    n = len(outcomes)
    raw = sorted(o.ms for o in outcomes)
    scales = sorted(s for _, s in rows)
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} ops, "
          f"{len(failures)} failed, {sum(o.status == 'known_defect' for o in outcomes)} known defect")
    print(f"  times rescaled to a {nominal_ms} ms reference; scale factor median "
          f"{quantile(scales, 0.5):.3f} (range {scales[0]:.3f}..{scales[-1]:.3f}); unscaled op ms "
          f"p50 {quantile(raw, 0.5):.6g}, p90 {quantile(raw, 0.9):.6g}")
    for name, (value, unit) in metrics.items():
        note = f"  (n={n}, {n - math.ceil(0.9 * n)} beyond p90)" if name.startswith("op_ms_") else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    log = HERE / "out" / "results.jsonl"
    if log.exists():
        other = set()
        for line in log.read_text().splitlines():
            try:
                other.add(json.loads(line)["host"]["fingerprint"])
            except (ValueError, KeyError, TypeError):
                pass  # a line cut short by an interrupted run
        other.discard(facts["fingerprint"])
        if other:
            print(f"note: results.jsonl also holds results from other hosts ({', '.join(sorted(other))}); "
                  "they are not comparable with these")
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"time": time.time(), "workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, "host": facts,
                             "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "ladder", "cold_cli", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "zetatrace" / "__init__.py").is_file():
        print(f"error: {SRC / 'zetatrace'} not found; run from the root of a zetatrace checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (HERE / "out").mkdir(exist_ok=True)

    wl, warm, setup_s = set_up(args.workload, args.seed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace == 0:
            rows = run_loop(wl, args.seconds)
            samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(PROBES)]
            rss_kb = wl.max_rss_kb if wl.name == "cold_cli" else \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(rows, samples, rss_kb)
        else:
            import tracer as tracing

            untraced = run_loop(wl, args.seconds / 2)
            tracer = tracing.Tracer()
            if wl.name == "cold_cli":
                wl.trace_spans = []
            else:
                tracer.install()
            try:
                traced = run_loop(wl, args.seconds / 2, tracer, whole_cycles=True)
            finally:
                tracer.uninstall()
            rows = untraced + traced
            metrics = per_layer(wl, untraced, traced, tracer)
    finally:
        wl.close()
    return report(args, host_facts(), rows, warm, metrics, wl.nominal_ms)


if __name__ == "__main__":
    sys.exit(main())
