"""Median and quartile spread of each metric over recorded runs.

    python3 perfbench/summarize.py [--trace 0|1] [RESULTS_JSONL]

Reads ``perfbench/out/results.jsonl`` (each run of ``run.py`` appends one
record) and prints, per host and workload, each metric's median, first and
third quartile (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median.  Results from different hosts are reported
separately and flagged as not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="?", default=str(Path(__file__).with_name("out") / "results.jsonl"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    groups: dict[tuple[str, str], list[dict]] = {}
    for line in Path(args.results).read_text().splitlines():
        rec = json.loads(line)
        if rec["trace"] == args.trace:
            groups.setdefault((rec["host"]["fingerprint"], rec["workload"]), []).append(rec)
    hosts = {h for h, _ in groups}
    if len(hosts) > 1:
        print(f"NOT COMPARABLE: results come from {len(hosts)} hosts; each is summarized on its own")
    for (host, workload), recs in sorted(groups.items()):
        facts = recs[0]["host"]
        print(f"\n{workload}  ({len(recs)} runs, seeds {sorted({r['seed'] for r in recs})})"
              f"  host {host}: nproc={facts['nproc']} cpu={facts['cpu']}")
        bad = sum(not r["result"]["correct"] for r in recs)
        if bad:
            print(f"  {bad} runs were not correct")
        for name, first in recs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34} median {med:12.6g} {first['unit']:6} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
