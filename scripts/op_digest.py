#!/usr/bin/env python3
"""One sha256 over every result of the benchmark's in-process ops.

    python3 scripts/op_digest.py [--workloads suite ladder oracle] [--seeds 1 7]

Builds each workload of ``perfbench/workloads.py`` at each seed, runs every
op of every pass once, in pass order, and hashes one line per op: its label
and the canonical text of what it returned or raised.  That text holds the
``repr`` of every float (each coefficient of each monomial, in key order),
every finite-``T`` asymptote, every trace line and every error text, so two
checkouts that print the same digest compute the same bits.  The program
is imported from the ``src/`` next to this script; ``perfbench/`` is only
read.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # perfbench/ is read, never written

from workloads import WORKLOADS  # noqa: E402

from zetatrace.params import ParamPoly  # noqa: E402
from zetatrace.terms import Divergent, TAsymptote  # noqa: E402


def canonical(obj) -> str:
    """The exact text of an op's result: floats by ``repr``, structure spelled out."""
    if isinstance(obj, ParamPoly):
        return "{" + ", ".join(f"{k!r}: {c!r}" for k, c in sorted(obj.terms.items())) + "}"
    if isinstance(obj, TAsymptote):
        return "asym[" + "; ".join(
            f"{canonical(t.coeff)} T^{t.t_power!r} ln^{t.log_power} e^{canonical(t.phase)}"
            for t in obj.terms
        ) + "]"
    if isinstance(obj, Divergent):
        return f"divergent({obj.reason})"
    if isinstance(obj, (list, tuple)):
        return "(" + ", ".join(map(canonical, obj)) + ")"
    if hasattr(obj, "results"):  # a models.ModelRun
        parts = [f"{name}: {canonical(r.value)} | {canonical(r.finite_t)} | {canonical(r.trace)}"
                 for name, r in obj.results.items()]
        pot = obj.potential
        if pot is not None:
            parts.append(canonical([pot.potential, pot.critical_points, pot.minima, pot.masses,
                                    pot.residual, pot.trace]))
        return "run[" + "; ".join(parts) + "]"
    if obj is None or isinstance(obj, (str, int, float, complex)):
        return repr(obj)
    raise TypeError(f"no canonical text for {type(obj).__name__}")


def op_lines(name: str, seed: int):
    for k, ops in enumerate(WORKLOADS[name](seed).passes):
        for op in ops:
            try:
                text = canonical(op.call())
            except Exception as exc:  # an op that raises is hashed by its error
                text = f"raised {type(exc).__name__}: {exc}"
            yield f"{name} {seed} {k} {op.label} {text}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["suite", "ladder", "oracle"],
                        choices=["suite", "ladder", "oracle"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 7])
    args = parser.parse_args(argv)
    digest, ops = hashlib.sha256(), 0
    for seed in args.seeds:
        for name in args.workloads:
            for line in op_lines(name, seed):
                digest.update(line.encode() + b"\n")
                ops += 1
    print(f"{digest.hexdigest()}  {ops} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
