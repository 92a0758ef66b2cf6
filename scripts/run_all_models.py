#!/usr/bin/env python3
"""Evaluate every bundled model under both continuation branches.

Prints the closed-form expectation, the finite-T expression it came from,
and the numeric value at the default parameter bindings.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zetatrace.models import REGISTRY, run_model
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL


def main():
    for name in REGISTRY:
        print(f"== {name}")
        for policy in (PAPER, PRINCIPAL):
            run = run_model(name, policy)
            tag = f"[{policy:9}]"
            if run.potential is not None:
                minima = ", ".join(p.render() for p in run.potential.minima)
                masses = ", ".join(m.render() for m in run.potential.masses)
                print(f"  {tag} minima: {minima}; masses: {masses}")
                continue
            for obs, res in run.results.items():
                if isinstance(res.value, ParamPoly):
                    numeric = res.value.eval(run.model.default_bindings())
                    finite = res.finite_t.render() if res.finite_t else "-"
                    print(f"  {tag} <{obs}> = {res.value.render()}   "
                          f"(= {numeric.real:.6g}; finite-T: {finite})")
                else:
                    print(f"  {tag} <{obs}> diverges: {res.value.reason}")
        print()


if __name__ == "__main__":
    main()
