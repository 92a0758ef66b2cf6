"""Record the finite-T references of every registry op, once per branch.

    python3 perfbench/record.py

Runs each registry model the workloads use on both branches and writes
its finite-T asymptote (the potential's residual for phi4) to
``references.json``.  Before writing, each closed form must equal the
hand-written one in ``reference.py``, and on the principal branch every
asymptote must agree with the quadrature oracle (``oracle.small_z_ratio``)
at two seeded (bindings, T) points within 1e-4 relative.  The oracle has no
effective-potential path, so phi4 is recorded without that cross-check.
Re-record only when a change is meant to alter a finite-T asymptote.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from workloads import LADDER_OPS, SUITE_MODELS  # noqa: E402


def main() -> int:
    from zetatrace import models, oracle
    from zetatrace.tables import PAPER, PRINCIPAL

    cases = {(m, tuple(sorted(o.items()))) for m, o in SUITE_MODELS}
    cases |= {(m, tuple(sorted(o.items()))) for _c, m, o, _order in LADDER_OPS}
    recorded, problems = {}, []
    rng = random.Random("record")
    for model, items in sorted(cases, key=repr):
        overrides = dict(items)
        for branch, policy in (("paper", PAPER), ("principal", PRINCIPAL)):
            key = ref.reference_key(model, overrides, branch)
            run = models.run_model(model, policy, **overrides)
            closed = ref.registry_closed_form(model, overrides)
            if run.potential is not None:
                asym_obj = run.potential.residual
                got = {"minimum": run.potential.minima[0], "mass": run.potential.masses[0]}
            else:
                (finite_obs,) = [o for o, r in run.results.items() if r.finite_t is not None]
                asym_obj = run.results[finite_obs].finite_t
                got = {o: run.results[o].value for o in closed}
            for obs, want in closed.items():
                why = ref.compare_forms(ref.poly_form(got[obs]), want)
                if why:
                    problems.append(f"{key} {obs}: {why}")
            recorded[key] = ref.asymptote_to_json(asym_obj)
            asym = ref.Asymptote.from_json(recorded[key])
            if branch != "principal" or run.potential is not None:
                continue
            spec = models.build_model(model, **overrides)
            for _ in range(2):
                bindings = {p.name: rng.uniform(0.7, 1.4) for p in spec.params}
                t_value = rng.choice((5.0, 10.0, 20.0))
                numeric = oracle.small_z_ratio(spec, finite_obs, (-0.2, -0.1, -0.05), t_value, bindings)
                want = asym.eval(bindings, t_value)
                if abs(numeric - want) > ref.ORACLE_REL * abs(want):
                    problems.append(f"{key}: oracle {numeric} != {want} at T={t_value}")
            print(f"recorded {key}: cross-checked against the oracle", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    ref.REFERENCES_FILE.write_text(json.dumps({"finite_t": recorded}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} references to {ref.REFERENCES_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
