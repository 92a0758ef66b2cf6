"""Every coefficient of every value and finite-T asymptote, to the last bit.

The CLI goldens print coefficients to 12 digits, so they cannot see a change
in the last bit of a float.  This check records ``repr`` of every coefficient
of each closed-form value and finite-``T`` asymptote (and, for a potential
model, of the potential, its critical points, minima, masses and residual)
in ``tests/golden/exact_values.txt``.  It covers the registry models on both
branches and the complexity ladders: ``harmonic_oscillator_nd`` n = 1..6
grouped and n = 1..3 per axis, and ``harmonic_oscillator_1d`` and
``dirac_fermion`` n = 3 at series orders 4, 8 and 16.

A change meant to keep results bit for bit must leave the file as it is.  To
re-record after an intended change of values::

    PYTHONPATH=src python tests/test_exact_values.py
"""

from pathlib import Path

import pytest

from zetatrace.models import REGISTRY, run_model
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL

RECORD = Path(__file__).parent / "golden" / "exact_values.txt"
POLICIES = {"paper": PAPER, "principal": PRINCIPAL}


def _cases() -> dict[str, tuple[str, dict, str, int]]:
    """Case name -> (model, overrides, branch, series order)."""
    cases = {f"{m}|{b}|4": (m, {}, b, 4) for m in REGISTRY for b in POLICIES}
    for n in range(1, 7):
        cases[f"harmonic_oscillator_nd|n={n}|paper|4"] = ("harmonic_oscillator_nd", {"n": n}, "paper", 4)
    for n in range(1, 4):
        cases[f"harmonic_oscillator_nd|n={n},per_axis|paper|4"] = (
            "harmonic_oscillator_nd", {"n": n, "per_axis": True}, "paper", 4,
        )
    for order in (4, 8, 16):
        cases[f"harmonic_oscillator_1d|paper|{order}"] = ("harmonic_oscillator_1d", {}, "paper", order)
        cases[f"dirac_fermion|n=3|paper|{order}"] = ("dirac_fermion", {"n": 3}, "paper", order)
    return cases


CASES = _cases()


def _poly_lines(label: str, poly: ParamPoly) -> list[str]:
    if not poly.terms:
        return [f"{label} 0"]
    return [
        f"{label} [{'*'.join(f'{n}^{e}' for n, e in key)}] {c!r}"
        for key, c in sorted(poly.terms.items())
    ]


def _asymptote_lines(label: str, asym) -> list[str]:
    lines = []
    for i, t in enumerate(asym.terms):
        head = f"{label} #{i} T^{t.t_power} ln^{t.log_power}"
        lines += _poly_lines(f"{head} phase", t.phase) + _poly_lines(f"{head} coeff", t.coeff)
    return lines or [f"{label} none"]


def _exact_lines(case: str) -> list[str]:
    model, overrides, branch, order = CASES[case]
    run = run_model(model, POLICIES[branch], order, **overrides)
    lines = []
    for obs, res in sorted(run.results.items()):
        if isinstance(res.value, ParamPoly):
            lines += _poly_lines(f"{obs} value", res.value)
        else:
            lines.append(f"{obs} value {res.value!r}")
        if res.finite_t is not None:
            lines += _asymptote_lines(f"{obs} finite_t", res.finite_t)
    pot = run.potential
    if pot is not None:
        lines += _poly_lines("potential", pot.potential)
        for name in ("critical_points", "minima", "masses"):
            for i, poly in enumerate(getattr(pot, name)):
                lines += _poly_lines(f"{name} #{i}", poly)
        lines += _asymptote_lines("residual", pot.residual)
    return lines


def _recorded() -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in RECORD.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            lines = out[line[3:]] = []
        else:
            lines.append(line)
    return out


@pytest.fixture(scope="module")
def recorded():
    return _recorded()


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_values_match_the_record_bit_for_bit(case, recorded):
    assert _exact_lines(case) == recorded[case]


if __name__ == "__main__":
    RECORD.write_text(
        "".join(f"## {case}\n" + "".join(f"{line}\n" for line in _exact_lines(case)) for case in CASES),
        encoding="utf-8",
    )
