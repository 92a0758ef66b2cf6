"""Every coefficient of every value and finite-T asymptote, to the last bit.

The CLI goldens print coefficients to 12 digits, so they cannot see a change
in the last bit of a float.  This check records ``repr`` of every coefficient
of each closed-form value and finite-``T`` asymptote (and, for a potential
model, of the potential, its critical points, minima, masses and residual)
in ``tests/golden/exact_values.txt``.  It covers the registry models on both
branches and the complexity ladders on both branches: ``harmonic_oscillator_nd``
n = 1..12 grouped and n = 1..3 per axis, and ``harmonic_oscillator_1d`` and
``dirac_fermion`` n = 3 at series orders 4, 8 and 16.  It also covers model
files on both branches (``golden/oscillator_mixed_t.zt`` and the files in
``MODEL_FILES``, whose coefficients are not dyadic, so that their floats
round), one trace-at-zero amplitude (``KV_SPEC``) and one hand-built sum
whose per-term poles cancel in both regulators (``POLE_SUM``), so that its
lead orders show only past the terms' own leads.

A change meant to keep results bit for bit must leave the file as it is.  To
re-record after an intended change of values::

    PYTHONPATH=src python tests/test_exact_values.py
"""

from fractions import Fraction
from pathlib import Path

import pytest

from zetatrace import rational
from zetatrace.engine import KVAmplitudeSpec, kv_trace_at_zero
from zetatrace.laurent import MeroFactorProduct, PrimitiveFactor
from zetatrace.modelfile import parse_model_text, to_model_spec
from zetatrace.models import REGISTRY, RegistryEntry, run_model
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL
from zetatrace.terms import ZetaTerm, ZetaTermSum, value_at_zero

GOLDEN = Path(__file__).parent / "golden"
RECORD = GOLDEN / "exact_values.txt"
POLICIES = {"paper": PAPER, "principal": PRINCIPAL}

#: model file name -> text; coefficients such as 3/7 are not exact in binary
MODEL_FILES = {
    "rotor_3_7": """\
[params]
J = positive
[axes]
xi = momentum
[phase]
3/7*xi^2/J
[observable]
(T*xi/(2*pi*J))^2/(-i*T)
""",
    "oscillator_1_axis": """\
[params]
m = positive
w = positive
[axes]
xi1 = momentum
x1 = position
[phase]
3/7*xi1^2/m + 2/9*m*w^2*x1^2 + 5/7*w
[observable]
3/7*xi1^2/m + 2/9*m*w^2*x1^2 + 5/7*w + i*T*x1^2
""",
    "oscillator_2_axes_grouped": """\
[params]
m = positive
w = positive
[axes]
xi1 = momentum, gp
x1 = position, gx
xi2 = momentum, gp
x2 = position, gx
[phase]
2/9*xi1^2/m + 5/7*m*w^2*x1^2 + 2/9*xi2^2/m + 5/7*m*w^2*x2^2 + 3/7*w
[observable]
2/9*xi1^2/m + 5/7*m*w^2*x1^2 + 2/9*xi2^2/m + 5/7*m*w^2*x2^2 + 3/7*w + i*T*x1^2
""",
    "oscillator_3_axes": """\
[params]
m = positive
w = positive
[axes]
xi1 = momentum
x1 = position
xi2 = momentum
x2 = position
xi3 = momentum
x3 = position
[phase]
3/7*xi1^2/m + 5/7*m*w^2*x1^2 + 2/9*xi2^2/m + 3/7*m*w^2*x2^2 + 5/7*xi3^2/m + 2/9*m*w^2*x3^2 + 2/9*w
[observable]
3/7*xi1^2/m + 5/7*m*w^2*x1^2 + 2/9*xi2^2/m + 3/7*m*w^2*x2^2 + 5/7*xi3^2/m + 2/9*m*w^2*x3^2 + 2/9*w + i*T*x1^2
""",
    "oscillator_mixed_t": (GOLDEN / "oscillator_mixed_t.zt").read_text(encoding="utf-8"),
}

#: a trace-at-zero amplitude with non-dyadic volume, degrees and angular parts
KV_SPEC = KVAmplitudeSpec(
    dimension=3,
    terms=(
        (Fraction(-1, 2), 0, ParamPoly.number(2 / 9)),
        (Fraction(1, 3), 2, ParamPoly.number(5 / 7)),
        (Fraction(-5), 1, ParamPoly.number(3 / 7)),
    ),
    vol_x=ParamPoly.number(3 / 7),
)
KV_CASE = "kv|dimension=3"


def _pole_pair(z: str, c: float, base: ParamPoly, slope: Fraction, t_a: Fraction, t_b: Fraction) -> ZetaTermSum:
    """c Gamma(z) base^(slope z) T^(t_a z) - c Gamma(z) T^(t_b z): the 1/z poles cancel."""
    regs = ("z1", "z2")
    gamma = PrimitiveFactor.gamma(1, 0, z)
    power = PrimitiveFactor.const_pow(base, slope, 0, z)
    return ZetaTermSum([
        ZetaTerm(MeroFactorProduct(ParamPoly.number(c), (gamma, power)), t_lin=((z, rational.of(t_a)),)),
        ZetaTerm(MeroFactorProduct(ParamPoly.number(-c), (gamma,)), t_lin=((z, rational.of(t_b)),)),
    ], regs)


#: a two-regulator sum whose terms all have poles, cancelling in each regulator
POLE_SUM = _pole_pair(
    "z1", 3 / 7, ParamPoly.monomial(2 / 9, {"J": Fraction(1)}), Fraction(1, 3), Fraction(-1, 2), Fraction(1, 3)
) * _pole_pair(
    "z2", 2 / 9, ParamPoly.monomial(5 / 7, {"m": Fraction(1, 2)}), Fraction(-2, 3), Fraction(2, 5), Fraction(-1, 7)
)
POLE_SUM_CASE = "sum:poles_cancel|4"


def _cases() -> dict[str, tuple[str, dict, str, int]]:
    """Case name -> (model, overrides, branch, series order)."""
    cases = {f"{m}|{b}|4": (m, {}, b, 4) for m in REGISTRY for b in POLICIES}
    for b in POLICIES:
        for n in range(1, 13):
            cases[f"harmonic_oscillator_nd|n={n}|{b}|4"] = ("harmonic_oscillator_nd", {"n": n}, b, 4)
        for n in range(1, 4):
            cases[f"harmonic_oscillator_nd|n={n},per_axis|{b}|4"] = (
                "harmonic_oscillator_nd", {"n": n, "per_axis": True}, b, 4,
            )
        for order in (4, 8, 16):
            cases[f"harmonic_oscillator_1d|{b}|{order}"] = ("harmonic_oscillator_1d", {}, b, order)
            cases[f"dirac_fermion|n=3|{b}|{order}"] = ("dirac_fermion", {"n": 3}, b, order)
    for name in MODEL_FILES:
        for b in POLICIES:
            cases[f"file:{name}|{b}|4"] = (f"file:{name}", {}, b, 4)
    cases[KV_CASE] = ("kv", {}, "", 0)
    cases[POLE_SUM_CASE] = ("sum", {}, "", 4)
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


def _run(model: str, overrides: dict, branch: str, order: int):
    if not model.startswith("file:"):
        return run_model(model, POLICIES[branch], order, **overrides)
    name = model[len("file:"):]
    spec = to_model_spec(parse_model_text(MODEL_FILES[name], name))
    registry = {name: RegistryEntry(lambda: spec, spec.description, "custom")}
    return run_model(name, POLICIES[branch], order, registry)


def _exact_lines(case: str) -> list[str]:
    if case == KV_CASE:
        return _poly_lines("trace(0)", kv_trace_at_zero(KV_SPEC))
    if case == POLE_SUM_CASE:
        return _asymptote_lines("value_at_zero", value_at_zero(POLE_SUM, CASES[case][3]))
    run = _run(*CASES[case])
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
