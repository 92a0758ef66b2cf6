"""References every benchmark op is gated against, and the comparisons.

Closed forms are written out here by hand (registry models) or derived by
formula from the drawn coefficients (generated model files and kv
amplitudes).  Finite-T asymptotes of the registry models come from
``references.json``, recorded once per branch by ``record.py``.

A closed form is a dict ``{exponent key: complex coefficient}`` with the same
exponent keys the engine uses: a sorted tuple of ``(name, Fraction)``.  Two
closed forms agree when their exponent keys are identical and every
coefficient is within ``COEFF_REL`` relative.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from fractions import Fraction
from pathlib import Path

COEFF_REL = 1e-12  # closed-form coefficients, in-process
PRINTED_REL = 1e-11  # closed-form coefficients parsed from 12-digit CLI output
FINITE_T_REL = 1e-9  # finite-T asymptote at the seeded (bindings, T) points
ORACLE_REL = 1e-4  # quadrature oracle vs engine, as in tests/test_oracle.py

REFERENCES_FILE = Path(__file__).with_name("references.json")


def mono(coeff, **exps) -> dict:
    """One-monomial closed form; ``lam`` stands for the parameter ``lambda``."""
    key = tuple(sorted(("lambda" if k == "lam" else k, Fraction(v)) for k, v in exps.items()))
    return {key: complex(coeff)}


def add(*forms: dict) -> dict:
    out: dict = {}
    for form in forms:
        for key, c in form.items():
            out[key] = out.get(key, 0j) + c
    return {k: c for k, c in out.items() if c != 0}


def eval_form(form: dict, bindings) -> complex:
    total = 0j
    for key, c in form.items():
        v = c
        for name, e in key:
            v *= (math.pi if name == "pi" else bindings[name]) ** float(e)
        total += v
    return total


def render_form(form: dict) -> str:
    if not form:
        return "0"
    parts = []
    for key, c in sorted(form.items()):
        names = "*".join(f"{n}^{e}" for n, e in key)
        parts.append(f"{c:.12g}" + (f"*{names}" if names else ""))
    return " + ".join(parts)


def compare_forms(got: dict, want: dict, rel: float = COEFF_REL, scale: dict | None = None) -> str | None:
    """None when equal; otherwise why they differ.

    ``scale`` gives, per monomial, the sum of the magnitudes that were added
    up into it; when they cancel, float rounding leaves a residue of order
    ``rel * scale`` in either form, which counts as zero.
    """
    scale = scale or {}
    for key in set(got) | set(want):
        g, w = got.get(key, 0j), want.get(key, 0j)
        bound = rel * max(abs(w), abs(scale.get(key, 0)))
        if abs(g - w) > bound:
            why = "exponents differ" if (key in got) != (key in want) else "coefficient differs"
            return f"{why}: got {render_form(got)}, want {render_form(want)}"
    return None


def poly_form(poly) -> dict:
    """Closed form of an engine ParamPoly (read through its public ``terms``)."""
    return {tuple(key): complex(c) for key, c in poly.terms.items() if c != 0}


# ---------------------------------------------------------------------------
# Hand-written closed forms of the registry models
# ---------------------------------------------------------------------------


def registry_closed_form(model: str, overrides: dict) -> dict[str, dict]:
    """Observable -> closed form, as published for each bundled model."""
    n = overrides.get("n")
    if model == "harmonic_oscillator_1d":
        return {"H": mono(Fraction(1, 2), hbar=1, omega=1)}
    if model == "harmonic_oscillator_nd":
        return {"H": mono(Fraction(n if n is not None else 3, 2), hbar=1, omega=1)}
    if model == "topological_oscillator":
        return {"chi_top": mono(Fraction(1, 4), pi=-2, J=-1), "energy_gap": mono(Fraction(1, 2), J=-1)}
    if model in ("schwinger_free", "dirac_fermion"):
        return {"H_m": mono(1, m=1)}
    if model == "schwinger_boson_mass":
        return {"m_g^2": mono(1, e=2, pi=-1)}
    if model == "phi4":
        return {"minimum": mono(math.sqrt(6), mu=1, lam=Fraction(-1, 2)),
                "mass": mono(math.sqrt(2), mu=1)}
    raise KeyError(model)


# ---------------------------------------------------------------------------
# Recorded finite-T asymptotes
# ---------------------------------------------------------------------------


def reference_key(model: str, overrides: dict, branch: str) -> str:
    args = ",".join(f"{k}={overrides[k]}" for k in sorted(overrides))
    return f"{model}|{args}|{branch}"


def asymptote_to_json(asym) -> dict:
    """Serialise an engine TAsymptote (terms c * T^p * ln(T)^l * e^(i phase T))."""

    def form_json(poly):
        return [[{n: str(e) for n, e in key}, c.real, c.imag] for key, c in sorted(poly.terms.items())]

    return {
        "t_symbol": asym.t_symbol,
        "terms": [
            {"coeff": form_json(t.coeff), "t_power": str(t.t_power),
             "log_power": t.log_power, "phase": form_json(t.phase)}
            for t in asym.terms
        ],
    }


def _form_from_json(rows) -> dict:
    out = {}
    for exps, re_, im in rows:
        key = tuple(sorted((n, Fraction(e)) for n, e in exps.items()))
        out[key] = complex(re_, im)
    return out


class Asymptote:
    """A finite-T asymptote held by the benchmark, evaluated independently of the engine."""

    def __init__(self, terms: list[tuple[dict, Fraction, int, dict]]):
        self.terms = terms

    @staticmethod
    def from_json(data: dict) -> "Asymptote":
        return Asymptote([
            (_form_from_json(t["coeff"]), Fraction(t["t_power"]), t["log_power"],
             _form_from_json(t["phase"]))
            for t in data["terms"]
        ])

    def eval(self, bindings, t_value: float) -> complex:
        total = 0j
        for coeff, p, l, phase in self.terms:
            v = eval_form(coeff, bindings) * t_value ** float(p)
            if l:
                v *= math.log(t_value) ** l
            if phase:
                v *= cmath.exp(1j * eval_form(phase, bindings) * t_value)
            total += v
        return total


def load_recorded() -> dict[str, Asymptote]:
    data = json.loads(REFERENCES_FILE.read_text())
    return {k: Asymptote.from_json(v) for k, v in data["finite_t"].items()}


def compare_asymptote(got_eval, want: Asymptote, points) -> str | None:
    """``got_eval(bindings, T)`` against ``want`` at each seeded point."""
    for bindings, t_value in points:
        g, w = got_eval(bindings, t_value), want.eval(bindings, t_value)
        if abs(g - w) > FINITE_T_REL * abs(w):
            return f"finite-T value {g:.12g} != reference {w:.12g} at T={t_value:.6g}"
    return None


# ---------------------------------------------------------------------------
# Generated model files: text and closed form by formula
# ---------------------------------------------------------------------------


def rotor_file(c: Fraction) -> tuple[str, dict, Asymptote]:
    """Rotor with phase c*xi^2/J: chi_top = 1/(8 c pi^2 J), constant in T."""
    text = (
        "[params]\nJ = positive\n[axes]\nxi = momentum\n"
        f"[phase]\n{c}*xi^2/J\n"
        "[observable]\n(T*xi/(2*pi*J))^2/(-i*T)\n"
    )
    closed = mono(1 / (8 * c), pi=-2, J=-1)
    return text, closed, Asymptote([(closed, Fraction(0), 0, {})])


def oscillator_file(a: list[Fraction], b: list[Fraction], c0: Fraction,
                    grouped: bool, shift: Fraction | None = None) -> tuple[str, dict, Asymptote]:
    """k-axis oscillator sum(a_j xi_j^2/m + b_j m w^2 x_j^2) + c0*w.

    Unshifted: the observable adds i*T*x1^2 to the phase.  Quadratic terms
    vanish under zeta regularization, so <obs> = c0*w + 1/(2 b_1 m w^2); at
    finite T each of the 2k quadratic axes adds -i/(2T).

    Shifted (``shift`` = f): the phase gains f*F*x1 and the observable is the
    phase.  Completing the square gives <H> = c0*w - f^2 F^2 / (4 b_1 m w^2).
    """
    k = len(a)
    params = ["m = positive", "w = positive"] + (["F = positive"] if shift is not None else [])
    axes = []
    for j in range(1, k + 1):
        axes.append(f"xi{j} = momentum" + (", gp" if grouped else ""))
        axes.append(f"x{j} = position" + (", gx" if grouped else ""))
    phase = " + ".join(f"{a[j]}*xi{j + 1}^2/m + {b[j]}*m*w^2*x{j + 1}^2" for j in range(k))
    phase += f" + {c0}*w"
    if shift is not None:
        phase += f" + {shift}*F*x1"
        observable = phase
        closed = add(mono(c0, w=1), mono(-shift * shift / (4 * b[0]), F=2, m=-1, w=-2))
    else:
        observable = phase + " + i*T*x1^2"
        closed = add(mono(c0, w=1), mono(1 / (2 * b[0]), m=-1, w=-2))
    text = (
        "[params]\n" + "\n".join(params) + "\n[axes]\n" + "\n".join(axes)
        + f"\n[phase]\n{phase}\n[observable]\n{observable}\n"
    )
    decay = {(): complex(0, -k)}
    return text, closed, Asymptote([(closed, Fraction(0), 0, {}), (decay, Fraction(-1), 0, {})])


# Shifted oscillators pass model-file validation but fail with this at run time.
KNOWN_DEFECT = "complete the square before reducing this axis"
# The oracle's Richardson self-check (absolute tolerance 1e-6 on values near
# 1e-4) rejects rare isolated T, e.g. dirac_fermion n=3 at m=0.86236, T=18.055.
ORACLE_NONCONVERGENT = "extrapolants differ by"


# ---------------------------------------------------------------------------
# Trace-at-zero amplitudes
# ---------------------------------------------------------------------------


def kv_closed_form(dimension: int, volume: float,
                   terms: list[tuple[Fraction, int, float]]) -> tuple[dict, dict]:
    """sum (-1)^(l+1) l! vol * angular * |S^(N-1)| / (N + d)^(l+1).

    Returns the closed form and the sum of the terms' magnitudes (the scale
    for ``compare_forms``: terms may cancel).
    """
    sphere = {1: mono(2), 2: mono(2, pi=1), 3: mono(4, pi=1)}[dimension]
    total, scale = {}, {}
    for d, l, angular in terms:
        factor = (-1) ** (l + 1) * math.factorial(l) * volume * angular / float(dimension + d) ** (l + 1)
        total = add(total, {k: c * factor for k, c in sphere.items()})
        scale = add(scale, {k: abs(c * factor) for k, c in sphere.items()})
    return total, scale


def kv_file(dimension: int, volume: float, terms: list[tuple[Fraction, int, float]]) -> str:
    out = [f"[kv]\ndimension = {dimension}\nvolume = {volume!r}"]
    for d, l, angular in terms:
        out.append(f"[term]\ndegree = {d}\nlog_order = {l}\nangular = {angular!r}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Closed forms printed by the CLI
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+(?:/\d+)?))?$")


def _parse_real(text: str) -> float:
    if "/" in text:
        num, den = text.split("/")
        return float(Fraction(int(num), int(den)))
    return float(text)


def _parse_coeff(text: str) -> complex:
    text = text.strip("()")
    if not text.endswith("i"):
        return complex(_parse_real(text))
    body = text[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split <= 0:  # pure imaginary
        return complex(0, _parse_real(body) if body not in ("", "-") else (-1.0 if body else 1.0))
    return complex(_parse_real(body[:split]), _parse_real(body[split:].lstrip("+")))


def parse_rendered(text: str) -> dict:
    """Invert ParamPoly.render / render_text back into a closed form."""
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for part in text.split(" + "):
        sign = 1.0
        if part.startswith("-") and not re.match(r"^-[\d.(]", part):
            sign, part = -1.0, part[1:]
        coeff = 1 + 0j
        exps = []
        for factor in re.split(r" \* |·", part):
            m = _FACTOR.match(factor)
            if m and m.group(1) != "i":
                exps.append((m.group(1), Fraction(m.group(2) or 1)))
            else:
                coeff *= _parse_coeff(factor)
        key = tuple(sorted(exps))
        out[key] = out.get(key, 0j) + sign * coeff
    return out
