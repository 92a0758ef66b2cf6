"""Canonical reduced form of regularized trace integrals and the two limits.

Every reduced trace integral is a finite sum of terms

    K(z1, z2, ...) * T^(a1 z1 + a2 z2 + ... + b) * (ln T)^l * e^(i c T)

with ``K`` a product of primitive meromorphic factors, rational ``a_k`` and
``b``, and ``c`` a real parameter polynomial.  ``ratio_limit`` eliminates the
regulators one at a time (joint Laurent expansion of numerator and
denominator, lead-order comparison), ``value_at_zero`` evaluates a single sum
at ``z = 0`` with exact ``ln T`` bookkeeping, and ``thermal_limit`` sends
``T -> infinity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    DivergentLimit,
    PoleAtZero,
    UnresolvedDenominator,
    UnsupportedStructure,
    ZeroOverZeroUnresolved,
)
from .laurent import (
    DEFAULT_ORDER,
    MAX_ORDER,
    LaurentSeries,
    MeroFactorProduct,
    expand_product,
)
from .params import ParamPoly, _fraction

TLin = tuple[tuple[str, Fraction], ...]


def _tlin(mapping: Mapping[str, Fraction] | TLin | None) -> TLin:
    if not mapping:
        return ()
    items = mapping.items() if isinstance(mapping, Mapping) else mapping
    return tuple(sorted((r, _fraction(a)) for r, a in items if a != 0))


@dataclass(frozen=True)
class ZetaTerm:
    """One term K(z) * T^(sum_a a_r z_r + b) * (ln T)^l * e^(i phase T) * tokens."""

    coeff: MeroFactorProduct
    t_lin: TLin = ()
    t_const: Fraction = Fraction(0)
    t_log: int = 0
    phase: ParamPoly = field(default_factory=ParamPoly.zero)
    tokens: tuple[str, ...] = ()

    @staticmethod
    def from_poly(poly: ParamPoly, t_const=0, **kw) -> "ZetaTerm":
        return ZetaTerm(MeroFactorProduct(poly), t_const=_fraction(t_const), **kw)

    def scaled(self, poly: ParamPoly) -> "ZetaTerm":
        return replace(self, coeff=self.coeff.scaled(poly))

    def times(self, other: "ZetaTerm") -> "ZetaTerm":
        return ZetaTerm(
            coeff=self.coeff.times(other.coeff),
            t_lin=_tlin(dict(_merge_tlin(self.t_lin, other.t_lin))),
            t_const=self.t_const + other.t_const,
            t_log=self.t_log + other.t_log,
            phase=self.phase + other.phase,
            tokens=tuple(sorted(self.tokens + other.tokens)),
        )

    def structure_key(self) -> tuple:
        return (
            tuple(sorted(self.coeff.factors, key=repr)),
            self.t_lin,
            self.t_const,
            self.t_log,
            self.phase.key(),
            self.tokens,
        )

    def t_coeff(self, regulator: str) -> Fraction:
        for r, a in self.t_lin:
            if r == regulator:
                return a
        return Fraction(0)

    def render(self, t_symbol: str = "T") -> str:
        parts = [self.coeff.render()]
        pieces = [f"{a}*{r}" for r, a in self.t_lin]
        if self.t_const != 0:
            pieces.append(str(self.t_const))
        if pieces:
            exp = pieces[0]
            for piece in pieces[1:]:
                exp += piece if piece.startswith("-") else "+" + piece
            parts.append(f"{t_symbol}^({exp})")
        if self.t_log:
            parts.append(f"ln({t_symbol})^{self.t_log}")
        if not self.phase.is_zero():
            parts.append(f"e^(i*({self.phase.render(mul='*')})*{t_symbol})")
        if self.tokens:
            parts.append("[" + ",".join(self.tokens) + "]")
        return " * ".join(parts)


def _merge_tlin(a: TLin, b: TLin) -> dict[str, Fraction]:
    out: dict[str, Fraction] = dict(a)
    for r, v in b:
        out[r] = out.get(r, Fraction(0)) + v
    return {r: v for r, v in out.items() if v != 0}


class ZetaTermSum:
    """Finite sum of ZetaTerms sharing an ordered tuple of regulators."""

    __slots__ = ("terms", "regulators", "t_symbol")

    def __init__(self, terms: Iterable[ZetaTerm], regulators=("z",), t_symbol="T"):
        self.terms = list(terms)
        self.regulators = tuple(regulators)
        self.t_symbol = t_symbol

    @staticmethod
    def zero(regulators=("z",), t_symbol="T") -> "ZetaTermSum":
        return ZetaTermSum([], regulators, t_symbol)

    def __add__(self, other: "ZetaTermSum") -> "ZetaTermSum":
        return ZetaTermSum(self.terms + other.terms, self.regulators, self.t_symbol)

    def __mul__(self, other):
        if isinstance(other, ParamPoly):
            return self.scale(other)
        if isinstance(other, ZetaTermSum):
            return ZetaTermSum(
                [a.times(b) for a in self.terms for b in other.terms],
                self.regulators,
                self.t_symbol,
            )
        return NotImplemented

    def scale(self, poly: ParamPoly) -> "ZetaTermSum":
        return ZetaTermSum([t.scaled(poly) for t in self.terms], self.regulators, self.t_symbol)

    def merged(self, scale: float | None = None) -> "ZetaTermSum":
        """Merge terms with identical structure; drop prefactors that cancel."""
        buckets: dict[tuple, tuple[ZetaTerm, ParamPoly]] = {}
        for t in self.terms:
            key = t.structure_key()
            if key in buckets:
                rep, acc = buckets[key]
                buckets[key] = (rep, acc + t.coeff.prefactor)
            else:
                buckets[key] = (t, t.coeff.prefactor)
        if scale is None:
            scale = self.magnitude() or 1.0
        out = []
        for rep, acc in buckets.values():
            if _poly_negligible(acc, scale):
                continue
            out.append(replace(rep, coeff=MeroFactorProduct(acc, rep.coeff.factors)))
        return ZetaTermSum(out, self.regulators, self.t_symbol)

    def magnitude(self) -> float:
        mags = [abs(c) for t in self.terms for c in t.coeff.prefactor.terms.values()]
        return max(mags) if mags else 0.0

    def is_zero(self, scale: float | None = None) -> bool:
        return not self.merged(scale).terms

    def render(self) -> str:
        if not self.terms:
            return "0"
        return "  +  ".join(t.render(self.t_symbol) for t in self.terms)


def _poly_negligible(poly: ParamPoly, scale: float) -> bool:
    return all(abs(c) <= 1e-10 * scale for c in poly.terms.values())


# ---------------------------------------------------------------------------
# T-asymptotes: the image after all regulators are gone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TAsymTerm:
    coeff: ParamPoly
    t_power: Fraction = Fraction(0)
    log_power: int = 0
    phase: ParamPoly = field(default_factory=ParamPoly.zero)


@dataclass
class Divergent:
    """Thermal limit outcome for a quantity with no finite T -> infinity value."""

    reason: str

    def __repr__(self):
        return f"Divergent({self.reason})"


class TAsymptote:
    """Sum of c * T^p * (ln T)^l terms, with an optional residual oscillation."""

    __slots__ = ("terms", "t_symbol")

    def __init__(self, terms: Iterable[TAsymTerm] = (), t_symbol: str = "T"):
        merged: dict[tuple, ParamPoly] = {}
        order: list[tuple] = []
        reps: dict[tuple, TAsymTerm] = {}
        for t in terms:
            key = (t.t_power, t.log_power, t.phase.key())
            if key not in merged:
                merged[key] = t.coeff
                order.append(key)
                reps[key] = t
            else:
                merged[key] = merged[key] + t.coeff
        out = []
        for key in order:
            coeff = merged[key]
            if not coeff.is_zero():
                out.append(replace(reps[key], coeff=coeff))
        self.terms = sorted(out, key=lambda t: (-t.t_power, -t.log_power))
        self.t_symbol = t_symbol

    @staticmethod
    def constant(poly: ParamPoly, t_symbol="T") -> "TAsymptote":
        return TAsymptote([TAsymTerm(poly)], t_symbol)

    @staticmethod
    def zero(t_symbol="T") -> "TAsymptote":
        return TAsymptote([], t_symbol)

    def __add__(self, other: "TAsymptote") -> "TAsymptote":
        return TAsymptote(self.terms + other.terms, self.t_symbol)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_part(self) -> ParamPoly:
        for t in self.terms:
            if t.t_power == 0 and t.log_power == 0 and t.phase.is_zero():
                return t.coeff
        return ParamPoly.zero()

    def eval(self, bindings: Mapping[str, float], t_value: float) -> complex:
        import cmath

        total = 0j
        for t in self.terms:
            v = t.coeff.eval(bindings) * t_value ** float(t.t_power)
            if t.log_power:
                v *= math.log(t_value) ** t.log_power
            if not t.phase.is_zero():
                v *= cmath.exp(1j * t.phase.eval(bindings) * t_value)
            total += v
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            bits = [f"({t.coeff.render()})"]
            if t.t_power != 0:
                bits.append(f"{self.t_symbol}^{t.t_power}")
            if t.log_power:
                bits.append(f"ln({self.t_symbol})^{t.log_power}")
            if not t.phase.is_zero():
                bits.append(f"e^(i*({t.phase.render()})*{self.t_symbol})")
            parts.append(" * ".join(bits))
        return " + ".join(parts)

    def __repr__(self):
        return f"TAsymptote({self.render()})"


# ---------------------------------------------------------------------------
# Regulator elimination
# ---------------------------------------------------------------------------


def _expand_term_in(term: ZetaTerm, regulator: str, order: int) -> LaurentSeries:
    """Laurent series of one term in the given regulator.

    Coefficients are ZetaTermSums free of that regulator; the expansion of
    T^(a z) contributes exact powers of ln T.
    """
    local = [f for f in term.coeff.factors if f.regulator == regulator]
    rest_factors = tuple(f for f in term.coeff.factors if f.regulator != regulator)
    a = term.t_coeff(regulator)
    rest = ZetaTerm(
        coeff=MeroFactorProduct(ParamPoly.one(), rest_factors),
        t_lin=tuple((r, v) for r, v in term.t_lin if r != regulator),
        t_const=term.t_const,
        t_log=term.t_log,
        phase=term.phase,
        tokens=term.tokens,
    )
    base = expand_product(
        MeroFactorProduct(term.coeff.prefactor, tuple(local)), order
    )
    # multiply by sum_k (a ln T)^k z^k / k!
    out: dict[int, list[ZetaTerm]] = {}
    top = base.lead + len(base.coeffs)
    for j, cpoly in enumerate(base.coeffs):
        if cpoly.is_zero():
            continue
        p0 = base.lead + j
        kmax = top - 1 - p0 if a != 0 else 0
        for k in range(kmax + 1):
            p = p0 + k
            factor = float(a) ** k / math.factorial(k) if k else 1.0
            t = replace(
                rest,
                coeff=MeroFactorProduct(cpoly.scale(factor), rest_factors),
                t_log=rest.t_log + k,
            )
            out.setdefault(p, []).append(t)
    if not out:
        return LaurentSeries(0, [ZetaTermSum.zero()])
    lead = min(out)
    topp = top
    coeffs = []
    for p in range(lead, topp):
        coeffs.append(ZetaTermSum(out.get(p, []), (), ""))
    return LaurentSeries(lead, coeffs)


def _expand_sum_in(s: ZetaTermSum, regulator: str, order: int) -> LaurentSeries:
    rest_regs = tuple(r for r in s.regulators if r != regulator)
    zero = ZetaTermSum.zero(rest_regs, s.t_symbol)
    series = LaurentSeries(0, [zero])
    first = True
    for term in s.terms:
        ts = _expand_term_in(term, regulator, order)
        ts = LaurentSeries(
            ts.lead,
            [ZetaTermSum(c.terms, rest_regs, s.t_symbol) for c in ts.coeffs],
        )
        series = ts if first else series.add(ts, zero)
        first = False
    return series


def _lead_order(series: LaurentSeries, scale: float) -> int | None:
    for j, c in enumerate(series.coeffs):
        if not c.is_zero(scale):
            return series.lead + j
    return None


def _expand_to_lead(
    sums: list[ZetaTermSum], regulator: str, order: int
) -> tuple[list[LaurentSeries], list[int | None], float, int]:
    """Expand the sums jointly in one regulator until each lead order shows.

    The truncation starts at ``order`` and doubles while some sum vanishes
    to it, up to ``MAX_ORDER``.  Returns the normalized series, their lead
    orders (``None`` for a sum still vanishing at the last truncation), the
    shared magnitude scale and the truncation used.
    """
    k = order
    while True:
        series = [_expand_sum_in(s, regulator, k).normalized() for s in sums]
        scale = max((c.magnitude() for x in series for c in x.coeffs), default=0.0) or 1.0
        leads = [_lead_order(x, scale) for x in series]
        if None not in leads or k >= MAX_ORDER:
            return series, leads, scale, k
        k *= 2


def cancel_common_tokens(n: ZetaTermSum, d: ZetaTermSum) -> tuple[ZetaTermSum, ZetaTermSum]:
    """Remove token multisets shared globally by numerator and denominator."""

    def common(s: ZetaTermSum) -> tuple[str, ...]:
        if not s.terms:
            return ()
        sets = [list(t.tokens) for t in s.terms]
        base = sets[0]
        for other in sets[1:]:
            keep = []
            pool = list(other)
            for tok in base:
                if tok in pool:
                    pool.remove(tok)
                    keep.append(tok)
            base = keep
        return tuple(base)

    shared = list(common(n))
    pool = list(common(d))
    both = []
    for tok in shared:
        if tok in pool:
            pool.remove(tok)
            both.append(tok)

    def strip(s: ZetaTermSum) -> ZetaTermSum:
        out = []
        for t in s.terms:
            toks = list(t.tokens)
            for tok in both:
                toks.remove(tok)
            out.append(replace(t, tokens=tuple(sorted(toks))))
        return ZetaTermSum(out, s.regulators, s.t_symbol)

    if not both:
        return n, d
    return strip(n), strip(d)


def value_at_zero(s: ZetaTermSum, order: int = DEFAULT_ORDER) -> TAsymptote:
    """Evaluate the meromorphic extension of the sum at regulator zero.

    Per-term poles must cancel across the sum; otherwise ``PoleAtZero`` is
    raised with the order and the residue-level diagnostic.
    """
    current = s
    for reg in s.regulators:
        rest = tuple(r for r in current.regulators if r != reg)
        (series,), (lead,), scale, _ = _expand_to_lead([current], reg, order)
        if lead is None:
            current = ZetaTermSum.zero(rest, s.t_symbol)
            continue
        if lead < 0:
            residue = series.coeff_at(lead)
            raise PoleAtZero(-lead, residue.merged().render() if residue else None)
        coeff = series.coeff_at(0)
        terms = coeff.merged(scale).terms if coeff is not None else []
        current = ZetaTermSum(terms, rest, s.t_symbol)
    return _to_asymptote(current)


def _to_asymptote(s: ZetaTermSum) -> TAsymptote:
    out = []
    for t in s.merged().terms:
        if t.coeff.factors:
            raise UnsupportedStructure(
                f"residual regulator factors survived elimination: {t.render()}"
            )
        out.append(TAsymTerm(t.coeff.prefactor, t.t_const, t.t_log, t.phase))
    return TAsymptote(out, s.t_symbol)


def ratio_limit(
    n: ZetaTermSum, d: ZetaTermSum, order: int = DEFAULT_ORDER,
    trace: list[str] | None = None,
) -> TAsymptote:
    """Iterated regulator limits of the quotient n/d at fixed T.

    Matching cancelling tokens are removed pairwise first.  Then for each
    regulator (declared order) the joint Laurent expansions of numerator and
    denominator are compared: equal lead orders keep the lead coefficients,
    a faster-vanishing numerator short-circuits to zero, a faster-vanishing
    denominator raises ``DivergentLimit``.  ``trace`` collects per-regulator
    Laurent diagnostics when supplied.
    """
    if n.regulators != d.regulators:
        raise UnsupportedStructure("numerator and denominator use different regulators")
    if not d.terms:
        raise DivergentLimit("denominator is identically zero")
    n, d = cancel_common_tokens(n, d)
    for reg in n.regulators:
        (ln, ld), (pn, pd), scale, k = _expand_to_lead([n, d], reg, order)
        if pn is None and pd is None:
            raise ZeroOverZeroUnresolved(f"0/0 in {reg} unresolved at truncation order {k}")
        if trace is not None:
            trace.append(
                f"limit {reg} -> 0: lead orders num = {pn}, den = {pd}"
                f" (truncation {k})"
            )
        if pn is None:
            return TAsymptote.zero(n.t_symbol)
        if pd is None:
            raise DivergentLimit(f"denominator vanishes identically in {reg}")
        if pn > pd:
            return TAsymptote.zero(n.t_symbol)
        if pn < pd:
            raise DivergentLimit(
                f"quotient diverges like {reg}^{pn - pd} at fixed {n.t_symbol}"
            )
        rest = tuple(r for r in n.regulators if r != reg)
        n = ZetaTermSum(ln.coeff_at(pn).merged(scale).terms, rest, n.t_symbol)
        d = ZetaTermSum(ld.coeff_at(pd).merged(scale).terms, rest, d.t_symbol)
    return divide_term_sums(n, d)


def divide_term_sums(n: ZetaTermSum, d: ZetaTermSum) -> TAsymptote:
    """Divide two regulator-free term sums; denominator must be one term."""
    d = d.merged()
    if len(d.terms) != 1:
        raise UnresolvedDenominator(
            f"denominator did not reduce to a single term: {d.render()}"
        )
    dt = d.terms[0]
    if dt.coeff.factors:
        raise UnsupportedStructure("denominator still carries regulator factors")
    out = []
    for t in n.merged().terms:
        if t.coeff.factors:
            raise UnsupportedStructure("numerator still carries regulator factors")
        toks = list(t.tokens)
        for tok in dt.tokens:
            if tok not in toks:
                raise UnresolvedDenominator(f"token {tok} does not cancel")
            toks.remove(tok)
        log_pow = t.t_log - dt.t_log
        if log_pow < 0:
            raise UnresolvedDenominator("negative ln T power after division")
        if toks:
            raise UnresolvedDenominator(f"tokens survive the quotient: {toks}")
        out.append(
            TAsymTerm(
                t.coeff.prefactor.divide(dt.coeff.prefactor),
                t.t_const - dt.t_const,
                log_pow,
                t.phase - dt.phase,
            )
        )
    return TAsymptote(out, n.t_symbol)


def thermal_limit(t: TAsymptote) -> ParamPoly | Divergent:
    """T -> infinity: negative powers vanish, growth or ln T or residual phases diverge."""
    value = ParamPoly.zero()
    for term in t.terms:
        if not term.phase.is_zero():
            if term.t_power < 0:
                continue  # bounded oscillation times a decaying power still vanishes
            return Divergent(
                f"oscillatory residual e^(i({term.phase.render()}){t.t_symbol}) "
                f"* {t.t_symbol}^{term.t_power}"
            )
        if term.t_power > 0:
            return Divergent(f"term grows like {t.t_symbol}^{term.t_power}")
        if term.t_power == 0 and term.log_power > 0:
            return Divergent(f"term grows like ln({t.t_symbol})^{term.log_power}")
        if term.t_power == 0:
            value = value + term.coeff
    return value
