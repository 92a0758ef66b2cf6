"""Canonical reduced form of regularized trace integrals and the two limits.

Every reduced trace integral is a finite sum of terms

    K(z1, z2, ...) * T^(a1 z1 + a2 z2 + ... + b) * (ln T)^l * e^(i c T)

with ``K`` a product of primitive meromorphic factors, rational ``a_k`` and
``b``, and ``c`` a real parameter polynomial.  ``ratio_limit`` first divides
numerator and denominator by one reference divisor taken from the first
denominator term (its phases, ``const_pow`` factors, ``T^(a.z)`` exponent and
the Gammas every term shares up to an integer shift), which leaves the
quotient alone but the Laurent expansions small; it then eliminates the
regulators one at a time (joint Laurent expansion of numerator and
denominator, lead-order comparison) and reports lead orders of the undivided
sums, i.e. shifted by the divisor's order.  ``value_at_zero`` evaluates a single sum
at ``z = 0`` with exact ``ln T`` bookkeeping, and ``thermal_limit`` sends
``T -> infinity``.

Elimination is lead first.  Each limit reads one Laurent coefficient of a
sum, the lead one, so every term is first expanded to its own lead
coefficient only; the full series to the requested truncation is built only
when the coefficients at the least of those leads cancel.  A coefficient
below a truncation is the same float operations at every truncation, so the
leads, their coefficients and the truncation reported are those of the full
expansion, bit for bit.

A Laurent coefficient vanishes when its terms, grouped by exact structure
(the multiset of factors, ``T`` and ``ln T`` powers, the phase's exact
coefficients), have prefactors that sum to the zero poly: which
order leads depends on exact cancellation alone, never on a tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import rational
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
    FactorKind,
    MeroFactorProduct,
    PrimitiveFactor,
    expand_product,
)
from .params import ParamPoly
from .rational import Q

#: the slopes a_r of a ``T`` exponent, as sorted (regulator, pair) items
TLin = tuple[tuple[str, Q], ...]


@dataclass(frozen=True)
class ZetaTerm:
    """One term K(z) * T^(sum_a a_r z_r + b) * (ln T)^l * e^(i phase T).

    The exponents ``t_lin`` and ``t_const`` are normalised integer pairs
    (``rational``).
    """

    coeff: MeroFactorProduct
    t_lin: TLin = ()
    t_const: Q = rational.ZERO
    t_log: int = 0
    phase: ParamPoly = field(default_factory=ParamPoly.zero)

    def scaled(self, poly: ParamPoly) -> "ZetaTerm":
        return replace(self, coeff=self.coeff.scaled(poly))

    def structure_key(self) -> tuple:
        return (
            frozenset(Counter(self.coeff.factors).items()),
            self.t_lin,
            self.t_const,
            self.t_log,
            frozenset(self.phase.terms.items()),
        )

    def t_coeff(self, regulator: str) -> Q:
        for r, a in self.t_lin:
            if r == regulator:
                return a
        return rational.ZERO

    def render(self, t_symbol: str = "T") -> str:
        parts = [self.coeff.render()]
        pieces = [f"{rational.text(a)}*{r}" for r, a in self.t_lin]
        if self.t_const[0] != 0:
            pieces.append(rational.text(self.t_const))
        if pieces:
            exp = pieces[0]
            for piece in pieces[1:]:
                exp += piece if piece.startswith("-") else "+" + piece
            parts.append(f"{t_symbol}^({exp})")
        if self.t_log:
            parts.append(f"ln({t_symbol})^{self.t_log}")
        if not self.phase.is_zero():
            parts.append(f"e^(i*({self.phase.render(mul='*')})*{t_symbol})")
        return " * ".join(parts)


def _merge_tlin(a: TLin, b: TLin) -> TLin:
    """The slopes of the product of two ``T`` powers."""
    out: dict[str, Q] = dict(a)
    for r, v in b:
        out[r] = rational.add(out[r], v) if r in out else v
    return tuple(sorted((r, v) for r, v in out.items() if v[0] != 0))


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

    def merged(self) -> "ZetaTermSum":
        """Merge terms with identical structure; drop those whose prefactors sum to zero."""
        buckets: dict[tuple, tuple[ZetaTerm, ParamPoly]] = {}
        for t in self.terms:
            key = t.structure_key()
            if key in buckets:
                rep, acc = buckets[key]
                buckets[key] = (rep, acc + t.coeff.prefactor)
            else:
                buckets[key] = (t, t.coeff.prefactor)
        out = [
            rep if acc is rep.coeff.prefactor else ZetaTerm(
                MeroFactorProduct(acc, rep.coeff.factors),
                rep.t_lin, rep.t_const, rep.t_log, rep.phase,
            )
            for rep, acc in buckets.values()
            if not acc.is_zero()
        ]
        return ZetaTermSum(out, self.regulators, self.t_symbol)

    def render(self, tokens: Sequence[str] = ()) -> str:
        """The sum as text; ``tokens``, a model's sector labels, end every term."""
        if not self.terms:
            return "0"
        label = f" * [{','.join(tokens)}]" if tokens else ""
        return "  +  ".join(t.render(self.t_symbol) + label for t in self.terms)


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
        merged: dict[tuple, TAsymTerm] = {}  # the first term of each structure, coefficients summed
        for t in terms:
            key = (t.t_power, t.log_power, frozenset(t.phase.terms.items()))
            rep = merged.get(key)
            merged[key] = t if rep is None else replace(rep, coeff=rep.coeff + t.coeff)
        out = [t for t in merged.values() if not t.coeff.is_zero()]
        self.terms = sorted(out, key=lambda t: (-t.t_power, -t.log_power))
        self.t_symbol = t_symbol

    @staticmethod
    def zero(t_symbol="T") -> "TAsymptote":
        return TAsymptote([], t_symbol)

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


def _coefficients(
    s: ZetaTermSum, regulator: str, order: int
) -> tuple[dict[int, list[ZetaTerm]], int]:
    """Each power's terms in a truncation-``order`` expansion, and where the shortest term ends.

    A term with no factor in the regulator is its own prefactor at z^0.  The
    expansion of T^(a z) contributes exact powers of ln T.  Terms keep sum
    order within each power.
    """
    out: dict[int, list[ZetaTerm]] = {}
    top = None
    for term in s.terms:
        local = tuple(f for f in term.coeff.factors if f.regulator == regulator)
        rest_factors = tuple(f for f in term.coeff.factors if f.regulator != regulator)
        a = term.t_coeff(regulator)
        slope = rational.to_float(a)
        t_lin = tuple((r, v) for r, v in term.t_lin if r != regulator)
        if local:
            base = expand_product(MeroFactorProduct(term.coeff.prefactor, local), order)
            lead, coeffs = base.lead, base.coeffs
        else:
            lead, coeffs = 0, [term.coeff.prefactor]
        end = lead + order + 1
        top = end if top is None else min(top, end)
        # multiply by sum_k (a ln T)^k z^k / k!
        for j, cpoly in enumerate(coeffs):
            if cpoly.is_zero():
                continue
            p0 = lead + j
            for k in range(end - p0 if a[0] != 0 else 1):
                c = cpoly.scale(slope ** k / math.factorial(k)) if k else cpoly
                out.setdefault(p0 + k, []).append(ZetaTerm(
                    MeroFactorProduct(c, rest_factors), t_lin, term.t_const,
                    term.t_log + k, term.phase,
                ))
    return out, top


def _expand_sum_in(s: ZetaTermSum, regulator: str, order: int) -> tuple[int | None, ZetaTermSum]:
    """Lead order of a sum in one regulator, and its lead coefficient merged.

    Lead first: each term is expanded to its own lead coefficient only
    (truncation 0).  Only if the merged coefficient at the least of those
    leads cancels is the sum expanded to truncation ``order`` and searched
    on, up to where its shortest term ends; each coefficient is merged once.
    A coefficient below a truncation is the same float operations at any
    truncation (only the sign of a zero can differ, and ``ParamPoly``
    normalises it), so the result is the full expansion's bit for bit.  The
    coefficient is free of the regulator; the lead is None, with a zero sum,
    when every coefficient below the truncation vanishes.
    """
    rest = tuple(r for r in s.regulators if r != regulator)
    if not s.terms:
        return None, ZetaTermSum.zero(rest, s.t_symbol)
    low = None
    for truncation in (0, order):
        out, top = _coefficients(s, regulator, truncation)
        if low is None:
            low = min(out, default=top)
        for p in range(low, top):
            if p in out:
                coeff = ZetaTermSum(out[p], rest, s.t_symbol).merged()
                if coeff.terms:
                    return p, coeff
        low = top
    return None, ZetaTermSum.zero(rest, s.t_symbol)


def _expand_to_lead(
    sums: list[ZetaTermSum], regulator: str, order: int
) -> tuple[list[int | None], list[ZetaTermSum], int]:
    """Lead order and merged lead coefficient of each sum in one regulator.

    Each sum is expanded lead first (``_expand_sum_in``) at truncation
    ``order``.  While some sum vanishes to the truncation, the truncation
    doubles, up to ``MAX_ORDER``, and those sums are expanded again; a lead
    found at one truncation is the lead at every higher one.  Returns the
    lead orders (``None`` for a sum still vanishing at the last truncation),
    the lead coefficients and the truncation used.
    """
    found = [_expand_sum_in(s, regulator, order) for s in sums]
    k = order
    while k < MAX_ORDER and any(lead is None for lead, _ in found):
        k *= 2
        found = [
            _expand_sum_in(s, regulator, k) if lead is None else (lead, coeff)
            for s, (lead, coeff) in zip(sums, found)
        ]
    return [lead for lead, _ in found], [coeff for _, coeff in found], k


_POWER_KINDS = (FactorKind.EXP_IPI, FactorKind.CONST_POW)


def _pair_key(f: PrimitiveFactor) -> tuple[tuple, int] | None:
    """Key and offset: factors with one key divide into simpler ones.

    Gammas of one regulator and slope whose offsets differ by the integer
    returned, half-turn phases of one regulator, and powers of one base in
    one regulator.  A Gamma's offset b = n/d splits into the integer
    ``n // d`` returned and the key's fractional part ``n % d`` over ``d``.
    """
    if f.kind is FactorKind.GAMMA:
        n, d = f.beta
        whole, frac = divmod(n, d)
        return (f.kind, f.regulator, f.alpha, frac, d), whole
    if f.kind is FactorKind.EXP_IPI:
        return (f.kind, f.regulator), 0
    if f.kind is FactorKind.CONST_POW:
        return (f.kind, f.regulator, f.base), 0
    return None


def _partners(factors: tuple[PrimitiveFactor, ...]) -> dict[tuple, tuple[list[int], list[int]]]:
    """Key -> offsets and indices, in factor order, of the factors a divisor factor can pair with."""
    out: dict[tuple, tuple[list[int], list[int]]] = {}
    for i, f in enumerate(factors):
        keyed = _pair_key(f)
        if keyed is not None:
            offsets, indices = out.setdefault(keyed[0], ([], []))
            offsets.append(keyed[1])
            indices.append(i)
    return out


def _factor_quotient(p: PrimitiveFactor, f: PrimitiveFactor, k: int) -> list[PrimitiveFactor]:
    """p / f for a partner pair, as primitive factors; Gammas differ by k in offset."""
    if f.kind is FactorKind.GAMMA:
        # Gamma(x + k) / Gamma(x) = x (x+1) ... (x+k-1), or 1/((x-1) ... (x+k)) for k < 0
        a, reg = f.alpha, f.regulator
        if k >= 0:
            return [
                PrimitiveFactor(FactorKind.AFFINE, a, rational.add(f.beta, (j, 1)), 1, regulator=reg)
                for j in range(k)
            ]
        return [
            PrimitiveFactor(FactorKind.AFFINE, a, rational.sub(f.beta, (j, 1)), -1, regulator=reg)
            for j in range(1, -k + 1)
        ]
    if p.alpha == f.alpha and p.beta == f.beta:
        return []
    alpha, beta = rational.sub(p.alpha, f.alpha), rational.sub(p.beta, f.beta)
    return [PrimitiveFactor(p.kind, alpha, beta, p.power, p.base, p.regulator)]


def _one_per_key(factors: tuple[PrimitiveFactor, ...]) -> tuple[PrimitiveFactor, ...]:
    """The factors with each regulator's phases, and each base's powers, folded into
    one, dropped where the exponents cancel: division pairs them one by one, and
    what it leaves can multiply to an exact 1 that the floats miss."""
    out: dict = {}
    for i, f in enumerate(factors):
        key = (f.kind, f.regulator, f.base) if f.kind in _POWER_KINDS else i
        g = out.get(key)
        out[key] = f if g is None else replace(
            g, alpha=rational.add(g.alpha, f.alpha), beta=rational.add(g.beta, f.beta)
        )
    if len(out) == len(factors):
        return factors
    return tuple(f for f in out.values() if f.kind not in _POWER_KINDS or f.alpha[0] or f.beta[0])


def _divide_term(
    t: ZetaTerm, partners: dict[tuple, tuple[list[int], list[int]]], divisor: list[tuple],
    inverse_t_lin: TLin,
) -> ZetaTerm:
    factors = t.coeff.factors
    slots = [[f] for f in factors]
    extra = []
    for f, key, offset, inverse in divisor:
        offsets, indices = partners.get(key, ((), ()))
        if not offsets:  # an unpaired phase or const_pow: multiply by its inverse
            extra.append(inverse)
            continue
        # the nearest Gamma (the first of equally near ones) keeps the affine
        # product short; phases and powers have offset 0
        if offset in offsets:
            j = offsets.index(offset)
        else:
            j = min(range(len(offsets)), key=lambda j: abs(offsets[j] - offset))
        p_offset, i = offsets.pop(j), indices.pop(j)
        slots[i] = _factor_quotient(factors[i], f, p_offset - offset)
    return ZetaTerm(
        MeroFactorProduct(t.coeff.prefactor, _one_per_key(tuple(x for s in slots for x in s) + tuple(extra))),
        _merge_tlin(t.t_lin, inverse_t_lin),
        t.t_const, t.t_log, t.phase,
    )


def divide_by_reference(
    n: ZetaTermSum, d: ZetaTermSum
) -> tuple[ZetaTermSum, ZetaTermSum, dict[str, int]]:
    """Divide every term of n and d by one divisor g taken from d's first term.

    g holds the first denominator term's half-turn phases, its ``const_pow``
    factors, its ``T^(a.z)`` exponent and each of its Gammas that has, in
    every term of n and d, a partner Gamma of the same regulator and slope at
    an integer offset.  Paired Gammas become affine factors, paired phases
    and powers of the same base subtract their exponents, unpaired ones are
    multiplied in inverted, and what a term is left with of one regulator's
    phases or one base's powers is one factor (``_one_per_key``).
    Prefactors, constant ``T`` powers, ``ln T`` powers and oscillating
    phases are left alone, so the quotient n/d and the prefactors its limit
    is read from do not change.  Returns the divided sums and g's order at 0
    in each regulator.
    """
    r = d.terms[0]
    partners = [_partners(t.coeff.factors) for t in n.terms + d.terms]
    divisor = []
    taken: Counter = Counter()
    orders: dict[str, int] = {}
    for f in r.coeff.factors:
        keyed = _pair_key(f)
        if keyed is None:
            continue
        key, offset = keyed
        inverse = None
        if f.kind is FactorKind.GAMMA:
            if any(key not in p or len(p[key][0]) <= taken[key] for p in partners):
                continue
            taken[key] += 1
            orders[f.regulator] = orders.get(f.regulator, 0) - f.pole_order()
        else:  # built once here, used by every term in which f has no partner
            alpha, beta = rational.neg(f.alpha), rational.neg(f.beta)
            inverse = PrimitiveFactor(f.kind, alpha, beta, f.power, f.base, f.regulator)
        divisor.append((f, key, offset, inverse))
    if not divisor and not r.t_lin:
        return n, d, {}
    inverse_t_lin = tuple((reg, rational.neg(a)) for reg, a in r.t_lin)
    divided = [_divide_term(t, p, divisor, inverse_t_lin) for t, p in zip(n.terms + d.terms, partners)]
    k = len(n.terms)
    return (
        ZetaTermSum(divided[:k], n.regulators, n.t_symbol),
        ZetaTermSum(divided[k:], d.regulators, d.t_symbol),
        orders,
    )


def value_at_zero(s: ZetaTermSum, order: int = DEFAULT_ORDER) -> TAsymptote:
    """Evaluate the meromorphic extension of the sum at regulator zero.

    Per-term poles must cancel across the sum; otherwise ``PoleAtZero`` is
    raised with the order and the residue-level diagnostic.
    """
    current = s
    for reg in s.regulators:
        (lead,), (coeff,), _ = _expand_to_lead([current], reg, order)
        if lead is not None and lead < 0:
            raise PoleAtZero(-lead, coeff.render())
        # the value at z = 0 is the lead coefficient if the lead is z^0, else zero
        current = coeff if lead == 0 else ZetaTermSum.zero(coeff.regulators, s.t_symbol)
    return _to_asymptote(current)


def _to_asymptote(s: ZetaTermSum) -> TAsymptote:
    out = []
    for t in s.merged().terms:
        if t.coeff.factors:
            raise UnsupportedStructure(
                f"residual regulator factors survived elimination: {t.render()}"
            )
        out.append(TAsymTerm(t.coeff.prefactor, rational.fraction(t.t_const), t.t_log, t.phase))
    return TAsymptote(out, s.t_symbol)


def ratio_limit(
    n: ZetaTermSum, d: ZetaTermSum, order: int = DEFAULT_ORDER,
    trace: list[str] | None = None,
) -> TAsymptote:
    """Iterated regulator limits of the quotient n/d at fixed T.

    Both sums are first divided by one reference divisor g from the first
    denominator term (``divide_by_reference``): Gamma pairs with integer shifts become affine
    factors and phase and ``const_pow`` pairs become constants, so the
    expansions carry few factors and almost no formal logarithms.  For each
    regulator (declared order) the joint Laurent expansions of numerator and
    denominator are compared: equal lead orders keep the lead coefficients,
    a faster-vanishing numerator short-circuits to zero, a faster-vanishing
    denominator raises ``DivergentLimit``.  ``trace`` collects per-regulator
    Laurent diagnostics when supplied; the lead orders it reports are those
    of the undivided sums, i.e. the divided ones plus g's order.
    """
    if n.regulators != d.regulators:
        raise UnsupportedStructure("numerator and denominator use different regulators")
    if not d.terms:
        raise DivergentLimit("denominator is identically zero")
    n, d, g_orders = divide_by_reference(n, d)
    for reg in n.regulators:
        (pn, pd), (cn, cd), k = _expand_to_lead([n, d], reg, order)
        if pn is None and pd is None:
            raise ZeroOverZeroUnresolved(f"0/0 in {reg} unresolved at truncation order {k}")
        if trace is not None:
            g = g_orders.get(reg, 0)
            num, den = (None if p is None else p + g for p in (pn, pd))
            trace.append(
                f"limit {reg} -> 0: lead orders num = {num}, den = {den}"
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
        n, d = cn, cd
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
        log_pow = t.t_log - dt.t_log
        if log_pow < 0:
            raise UnresolvedDenominator("negative ln T power after division")
        out.append(
            TAsymTerm(
                t.coeff.prefactor.divide(dt.coeff.prefactor),
                rational.fraction(rational.sub(t.t_const, dt.t_const)),
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
