"""Canonical reduced form of regularized trace integrals and the two limits.

Every reduced trace integral is a finite sum of terms

    K(z1, z2, ...) * T^(a1 z1 + a2 z2 + ... + b) * (ln T)^l

with ``K`` a product of primitive meromorphic factors and rational ``a_k``
and ``b``.  The evolution's constant phase e^(i c T) is common to every term
of a derivation, so no term carries it: the quotient cancels it, and the
engine applies it where it is read (the trace text and ln Z).

``ratio_limit`` first divides numerator and denominator by one reference
divisor taken from the first denominator term (its half-turn phases,
``const_pow`` factors, ``T^(a.z)`` exponent and the Gammas every term shares
up to an integer shift), which leaves the quotient alone but the Laurent expansions small; it
then eliminates the regulators one at a time (joint Laurent expansion of
numerator and denominator, lead-order comparison) and reports lead orders of
the undivided sums, i.e. shifted by the divisor's order.  ``value_at_zero``
evaluates a single sum at ``z = 0`` with exact ``ln T`` bookkeeping, and
``thermal_limit`` sends ``T -> infinity``.

Elimination is lead first.  Each limit reads one Laurent coefficient of a
sum, the lead one, so every term is first expanded to its own lead
coefficient only; the full series to the requested truncation is built only
when the coefficients at the least of those leads cancel, and a doubled one
only while the sum still vanishes there.  Each sum runs this schedule on its
own, and each truncation searches only the powers the last one did not
reach.  A coefficient below a truncation is the same float operations at
every truncation, so the leads, their coefficients and the truncation
reported are those of the full expansion, bit for bit.

A Laurent coefficient vanishes when its terms, grouped by exact structure
(the set of canonical factors, ``T`` and ``ln T`` powers), have prefactors
that sum to the zero poly: which order leads depends on exact cancellation
alone, never on a tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

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
    EXPONENT_KINDS,
    MAX_ORDER,
    FactorKind,
    MeroFactorProduct,
    PrimitiveFactor,
    expand_product,
    gamma_quotient,
)
from .params import ParamPoly
from .rational import Q
from .records import FrozenRecord, Record

#: the slopes a_r of a ``T`` exponent, as sorted (regulator, pair) items
TLin = tuple[tuple[str, Q], ...]


class ZetaTerm(FrozenRecord):
    """One term K(z) * T^(sum_a a_r z_r + b) * (ln T)^l.

    The exponents ``t_lin`` and ``t_const`` are normalised integer pairs
    (``rational``).  A derivation's common phase e^(i c T) is not part of
    the term.
    """

    __slots__ = ("coeff", "t_lin", "t_const", "t_log")

    def __init__(self, coeff: MeroFactorProduct, t_lin: TLin = (), t_const: Q = rational.ZERO,
                 t_log: int = 0):
        self.coeff = coeff
        self.t_lin = t_lin
        self.t_const = t_const
        self.t_log = t_log

    def structure_key(self) -> tuple:
        return frozenset(self.coeff.factors), self.t_lin, self.t_const, self.t_log

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
        return " * ".join(parts)


def _merge_tlin(a: TLin, b: TLin) -> TLin:
    """The slopes of the product of two ``T`` powers."""
    out: dict[str, Q] = dict(a)
    for r, v in b:
        out[r] = rational.add(out[r], v) if r in out else v
    return tuple(sorted((r, v) for r, v in out.items() if v[0] != 0))


class ZetaTermSum:
    """Finite sum of ZetaTerms sharing an ordered tuple of regulators; ``render`` names the volume."""

    __slots__ = ("terms", "regulators")

    def __init__(self, terms: Iterable[ZetaTerm], regulators=("z",)):
        self.terms = list(terms)
        self.regulators = tuple(regulators)

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
                MeroFactorProduct._canonical(acc, rep.coeff.factors), rep.t_lin, rep.t_const, rep.t_log
            )
            for rep, acc in buckets.values()
            if not acc.is_zero()
        ]
        return ZetaTermSum(out, self.regulators)

    def render(self, suffix: str = "", t_symbol: str = "T") -> str:
        """The sum as text, the volume written ``t_symbol``; ``suffix`` (phase, sector labels) ends each term."""
        if not self.terms:
            return "0"
        return "  +  ".join(t.render(t_symbol) + suffix for t in self.terms)


# ---------------------------------------------------------------------------
# T-asymptotes: the image after all regulators are gone
# ---------------------------------------------------------------------------


class TAsymTerm(FrozenRecord):
    """c * T^p * (ln T)^l * e^(i phase T); ``phase`` is 0 unless given."""

    __slots__ = ("coeff", "t_power", "log_power", "phase")

    def __init__(self, coeff: ParamPoly, t_power: Fraction = Fraction(0), log_power: int = 0,
                 phase: ParamPoly | None = None):
        self.coeff = coeff
        self.t_power = t_power
        self.log_power = log_power
        self.phase = ParamPoly.zero() if phase is None else phase


class Divergent(Record):
    """Thermal limit outcome for a quantity with no finite T -> infinity value."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

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
            merged[key] = t if rep is None else TAsymTerm(
                rep.coeff + t.coeff, rep.t_power, rep.log_power, rep.phase
            )
        out = [t for t in merged.values() if not t.coeff.is_zero()]
        self.terms = sorted(out, key=lambda t: (-t.t_power, -t.log_power))
        self.t_symbol = t_symbol

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
    order within each power.  An empty sum ends at z^0.
    """
    out: dict[int, list[ZetaTerm]] = {}
    ends = []
    for term in s.terms:
        local = tuple(f for f in term.coeff.factors if f.regulator == regulator)
        rest_factors = tuple(f for f in term.coeff.factors if f.regulator != regulator)
        a = term.t_coeff(regulator)
        slope = rational.to_float(a)
        t_lin = tuple((r, v) for r, v in term.t_lin if r != regulator)
        if local:
            base = expand_product(MeroFactorProduct._canonical(term.coeff.prefactor, local), order)
            lead, coeffs = base.lead, base.coeffs
        else:
            lead, coeffs = 0, [term.coeff.prefactor]
        end = lead + order + 1
        ends.append(end)
        # multiply by sum_k (a ln T)^k z^k / k!
        for j, cpoly in enumerate(coeffs):
            if cpoly.is_zero():
                continue
            p0 = lead + j
            for k in range(end - p0 if a[0] != 0 else 1):
                c = cpoly.scale(slope ** k / math.factorial(k)) if k else cpoly
                out.setdefault(p0 + k, []).append(ZetaTerm(
                    MeroFactorProduct._canonical(c, rest_factors), t_lin, term.t_const, term.t_log + k
                ))
    return out, min(ends, default=0)


def _expand_sum_in(
    s: ZetaTermSum, regulator: str, order: int, low: int | None = None
) -> tuple[int | None, ZetaTermSum, int]:
    """Lead order of a sum in one regulator, its lead coefficient merged, and the truncation.

    Lead first: each term is expanded to its own lead coefficient only
    (truncation 0).  Only if the merged coefficient at the least of those
    leads cancels is the sum expanded to truncation ``order`` (if above 0),
    and while it still vanishes, by a call at ``max(2 * order, 1)`` up to
    ``MAX_ORDER``; each truncation searches only the powers from ``low``,
    where the last one stopped, so each coefficient is merged once.  A
    coefficient below a truncation is the same float operations at any
    truncation (only the sign of a zero can differ, and ``ParamPoly``
    normalises it), so the result is the full expansion's bit for bit.  The
    coefficient is free of the regulator; the lead is None, with a zero sum,
    when every coefficient below the last truncation vanishes.  A retry is a
    call, not a loop, because perfbench's tracer counts calls per truncation.
    """
    rest = tuple(r for r in s.regulators if r != regulator)
    for truncation in ((0, order) if order else (0,)) if low is None else (order,):
        out, top = _coefficients(s, regulator, truncation)
        if low is None:
            low = min(out, default=top)
        for p in range(low, top):
            if p in out:
                coeff = ZetaTermSum(out[p], rest).merged()
                if coeff.terms:
                    return p, coeff, order
        low = top
    if order < MAX_ORDER:
        return _expand_sum_in(s, regulator, max(2 * order, 1), low)
    return None, ZetaTermSum([], rest), order


def _pair_key(f: PrimitiveFactor) -> tuple[tuple, int] | None:
    """A Gamma's key and offset: b = n/d splits into the offset ``n // d`` and the key's
    regulator, slope and ``n % d`` over ``d``, so Gammas of one key differ by integer shifts."""
    if f.kind != FactorKind.GAMMA:
        return None
    whole, frac = divmod(f.beta[0], f.beta[1])
    return (f.regulator, f.alpha, frac, f.beta[1]), whole


def _partners(factors: tuple[PrimitiveFactor, ...]) -> dict[tuple, list[list[int]]]:
    """Key -> [offset, index, multiplicity left] of each Gamma, in factor order."""
    out: dict[tuple, list[list[int]]] = {}
    for i, f in enumerate(factors):
        keyed = _pair_key(f)
        if keyed is not None:
            out.setdefault(keyed[0], []).append([keyed[1], i, f.power])
    return out


def _divide_term(
    t: ZetaTerm, partners: dict[tuple, list[list[int]]], divisor: list[tuple],
    inverses: tuple[PrimitiveFactor, ...], inverse_t_lin: TLin,
) -> ZetaTerm:
    factors = t.coeff.factors
    slots = [[] for _ in factors]  # the affine quotients that take each partner Gamma's place
    for g, key, offset in divisor:
        need = g.power
        while need:
            # the nearest partner (the first of equally near ones) keeps the affine product short
            e = min((e for e in partners[key] if e[2]), key=lambda e: abs(e[0] - offset))
            take = min(need, e[2])
            e[2] -= take
            need -= take
            slots[e[1]] += [q if take == 1 else q.raised(take) for q in gamma_quotient(g, e[0] - offset)]
    for pool in partners.values():
        for _, i, left in pool:
            f = factors[i]
            slots[i].append(f if left == f.power else f.remade(f.alpha, f.beta, left))
    quotient = tuple(x for f, s in zip(factors, slots) for x in (s or (f,))) + inverses
    t_lin = _merge_tlin(t.t_lin, inverse_t_lin)
    return ZetaTerm(MeroFactorProduct(t.coeff.prefactor, quotient), t_lin, t.t_const, t.t_log)


def divide_by_reference(
    n: ZetaTermSum, d: ZetaTermSum
) -> tuple[ZetaTermSum, ZetaTermSum, dict[str, int]]:
    """Divide every term of n and d by one divisor g taken from d's first term.

    g holds that term's phases, ``const_pow`` factors and ``T^(a.z)`` exponent,
    multiplied in inverted (each product's canonical form folds them into the
    term's own), and as much of each of its Gammas as every term of n and d has
    partners for: Gammas of one ``_pair_key``, which subtract multiplicities and
    leave affine factors in the partner's place.  Prefactors, constant ``T`` and
    ``ln T`` powers are left alone, so the quotient n/d
    and the prefactors its limit is read from do not change.  Returns the
    divided sums and g's order at 0 in each regulator.
    """
    r = d.terms[0].coeff.factors
    partners = [_partners(t.coeff.factors) for t in n.terms + d.terms]
    divisor, orders = [], {}
    for key, gammas in _partners(r).items():
        left = min(sum(e[2] for e in p.get(key, ())) for p in partners)
        for offset, i, power in gammas:
            if left:
                g = r[i].remade(r[i].alpha, r[i].beta, min(power, left))
                left -= g.power
                orders[g.regulator] = orders.get(g.regulator, 0) - g.pole_order()
                divisor.append((g, key, offset))
    inverses = tuple(f.raised(-1) for f in r if f.kind in EXPONENT_KINDS)
    inverse_t_lin = tuple((reg, rational.neg(a)) for reg, a in d.terms[0].t_lin)
    divided = [_divide_term(t, p, divisor, inverses, inverse_t_lin)
               for t, p in zip(n.terms + d.terms, partners)]
    k = len(n.terms)
    return ZetaTermSum(divided[:k], n.regulators), ZetaTermSum(divided[k:], d.regulators), orders


def value_at_zero(s: ZetaTermSum, order: int = DEFAULT_ORDER) -> TAsymptote:
    """Evaluate the meromorphic extension of the sum at regulator zero.

    Regulators go in declared order, each by its lead (``_expand_sum_in``):
    a lead at z^0 passes its coefficient on, one above z^0 (or none to the
    last truncation) makes the value zero without expanding the rest.
    Per-term poles must cancel across the sum; otherwise ``PoleAtZero`` is
    raised with the order and the residue-level diagnostic.
    """
    for reg in s.regulators:
        lead, s, _ = _expand_sum_in(s, reg, order)
        if lead is None or lead > 0:
            return TAsymptote()
        if lead < 0:
            raise PoleAtZero(-lead, s.render())
    return _to_asymptote(s)


def _to_asymptote(s: ZetaTermSum) -> TAsymptote:
    out = []
    for t in s.merged().terms:
        if t.coeff.factors:
            raise UnsupportedStructure(
                f"residual regulator factors survived elimination: {t.render()}"
            )
        out.append(TAsymTerm(t.coeff.prefactor, rational.fraction(t.t_const), t.t_log))
    return TAsymptote(out)


def ratio_limit(
    n: ZetaTermSum, d: ZetaTermSum, order: int = DEFAULT_ORDER,
    trace: list[str] | None = None,
) -> TAsymptote:
    """Iterated regulator limits of the quotient n/d at fixed T.

    Both sums are first divided by one reference divisor g from the first
    denominator term (``divide_by_reference``): Gamma pairs with integer shifts become affine
    factors and g's phases and powers fold into each term's own, so the
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
        pn, cn, kn = _expand_sum_in(n, reg, order)
        pd, cd, kd = _expand_sum_in(d, reg, order)
        k = max(kn, kd)
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
            return TAsymptote()
        if pd is None:
            raise DivergentLimit(f"denominator vanishes identically in {reg}")
        if pn > pd:
            return TAsymptote()
        if pn < pd:
            raise DivergentLimit(
                f"quotient diverges like {reg}^{pn - pd} at fixed T"
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
        out.append(TAsymTerm(
            t.coeff.prefactor.divide(dt.coeff.prefactor),
            rational.fraction(rational.sub(t.t_const, dt.t_const)),
            log_pow,
        ))
    return TAsymptote(out)


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
