"""Closed-form reduction rows for gauged radial integrals.

Rows implemented:

* ``osc_linear`` -- int_0^inf r^q e^(+-i rate T r) dr as Gamma(q+1) * phase * (rate T)^(-q-1)
* ``gauss_radial`` -- int_R e^(-i rate T u^2) |u|^q du, which t = u^2 turns into the
  principal ``osc_linear`` row at exponent (q-1)/2 and sign -1:
  Gamma((q+1)/2) * (i rate T)^(-(q+1)/2)
* ``angular_moment`` -- exact sphere moments as polynomials in pi; no powers
  give the sphere's volume

Two continuation branches exist for the linear row.  ``principal`` is the
+i0-damped value (matched by the numeric oracle); ``paper`` keeps the
conventional Laplace-table phases e^(-i pi q / 2) and e^(-3 i pi q / 2) for
the two oscillation signs, which are conjugate continuations.  The Gaussian
row is branch-insensitive: it is always the +i0 Fresnel value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import rational
from .errors import GammaPole, UnsupportedAngular
from .laurent import FactorKind, MeroFactorProduct, PrimitiveFactor, gamma_value, positive_base
from .params import ParamPoly
from .rational import Q
from .terms import ZetaTerm


@dataclass(frozen=True)
class BranchPolicy:
    """Continuation branch for oscillatory table rows; fixed per evaluation run."""

    mode: str = "paper"

    def __post_init__(self):
        if self.mode not in ("paper", "principal"):
            raise ValueError(f"unknown branch mode {self.mode!r}")


PAPER = BranchPolicy("paper")
PRINCIPAL = BranchPolicy("principal")


@dataclass(frozen=True)
class AffineExp:
    """Exponent a*z + b in one regulator; a and b are normalised integer pairs (``rational``)."""

    regulator: str
    a: Q
    b: Q


def _check_gamma_arg(q: AffineExp):
    """q + 1 must not be a non-positive integer when a = 0."""
    n, d = rational.add(q.b, rational.ONE)
    if q.a[0] == 0 and n % d == 0 and n <= 0:
        raise GammaPole(f"Gamma({n // d}) with no regulator present")


def _const_pow(rate: ParamPoly | None, alpha: Q, beta: Q, reg: str) -> list[PrimitiveFactor]:
    """(rate)^(alpha z + beta), or no factor for rate 1."""
    if rate is None or rate.is_one():
        return []
    return [PrimitiveFactor(FactorKind.CONST_POW, alpha, beta, base=positive_base(rate), regulator=reg)]


def osc_linear(
    q: AffineExp, sign: int, policy: BranchPolicy, rate: ParamPoly | None = None
) -> ZetaTerm:
    """int_0^inf r^q e^(sign * i * rate * T * r) dr.

    Returns Gamma(q+1) * phase * (rate*T)^(-q-1) with the phase set by the
    branch policy.  ``rate`` defaults to 1 and must be a positive monomial.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_gamma_arg(q)
    a, b, reg = q.a, q.b, q.regulator
    b1 = rational.add(b, rational.ONE)
    if policy.mode == "paper":
        if sign > 0:
            # -i e^(-i pi q / 2)
            phase = rational.mul(a, (-1, 2)), rational.mul(b1, (-1, 2))
        else:
            # +i e^(-3 i pi q / 2)
            phase = rational.mul(a, (-3, 2)), rational.add(rational.mul(b, (-3, 2)), (1, 2))
    else:
        # e^(+- i pi (q+1) / 2): the +i0-damped continuation
        phase = rational.mul(a, (sign, 2)), rational.mul(b1, (sign, 2))
    t_lin, t_const = rational.neg(a), rational.neg(b1)
    factors = [
        PrimitiveFactor(FactorKind.GAMMA, a, b1, regulator=reg),
        PrimitiveFactor(FactorKind.EXP_IPI, *phase, regulator=reg),
    ] + _const_pow(rate, t_lin, t_const, reg)
    return ZetaTerm(
        MeroFactorProduct(ParamPoly.one(), tuple(factors)), t_lin=((reg, t_lin),), t_const=t_const
    )


def gauss_radial(q: AffineExp, rate: ParamPoly | None = None) -> ZetaTerm:
    """int_R e^(-i * rate * T * u^2) |u|^q du = Gamma((q+1)/2) (i rate T)^(-(q+1)/2).

    With t = u^2 this is int_0^inf t^((q-1)/2) e^(-i rate T t) dt, the
    principal linear row: the +i0 Fresnel phase e^(-i pi (q+1)/4) for both
    policies (the conjugate-side convention flips the sign of every ratio
    across an even exponent gap and is not a single-valued branch of the
    stated closed form).
    """
    half_b = rational.mul(rational.sub(q.b, rational.ONE), (1, 2))
    half_q = AffineExp(q.regulator, rational.mul(q.a, (1, 2)), half_b)
    return osc_linear(half_q, -1, PRINCIPAL, rate)


def angular_moment(powers: tuple[int, ...], dim: int) -> ParamPoly:
    """Exact integral of prod_j xihat_j^(p_j) over the unit sphere S^(dim-1).

    Odd monomials vanish; even monomials give
    2 * prod Gamma((p_j+1)/2) / Gamma((dim + sum p_j)/2), kept exact in
    rational multiples of half-integer powers of pi.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if len(powers) > dim:
        raise UnsupportedAngular("more direction components than dimensions")
    if any(p < 0 for p in powers):
        raise UnsupportedAngular("negative direction powers")
    if any(p % 2 for p in powers):
        return ParamPoly.zero()
    den = gamma_value(rational.of(Fraction(dim + sum(powers), 2)))
    # each component without a power contributes Gamma(1/2) = 1.0 * pi^(1/2)
    num = ParamPoly.monomial(2.0, {"pi": Fraction(dim - len(powers), 2)})
    for p in powers:
        num = num * gamma_value(rational.of(Fraction(p + 1, 2)))
    return num * den.inverse()

