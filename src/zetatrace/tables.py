"""Closed-form reduction rows for gauged radial integrals.

Rows implemented:

* ``osc_linear`` -- int_0^inf r^q e^(+-i rate T r) dr as Gamma(q+1) * phase * (rate T)^(-q-1)
* ``gauss_radial`` -- int_R e^(-i rate T u^2) |u|^q du as Gamma((q+1)/2) * (i rate T)^(-(q+1)/2)
* ``angular_moment`` / ``sphere_volume`` -- exact sphere moments as polynomials in pi

Two continuation branches exist for the linear row.  ``principal`` is the
+i0-damped value (matched by the numeric oracle); ``paper`` keeps the
conventional Laplace-table phases e^(-i pi q / 2) and e^(-3 i pi q / 2) for
the two oscillation signs, which are conjugate continuations.  The Gaussian
row is branch-insensitive: both policies return the +i0 Fresnel value (see
tests for the documented relation to the conjugate-side convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GammaPole, UnsupportedAngular
from .laurent import MeroFactorProduct, PrimitiveFactor, gamma_value
from .params import ParamPoly, _fraction
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
    """Exponent a*z + b in one regulator."""

    regulator: str
    a: Fraction
    b: Fraction

    @staticmethod
    def of(regulator: str, a, b) -> "AffineExp":
        return AffineExp(regulator, _fraction(a), _fraction(b))


def _check_gamma_arg(q: AffineExp, denom: int = 1):
    """(q + 1)/denom must not be a non-positive integer when a = 0."""
    arg = (q.b + 1) / denom
    if q.a == 0 and arg.denominator == 1 and arg <= 0:
        raise GammaPole(f"Gamma({arg}) with no regulator present")


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
    factors = [PrimitiveFactor.gamma(a, b + 1, reg)]
    if policy.mode == "paper":
        if sign > 0:
            # -i e^(-i pi q / 2)
            phase = PrimitiveFactor.exp_ipi(-a / 2, -b / 2 - Fraction(1, 2), reg)
        else:
            # +i e^(-3 i pi q / 2)
            phase = PrimitiveFactor.exp_ipi(
                Fraction(-3, 2) * a, Fraction(-3, 2) * b + Fraction(1, 2), reg
            )
    else:
        # e^(+- i pi (q+1) / 2): the +i0-damped continuation
        s = Fraction(sign)
        phase = PrimitiveFactor.exp_ipi(s * a / 2, s * (b + 1) / 2, reg)
    factors.append(phase)
    t_lin = {reg: -a}
    t_const = -(b + 1)
    if rate is not None and not rate.is_one():
        factors.append(PrimitiveFactor.const_pow(rate, -a, -(b + 1), reg))
    return ZetaTerm(
        MeroFactorProduct(ParamPoly.one(), tuple(factors)),
        t_lin=tuple(sorted(t_lin.items())),
        t_const=t_const,
    )


def gauss_radial(
    q: AffineExp, policy: BranchPolicy, rate: ParamPoly | None = None
) -> ZetaTerm:
    """int_R e^(-i * rate * T * u^2) |u|^q du = Gamma((q+1)/2) (i rate T)^(-(q+1)/2).

    Branch-insensitive: the +i0 Fresnel phase e^(-i pi (q+1)/4) is used for
    both policies (the conjugate-side convention flips the sign of every
    ratio across an even exponent gap and is not a single-valued branch of
    the stated closed form).
    """
    _check_gamma_arg(q, denom=2)
    a, b, reg = q.a, q.b, q.regulator
    factors = [
        PrimitiveFactor.gamma(a / 2, (b + 1) / 2, reg),
        PrimitiveFactor.exp_ipi(-a / 4, -(b + 1) / 4, reg),
    ]
    if rate is not None and not rate.is_one():
        factors.append(PrimitiveFactor.const_pow(rate, -a / 2, -(b + 1) / 2, reg))
    return ZetaTerm(
        MeroFactorProduct(ParamPoly.one(), tuple(factors)),
        t_lin=tuple(sorted({reg: -a / 2}.items())),
        t_const=-(b + 1) / 2,
    )


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
    den = gamma_value(Fraction(dim + sum(powers), 2))
    # each component without a power contributes Gamma(1/2) = 1.0 * pi^(1/2)
    num = ParamPoly.monomial(2.0, {"pi": Fraction(dim - len(powers), 2)})
    for p in powers:
        num = num * gamma_value(Fraction(p + 1, 2))
    return num * den.inverse()


def sphere_volume(dim: int) -> ParamPoly:
    """vol(S^(dim-1)) = 2 pi^(dim/2) / Gamma(dim/2); dim = 1 gives the two-point set."""
    return angular_moment((), dim)
