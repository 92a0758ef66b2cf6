"""Numeric values of factors, factor products and series coefficients, for tests.

The engine never evaluates a regulator factor at a given z: it expands it at
z = 0.  Tests that check a table row, an expansion or a term sum against a
direct value evaluate it here, with ``lanczos.gamma`` as the Gamma function.
Nothing in ``zetatrace`` calls these.
"""

import cmath
import math

import lanczos
from zetatrace.laurent import FactorKind
from zetatrace.rational import to_float


def factor_value(f, z: complex, bindings=None) -> complex:
    """A primitive factor's value at the regulator value z."""
    arg = complex(to_float(f.alpha)) * z + complex(to_float(f.beta))
    if f.kind == FactorKind.GAMMA:
        return lanczos.gamma(arg)
    if f.kind == FactorKind.EXP_IPI:
        return cmath.exp(1j * math.pi * arg)
    if f.kind == FactorKind.AFFINE:
        return arg ** f.power
    b = f.base_poly().eval(bindings or {})
    return b ** arg


def product_value(p, z: complex, bindings=None) -> complex:
    """A factor product's value, prefactor included, at the regulator value z."""
    v = p.prefactor.eval(bindings or {})
    for f in p.factors:
        v *= factor_value(f, z, bindings)
    return v


def coeff_at(series, power: int):
    """The coefficient of z^power in a Laurent series; None outside its stored range."""
    idx = power - series.lead
    if 0 <= idx < len(series.coeffs):
        return series.coeffs[idx]
    return None
