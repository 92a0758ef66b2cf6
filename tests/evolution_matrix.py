"""Numeric values of axis polynomials and evolutions, for tests.

The engine only uses the evolution's pieces (the weights of I and K and the
sign of each ``e^(+-i c t)``).  Summing them into the matrix
``e^(-i b t) sum_p e^(i s_p c t) (w_I I + w_K K)`` lets the tests check the
closed form against the group law and ``scipy.linalg.expm``.  The engine
never evaluates an ``AxisPoly`` at axis values either; ``axis_value`` does.
Nothing in ``zetatrace`` calls these.
"""

import numpy as np

from zetatrace.symbols import T


def axis_value(poly, axis_values, bindings, t_value: float = 1.0) -> complex:
    """An ``AxisPoly`` at the given axis values, parameters and ``T``."""
    total = 0j
    for key, coeff in poly.terms.items():
        v = coeff.eval({**bindings, T: t_value})
        for name, deg in key:
            v *= axis_values[name] ** deg
        total += v
    return total


def matrix_numeric(evo, t: float, axis_values, bindings) -> np.ndarray:
    sym = evo.symbol
    b = axis_value(sym.scalar, axis_values, bindings)
    c = axis_value(sym.coeff, axis_values, bindings)
    K = np.array([[axis_value(e, axis_values, {}) for e in row] for row in sym.kmatrix])
    out = np.zeros((sym.dim, sym.dim), dtype=complex)
    for p in evo.pieces:
        osc = np.exp(1j * p.osc_sign * c * t)
        out += osc * (p.weight_identity * np.eye(sym.dim) + p.weight_k * K)
    return np.exp(-1j * b * t) * out
