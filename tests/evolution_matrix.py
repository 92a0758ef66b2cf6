"""Numeric values of evolutions, for tests.

The engine only uses the evolution's pieces (the weights of I and K and the
sign of each ``e^(+-i c t)``).  Summing them into the matrix
``e^(-i b t) sum_p e^(i s_p c t) (w_I I + w_K K)`` lets the tests check the
closed form against the group law and ``scipy.linalg.expm``.  Nothing in
``zetatrace`` calls this.
"""

import numpy as np


def matrix_numeric(evo, t: float, axis_values, bindings) -> np.ndarray:
    sym = evo.symbol
    at = {**bindings, **axis_values}
    b = sym.scalar.eval(at)
    c = sym.coeff.eval(at)
    K = np.array([[e.eval(axis_values) for e in row] for row in sym.kmatrix])
    out = np.zeros((sym.dim, sym.dim), dtype=complex)
    for p in evo.pieces:
        osc = np.exp(1j * p.osc_sign * c * t)
        out += osc * (p.weight_identity * np.eye(sym.dim) + p.weight_k * K)
    return np.exp(-1j * b * t) * out
