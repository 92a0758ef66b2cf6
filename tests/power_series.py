"""Powers of a power series by the product recursion, for tests.

Acceptance criterion 11 asks for the recursion; the engine expands factor
products another way.  Nothing in ``zetatrace`` calls this.
"""

from typing import Sequence


def series_pow(coeffs: Sequence, n: int, order: int) -> list:
    """Coefficients of (sum_k a_k X^k)^n to X^order via the product recursion.

    c_0 = a_0^n and m a_0 c_m = sum_{k=1..m} (k n - m + k) a_k c_{m-k}.
    Works over numbers (Fraction, float, complex).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not coeffs:
        return []
    if n == 0:
        return [1] + [0] * order
    # factor out the lowest nonzero power so a_0 != 0
    lead = next((i for i, a in enumerate(coeffs) if a != 0), None)
    if lead is None:
        return [0] * (order + 1)
    shifted = coeffs[lead:]
    a0 = shifted[0]
    out = [a0**n]
    for m in range(1, order + 1):
        top = min(m, len(shifted) - 1)
        acc = sum((k * n - m + k) * shifted[k] * out[m - k] for k in range(1, top + 1))
        out.append(acc / (m * a0))
    return ([0] * (lead * n) + out)[: order + 1]
