"""A local complex Gamma for tests that evaluate table rows numerically.

Independent of the engine's Gamma (``laurent.gamma_value`` and mpmath): the
Lanczos series with g = 7 and nine coefficients, with the reflection formula
for Re(z) < 1/2.  Nothing in ``zetatrace`` calls it.
"""

import cmath
import math

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z: complex) -> complex:
    """Complex Gamma via the Lanczos series with reflection for Re(z) < 1/2."""
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    x = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x
