"""A term times a coefficient, for tests.

The engine multiplies a picked table row's multiplier into its branch
coefficient (``engine.reduce_pieces``) and never scales a row.  Tests that
write a reduction chain by hand scale their rows here.  Nothing in
``zetatrace`` calls this.
"""

from zetatrace.laurent import MeroFactorProduct
from zetatrace.params import ParamPoly
from zetatrace.terms import ZetaTerm


def scaled(term: ZetaTerm, poly: ParamPoly) -> ZetaTerm:
    """``term`` with its prefactor times ``poly``; its factors and exponents are kept."""
    coeff = MeroFactorProduct(term.coeff.prefactor * poly, term.coeff.factors)
    return ZetaTerm(coeff, term.t_lin, term.t_const, term.t_log, term.phase)
