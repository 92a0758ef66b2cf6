"""A phase decomposition summed back into its phase, for tests.

``decompose_phase`` splits a phase into per-axis quadratic and linear
coefficients and a constant; the engine only reads the parts.  Summing them
back lets the tests check that the split drops and aliases nothing.
Nothing in ``zetatrace`` calls this.
"""

from zetatrace.params import ParamPoly


def reassemble(d) -> ParamPoly:
    """h0_const + sum over axes of h2[axis] axis^2 + h1[axis] axis, zero coefficients left out."""
    out = d.h0_const
    for name, c in d.h2.items():
        if not c.is_zero():
            out = out + c * ParamPoly.var(name, 2)
    for name, c in d.h1.items():
        if not c.is_zero():
            out = out + c * ParamPoly.var(name)
    return out
