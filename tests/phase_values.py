"""A phase decomposition summed back into its phase, for tests.

``decompose_phase`` splits a phase into per-axis quadratic and linear
coefficients and a constant; the engine only reads the parts.  Summing them
back lets the tests check that the split drops and aliases nothing.
Nothing in ``zetatrace`` calls this.
"""

from zetatrace.params import ParamPoly


def reassemble(d) -> ParamPoly:
    """-const + sum over axes of g2[axis] axis^2 + g1[axis] axis, zero coefficients left out."""
    out = -d.const
    for name, c in d.g2.items():
        if not c.is_zero():
            out = out + c * ParamPoly.var(name, 2)
    for name, c in d.g1.items():
        if not c.is_zero():
            out = out + c * ParamPoly.var(name)
    return out
