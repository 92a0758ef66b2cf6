"""Exception taxonomy shared across the engine layers."""


class ZetatraceError(Exception):
    """Base class for all engine errors."""


class UnboundParameter(ZetatraceError):
    """Numeric evaluation hit a parameter without a binding."""


class NumericOverflow(ZetatraceError):
    """Numeric evaluation of a parameter power, a term or a sum left the float range."""


class UnsupportedFactor(ZetatraceError):
    """A primitive factor cannot be expanded at z = 0."""


class UnsupportedStructure(ZetatraceError):
    """The object falls outside the structural subset the engine reduces."""


class GammaPole(ZetatraceError):
    """Gamma argument sits at a non-positive integer with no regulator to lift it."""


class PoleAtZero(ZetatraceError):
    """The summed expansion has a genuine pole at z = 0."""

    def __init__(self, order, residue=None):
        self.order = order
        self.residue = residue
        super().__init__(f"pole of order {order} at z = 0")


class DivergentLimit(ZetatraceError):
    """The z -> 0 quotient diverges (denominator lead order exceeds numerator's)."""


class ZeroOverZeroUnresolved(ZetatraceError):
    """Both series vanish identically to the truncation order."""


class UnresolvedDenominator(ZetatraceError):
    """The final denominator is not a single invertible term."""


class ZeroQuadraticCoefficient(ZetatraceError):
    """complete_square called on an axis with vanishing quadratic coefficient."""


class DegenerateCase(ZetatraceError):
    """Phase has no quadratic and no linear part but nonconstant dependence."""


class NotInvolution(ZetatraceError):
    """Matrix part K fails K^2 = I."""


class ShapeMismatch(ZetatraceError):
    """Observable and evolution symbols have incompatible shapes."""


class UncoveredAxis(ZetatraceError):
    """A non-compact axis is missing from the gauge grouping."""


class UnsupportedAngular(ZetatraceError):
    """Angular part is not polynomial in the direction components."""


class CriticalDegree(ZetatraceError):
    """A homogeneous term has the critical degree d = -N."""


class LogOfNonmonomial(ZetatraceError):
    """Residual partition-function factor is not a positive monomial times a phase."""


class UnsolvablePotential(ZetatraceError):
    """Potential derivative does not match the symbolically solvable pattern."""


class NonConvergent(ZetatraceError):
    """Numeric extrapolation error estimate exceeded its threshold."""


class DivergenceDetected(ZetatraceError):
    """Finite-T sweep grew instead of settling."""


class UnknownModel(ZetatraceError):
    """Requested model name is not registered."""


class ParseError(ZetatraceError):
    """Model-definition file failed to parse."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{where}")


class ValidationError(ZetatraceError):
    """Parsed model violates the reducibility hypotheses."""


class UsageError(ZetatraceError):
    """A command-line flag has a value the program cannot use."""
