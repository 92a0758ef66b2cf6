"""Zeta-regularized trace engine for oscillatory phase-space integrals."""

from .engine import (
    ExpectationResult,
    GaugeGroup,
    KVAmplitudeSpec,
    ModelSpec,
    PotentialResult,
    apply_gauge,
    complete_square,
    effective_potential,
    expectation,
    kv_trace_at_zero,
)
from .laurent import (
    LaurentSeries,
    MeroFactorProduct,
    PrimitiveFactor,
    expand_factor,
    expand_product,
)
from .models import REGISTRY, build_model, list_models, run_model
from .params import Param, ParamPoly
from .symbols import (
    Axis,
    AxisPoly,
    MatrixSymbol,
    compose_observable,
    decompose_phase,
    involution_exp,
    series_pow,
)
from .tables import (
    PAPER,
    PRINCIPAL,
    AffineExp,
    BranchPolicy,
    angular_moment,
    gauss_radial,
    osc_linear,
    sphere_volume,
)
from .terms import (
    Divergent,
    TAsymptote,
    ZetaTerm,
    ZetaTermSum,
    ratio_limit,
    thermal_limit,
    value_at_zero,
)

__version__ = "0.1.0"
