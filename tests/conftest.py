from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from zetatrace.engine import GaugeGroup, ModelSpec
from zetatrace.params import Param, ParamPoly
from zetatrace.symbols import Axis, AxisPoly

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture
def shifted_oscillator():
    """H = xi1^2/(2m) + m w^2 x1^2/2 + w + F x1, built directly as a spec.

    Model-file validation rejects it (x1 carries a quadratic and a linear
    phase), so the engine and the oracle can only be shown to reject it too
    on a spec built by hand.
    """
    def mono(c, **exps):
        return ParamPoly.monomial(c, {k: Fraction(v) for k, v in exps.items()})

    h = (
        AxisPoly.symbol("xi1", 2, mono(0.5, m=-1))
        + AxisPoly.symbol("x1", 2, mono(0.5, m=1, w=2))
        + AxisPoly.constant(mono(1, w=1))
        + AxisPoly.symbol("x1", 1, mono(1, F=1))
    )
    return ModelSpec(
        name="shifted",
        description="custom model",
        params=(Param("m"), Param("w"), Param("F")),
        axes=(Axis("xi1", "momentum", "g_xi1"), Axis("x1", "position", "g_x1")),
        groups=(GaugeGroup("g_xi1", ("xi1",), "z1"), GaugeGroup("g_x1", ("x1",), "z2")),
        hamiltonian=h,
        observables={"observable": h},
    )


@pytest.fixture
def divergent_inverse_momentum():
    """<1/xi> under the linear phase c*xi, one axis and regulator z.

    The quotient diverges like z^-1 at fixed T: the one spec on which
    ``expectation`` returns ``Divergent`` rather than a value.
    """
    return ModelSpec(
        name="divergent",
        description="custom model",
        params=(Param("c"),),
        axes=(Axis("xi", "momentum", "g_xi"),),
        groups=(GaugeGroup("g_xi", ("xi",), "z"),),
        hamiltonian=AxisPoly.symbol("xi", 1, ParamPoly.var("c")),
        observables={"observable": AxisPoly.symbol("xi", -1)},
    )
