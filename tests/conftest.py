import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from zetatrace.engine import GaugeGroup, ModelSpec
from zetatrace.params import Param, ParamPoly

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# fresh examples, many of them, outside Tier-1:
#   ZETATRACE_HYPOTHESIS_PROFILE=deep python -m pytest --hypothesis-seed=<n> ...
settings.register_profile(
    "deep",
    derandomize=False,
    database=None,
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("ZETATRACE_HYPOTHESIS_PROFILE", "det"))


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
        mono(0.5, m=-1, xi1=2)
        + mono(0.5, m=1, w=2, x1=2)
        + mono(1, w=1)
        + mono(1, F=1, x1=1)
    )
    return ModelSpec(
        name="shifted",
        description="custom model",
        params=(Param("m"), Param("w"), Param("F")),
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
        groups=(GaugeGroup("g_xi", ("xi",), "z"),),
        hamiltonian=ParamPoly.monomial(1, {"c": 1, "xi": 1}),
        observables={"observable": ParamPoly.var("xi", -1)},
    )
