"""Registry of the bundled models with their expected closed forms.

Each builder returns a fully declarative ``ModelSpec``; ``run_model`` drives
the engine and compares against the expected values with ``==``: the same
monomials, coefficients within 1e-12 relative.  A ``Divergent`` value never
matches.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Mapping

from .engine import (
    ExpectationResult,
    GaugeGroup,
    ModelSpec,
    PotentialResult,
    effective_potential,
    expectation,
)
from .errors import UnknownModel, ValidationError
from .laurent import DEFAULT_ORDER
from .params import Param, ParamPoly
from .records import FrozenRecord, Record
from .symbols import MatrixSymbol
from .tables import PAPER
from .terms import Divergent


def _poly(coeff, **exps) -> ParamPoly:
    return ParamPoly.monomial(coeff, {k: Fraction(v) if not isinstance(v, Fraction) else v
                                       for k, v in exps.items()})


def harmonic_oscillator_1d() -> ModelSpec:
    m, hbar, omega = Param("m", default=1.0), Param("hbar", default=1.0), Param("omega", default=1.0)
    h = (
        _poly(0.5, m=1, omega=2, x=2)
        + _poly(0.5, hbar=2, m=-1, xi=2)
        + _poly(0.5, hbar=1, omega=1)
    )
    return ModelSpec(
        name="harmonic_oscillator_1d",
        description="1D harmonic oscillator; ground state energy",
        params=(m, hbar, omega),
        groups=(
            GaugeGroup("gxi", ("xi",), "z1"),
            GaugeGroup("gx", ("x",), "z2"),
        ),
        hamiltonian=h,
        observables={"H": h},
        expected={"H": _poly(0.5, hbar=1, omega=1)},
        hbar="hbar",
        prefactor=_poly(0.5, pi=-1),
    )


def harmonic_oscillator_nd(n: int = 3, per_axis: bool = False) -> ModelSpec:
    m, hbar, omega = Param("m", default=1.0), Param("hbar", default=1.0), Param("omega", default=1.0)
    h = _poly(0.5 * n, hbar=1, omega=1)
    xi_axes, x_axes = [], []
    for j in range(1, n + 1):
        h = h + _poly(0.5, m=1, omega=2, **{f"x{j}": 2})
        h = h + _poly(0.5, hbar=2, m=-1, **{f"xi{j}": 2})
        xi_axes.append(f"xi{j}")
        x_axes.append(f"x{j}")
    if per_axis:
        groups = tuple(
            GaugeGroup(f"g{a}", (a,), f"z{i + 1}")
            for i, a in enumerate(xi_axes + x_axes)
        )
    else:
        groups = (
            GaugeGroup("gxi", tuple(xi_axes), "z1"),
            GaugeGroup("gx", tuple(x_axes), "z2"),
        )
    return ModelSpec(
        name="harmonic_oscillator_nd",
        description=f"{n}D harmonic oscillator with grouped gauge",
        params=(m, hbar, omega),
        groups=groups,
        hamiltonian=h,
        observables={"H": h},
        expected={"H": _poly(0.5 * n, hbar=1, omega=1)},
        hbar="hbar",
        prefactor=_poly(2.0**-n, pi=-n),
    )


def topological_oscillator() -> ModelSpec:
    j = Param("J", default=1.0)
    h = _poly(0.5, J=-1, xi=2)
    # Q^2/(-i T) with Q = T xi / (2 pi J): equals (i T / (4 pi^2 J^2)) xi^2
    charge_sq = _poly(0.25j, pi=-2, J=-2, T=1, xi=2)
    return ModelSpec(
        name="topological_oscillator",
        description="quantum rotor; topological susceptibility and energy gap",
        params=(j,),
        groups=(GaugeGroup("g", ("xi",), "z"),),
        hamiltonian=h,
        observables={"chi_top": charge_sq},
        expected={
            "chi_top": _poly(0.25, pi=-2, J=-1),
            "energy_gap": _poly(0.5, J=-1),
        },
        derived={"energy_gap": ("chi_top", _poly(2, pi=2))},
    )


@functools.cache
def _dirac_symbol(n: int, radius: str) -> MatrixSymbol:
    """m I + radius K in n spatial dimensions, built and checked once per process.

    K is sigma . h with h = (1, 0, 0) for n = 1 (sigma_x) and (h1, h2, 0) over
    the direction symbols for n = 2; for n = 3 it is alpha . h, whose
    off-diagonal blocks are sigma . h.
    """
    if n not in (1, 2, 3):
        raise ValidationError(f"spatial dimension must be 1, 2 or 3, got {n}")
    hats = tuple(f"xi{j}^" for j in range(1, n + 1)) if n > 1 else ()
    zero = ParamPoly.zero()
    h = [ParamPoly.var(s) for s in hats] or [ParamPoly.one()]
    h += [zero] * (3 - len(h))
    k = ((h[2], h[0] + (-1j) * h[1]), (h[0] + 1j * h[1], -h[2]))
    if n == 3:
        k = tuple((zero, zero) + row for row in k) + tuple(row + (zero, zero) for row in k)
    return MatrixSymbol(
        scalar=_poly(1, m=1),
        coeff=ParamPoly.var(radius),
        kmatrix=k,
        direction_syms=hats,
    )


def schwinger_free() -> ModelSpec:
    m, vol = Param("m", default=1.0), Param("X", default=1.0)
    # the 1+1 D fermion: m I + xi sigma_x
    ham = _dirac_symbol(1, "xi")
    return ModelSpec(
        name="schwinger_free",
        description="free massive fermion on a 2D space-time torus; rest energy",
        params=(m, vol),
        groups=(GaugeGroup("g", ("xi",), "z"),),
        hamiltonian=ham,
        observables={"H_m": ham},
        expected={"H_m": _poly(1, m=1)},
        prefactor=_poly(0.5, X=1, pi=-1),
    )


def dirac_fermion(n: int = 3) -> ModelSpec:
    m = Param("m", default=1.0)
    group = GaugeGroup("g", tuple(f"xi{j}" for j in range(1, n + 1)), "z",
                       reduction="radial" if n > 1 else "separable")
    ham = _dirac_symbol(n, group.radius_symbol())
    return ModelSpec(
        name="dirac_fermion",
        description=f"free relativistic fermion in {n} spatial dimensions; rest energy",
        params=(m,),
        groups=(group,),
        hamiltonian=ham,
        observables={"H_m": ham},
        expected={"H_m": _poly(1, m=1)},
    )


def schwinger_boson_mass() -> ModelSpec:
    e, m = Param("e", default=1.0), Param("m", default=1.0)
    h = _poly(0.5, E=2) + _poly(1, m=1)
    obs = _poly(1, E=2) + _poly(1, e=2, pi=-1)
    return ModelSpec(
        name="schwinger_boson_mass",
        description="interacting 2D gauge theory; squared gauge boson mass",
        params=(e, m),
        groups=(GaugeGroup("g", ("E",), "z"),),
        hamiltonian=h,
        observables={"m_g^2": obs},
        expected={"m_g^2": _poly(1, e=2, pi=-1)},
        tokens=("sector:A", "sector:xi-x"),
    )


def phi4() -> ModelSpec:
    mu = Param("mu", default=1.0)
    lam = Param("lambda", default=6.0)
    phi = Param("phi", positive=False)
    h = _poly(0.5, p=2) + _poly(-0.5, mu=2, phi=2) + _poly(Fraction(1, 24), **{"lambda": 1, "phi": 4})
    return ModelSpec(
        name="phi4",
        description="quartic scalar theory at constant field; vacua and field mass",
        params=(mu, lam, phi),
        groups=(GaugeGroup("g", ("p",), "z"),),
        hamiltonian=h,
        observables={},
        expected={
            "minimum": _poly(6**0.5, mu=1, **{"lambda": Fraction(-1, 2)}),
            "mass": _poly(2**0.5, mu=1),
        },
        t_symbol="TX",
        field_param="phi",
        prefactor=_poly(0.5, pi=-1),
    )


class RegistryEntry(FrozenRecord):
    __slots__ = ("builder", "description", "expected_summary")

    def __init__(self, builder: Callable[..., ModelSpec], description: str, expected_summary: str):
        self.builder = builder
        self.description = description
        self.expected_summary = expected_summary


REGISTRY: dict[str, RegistryEntry] = {
    "harmonic_oscillator_1d": RegistryEntry(
        harmonic_oscillator_1d, "1D harmonic oscillator", "<H> = hbar*omega/2"
    ),
    "harmonic_oscillator_nd": RegistryEntry(
        harmonic_oscillator_nd, "N-dimensional harmonic oscillator", "<H> = N*hbar*omega/2"
    ),
    "topological_oscillator": RegistryEntry(
        topological_oscillator, "quantum rotor", "chi_top = 1/(4 pi^2 J); gap = 1/(2 J)"
    ),
    "schwinger_free": RegistryEntry(
        schwinger_free, "free massive 2D fermion", "<H_m> = m"
    ),
    "dirac_fermion": RegistryEntry(
        dirac_fermion, "free relativistic fermion (N spatial dims)", "<H_m> = m"
    ),
    "schwinger_boson_mass": RegistryEntry(
        schwinger_boson_mass, "2D gauge boson mass", "m_g^2 = e^2/pi"
    ),
    "phi4": RegistryEntry(
        phi4, "quartic scalar potential", "minima +-sqrt(6/lambda)*mu, mass sqrt(2)*mu"
    ),
}


class ModelRun(Record):
    __slots__ = ("model", "results", "potential", "failures")

    def __init__(self, model: ModelSpec, results: dict[str, ExpectationResult],
                 potential: PotentialResult | None, failures: list[str] | None = None):
        self.model = model
        self.results = results
        self.potential = potential
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures


def build_model(name: str, **overrides) -> ModelSpec:
    return _build(REGISTRY, name, overrides)


def _build(table: Mapping[str, RegistryEntry], name: str, overrides) -> ModelSpec:
    if name not in table:
        raise UnknownModel(name)
    builder = table[name].builder
    if overrides:
        import inspect  # only an override needs the builder's signature

        try:
            inspect.signature(builder).bind(**overrides)
        except TypeError:
            raise ValidationError(
                f"model {name} takes no override {', '.join(sorted(overrides))}"
            ) from None
    return builder(**overrides)


def run_model(
    name: str,
    policy: str = PAPER,
    series_order: int = DEFAULT_ORDER,
    registry: Mapping[str, RegistryEntry] | None = None,
    **overrides,
) -> ModelRun:
    table = dict(REGISTRY)
    if registry:
        table.update(registry)
    model = _build(table, name, overrides)
    failures: list[str] = []

    if model.field_param is not None:
        pot = effective_potential(model, policy, series_order)
        got = {
            "minimum": pot.minima[0] if pot.minima else None,
            "mass": pot.masses[0] if pot.masses else None,
        }
        for key, expected in model.expected.items():
            value = got.get(key)
            if value is None or value != expected:
                failures.append(f"{key}: expected {expected.render()}")
        return ModelRun(model, {}, pot, failures)

    results: dict[str, ExpectationResult] = {}
    for obs in model.observables:
        results[obs] = expectation(model, obs, policy, series_order)
    for derived_name, (source, multiplier) in model.derived.items():
        src = results[source]
        value = src.value if isinstance(src.value, Divergent) else src.value * multiplier
        results[derived_name] = ExpectationResult(
            model.name, derived_name, value, None,
            [f"derived: ({multiplier.render()}) * <{source}>"],
        )
    for obs, expected in model.expected.items():
        res = results.get(obs)
        if res is None:
            continue
        if res.value != expected:
            got = res.value.render() if isinstance(res.value, ParamPoly) else repr(res.value)
            failures.append(f"{obs}: expected {expected.render()}, got {got}")
    return ModelRun(model, results, None, failures)


def list_models(registry: Mapping[str, RegistryEntry] | None = None) -> list[tuple[str, str, str]]:
    table = dict(REGISTRY)
    if registry:
        table.update(registry)
    return [(name, e.description, e.expected_summary) for name, e in table.items()]
