import math
from fractions import Fraction

import pytest

from zetatrace.errors import UnknownModel, ValidationError
from zetatrace.models import (
    REGISTRY,
    RegistryEntry,
    build_model,
    dirac_fermion,
    list_models,
    run_model,
    schwinger_free,
)
from zetatrace.params import ParamPoly
from zetatrace.tables import PAPER, PRINCIPAL


def mono(c, **exps):
    return ParamPoly.monomial(c, {k: Fraction(v) for k, v in exps.items()})


def test_registry_has_seven_models():
    assert len(list_models()) == 7


def test_registry_with_custom_entry_has_eight():
    extra = {"custom": RegistryEntry(lambda **kw: build_model("phi4"), "custom", "n/a")}
    assert len(list_models(extra)) == 8


def test_registry_without_custom_dir_stays_seven():
    assert len(list_models({})) == 7


def test_unknown_model_raises():
    with pytest.raises(UnknownModel):
        run_model("no_such_model")


def test_run_harmonic_oscillator_1d():
    run = run_model("harmonic_oscillator_1d")
    assert run.passed
    assert run.results["H"].value == mono(0.5, hbar=1, omega=1)


def test_run_schwinger_free():
    run = run_model("schwinger_free")
    assert run.passed
    assert run.results["H_m"].value == ParamPoly.var("m")


def test_run_phi4():
    run = run_model("phi4")
    assert run.passed
    assert run.potential.minima[0] == mono(math.sqrt(6), mu=1, **{"lambda": Fraction(-1, 2)})
    assert run.potential.masses == [mono(math.sqrt(2), mu=1)]


def test_rotor_and_derived_energy_gap():
    run = run_model("topological_oscillator")
    assert run.passed
    assert run.results["chi_top"].value == mono(0.25, pi=-2, J=-1)
    assert run.results["energy_gap"].value == mono(0.5, J=-1)


def test_dirac_all_dimensions_give_rest_mass():
    for n in (1, 2, 3):
        run = run_model("dirac_fermion", n=n)
        assert run.passed, f"N={n}"
        assert run.results["H_m"].value == ParamPoly.var("m")


def test_matrix_symbols_are_built_once_per_process():
    for n in (1, 2, 3):
        assert dirac_fermion(n).hamiltonian is dirac_fermion(n).hamiltonian
    assert dirac_fermion(2).hamiltonian is not dirac_fermion(3).hamiltonian
    assert schwinger_free().hamiltonian is schwinger_free().hamiltonian


def test_dirac_outside_one_to_three_dimensions_is_invalid_every_time():
    for _ in range(2):
        with pytest.raises(ValidationError, match="spatial dimension must be 1, 2 or 3, got 4"):
            dirac_fermion(4)


def test_all_models_pass_on_both_branches():
    for name in REGISTRY:
        for policy in (PAPER, PRINCIPAL):
            run = run_model(name, policy)
            assert run.passed, f"{name} under {policy}: {run.failures}"


def test_branch_values_identical_across_registry():
    for name in REGISTRY:
        paper = run_model(name, PAPER)
        principal = run_model(name, PRINCIPAL)
        if paper.potential is not None:
            assert paper.potential.minima == principal.potential.minima
            assert paper.potential.masses == principal.potential.masses
            continue
        for obs, res in paper.results.items():
            assert res.value == principal.results[obs].value, obs


def test_expected_mismatch_is_reported():
    model = build_model("schwinger_free")
    model.expected = {"H_m": ParamPoly.var("m").scale(2)}
    entry = RegistryEntry(lambda **kw: model, "broken", "n/a")
    run = run_model("broken", registry={"broken": entry})
    assert not run.passed
    assert run.failures


def test_an_expected_value_equal_only_in_number_is_reported():
    """A run compares with ``==``, not at sample bindings: chi_top = 1/(4 pi^2 J)
    written as the number 0.25/pi^2 over J, with no ``pi`` atom, has the same
    value at every binding but another monomial, so it fails."""
    numeric = mono(0.25 / math.pi**2, J=-1)

    def builder():
        model = build_model("topological_oscillator")
        model.expected = dict(model.expected, chi_top=numeric)
        return model

    run = run_model("numeric_chi", registry={"numeric_chi": RegistryEntry(builder, "rotor", "n/a")})
    got = run.results["chi_top"].value
    for j in (0.5, 1.0, 2.7):
        assert got.eval({"J": j}) == pytest.approx(numeric.eval({"J": j}), rel=1e-12)
    assert got != numeric
    assert [f.split(":")[0] for f in run.failures] == ["chi_top"]
