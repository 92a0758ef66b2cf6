import math
import signal
from fractions import Fraction

import pytest

from zetatrace.engine import ModelSpec, expectation
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
from zetatrace.symbols import MatrixSymbol
from zetatrace.tables import PAPER, PRINCIPAL
from zetatrace.terms import TAsymTerm


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


@pytest.mark.parametrize("argument, value, message", [
    ("policy", "nearest", "branch must be 'paper' or 'principal', got 'nearest'"),
    ("series_order", 0, "series order must be an int >= 1, got 0"),
    ("series_order", -1, "series order must be an int >= 1, got -1"),
])
def test_every_model_rejects_a_bad_branch_or_series_order_by_name(argument, value, message):
    """Each model raises one ``ValidationError`` before any Laurent expansion.

    Order 0 once doubled a truncation of 0 forever, so a hang fails the test
    after a few seconds instead of stalling the suite.
    """
    def hung(signum, frame):
        raise TimeoutError(f"run_model({argument}={value!r}) did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for name in REGISTRY:
            with pytest.raises(ValidationError) as caught:
                run_model(name, **{argument: value})
            assert str(caught.value) == message, name
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def without_constant_terms(symbol, axes):
    """A scalar symbol's monomials that carry an axis symbol, or b I + c K without b."""
    if isinstance(symbol, MatrixSymbol):
        return MatrixSymbol(ParamPoly.zero(), symbol.coeff, symbol.kmatrix, symbol.direction_syms)
    return ParamPoly({k: c for k, c in symbol.terms.items() if any(name in axes for name, _ in k)})


@pytest.mark.parametrize("name, observable, constant, decaying", [
    ("harmonic_oscillator_1d", "H", mono(0.5, hbar=1, omega=1), mono(-1j, hbar=1)),
    ("harmonic_oscillator_nd", "H", mono(1.5, hbar=1, omega=1), mono(-3j, hbar=1)),
    ("schwinger_free", "H_m", mono(1, m=1), mono(1j)),
    ("dirac_fermion", "H_m", mono(1, m=1), mono(3j)),
    ("schwinger_boson_mass", "m_g^2", mono(1, e=2, pi=-1), mono(-1j)),
])
def test_the_registry_value_is_a_constant_term_of_the_input(name, observable, constant, decaying):
    """Five registry values are a constant term of H or of the observable.

    With that constant taken out of both, the thermal limit is 0 and the
    finite-T value is the integrals' part alone, decaying like 1/T.
    """
    spec = build_model(name)
    assert spec.expected[observable] == constant
    symbol = spec.observables[observable]
    stripped = without_constant_terms(symbol, {axis for g in spec.groups for axis in g.axes})
    assert (symbol.scalar if isinstance(symbol, MatrixSymbol) else symbol - stripped) == constant
    fields = dict(zip(spec.__match_args__, spec._fields()))
    fields["observables"] = {observable: stripped}
    if spec.hamiltonian is symbol:
        fields["hamiltonian"] = stripped
    result = expectation(ModelSpec(**fields), observable)
    assert result.value.is_zero()
    assert result.finite_t.terms == [TAsymTerm(decaying, Fraction(-1))]


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
