"""The record classes compare and hash by their fields, as dataclasses would.

Every record in ``src/`` is a slotted class with an explicit constructor
(``zetatrace.records``), whose parameters are its fields and lead its
``__slots__``; ``CASES`` holds every one.  For each, built twice from the same
arguments, the two instances are equal, and a frozen record hashes its field
tuple; a mutable record is unhashable.  Changing any one argument gives an
unequal instance.  An instance never equals the tuple of its fields, nor an
instance of another class with the same fields.  The ``repr`` names each field
once, in order, and nothing else.  Mutable defaults are fresh per instance,
and the records that cross processes survive a pickle round trip.
"""

import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import zetatrace

from zetatrace.engine import (
    ExpectationResult,
    GaugeGroup,
    KVAmplitudeSpec,
    ModelSpec,
    PotentialResult,
    ReducedIntegral,
)
from zetatrace.laurent import FactorKind, MeroFactorProduct, PrimitiveFactor, positive_base
from zetatrace.modelfile import ParsedModel, Token
from zetatrace.models import ModelRun, RegistryEntry, harmonic_oscillator_1d, phi4
from zetatrace.params import Param, ParamPoly
from zetatrace.records import FrozenRecord, Record
from zetatrace.symbols import EvolutionPiece, IntegrandPiece, InvolutionEvolution, MatrixSymbol, ReducedPhase
from zetatrace.tables import AffineExp
from zetatrace.terms import Divergent, TAsymptote, TAsymTerm, ZetaTerm

P, Q = ParamPoly.var("m"), ParamPoly.number(2.0)
GAMMA = PrimitiveFactor(FactorKind.GAMMA, (1, 1), (1, 2))
HALF_TURN = PrimitiveFactor(FactorKind.EXP_IPI, (1, 1), (0, 1))
PRODUCT = MeroFactorProduct(P, (GAMMA,))
K_DIAGONAL = ((ParamPoly.one(), ParamPoly.zero()), (ParamPoly.zero(), ParamPoly.number(-1.0)))
K_SWAP = ((ParamPoly.zero(), ParamPoly.one()), (ParamPoly.one(), ParamPoly.zero()))
MATRIX = MatrixSymbol(P, Q, K_DIAGONAL)
PIECE = EvolutionPiece(1, 0.5, -0.5)
SPEC = harmonic_oscillator_1d()
RESULT = ExpectationResult("m", "H", P, None, ["reduce"])

#: class -> (constructor arguments, a different value for each argument)
CASES = {
    Param: (("J", True, 1.0), ("K", False, 2.0)),
    PrimitiveFactor: (
        (FactorKind.GAMMA, (1, 1), (1, 2), 1, None, "z"),
        (FactorKind.AFFINE, (2, 1), (1, 3), 2, positive_base(ParamPoly.monomial(2.0, {"J": 1})), "z2"),
    ),
    MeroFactorProduct: ((P, (GAMMA,)), (Q, (HALF_TURN,))),
    ZetaTerm: (
        (PRODUCT, (("z", (1, 1)),), (1, 2), 1),
        (MeroFactorProduct(Q, (GAMMA,)), (), (0, 1), 0),
    ),
    TAsymTerm: ((P, Fraction(1), 1, Q), (Q, Fraction(0), 0, ParamPoly.zero())),
    Divergent: (("grows like T",), ("grows like ln(T)",)),
    AffineExp: (("z", (1, 1), (0, 1)), ("z2", (2, 1), (1, 2))),
    ReducedPhase: (({"u": P}, {"u": Q}, P, None, None), ({}, {}, Q, P, "r")),
    MatrixSymbol: ((P, Q, K_DIAGONAL, ()), (Q, P, K_SWAP, ("h",))),
    EvolutionPiece: ((1, 0.5, -0.5), (-1, 0.25, 0.5)),
    InvolutionEvolution: ((MATRIX, (PIECE,)), (MatrixSymbol(Q, P, K_SWAP), ())),
    IntegrandPiece: ((P, 1), (Q, 0)),
    GaugeGroup: (("g", ("x",), "z", "separable"), ("h", ("x", "y"), "z2", "radial")),
    ModelSpec: (
        ("m", "d", (Param("J"),), (GaugeGroup("g", ("x",), "z"),), P, {"H": P}, {"H": Q}, "hbar", Q,
         ("a",), "phi", {"E": ("H", Q)}),
        ("n", "e", (), (GaugeGroup("h", ("y",), "z"),), Q, {}, {}, None, P, (), None, {}),
    ),
    ReducedIntegral: (
        ("gauss", AffineExp("z", (1, 1), (0, 1)), 1, P),
        ("osc", AffineExp("z", (1, 2), (0, 1)), -1, Q),
    ),
    ExpectationResult: (("m", "H", P, None, ["reduce"]), ("n", "K", Divergent("x"), TAsymptote(), [])),
    KVAmplitudeSpec: ((2, ((Fraction(-3), 0, P),), Q), (3, (), P)),
    PotentialResult: ((P, [P], [P], [Q], TAsymptote(), ["gauge"]), (Q, [], [], [], TAsymptote(), [])),
    Token: (("ident", "x", 1), ("number", "2", 3)),
    ParsedModel: (
        ("rotor", [("J", None)], [("xi", "momentum", None)], None, None, None),
        ("other", [], [], ("var", "x"), ("num", 1.0), ("num", 2.0)),
    ),
    RegistryEntry: ((harmonic_oscillator_1d, "oscillator", "<H>"), (phi4, "quartic", "minima")),
    ModelRun: (
        (SPEC, {"H": RESULT}, None, ["H: expected"]),
        (phi4(), {}, PotentialResult(P, [], [], [], TAsymptote()), []),
    ),
}

IDS = [cls.__name__ for cls in CASES]


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equal_fields_give_equal_records(cls):
    args, _ = CASES[cls]
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    if not issubclass(cls, FrozenRecord):
        with pytest.raises(TypeError):
            hash(a)
        return
    try:
        want = hash(a._fields())
    except TypeError:  # a ParamPoly field is unhashable, so is the record
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_one_changed_field_gives_an_unequal_record(cls):
    args, others = CASES[cls]
    base = cls(*args)
    for i, other in enumerate(others):
        changed = cls(*args[:i], other, *args[i + 1:])
        assert changed != base and not changed == base, (cls.__name__, i)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_a_record_equals_neither_its_field_tuple_nor_another_class(cls):
    args, _ = CASES[cls]
    record = cls(*args)
    twin = type("Twin", (cls,), {"__slots__": ()})(*args)
    assert twin._fields() == record._fields()
    assert record != record._fields() and record._fields() != record
    assert record != twin and twin != record
    assert record != tuple(args)


def test_mutable_defaults_are_fresh_per_instance():
    specs = [ModelSpec("m", "d", (), (), P, {}) for _ in range(2)]
    assert specs[0].expected is not specs[1].expected and specs[0].derived is not specs[1].derived
    assert specs[0].prefactor is not specs[1].prefactor
    for make in (lambda: ExpectationResult("m", "H", P, None),
                 lambda: PotentialResult(P, [], [], [], TAsymptote())):
        a, b = make(), make()
        assert a.steps == b.steps == [] and a.steps is not b.steps
    runs = [ModelRun(SPEC, {}, None) for _ in range(2)]
    assert runs[0].failures is not runs[1].failures
    parsed = [ParsedModel("m") for _ in range(2)]
    assert parsed[0].params is not parsed[1].params and parsed[0].axes is not parsed[1].axes
    assert KVAmplitudeSpec(1).vol_x is not KVAmplitudeSpec(1).vol_x
    assert TAsymTerm(P).phase is not TAsymTerm(P).phase


def test_constructors_take_keywords_and_check_their_fields():
    assert ModelSpec(name="m", description="d", params=(), groups=(), hamiltonian=P,
                     observables={}) == ModelSpec("m", "d", (), (), P, {})
    assert KVAmplitudeSpec(dimension=2, vol_x=Q) == KVAmplitudeSpec(2, (), Q)


@pytest.mark.parametrize("record", [
    ZetaTerm(PRODUCT, (("z", (1, 1)),), (1, 2), 1),
    ZetaTerm(MeroFactorProduct(Q, (HALF_TURN, GAMMA))),
    AffineExp("z2", (1, 2), (-1, 1)),
], ids=["term", "default-term", "affine"])
def test_a_pickled_record_is_equal(record):
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded == record and loaded is not record


def constructor_parameters(cls) -> tuple:
    return tuple(inspect.signature(cls.__init__).parameters)[1:]


def src_records() -> set[type]:
    """Every record class of ``src/``: the subclasses of ``Record`` in the modules of ``zetatrace``."""
    for module in pkgutil.iter_modules(zetatrace.__path__):
        importlib.import_module(f"zetatrace.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("zetatrace.") and sub.__module__ != "zetatrace.records":
                found.add(sub)
    return found


def test_every_record_declares_its_fields_once_in_its_constructor():
    assert src_records() == CASES.keys()
    for cls, (args, _) in CASES.items():
        names = constructor_parameters(cls)
        assert cls.__slots__[:len(names)] == names, cls.__name__
        assert cls.__match_args__ == names, cls.__name__
        record = cls(*args)
        assert record._fields() == tuple(getattr(record, name) for name in names), cls.__name__


def test_a_record_needs_no_more_than_its_constructor():
    class Pair(FrozenRecord):
        __slots__ = ("a", "b", "tag", "_memo")

        def __init__(self, a, b=0, *, tag=""):
            self.a = a
            self.b = b
            self.tag = tag
            self._memo = object()

    assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(1, 3) and Pair(1) != Pair(1, tag="x")
    assert hash(Pair(1, 2)) == hash((1, 2, "")) and repr(Pair(1)) == "Pair(a=1, b=0, tag='')"
    assert type("Triple", (Pair,), {"__slots__": ("c",)})(1, 2)._fields() == (1, 2, "")


@pytest.mark.parametrize("slots", [("b", "a"), ("a",), ("_memo", "a", "b"), ()])
def test_a_constructor_parameter_that_is_not_a_leading_slot_is_an_error(slots):
    with pytest.raises(TypeError, match="must lead __slots__"):
        class Bad(Record):
            __slots__ = slots

            def __init__(self, a, b):
                pass


@pytest.mark.parametrize("cls", [cls for cls in CASES if cls is not Divergent], ids=lambda cls: cls.__name__)
def test_a_repr_names_each_field_once_in_order(cls):
    record = cls(*CASES[cls][0])
    args = ", ".join(f"{name}={getattr(record, name)!r}" for name in constructor_parameters(cls))
    assert repr(record) == f"{cls.__name__}({args})"


def test_a_divergent_prints_its_reason_alone():
    assert repr(Divergent("term grows like T^1")) == "Divergent(term grows like T^1)"


def test_a_primitive_factors_repr_shows_no_cache():
    factor = PrimitiveFactor(*CASES[PrimitiveFactor][0])
    assert factor.fold_key is not None and "fold_key" not in repr(factor)
