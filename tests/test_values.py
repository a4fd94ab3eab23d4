"""The value-type contract of generators, Newton data, certificates,
descent records, verdicts and construction results.

Each type is a frozen value: its ``repr`` names every field in order, equal
fields give equal, equal-hashing instances of the same type only, fields
cannot be set or deleted, copies and pickles round-trip, keywords and
defaults construct it, bad arguments raise ``TypeError`` before any field is
set, and positional ``match`` patterns read its fields.
"""

import copy
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import weylnil
from weylnil import (
    BispectralPartner,
    BoundExhausted,
    Certificate,
    CounterexampleCandidate,
    EigenObstruction,
    FactoredForm,
    FormDiagnostic,
    FormIssue,
    Fourier,
    FourierInverse,
    GenerationWitness,
    NewtonData,
    NilpotentAt,
    NotStrictlyNilpotent,
    ShiftD,
    ShiftX,
    StageRecord,
    StrictlyNilpotent,
    TriviallyConstant,
    UniPoly,
    Weight,
    WeylElement,
)
from weylnil._value import Value

T2 = UniPoly((0, 0, 1))
NEWTON = NewtonData(Weight(2, 1), 2, WeylElement({(0, 2): 1, (1, 0): -1}))
FORM = FactoredForm(0, 2, 1, Fraction(1))
PARTIAL = FactoredForm(1, 1, 1, Fraction(-2, 3))
DIAG = FormDiagnostic(FormIssue.POSITIVE_Y_POWER, "positive Y power", partial=PARTIAL)
CERT = Certificate((ShiftD(UniPoly((0, 1, Fraction(1, 2)))), Fourier()), T2, "d")
STAGE = StageRecord(
    NEWTON, FORM, WeylElement({(0, 2): 1, (1, 0): -1}), (ShiftX(T2), FourierInverse()), WeylElement({(0, 1): 1})
)

NEWTON_REPR = (
    "NewtonData(weight=Weight(x_weight=2, d_weight=1), value=2, assoc=WeylElement('D^2 - x', side='x'))"
)
FORM_REPR = "FactoredForm(y_power=0, ratio=2, multiplicity=1, scale=Fraction(1, 1))"
DIAG_REPR = (
    "FormDiagnostic(issue=<FormIssue.POSITIVE_Y_POWER: 'positive-y-power'>, message='positive Y power', "
    "strictly_semisimple=False, partial=FactoredForm(y_power=1, ratio=1, multiplicity=1, scale=Fraction(-2, 3)))"
)

# one sample of each value type with the repr its frozen-dataclass form printed
SAMPLES = [
    (ShiftX(UniPoly((5, Fraction(1, 2), 0, -1))), "ShiftX(poly=UniPoly('-t^3 + 1/2*t'))"),
    (ShiftD(UniPoly((3, 0, 2))), "ShiftD(poly=UniPoly('2*t^2'))"),
    (Fourier(), "Fourier()"),
    (FourierInverse(), "FourierInverse()"),
    (Weight(2, 1), "Weight(x_weight=2, d_weight=1)"),
    (NEWTON, NEWTON_REPR),
    (FORM, FORM_REPR),
    (DIAG, DIAG_REPR),
    (
        CERT,
        "Certificate(word=(ShiftD(poly=UniPoly('1/2*t^2 + t')), Fourier()), gen_poly=UniPoly('t^2'), side='d')",
    ),
    (
        STAGE,
        f"StageRecord(newton={NEWTON_REPR}, form={FORM_REPR}, shift_image=WeylElement('D^2 - x', side='x'), "
        "generators=(ShiftX(poly=UniPoly('t^2')), FourierInverse()), element=WeylElement('D', side='x'))",
    ),
    (
        StrictlyNilpotent(Certificate((Fourier(),), T2, "x"), (FourierInverse(),), (), Fraction(3)),
        "StrictlyNilpotent(certificate=Certificate(word=(Fourier(),), gen_poly=UniPoly('t^2'), side='x'), "
        "prologue=(FourierInverse(),), stages=(), lead=Fraction(3, 1))",
    ),
    (
        NotStrictlyNilpotent(DIAG),
        f"NotStrictlyNilpotent(diagnostic={DIAG_REPR}, prologue=(), stages=(), lead=Fraction(1, 1))",
    ),
    (TriviallyConstant(Fraction(-7, 2)), "TriviallyConstant(value=Fraction(-7, 2))"),
    (NilpotentAt(2), "NilpotentAt(steps=2)"),
    (EigenObstruction(Fraction(1, 4)), "EigenObstruction(eigenvalue=Fraction(1, 4))"),
    (BoundExhausted(64, 12), "BoundExhausted(cap=64, last_weight=12)"),
    (
        BispectralPartner(WeylElement({(2, 0): 1, (0, 1): 1}, "z"), T2),
        "BispectralPartner(lambda_op=WeylElement('Dz + z^2', side='z'), f_poly=UniPoly('t^2'))",
    ),
    (
        GenerationWitness((ShiftX(T2),), Fraction(2), Fraction(-1, 3), UniPoly((0, 4))),
        "GenerationWitness(word=(ShiftX(poly=UniPoly('t^2')),), a=Fraction(2, 1), b=Fraction(-1, 3), "
        "tail=UniPoly('4*t'))",
    ),
    (
        CounterexampleCandidate(NotStrictlyNilpotent()),
        "CounterexampleCandidate(verdict=NotStrictlyNilpotent(diagnostic=None, prologue=(), stages=(), "
        "lead=Fraction(1, 1)))",
    ),
]
VALUES = [value for value, _ in SAMPLES]
IDS = [type(value).__name__ for value in VALUES]


def _fields(value):
    return {name: getattr(value, name) for name in type(value).__match_args__}


def _value_types(cls=Value):
    """Every weylnil class below ``cls``, at any depth: the shifts sit one
    level below ``Value``, under their shared base."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("weylnil."):
            yield sub
        yield from _value_types(sub)


def test_one_sample_per_value_type():
    assert len(set(IDS)) == len(IDS) == 19
    # the contract tests below walk these types, the shifts among them
    assert set(map(type, VALUES)) == {cls for cls in _value_types() if not cls.__name__.startswith("_")}


@pytest.mark.parametrize("value, text", SAMPLES, ids=IDS)
def test_repr_names_every_field_in_order(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equal_fields_compare_and_hash_equal(value):
    again = type(value)(**_fields(value))
    assert again is not value
    assert again == value and not again != value
    assert hash(again) == hash(value)


def test_equal_fields_of_different_types_compare_unequal():
    assert Fourier() != FourierInverse()
    assert ShiftX(T2) != ShiftD(T2)
    assert NilpotentAt(2) != TriviallyConstant(2)
    assert Weight(2, 1) != (2, 1)
    assert FourierInverse() not in (Fourier(), ShiftD(T2))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value):
    before = repr(value)
    name = (type(value).__match_args__ or ("poly",))[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal(value):
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value)
        assert again == value
        assert hash(again) == hash(value)


def test_keywords_and_defaults():
    assert NotStrictlyNilpotent() == NotStrictlyNilpotent(None, (), (), Fraction(1))
    diag = FormDiagnostic(issue=FormIssue.MONOMIAL, message="monomial")
    assert (diag.strictly_semisimple, diag.partial) == (False, None)
    verdict = StrictlyNilpotent(certificate=CERT)
    assert (verdict.prologue, verdict.stages, verdict.lead) == ((), (), 1)
    assert Weight(d_weight=3, x_weight=1) == Weight(1, 3)


def test_positional_match_patterns_read_the_fields():
    match NotStrictlyNilpotent(DIAG, (FourierInverse(),)):
        case NotStrictlyNilpotent(FormDiagnostic(issue, _, False, partial), (FourierInverse(),)):
            assert (issue, partial) == (FormIssue.POSITIVE_Y_POWER, PARTIAL)
        case _:
            pytest.fail("the rejection did not match")
    match Weight(3, 2):
        case Weight(a, b):
            assert (a, b) == (3, 2)
    match Fourier():
        case FourierInverse():
            pytest.fail("a Fourier swap matched its inverse")
        case Fourier():
            pass


def test_shifts_drop_the_constant_term():
    t = UniPoly((0, 1))
    assert ShiftX(t + 1).poly == t
    assert ShiftD(t + 1).poly == t
    assert ShiftX(t + 1) == ShiftX(t)
    assert SUBCLASSES[ShiftD](t + 1).poly == t


def test_checks_keep_their_messages():
    with pytest.raises(ValueError, match="weights must be positive integers"):
        Weight(0, 1)
    with pytest.raises(ValueError, match="weight pair must be coprime"):
        Weight(2, 4)
    with pytest.raises(ValueError, match="certificate side must be 'x' or 'd'"):
        Certificate((), T2, "z")
    with pytest.raises(ValueError, match="certificate polynomial must be nonconstant"):
        Certificate((), UniPoly((5,)), "d")


def test_no_public_type_is_a_dataclass():
    # a dataclass generates and compiles its methods at every import
    classes = [value for value in vars(weylnil).values() if isinstance(value, type)]
    assert set(map(type, VALUES)) <= set(classes)
    assert [c.__name__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


def _bad_calls():
    """One call per way to misname the fields of each sample's type."""
    for value in VALUES:
        fields = _fields(value)
        args = list(fields.values())
        name = type(value).__name__
        yield pytest.param(value, args + [None], {}, id=f"{name}-one-positional-too-many")
        yield pytest.param(value, args, {"unknown": None}, id=f"{name}-unknown-keyword")
        for first in list(fields)[:1]:
            yield pytest.param(value, args, {first: fields[first]}, id=f"{name}-position-and-keyword")


@pytest.mark.parametrize("value, args, kwargs", list(_bad_calls()))
def test_bad_arguments_raise_before_any_field_is_set(value, args, kwargs):
    blank = type(value).__new__(type(value))
    with pytest.raises(TypeError):
        blank.__init__(*args, **kwargs)
    assert [name for name in type(value).__match_args__ if hasattr(blank, name)] == []


def test_missing_fields_raise():
    for make in (NilpotentAt, StrictlyNilpotent, partial(StageRecord, NEWTON), partial(FormDiagnostic, message="m")):
        with pytest.raises(TypeError, match="missing"):
            make()


def test_defaults_are_trailing_and_immutable():
    # one _defaults dict is shared by every instance of its type
    for cls in _value_types():
        names, defaults = cls.__match_args__, cls._defaults
        assert set(defaults) == set(names[len(names) - len(defaults) :]), cls.__name__
        for default in defaults.values():
            assert default == () or default is None or type(default) in (bool, Fraction), cls.__name__


def test_docstrings_name_every_field():
    # the binder's signature is (*args, **kwargs), so only the docstring names the fields
    for cls in _value_types():
        assert [name for name in cls.__match_args__ if not re.search(rf"\b{name}\b", cls.__doc__)] == [], cls.__name__


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since this one has imported both for pytest
    src = str(Path(weylnil.__file__).parents[1])
    probe = "import sys, weylnil.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_a_built_value_keeps_its_fields(value):
    # a second __init__ would rebind a value already hashed into a set;
    # types with their own __init__ (the shifts, Weight, Certificate) reach
    # the binder through super().__init__; a type with no fields has
    # nothing to rebind, and object.__init__ takes no arguments
    before, held = repr(value), {value}
    args = list(_fields(value).values())
    for call in (partial(type(value).__init__, value, *args), partial(value.__init__, *args)):
        if args:
            with pytest.raises(TypeError, match="already built"):
                call()
        else:
            call()
    assert repr(value) == before
    assert value in held


def _subclass(cls):
    """A subclass of ``cls`` that adds no field, at module level so that
    pickle finds it by name."""
    name = f"Sub{cls.__name__}"
    sub = globals()[name] = type(name, (cls,), {"__slots__": (), "__module__": __name__, "__qualname__": name})
    return sub


FIELDED = [value for value in VALUES if type(value).__match_args__]
SUBCLASSES = {type(value): _subclass(type(value)) for value in FIELDED}


@pytest.mark.parametrize("value", FIELDED, ids=[type(value).__name__ for value in FIELDED])
def test_a_subclass_without_fields_keeps_its_parents(value):
    cls = type(value)
    sub = SUBCLASSES[cls]
    fields = _fields(value)
    built = sub(*fields.values())
    assert sub.__match_args__ == cls.__match_args__
    assert _fields(built) == fields
    assert repr(built) == f"Sub{repr(value)}"
    # equality stays type-exact; the hash reads the fields only
    assert built == sub(**fields) and built != value and value != built
    assert hash(built) == hash(value)
    for again in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert type(again) is sub and again == built and hash(again) == hash(built)
    with pytest.raises(TypeError, match="already built"):
        built.__init__(*fields.values())
    assert repr(built) == f"Sub{repr(value)}"


def test_rebinding_weight_is_refused():
    w = Weight(2, 1)
    held = {w}
    with pytest.raises(TypeError, match="already built"):
        Weight.__init__(w, 3, 1)
    assert w == Weight(2, 1) and w in held
    with pytest.raises(TypeError, match="already built"):
        ShiftD.__init__(ShiftD(T2), UniPoly((0, 1)))
    with pytest.raises(TypeError, match="already built"):
        NilpotentAt(2).__init__(5)
