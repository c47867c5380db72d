"""The one record mechanism, ``operators.Document``, on every drslab record class.

A record binds its fields by position, by keyword or from a default, refuses
a missing, unknown or repeated field with a TypeError, cannot be changed
once built, is equal only to itself, prints as a dataclass does, and
round-trips through its JSON document.
"""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

import drslab as dl
from drslab.operators import Document
from test_documents import documents

SRC = Path(__file__).resolve().parent.parent / "src" / "drslab"
for _module in {path.stem for path in SRC.glob("*.py")} - {"__init__"}:
    importlib.import_module(f"drslab.{_module}")  # every record class is defined


def record_classes(cls=Document):
    """Every record class the package defines (the abstract operator base excluded)."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("drslab.") and sub is not dl.MonotoneOperator:
            yield sub
        yield from record_classes(sub)


def samples():
    """One instance of each record class, by class."""
    found = {type(doc): doc for doc in documents().values()}
    found[dl.CatalogEntry] = dl.catalog_by_name("box_quadratic_3d")
    system = dl.BlockSystem(dl.ScaledIdentity(1.0), dl.ScaledIdentity(2.0), 0.5, 2)
    found[dl.EliminationPair] = dl.elimination_pair(system)
    return found


SAMPLES = samples()
CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def text(record):
    return json.dumps(record.to_dict(), sort_keys=True)


def field_values(record):
    return {name: getattr(record, name) for name in type(record)._fields}


def test_every_record_class_has_a_sample():
    assert set(record_classes()) == set(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_record_cannot_be_changed(cls):
    record = SAMPLES[cls]
    before = text(record)
    for name in [*cls._fields, "new_attribute"]:
        kept = getattr(record, name, None)
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(record, name)
        assert getattr(record, name, None) is kept
    assert text(record) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_bind_by_position_by_keyword_and_by_default(cls):
    record = SAMPLES[cls]
    values = field_values(record)
    assert text(cls(*values.values())) == text(record)
    assert text(cls(**values)) == text(record)
    required = [value for name, value in values.items() if name not in cls._defaults]
    defaulted = cls(*required)
    assert {name: getattr(defaulted, name) for name in cls._defaults} == cls._defaults


def test_the_defaults_are_the_class_level_values():
    assert dl.DrsProblem._defaults == {
        "tau": 1.0, "gamma": 1.0, "max_iters": 100_000, "stop_tol": 1e-10, "seed": 0
    }
    assert dl.CycleWitness._defaults == {"xi": None}
    assert list(dl.BlockSystem._fields) == ["A", "B", "tau", "n"]  # root_tau is no field
    assert dl.BlockSystem(dl.Zero(), dl.Zero(), 4.0, 1).root_tau == 2.0


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_missing_unknown_or_repeated_field_is_a_type_error(cls):
    values = field_values(SAMPLES[cls])
    calls = [
        lambda: cls(*values.values(), None),  # one positional argument too many
        lambda: cls(*values.values(), no_such_field=1.0),
    ]
    for name in values:
        calls.append(lambda name=name: cls(*values.values(), **{name: values[name]}))
        if name not in cls._defaults:
            calls.append(lambda name=name: cls(**{k: v for k, v in values.items() if k != name}))
    for call in calls:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes the fields \("):
            call()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_document_round_trips(cls):
    record = SAMPLES[cls]
    clone = cls.from_dict(json.loads(text(record)))
    assert type(clone) is cls
    assert text(clone) == text(record)
    for name, annotation in cls._fields.items():
        if annotation in Document._records or annotation == "MonotoneOperator":
            assert isinstance(getattr(clone, name), Document)  # decoded, not left a dict


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hashing_are_identity(cls):
    record = SAMPLES[cls]
    twin = cls(*field_values(record).values())
    assert record == record and record != twin
    assert hash(record) == object.__hash__(record)


def test_repr_matches_the_dataclass_format():
    problem = dl.DrsProblem(dl.Inverse(dl.L1(1.2)), dl.Zero(), tau=0.5)
    assert repr(problem) == (
        "DrsProblem(A=Inverse(inner=L1(weight=1.2)), B=Zero(), tau=0.5, gamma=1.0, "
        "max_iters=100000, stop_tol=1e-10, seed=0)"
    )
    for record in SAMPLES.values():
        cls = type(record)
        twin = dataclasses.make_dataclass(cls.__name__, list(cls._fields), frozen=True, eq=False)
        assert repr(record) == repr(twin(**field_values(record)))
