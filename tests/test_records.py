"""The value semantics of the package's nine record classes.

Each record has positional and keyword constructors with fixed
defaults, a ``Class(field=value, ...)`` repr, equality only with records
of its own class, and (except the mutable ``RRDiagram``) a value hash
and fields that cannot be assigned or deleted.
"""

import copy
import pickle
from types import SimpleNamespace

import pytest

from genus2pairs._record import _Record, _set_field
from genus2pairs.automorphisms import Automorphism
from genus2pairs.classifier import PairClass, ProductStructure
from genus2pairs.errors import NotInvertibleError
from genus2pairs.primitivity import PrimitiveForm
from genus2pairs.rr_diagram import (
    Arc,
    Band,
    CanonicalParams,
    Endpoint,
    HandleLabel,
    RRDiagram,
    Violation,
)
from genus2pairs.words import CyclicWord, Word

LABEL_A = HandleLabel("A", (Band(1, 1),))
LABEL_B = HandleLabel("B", (Band(2, 1),))
START, STOP = Endpoint("A", 0, "+"), Endpoint("B", 0, "-")

# (class, field names, field values, repr of the record built from them)
RECORDS = [
    (Band, ("multiplicity", "disk", "longitude"), (1, 5, None),
     "Band(multiplicity=1, disk=5, longitude=None)"),
    (HandleLabel, ("handle", "bands"), ("A", (Band(1, 1),)),
     "HandleLabel(handle='A', bands=(Band(multiplicity=1, disk=1, longitude=None),))"),
    (Arc, ("start", "stop", "multiplicity"), (START, STOP, 2),
     "Arc(start=Endpoint(handle='A', band=0, end='+'), "
     "stop=Endpoint(handle='B', band=0, end='-'), multiplicity=2)"),
    (RRDiagram, ("handle_a", "handle_b", "arcs", "curves"),
     (LABEL_A, LABEL_B, (Arc(START, STOP, 1),), {"beta": ()}),
     "RRDiagram(handle_a=HandleLabel(handle='A', bands=(Band(multiplicity=1, "
     "disk=1, longitude=None),)), handle_b=HandleLabel(handle='B', "
     "bands=(Band(multiplicity=2, disk=1, longitude=None),)), "
     "arcs=(Arc(start=Endpoint(handle='A', band=0, end='+'), "
     "stop=Endpoint(handle='B', band=0, end='-'), multiplicity=1),), "
     "curves={'beta': ()})"),
    (Violation, ("kind", "message"), ("EmptyCurve", "curve x has no steps"),
     "Violation(kind='EmptyCurve', message='curve x has no steps')"),
    (CanonicalParams, ("variant", "p", "q", "a", "b", "eps"),
     ("fig2a", 5, 2, None, None, None),
     "CanonicalParams(variant='fig2a', p=5, q=2, a=None, b=None, eps=None)"),
    (PairClass,
     ("type_I", "type_II", "separated", "structure", "separating_word", "twist"),
     (True, False, False, ProductStructure.TWISTED_PRODUCT, CyclicWord("AABaab"), 2),
     "PairClass(type_I=True, type_II=False, separated=False, "
     "structure=<ProductStructure.TWISTED_PRODUCT: 'TwistedProduct'>, "
     "separating_word=CyclicWord('AABaab'), twist=2)"),
    (PrimitiveForm,
     ("base_generator", "exponent", "low_count", "high_count", "inverted_a",
      "inverted_b", "swapped"),
     ("A", 2, 1, 1, False, True, False),
     "PrimitiveForm(base_generator='A', exponent=2, low_count=1, high_count=1, "
     "inverted_a=False, inverted_b=True, swapped=False)"),
    (Automorphism, ("image_a", "image_b"), (Word("Ab"), Word("B")),
     "Automorphism(image_a=Word('Ab'), image_b=Word('B'))"),
]
FROZEN = [case for case in RECORDS if case[0] is not RRDiagram]
# Records whose constructors take any values, to hold another class's.
PERMISSIVE = [Band, HandleLabel, Arc, Violation, CanonicalParams, PairClass, PrimitiveForm]
RECORD_FIELDS = {cls: names for cls, names, _, _ in RECORDS}


def ids(case):
    return case[0].__name__


@pytest.mark.parametrize("case", RECORDS, ids=ids)
class TestEveryRecord:
    def test_repr(self, case):
        cls, _, values, text = case
        assert repr(cls(*values)) == text

    def test_keyword_construction(self, case):
        cls, names, values, _ = case
        record = cls(**dict(zip(names, values)))
        assert record == cls(*values)
        assert tuple(getattr(record, name) for name in names) == values

    def test_missing_or_unknown_field(self, case):
        cls, names, values, _ = case
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values, None)

    def test_equal_only_within_the_class(self, case):
        cls, names, values, _ = case
        record = cls(*values)
        assert record == cls(*values)
        assert not record != cls(*values)
        assert record != values
        assert record != list(values)
        assert record != SimpleNamespace(**dict(zip(names, values)))
        for other in PERMISSIVE:
            if other is not cls and len(RECORD_FIELDS[other]) == len(values):
                twin = other(*values)
                assert record != twin and twin != record

    def test_copies_are_equal(self, case):
        cls, _, values, _ = case
        record = cls(*values)
        for duplicate in (copy.copy(record), copy.deepcopy(record),
                          pickle.loads(pickle.dumps(record))):
            assert type(duplicate) is cls and duplicate == record


@pytest.mark.parametrize("case", FROZEN, ids=ids)
class TestFrozenRecords:
    def test_equal_values_hash_equal(self, case):
        cls, names, values, _ = case
        record = cls(*values)
        assert hash(record) == hash(cls(**dict(zip(names, values))))
        assert {record, cls(*values)} == {record}

    def test_fields_cannot_be_assigned_or_deleted(self, case):
        cls, names, values, _ = case
        record = cls(*values)
        for name, value in zip(names, values):
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in names) == values


class TestDefaults:
    def test_band_longitude(self):
        assert Band(1, 5).longitude is None
        assert Band(1, 5) == Band(1, 5, None)

    def test_canonical_params(self):
        params = CanonicalParams("fig1a")
        assert (params.p, params.q, params.a, params.b, params.eps) == (None,) * 5


class TestGeneratedInit:
    """The base writes ``__init__`` for a record that defines none."""

    @pytest.mark.parametrize("cls, args, kwargs, message", [
        (Band, (1,), {}, "missing 1 required positional argument: 'disk'"),
        (Band, (1, 2, 3, 4), {},
         "takes from 3 to 4 positional arguments but 5 were given"),
        (Arc, (1, 2, 3), {"start": 1}, "got multiple values for argument 'start'"),
        (CanonicalParams, ("fig1a",), {"zz": 1}, "got an unexpected keyword argument 'zz'"),
        (PairClass, tuple(range(5)), {},
         "missing 1 required positional argument: 'twist'"),
        (PrimitiveForm, tuple(range(8)), {},
         "takes 8 positional arguments but 9 were given"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_type_error_text(self, cls, args, kwargs, message):
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert str(info.value) == f"{cls.__name__}.__init__() {message}"

    def test_defaults_fill_trailing_fields(self):
        class Point(_Record, defaults=(0, None)):
            __slots__ = ("x", "y", "z")

        assert Point(1) == Point(1, 0, None) == Point(x=1, z=None)
        assert Point.__init__.__qualname__.endswith("Point.__init__")
        assert Point.__init__.__defaults__ == (0, None)
        assert HandleLabel.__init__.__defaults__ is None

    def test_own_init_is_kept(self):
        class Doubled(_Record):
            __slots__ = ("x",)

            def __init__(self, x):
                _set_field(self, "x", 2 * x)

        assert Doubled(2).x == 4
        assert Doubled.__init__.__qualname__.endswith("Doubled.__init__")


class TestRRDiagramIsMutable:
    def test_defaults_and_fresh_curves(self):
        first, second = RRDiagram(LABEL_A, LABEL_B), RRDiagram(LABEL_A, LABEL_B)
        assert first.arcs == ()
        assert first.curves == {} and first.curves is not second.curves
        first.curves["alpha"] = ()
        assert second.curves == {}

    def test_assignable_and_unhashable(self):
        diagram = RRDiagram(LABEL_A, LABEL_B)
        diagram.handle_b = LABEL_A
        assert diagram.handle("B") is LABEL_A
        assert diagram != RRDiagram(LABEL_A, LABEL_B)
        with pytest.raises(TypeError):
            hash(diagram)


class TestAutomorphismConstructor:
    def test_strings_become_words(self):
        f = Automorphism("Ab", image_b="B")
        assert f.image_a == Word("Ab") and type(f.image_b) is Word
        assert f == Automorphism(Word("Ab"), Word("B"))

    def test_non_basis_rejected(self):
        with pytest.raises(NotInvertibleError):
            Automorphism("AA", "B")
