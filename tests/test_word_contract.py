"""One word-input contract across the public API.

Every word parameter reads its value through ``words._reduced_letters``:
a str, Word, CyclicWord or iterable of letters.  Fed the same ten junk
values, each parameter raises DomainError for a value of the right type
and TypeError, with one text, for any other; never AttributeError.  The
table names every word-taking callable and method of ``__all__``, and
every other public name is listed as taking no word.  The integer
parameters of those other names, and the numbers of the records they
read, refuse a bool, a float and a digit string.
"""

import pytest

import genus2pairs as api
from genus2pairs import (
    Arc,
    Automorphism,
    Band,
    CanonicalParams,
    CyclicWord,
    DomainError,
    Endpoint,
    HandleLabel,
    HGraph,
    InvalidParamsError,
    InvalidWordError,
    RRDiagram,
    TraverseStep,
    Word,
)

# Fresh values for each test, keyed by the text that makes their ids.
JUNK = {
    "True": lambda: True, "2.0": lambda: 2.0, "'0'": lambda: "0",
    "None": lambda: None, "-1": lambda: -1, "('A+',)": lambda: ("A+",),
    "5": lambda: 5, "object()": object, "[1]": lambda: [1],
    "{'A': 1}": lambda: {"A": 1},
}
# Junk of a word's type: a string and an iterable of letters.
RIGHT_TYPED = {"'0'", "('A+',)"}

A, B = Word("A"), Word("B")

# Each word parameter as a call on the junk value; the other arguments are valid.
WORD_SLOTS = {
    "Word": Word,
    "CyclicWord": CyclicWord,
    "Word.__mul__": lambda w: A * w,
    "cyclic_equal(u)": lambda w: api.cyclic_equal(w, "A"),
    "cyclic_equal(v)": lambda w: api.cyclic_equal("A", w),
    "cyclic_reduce": api.cyclic_reduce,
    "substitute(word)": lambda w: api.substitute(w, A, B),
    "substitute(image_a)": lambda w: api.substitute(A, w, B),
    "substitute(image_b)": lambda w: api.substitute(A, A, w),
    "is_primitive": api.is_primitive,
    "as_proper_power": api.as_proper_power,
    "primitive_form": api.primitive_form,
    "is_basis_pair(u)": lambda w: api.is_basis_pair(w, B),
    "is_basis_pair(v)": lambda w: api.is_basis_pair(A, w),
    "brute_is_basis(u)": lambda w: api.brute_is_basis(w, B),
    "brute_is_basis(v)": lambda w: api.brute_is_basis(A, w),
    "classify_power_pair(alpha)": lambda w: api.classify_power_pair(w, "AA"),
    "classify_power_pair(beta)": lambda w: api.classify_power_pair("A", w),
    "Automorphism(image_a)": lambda w: Automorphism(w, B),
    "Automorphism(image_b)": lambda w: Automorphism(A, w),
    "Automorphism.__call__": lambda w: Automorphism.identity()(w),
    "Automorphism.image_of_class": lambda w: Automorphism.identity().image_of_class(w),
    "Automorphism.from_json": lambda w: Automorphism.from_json({"A": w, "B": "B"}),
}
# parse_letters reads the text of a word, so only a str is of its type.
TEXT_SLOTS = {"parse_letters": api.parse_letters}
# Integer parameters of the word-taking callables refuse every non-int
# with InvalidParamsError.
INTEGER_SLOTS = {
    "Word.__pow__": lambda n: A ** n,
    "brute_is_basis(budget)": lambda n: api.brute_is_basis(A, B, n),
}


def _diagram(multiplicity=1, disk=1, longitude=None, arc=1, start=0, stop=0,
             index=0, direction=1):
    """One band and one arc on handle A, and alpha a one-step walk; every
    number of the diagram is a parameter."""
    return RRDiagram(
        HandleLabel("A", (Band(multiplicity, disk, longitude),)),
        HandleLabel("B", ()),
        (Arc(Endpoint("A", start, "+"), Endpoint("A", stop, "-"), arc),),
        {"alpha": (TraverseStep("A", index, direction),)},
    )


# Integer parameters of callables that take no word, and the numbers of
# the records they read: each refuses a bool, a float and a digit string
# with InvalidParamsError.
NEAR_INTEGERS = {"True": True, "2.0": 2.0, "'2'": "2"}
SHAPES = {"fig2a": {"p": 2, "q": 1}, "fig3a": {"a": 2, "b": 1, "p": 3, "eps": 1}}
OTHER_INTEGER_SLOTS = {
    "longitude_pair(p)": lambda n: api.longitude_pair(n, 1),
    "longitude_pair(q)": lambda n: api.longitude_pair(2, n),
    "separating_word": api.separating_word,
    "enumerate_primitives": api.enumerate_primitives,
    "HGraph(multiplicity)": lambda n: HGraph(alpha={"A+A-": n}, check_parity=False),
    **{
        f"{call.__name__}({variant} {field})": (
            lambda n, call=call, variant=variant, field=field:
            call(CanonicalParams(variant, **{**SHAPES[variant], field: n}))
        )
        for call in (api.build_canonical, api.classify)
        for variant, shape in SHAPES.items() for field in shape
    },
    **{
        f"alpha_word_fig3a({field})": (
            lambda n, field=field: api.alpha_word_fig3a(**{**SHAPES["fig3a"], field: n})
        )
        for field in SHAPES["fig3a"]
    },
    **{
        f"{name}({number})": lambda n, call=call, number=number: call(_diagram(**{number: n}))
        for name, call in (("validate", api.validate),
                           ("trace_word", lambda diagram: api.trace_word(diagram, "alpha")))
        for number in ("multiplicity", "disk", "longitude", "arc", "start", "stop",
                       "index", "direction")
    },
}

# HGraph takes edge keys, not words: any hashable key outside its slot
# table raises InvalidParamsError, and an unhashable one cannot be a key
# of the dict that carries it.
EDGE_KEY_SLOTS = {"HGraph(edge key)": lambda key: HGraph(alpha={key: 1}, check_parity=False)}
UNHASHABLE = {"[1]", "{'A': 1}"}

NO_WORD_PARAMETER = {
    "compose", "nielsen_generators", "PairClass", "PowerPairOutcome",
    "ProductStructure", "classify", "longitude_pair", "separating_word",
    "cut_vertices", "is_connected", "matches_fig5c", "minimality_witness",
    "enumerate_primitives", "PrimitiveForm", "Arc", "ArcStep", "Band",
    "CanonicalParams", "Endpoint", "HandleLabel", "RRDiagram", "TraverseStep",
    "Violation", "alpha_word_fig3a", "build_canonical", "diagram_from_json",
    "diagram_to_json", "trace_word", "validate", "Syllable",
}
SLOTS = {**WORD_SLOTS, **TEXT_SLOTS, **INTEGER_SLOTS, **EDGE_KEY_SLOTS}


def _expected(slot: str, junk: str):
    """The exception type that ``slot`` raises on ``junk``, or None for an
    int in an integer slot, which returns or raises DomainError."""
    if slot in INTEGER_SLOTS:
        return None if junk in {"-1", "5"} else InvalidParamsError
    if slot in EDGE_KEY_SLOTS:
        return TypeError if junk in UNHASHABLE else InvalidParamsError
    right_typed = {"'0'"} if slot in TEXT_SLOTS else RIGHT_TYPED
    return InvalidWordError if junk in right_typed else TypeError


def test_table_covers_every_public_name():
    named = {name.split("(")[0].split(".")[0] for name in SLOTS}
    errors = {name for name in api.__all__ if name.endswith("Error")}
    assert not named & NO_WORD_PARAMETER
    assert named | NO_WORD_PARAMETER | errors == set(api.__all__)


@pytest.mark.parametrize("junk", JUNK)
@pytest.mark.parametrize("slot", SLOTS)
def test_junk_values(slot, junk):
    expected = _expected(slot, junk)
    if expected is None:
        try:
            SLOTS[slot](JUNK[junk]())
        except DomainError:
            pass
        return
    with pytest.raises(Exception) as info:
        SLOTS[slot](JUNK[junk]())
    assert isinstance(info.value, expected), repr(info.value)
    if slot in WORD_SLOTS and expected is TypeError:
        # One text, naming no parameter: the reader's own.
        with pytest.raises(TypeError) as direct:
            Word(JUNK[junk]())
        assert str(info.value) == str(direct.value)


@pytest.mark.parametrize("value", NEAR_INTEGERS)
@pytest.mark.parametrize("slot", OTHER_INTEGER_SLOTS)
def test_integer_slots_refuse_near_integers(slot, value):
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        OTHER_INTEGER_SLOTS[slot](NEAR_INTEGERS[value])


@pytest.mark.parametrize("source", [{"A": 1}, {"A"}, frozenset("A")],
                         ids=lambda s: type(s).__name__)
def test_unordered_containers_are_not_words(source):
    """A dict or set iterates in no word order, so even letters are refused."""
    with pytest.raises(TypeError, match="expected a word"):
        Word(source)
