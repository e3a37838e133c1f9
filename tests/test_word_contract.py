"""One word-input contract across the public API.

Every word parameter reads its value through ``words._reduced_letters``:
a str, Word, CyclicWord or iterable of letters.  Fed the same ten junk
values, each parameter raises DomainError for a value of the right type
and TypeError, with one text, for any other; never AttributeError.  The
table names every word-taking callable and method of ``__all__``, and
every other public name is listed as taking no word.
"""

import pytest

import genus2pairs as api
from genus2pairs import (
    Automorphism,
    CyclicWord,
    DomainError,
    HGraph,
    InvalidParamsError,
    InvalidWordError,
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
# HGraph takes edge keys, not words; its outcomes are listed as
# tests/test_heegaard.py::TestEdgeKeys pins them, a key tuple of the
# wrong length raising the plain ValueError of tuple unpacking.
EDGE_KEY_SLOTS = {"HGraph(edge key)": lambda key: HGraph(alpha={key: 1}, check_parity=False)}
PINNED = {("HGraph(edge key)", "('A+',)"): ValueError, ("HGraph(edge key)", "5"): TypeError}

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
    if (slot, junk) in PINNED:
        return PINNED[slot, junk]
    if slot in INTEGER_SLOTS:
        return None if junk in {"-1", "5"} else InvalidParamsError
    if slot in EDGE_KEY_SLOTS:
        return DomainError if junk == "'0'" else TypeError
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


@pytest.mark.parametrize("source", [{"A": 1}, {"A"}, frozenset("A")],
                         ids=lambda s: type(s).__name__)
def test_unordered_containers_are_not_words(source):
    """A dict or set iterates in no word order, so even letters are refused."""
    with pytest.raises(TypeError, match="expected a word"):
        Word(source)
