from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from genus2pairs.errors import EmptyWordError, InvalidWordError
from genus2pairs.words import (
    CyclicWord,
    Syllable,
    Word,
    cyclic_equal,
    cyclic_reduce,
    _canonical_rotation,
    _invert,
    _join,
    _reduce,
    parse_letters,
    substitute,
)

letter_strings = st.text(alphabet="AaBb", max_size=12)
words = letter_strings.map(Word)

_ORDER = str.maketrans("AaBb", "0123")


def stack_reduce(letters):
    """Free reduction by the textbook stack scan."""
    out = []
    for ch in letters:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def least_rotation(letters):
    """Least rotation under A < a < B < b, by trying every rotation."""
    if not letters:
        return letters
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))]
    return min(rotations, key=lambda r: r.translate(_ORDER))


# Short strings, one-letter powers, and long near-periodic strings (a
# repeated block plus a tail), where many rotations tie for a long way.
rotation_inputs = st.one_of(
    st.text(alphabet="AaBb", max_size=30),
    st.builds(lambda ch, n: ch * n, st.sampled_from("AaBb"), st.integers(1, 2000)),
    st.builds(
        lambda block, n, tail: block * n + tail,
        st.text(alphabet="AaBb", min_size=1, max_size=12),
        st.integers(1, 200),
        st.text(alphabet="AaBb", max_size=6),
    ),
)
reduced_strings = st.text(alphabet="AaBb", max_size=40).map(stack_reduce)


class TestParsing:
    def test_compact_form(self):
        assert parse_letters("AABab") == "AABab"

    def test_caret_form(self):
        assert parse_letters("A^2 B A^-1") == "AABa"
        assert parse_letters("B^-2") == "bb"
        assert parse_letters("a^3") == "aaa"

    def test_identity_spellings(self):
        assert parse_letters("") == ""
        assert parse_letters("1") == ""

    @pytest.mark.parametrize("bad", ["AxB", "A^", "A^2.5", "2", "A B-1"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(InvalidWordError):
            parse_letters(bad)


class TestKernelFastPaths:
    """Each short cut of the word kernel against its plain definition."""

    @given(rotation_inputs)
    def test_canonical_rotation_is_least_rotation(self, s):
        assert _canonical_rotation(s) == least_rotation(s)

    @given(reduced_strings, reduced_strings, st.integers(0, 40))
    def test_join_matches_full_reduction(self, x, y, overlap):
        # Also feed a right part that starts by undoing part of x.
        z = stack_reduce(_invert(x)[:overlap] + y)
        assert _join(x, y) == _reduce(x + y)
        assert _join(x, z) == _reduce(x + z)

    @given(st.text(alphabet="AaBb", max_size=60))
    def test_reduce_matches_stack_reduction(self, s):
        reduced = _reduce(s)
        assert reduced == stack_reduce(s)
        for x, y in zip(reduced, reduced[1:]):
            assert x != y.swapcase()

    @given(st.text(alphabet="AaBb", max_size=30))
    def test_parse_plain_caret_and_padded_forms(self, s):
        assert parse_letters(s) == s
        assert parse_letters(f" \t{s}\n ") == s
        caret = " ".join(
            f"{ch.upper()}^{len(list(run)) * (1 if ch.isupper() else -1)}"
            for ch, run in groupby(s)
        )
        assert parse_letters(caret) == s


class TestWord:
    def test_reduce_cancelling_pair(self):
        assert Word("Aa") == Word()
        assert str(Word("Aa")) == "1"

    def test_reduce_inner_cancellation(self):
        assert Word("ABbA").letters == "AA"

    def test_reduce_keeps_reduced_input(self):
        assert Word("ABA").letters == "ABA"

    def test_multiply(self):
        assert Word("A") * Word("B") == Word("AB")
        assert (Word("AB") * Word("ba")).letters == ""

    def test_invert(self):
        assert (~Word("AAB")).letters == "baa"
        assert ~Word() == Word()

    def test_pow(self):
        assert Word("AB") ** 3 == Word("ABABAB")
        assert Word("AB") ** -2 == Word("baba")
        assert Word("AB") ** 0 == Word()

    def test_abelianization(self):
        assert Word("AABAAAB").abelianization() == (5, 2)
        assert Word("ABab").abelianization() == (0, 0)
        assert Word().abelianization() == (0, 0)

    def test_accepts_word_and_cyclic_sources(self):
        w = Word("AB")
        assert Word(w) == w
        assert Word(CyclicWord("AB")) == w

    @given(letter_strings)
    def test_reduce_idempotent(self, s):
        w = Word(s)
        assert Word(w.letters) == w

    @given(letter_strings)
    def test_no_adjacent_cancellation(self, s):
        letters = Word(s).letters
        for x, y in zip(letters, letters[1:]):
            assert x != y.swapcase()

    @given(words, words, words)
    def test_multiply_associative(self, u, v, w):
        assert (u * v) * w == u * (v * w)

    @given(words)
    def test_invert_involution(self, u):
        assert ~~u == u

    @given(words)
    def test_inverse_law(self, u):
        assert u * ~u == Word()
        assert ~u * u == Word()

    @given(words, words)
    def test_product_inverse(self, u, v):
        assert ~(u * v) == ~v * ~u

    @given(words, words)
    def test_abelianization_additive(self, u, v):
        xu, yu = u.abelianization()
        xv, yv = v.abelianization()
        assert (u * v).abelianization() == (xu + xv, yu + yv)


class TestCyclicWord:
    def test_rotation_blind_equality(self):
        assert CyclicWord("BAAB") == CyclicWord("ABBA")
        assert hash(CyclicWord("BAAB")) == hash(CyclicWord("ABBA"))

    def test_cyclic_reduction_on_construction(self):
        assert CyclicWord("bABB").letters == "AB"

    def test_trivial_class(self):
        assert str(CyclicWord("")) == "1"
        assert not CyclicWord("Aa")

    def test_canonical_rotation_is_least(self):
        w = CyclicWord("BAAAB")
        assert w.letters == min(w.rotations(), key=lambda r: r.translate(
            str.maketrans("AaBb", "0123")))

    def test_invert(self):
        assert ~CyclicWord("AB") == CyclicWord("ba")
        assert ~CyclicWord("AABab") == CyclicWord("BAbaa")

    def test_generators(self):
        assert CyclicWord("AB").generators() == {"A", "B"}
        assert CyclicWord("aaa").generators() == {"A"}

    @given(letter_strings)
    def test_equal_to_own_rotations(self, s):
        w = CyclicWord(s)
        for rotation in w.rotations():
            assert CyclicWord(rotation) == w

    @given(letter_strings)
    def test_inversion_involution(self, s):
        w = CyclicWord(s)
        assert ~~w == w


class TestCyclicReduce:
    def test_conjugated_generator(self):
        assert cyclic_reduce(Word("aBA")) == (CyclicWord("B"), Word("a"))

    def test_already_cyclically_reduced(self):
        core, conj = cyclic_reduce(Word("ABab"))
        assert core == CyclicWord("ABab")
        assert conj * core.to_word() * ~conj == Word("ABab")

    def test_empty(self):
        assert cyclic_reduce(Word()) == (CyclicWord(""), Word())

    @given(words)
    def test_exact_conjugation_identity(self, w):
        core, conj = cyclic_reduce(w)
        assert conj * core.to_word() * ~conj == w

    @given(words)
    def test_core_no_longer_than_input(self, w):
        core, _ = cyclic_reduce(w)
        assert len(core) <= len(w)

    @given(words)
    def test_abelianization_invariant(self, w):
        core, _ = cyclic_reduce(w)
        assert core.abelianization() == w.abelianization()


class TestCyclicEqual:
    def test_rotation(self):
        assert cyclic_equal(CyclicWord("ABab"), CyclicWord("BabA"))

    def test_inversion_needs_flag(self):
        u, v = CyclicWord("ABab"), CyclicWord("BAba")
        assert not cyclic_equal(u, v)
        assert cyclic_equal(u, v, up_to_inversion=True)

    def test_different_lengths(self):
        assert not cyclic_equal(CyclicWord("AB"), CyclicWord("AAB"))
        assert not cyclic_equal(
            CyclicWord("AB"), CyclicWord("AAB"), up_to_inversion=True
        )


class TestSyllables:
    def test_direct_read_off(self):
        # Same cyclic sequence as [(A,2),(B,1),(A,3),(B,1)], rotated to
        # the canonical representative.
        sylls = CyclicWord("AABAAAB").syllables()
        expected = [
            Syllable("A", 2), Syllable("B", 1), Syllable("A", 3), Syllable("B", 1),
        ]
        assert len(sylls) == len(expected)
        assert any(
            sylls[k:] + sylls[:k] == expected for k in range(len(sylls))
        )

    def test_single_generator(self):
        assert CyclicWord("bb").syllables() == [Syllable("B", -2)]

    def test_commutator(self):
        assert CyclicWord("ABab").syllables() == [
            Syllable("A", 1), Syllable("B", 1), Syllable("A", -1), Syllable("B", -1),
        ]

    def test_first_syllable_uses_A_when_both_occur(self):
        assert CyclicWord("BBBAB").syllables()[0].generator == "A"

    def test_empty_rejected(self):
        with pytest.raises(EmptyWordError):
            CyclicWord("").syllables()

    @given(letter_strings.filter(lambda s: Word(s) != Word()))
    def test_round_trip_up_to_rotation(self, s):
        w = CyclicWord(s)
        if not w:
            return
        sylls = w.syllables()
        rebuilt = Word()
        for gen, exp in sylls:
            rebuilt = rebuilt * Word(gen) ** exp
        assert CyclicWord(rebuilt) == w

    @given(letter_strings.filter(lambda s: bool(CyclicWord(s))))
    def test_alternating_generators(self, s):
        sylls = CyclicWord(s).syllables()
        for cur, nxt in zip(sylls, sylls[1:]):
            assert cur.generator != nxt.generator
        for sy in sylls:
            assert sy.exponent != 0


class TestSubstitute:
    def test_basic(self):
        w = substitute(Word("ABa"), Word("AB"), Word("B"))
        assert w == Word("AB") * Word("B") * ~Word("AB")

    @given(words)
    def test_identity_substitution(self, w):
        assert substitute(w, Word("A"), Word("B")) == w
