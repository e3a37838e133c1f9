import random
from itertools import groupby, product
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from genus2pairs.classifier import separating_word
from genus2pairs.errors import (
    BudgetExceededError,
    EmptyWordError,
    InvalidParamsError,
    InvalidWordError,
)
from genus2pairs.oracle import enumerate_primitives
from genus2pairs.primitivity import is_primitive
from genus2pairs.rr_diagram import (
    CanonicalParams,
    alpha_word_fig3a,
    build_canonical,
    trace_word,
)
from genus2pairs.words import (
    CyclicWord,
    Syllable,
    Word,
    cyclic_equal,
    cyclic_reduce,
    _abelianization,
    _canonical_rotation,
    _cancellation,
    _christoffel,
    _invert,
    _join,
    _least_start,
    _SHORT_ROTATION,
    _power_period,
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
    n = len(letters)
    doubled = (letters + letters).translate(_ORDER)
    best = min(range(n), key=lambda i: doubled[i : i + n])
    return letters[best:] + letters[:best]


def least_period(letters):
    """Least p dividing len(letters) with letters == letters[:p] repeated."""
    n = len(letters)
    return next(
        (p for p in range(1, n + 1) if n % p == 0 and letters == letters[:p] * (n // p)),
        0,
    )


def rotated(s, shift):
    shift %= max(len(s), 1)
    return s[shift:] + s[:shift]


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

# Long words for the run-length rotation path, each turned by a random
# shift; lengths reach from below the short-word cutoff to ~5,000.
shifts = st.integers(0, 10_000)
roots = st.text(alphabet="AaBb", min_size=1, max_size=60)
# Roots may be powers themselves, so k ranges over products of primes.
proper_powers = st.builds(
    lambda root, j, k, shift: rotated(root * j * k, shift),
    roots,
    st.integers(1, 6),
    st.integers(2, 5),
    shifts,
)
# Letter counts all divisible by k, yet (almost always) not a power.
shuffled_multiples = st.builds(
    lambda root, k, seed: "".join(random.Random(seed).sample(root * k, len(root) * k)),
    st.text(alphabet="AaBb", min_size=2, max_size=300),
    st.integers(2, 5),
    st.integers(0, 2**32),
)
near_periodic = st.builds(
    lambda block, n, tail, shift: rotated(block * n + tail, shift),
    st.text(alphabet="AaBb", min_size=1, max_size=15),
    st.integers(1, 400),
    st.text(alphabet="AaBb", max_size=6),
    shifts,
)
one_extra_letter = st.builds(
    lambda base, other, p, shift: rotated(base * p + other, shift),
    st.sampled_from("AaBb"),
    st.sampled_from("AaBb"),
    st.integers(1, 5000),
    shifts,
)


def _fig3a(a, b, p, eps, form, shift):
    while gcd(a, b) > 1:
        b += 1
    word = alpha_word_fig3a(a, b, p, eps).letters
    word = (word, _invert(word), word * 3, _invert(word) * 3)[form]
    return rotated(word, shift)


fig3a_words = st.builds(
    _fig3a,
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(3, 25),
    st.sampled_from((-1, 1)),
    st.integers(0, 3),
    shifts,
)
# The least letter opens and closes the string, so its run wraps around.
wrapping_runs = st.builds(
    lambda head, middle, tail: "A" * head + middle + "A" * tail,
    st.integers(1, 80),
    st.text(alphabet="aBb", min_size=1, max_size=10).flatmap(
        lambda edge: st.text(alphabet="AaBb", max_size=150).map(
            lambda inner: edge + inner + edge[::-1]
        )
    ),
    st.integers(1, 80),
)
# Over 64 starts of the longest run (every run of A has length 1), so
# the pieces between runs are ranked and the rank string is rotated.
many_longest_runs = st.builds(
    lambda blocks, picks, shift: rotated(
        "".join(blocks[i % len(blocks)] for i in picks), shift
    ),
    st.lists(st.text(alphabet="aBb", min_size=1, max_size=3).map("A".__add__),
             min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=65, max_size=600),
    shifts,
)
# Short words of runs of their least letter, each run followed by up to
# three larger letters and the whole turned by a shift, so that the
# short-word scan meets runs that start, end and wrap around the string.
short_least_runs = st.builds(
    rotated,
    st.sampled_from("AaB").flatmap(
        lambda least: st.lists(
            st.builds(
                lambda k, rest: least * k + rest,
                st.integers(1, 9),
                st.text(alphabet="AaBb"["AaBb".index(least) + 1 :], max_size=3),
            ),
            min_size=1,
            max_size=16,
        )
    ).map(lambda pieces: "".join(pieces)[:_SHORT_ROTATION]),
    shifts,
)
long_rotation_inputs = st.one_of(
    proper_powers, shuffled_multiples, near_periodic, one_extra_letter,
    fig3a_words, wrapping_runs, many_longest_runs,
)


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

    @pytest.mark.parametrize(
        "text",
        ["A^99999999999", "a^-99999999999", "A^6000000 B^-6000000", "B^" + "9" * 5000],
    )
    def test_caret_budget_checked_before_expansion(self, text):
        with pytest.raises(BudgetExceededError):
            parse_letters(text)

    @pytest.mark.parametrize(
        "text, letters", [("A B", "AB"), (" A B ", "AB"), ("AB^2", "ABB"), ("A\tb", "Ab")]
    )
    def test_non_letters_inside_take_the_token_path(self, text, letters):
        assert parse_letters(text) == letters

    def test_unknown_character_message(self):
        with pytest.raises(InvalidWordError) as info:
            parse_letters("AxB")
        assert str(info.value) == (
            "cannot parse word 'AxB' at position 1: expected a letter from 'AaBb'"
        )

    @given(
        st.text(alphabet=" \t\n\r\x0b\x0c"),
        st.text(alphabet="AaBb"),
        st.text(alphabet=" \t\n\r\x0b\x0c"),
    )
    def test_letter_strings_come_back_stripped(self, left, s, right):
        assert parse_letters(left + s + right) == s

    def test_caret_exponent_edge_forms(self):
        assert parse_letters("A^0 B^-0 a^-003") == "AAA"
        assert parse_letters("B^0000000000000002") == "BB"


# Words that are not cyclically reduced: a conjugator around a core,
# with cores from a few letters to thousands, past the short-word cutoff.
conjugated_strings = st.builds(
    lambda conj, core: conj + core + _invert(conj),
    st.text(alphabet="AaBb", min_size=1, max_size=20),
    st.one_of(st.text(alphabet="AaBb", max_size=20), long_rotation_inputs),
)
# Strings over alphabets with one or both signs of each generator, so
# that strings with nothing to cancel and strings with pairs both occur.
sign_mixes = st.sampled_from(
    ["A", "AB", "Ab", "aB", "ab", "AaB", "Aab", "ABb", "aBb", "AaBb"]
).flatmap(lambda alphabet: st.text(alphabet=alphabet, max_size=300))


def repeated(letters, n):
    """letters**n spelled out: letters n times, or their inverse -n times."""
    return letters * n if n >= 0 else _invert(letters) * -n


class TestKernelFastPaths:
    """Each short cut of the word kernel against its plain definition."""

    @given(rotation_inputs)
    def test_canonical_rotation_is_least_rotation(self, s):
        assert _canonical_rotation(s) == least_rotation(s)

    @given(long_rotation_inputs)
    def test_long_canonical_rotation_is_least_rotation(self, s):
        assert _canonical_rotation(s) == least_rotation(s)

    def test_every_short_string_rotates_to_its_least_rotation(self):
        for n in range(8):
            for letters in product("AaBb", repeat=n):
                s = "".join(letters)
                assert _canonical_rotation(s) == least_rotation(s)

    @given(short_least_runs)
    def test_short_rotation_jumps_runs_of_the_least_letter(self, s):
        assert _canonical_rotation(s) == least_rotation(s)

    @given(st.one_of(long_rotation_inputs, rotation_inputs))
    def test_power_period_is_least_period(self, s):
        assert _power_period(s) == least_period(s)

    def test_canonical_rotation_examples(self):
        fig3a = alpha_word_fig3a(23, 37, 25, 1).letters
        for word in (
            "A" * 1499 + "B",
            "A" * 500 + "B" + "A" * 999,
            "AAABAAABAAABAAB" * 100,
            ("A" * 6 + "B" * 6) * 4,
            fig3a,
            fig3a * 3,
            _invert(fig3a) * 3,
            # More longest-run starts than _SHORT_ROTATION: pieces are ranked.
            "AB" * 2000 + "Ab",
            ("AB" * 40 + "AAB") * 3 + "AB",
            # Short words (at most _SHORT_ROTATION letters) with long runs,
            # many tied starts, one-letter powers and a wrapping run.
            "A" * 63 + "B",
            ("A" * 7 + "B") * 8,
            "AB" * 31 + "Ab",
            "A" + "B" * 63,
            "b" * 64,
            "A" * 20 + "bBab" * 6 + "A" * 20,
        ):
            for shift in (0, 1, len(word) // 2):
                assert _canonical_rotation(rotated(word, shift)) == least_rotation(word)

    def test_many_longest_run_starts_recurse_on_ranks(self):
        # 80,001 starts of a run of A: one slice compare per start was
        # quadratic; the pieces between runs are ranked instead, and the
        # rank string, at most half as long, is rotated by the same rule.
        word = "AB" * 80000 + "Ab"
        with mock.patch(
            "genus2pairs.words._least_start", wraps=_least_start
        ) as spy:
            assert CyclicWord(rotated(word, 12345)).letters == word
        lengths = [len(call.args[0]) for call in spy.call_args_list]
        assert lengths[0] == len(word) and lengths[1] <= len(word) // 2

    @pytest.mark.parametrize(
        "letters, period",
        [
            ("", 0),
            ("A", 1),
            ("AB" * 6, 2),
            ("AAB" * 4, 3),
            ("A" * 12, 1),
            # Non-powers whose first-letter count shares a factor with n.
            ("AABB", 4),
            ("A" * 50 + "B" * 50 + "AB", 102),
        ],
    )
    def test_power_period_examples(self, letters, period):
        assert _power_period(letters) == least_period(letters) == period

    @given(reduced_strings, reduced_strings, st.integers(0, 40))
    def test_join_matches_full_reduction(self, x, y, overlap):
        # Also feed a right part that starts by undoing part of x.
        z = stack_reduce(_invert(x)[:overlap] + y)
        assert _join(x, y) == _reduce(x + y)
        assert _join(x, z) == _reduce(x + z)
        assert len(x) + len(z) - 2 * _cancellation(x, z) == len(_reduce(x + z))

    @given(st.text(alphabet="AaBb", max_size=60))
    def test_reduce_matches_stack_reduction(self, s):
        reduced = _reduce(s)
        assert reduced == stack_reduce(s)
        for x, y in zip(reduced, reduced[1:]):
            assert x != y.swapcase()

    @given(st.one_of(sign_mixes, conjugated_strings))
    def test_reduce_on_one_sign_and_mixed_strings(self, s):
        assert _reduce(s) == stack_reduce(s)

    @given(st.one_of(letter_strings, conjugated_strings), st.integers(-4, 4))
    def test_pow_is_the_reduced_repetition(self, s, n):
        assert (Word(s) ** n).letters == stack_reduce(repeated(s, n))

    @given(st.one_of(letter_strings, conjugated_strings))
    def test_cyclic_word_trusts_word_and_cyclic_word(self, s):
        expected = CyclicWord(s).letters
        assert CyclicWord(Word(s)).letters == expected
        assert CyclicWord(CyclicWord(s)).letters == expected
        assert Word(CyclicWord(s)).letters == expected

    @given(st.text(alphabet="AaBb", max_size=30))
    def test_parse_plain_caret_and_padded_forms(self, s):
        assert parse_letters(s) == s
        assert parse_letters(f" \t{s}\n ") == s
        caret = " ".join(
            f"{ch.upper()}^{len(list(run)) * (1 if ch.isupper() else -1)}"
            for ch, run in groupby(s)
        )
        assert parse_letters(caret) == s


_FIG2A_3_1 = build_canonical(CanonicalParams.fig2a(3, 1))


class TestBudget:
    """Every writer checks the size of its output against one budget first."""

    @pytest.mark.parametrize(
        "write, size",
        [
            (lambda: parse_letters("A^5 B^3"), 8),
            (lambda: Word("AB") ** -4, 8),
            (lambda: separating_word(-3), 8),
            (lambda: alpha_word_fig3a(1, 1, 2, 1), 7),
            (lambda: build_canonical(CanonicalParams.fig3a(1, 1, 2, 1)), 8),
            (lambda: trace_word(_FIG2A_3_1, "alpha"), 4),
            (lambda: substitute(Word("AbA"), Word("AB"), Word("BAB")), 7),
        ],
        ids=["parse_letters", "pow", "separating_word", "alpha_word_fig3a",
             "build_canonical", "trace_word", "substitute"],
    )
    def test_boundary(self, monkeypatch, write, size):
        monkeypatch.setattr("genus2pairs.words._MAX_EXPANDED_LETTERS", size)
        write()
        monkeypatch.setattr("genus2pairs.words._MAX_EXPANDED_LETTERS", size - 1)
        with pytest.raises(BudgetExceededError):
            write()

    def test_pow_checked_before_expansion(self):
        with pytest.raises(BudgetExceededError):
            Word("AB") ** 5_000_001

    def test_pow_of_empty_word_past_index_size(self):
        assert Word() ** 10**30 == Word()
        assert Word() ** -(10**30) == Word()
        with pytest.raises(BudgetExceededError):
            Word("A") ** 10**30


class TestValueProtocol:
    """Word and CyclicWord share one value protocol but never compare equal."""

    def test_types_never_equal(self):
        assert Word("AB") != CyclicWord("AB")
        assert CyclicWord("AB") != Word("AB")
        assert len({Word("AB"), CyclicWord("AB")}) == 2

    @pytest.mark.parametrize("w", [Word("AB"), CyclicWord("AB")], ids=repr)
    def test_no_instance_dict(self, w):
        assert not hasattr(w, "__dict__")
        with pytest.raises(AttributeError):
            w.extra = 1

    def test_repr_and_hash(self):
        assert repr(Word("AB")) == "Word('AB')"
        assert repr(Word()) == "Word('1')"
        assert repr(CyclicWord("BA")) == "CyclicWord('AB')"
        assert hash(Word("AB")) == hash(("Word", "AB"))
        assert hash(CyclicWord("BA")) == hash(("CyclicWord", "AB"))

    @given(letter_strings)
    def test_truthiness_is_length(self, s):
        for w in (Word(s), CyclicWord(s)):
            assert bool(w) is (len(w) > 0) is (w.letters != "")


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

    @pytest.mark.parametrize("n", [True, 2.0, "2"], ids=repr)
    def test_pow_exponent_is_an_exact_integer(self, n):
        with pytest.raises(InvalidParamsError, match="exponent must be an integer"):
            Word("AB") ** n

    @pytest.mark.parametrize("other", ["bA", Word("bA"), ["b", "A"]], ids=repr)
    def test_multiply_reads_any_word(self, other):
        assert Word("AB") * other == Word("A^2")

    def test_multiply_by_a_class_uses_its_canonical_rotation(self):
        assert Word("AB") * CyclicWord("bA") == Word("ABAb")

    def test_abelianization(self):
        assert Word("AABAAAB").abelianization() == (5, 2)
        assert Word("ABab").abelianization() == (0, 0)
        assert Word().abelianization() == (0, 0)

    def test_accepts_word_and_cyclic_sources(self):
        w = Word("AB")
        assert Word(w) == w
        assert Word(CyclicWord("AB")) == w

    def test_accepts_letter_iterables(self):
        assert Word(["A", "B", "b"]) == Word("A")
        assert CyclicWord(iter("BA")) == CyclicWord("AB")
        with pytest.raises(InvalidWordError, match="'x'"):
            Word(["A", "x"])

    def test_iterates_over_reduced_letters(self):
        assert list(Word("ABba")) == []
        assert list(Word("AAbA")) == ["A", "A", "b", "A"]
        assert Word(Word("Ab")) == Word(list(Word("Ab")))

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


# Every freely reduced string of at most four letters, the empty one first.
REDUCED_4 = [
    word
    for n in range(5)
    for word in map("".join, product("AaBb", repeat=n))
    if _reduce(word) == word
]


class TestCyclicEqual:
    @pytest.mark.parametrize("up_to_inversion", [False, True])
    @pytest.mark.parametrize("kind", [str, Word, CyclicWord], ids=lambda k: k.__name__)
    def test_agrees_with_class_equality(self, kind, up_to_inversion):
        """Any word reads as the class of its cyclic core."""
        assert len(REDUCED_4) == 161
        classes = [CyclicWord(w) for w in REDUCED_4]
        inverses = [~c for c in classes]
        words = [kind(w) for w in REDUCED_4]
        mismatches = [
            (REDUCED_4[i], REDUCED_4[j])
            for i, u in enumerate(words)
            for j, v in enumerate(words)
            if cyclic_equal(u, v, up_to_inversion)
            != (classes[i] == classes[j] or up_to_inversion and inverses[i] == classes[j])
        ]
        assert not mismatches[:5]

    def test_words_compare_as_classes(self):
        assert cyclic_equal(Word("AB"), Word("BA"))
        assert cyclic_equal("AB", "BA")
        assert cyclic_equal("aBA", CyclicWord("B"))
        assert not cyclic_equal("AB", "ab")
        assert cyclic_equal("AB", "ab", up_to_inversion=True)

    def test_junk_is_refused(self):
        with pytest.raises(TypeError, match="expected a word"):
            cyclic_equal(5, CyclicWord("A"))

    @pytest.mark.parametrize("flag", ["no", "", 1, 0, None, 1.0], ids=repr)
    def test_flag_must_be_a_bool(self, flag):
        with pytest.raises(InvalidParamsError) as info:
            cyclic_equal("AB", "ab", up_to_inversion=flag)
        assert str(info.value) == f"up_to_inversion must be a bool, got {flag!r}"

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

    @given(letter_strings, letter_strings)
    def test_unequal_lengths_skip_inversion(self, s, t):
        u, v = CyclicWord(s), CyclicWord(t)
        assume(len(u) != len(v))
        with mock.patch.object(
            CyclicWord, "__invert__", side_effect=AssertionError("inverted")
        ):
            assert not cyclic_equal(u, v, up_to_inversion=True)

    # The second class is another word, the first inverted, the first
    # itself, or the first reversed (same length and letter counts as the
    # inverse, a near miss), each turned by a random shift.
    @given(
        st.one_of(letter_strings, long_rotation_inputs),
        st.one_of(letter_strings, long_rotation_inputs),
        st.integers(0, 3),
        shifts,
    )
    @example("AB" * 40 + "b", "", 1, 7)
    @example("AABAB" * 15, "", 1, 3)
    def test_inversion_agrees_with_inverted_class(self, s, t, form, shift):
        other = (t, _invert(s), s, s[::-1])[form]
        u, v = CyclicWord(s), CyclicWord(rotated(other, shift))
        assert cyclic_equal(u, v) == (u == v)
        assert cyclic_equal(u, v, up_to_inversion=True) == (u == v or u == ~v)
        if form == 1:
            assert cyclic_equal(u, v, up_to_inversion=True)


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

    @given(letter_strings)
    @example("BBBAB")
    def test_first_syllable_uses_A_when_both_occur(self, s):
        w = CyclicWord(s)
        assume(w.generators() == {"A", "B"})
        assert w.syllables()[0].generator == "A"

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
    @example("BAB" * 30)
    @example("bAAb" + "AB" * 40)
    def test_alternating_generators(self, s):
        sylls = CyclicWord(s).syllables()
        for cur, nxt in zip(sylls, sylls[1:] + sylls[:1]):
            assert len(sylls) == 1 or cur.generator != nxt.generator
        for sy in sylls:
            assert sy.exponent != 0


class TestSubstitute:
    def test_basic(self):
        w = substitute(Word("ABa"), Word("AB"), Word("B"))
        assert w == Word("AB") * Word("B") * ~Word("AB")

    @given(words)
    def test_identity_substitution(self, w):
        assert substitute(w, Word("A"), Word("B")) == w


def floor_christoffel(a, b):
    """The lower Christoffel word by its floor formula: letter i, counted
    from 1, is B exactly when floor(i * b / (a + b)) steps up.  This is
    the fig3a pass pattern that ``rr build`` prints."""
    n = a + b
    return "".join("AB"[i * b // n - (i - 1) * b // n] for i in range(1, n + 1))


class TestChristoffel:
    def test_matches_floor_formula(self):
        for a in range(1, 61):
            for b in range(1, 61):
                if gcd(a, b) == 1:
                    assert _christoffel(a, b) == floor_christoffel(a, b), (a, b)

    @given(st.integers(-300, 300), st.integers(-300, 300))
    @example(1, 0)
    @example(0, -1)
    @example(-1, -1)
    @example(-89, 55)
    def test_signed_counts_build_a_primitive(self, x, y):
        assume(gcd(x, y) == 1)
        letters = _christoffel(x, y)
        assert len(letters) == abs(x) + abs(y)
        assert _abelianization(letters) == (x, y)
        assert is_primitive(Word(letters))

    def test_classes_are_the_closure(self):
        """The signed Christoffel classes are every primitive class, as the
        closure in ``oracle`` finds them."""
        built = {
            CyclicWord(_christoffel(x, y))
            for x in range(-10, 11)
            for y in range(-10, 11)
            if gcd(x, y) == 1 and abs(x) + abs(y) <= 10
        }
        assert built == enumerate_primitives(10)
