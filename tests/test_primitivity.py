import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from genus2pairs.automorphisms import nielsen_generators
from genus2pairs.errors import EmptyWordError, SingleGeneratorError
from genus2pairs.primitivity import (
    PrimitiveForm,
    as_proper_power,
    is_basis_pair,
    is_primitive,
    primitive_form,
)
from genus2pairs.rr_diagram import alpha_word_fig3a
from genus2pairs.words import (
    CyclicWord,
    Word,
    _INV,
    _abelianization,
    _christoffel,
    _commutator_is_basis,
    _cyclic_core,
    _invert,
    _reduce,
    _runs,
    substitute,
)

words = st.text(alphabet="AaBb", max_size=12).map(Word)


def cyclic_classes(max_len):
    """All conjugacy classes of cyclic length between 1 and max_len."""
    out = set()
    for n in range(1, max_len + 1):
        stack = [(ch,) for ch in "AaBb"]
        while stack:
            prefix = stack.pop()
            if len(prefix) == n:
                if prefix[-1] != prefix[0].swapcase():
                    out.add(CyclicWord("".join(prefix)))
                continue
            for ch in "AaBb":
                if ch != prefix[-1].swapcase():
                    stack.append(prefix + (ch,))
    return out


def relabelings():
    """The eight relabelings (invert A, invert B, then swap), in order."""
    for swapped, inv_a, inv_b in itertools.product((False, True), repeat=3):
        images = {}
        for ch in "AaBb":
            inverted = inv_a if ch in "Aa" else inv_b
            out = ch.swapcase() if inverted else ch
            if swapped:
                out = out.translate(str.maketrans("AaBb", "BbAa"))
            images[ord(ch)] = out
        yield inv_a, inv_b, swapped, images


def reference_match_form(letters):
    """Reference: the first relabeling under which the shape appears.

    Returns (e, low_count, high_count, inv_a, inv_b, swapped, table),
    where in the relabeled word every B has exponent exactly 1 and every
    A run has length e or e + 1 with e > 0.
    """
    runs = [(ord(ch), count) for ch, count in _runs(letters)]
    for inv_a, inv_b, swapped, table in relabelings():
        images = [(table[code], count) for code, count in runs]
        if any(image not in "AB" or (image == "B" and count != 1)
               for image, count in images):
            continue
        a_counts = [count for image, count in images if image == "A"]
        if not a_counts or max(a_counts) - min(a_counts) > 1:
            continue
        low = min(a_counts)
        return (low, a_counts.count(low), a_counts.count(low + 1),
                inv_a, inv_b, swapped, table)
    return None


class TestPrimitiveForm:
    def test_plain_shape(self):
        form = primitive_form(CyclicWord("AABAAAB"))
        assert form is not None
        assert form.base_generator == "A"
        assert form.exponent == 2
        assert (form.low_count, form.high_count) == (1, 1)
        assert not (form.inverted_a or form.inverted_b or form.swapped)

    def test_exponent_gap_rejected(self):
        assert primitive_form(CyclicWord("AABAAAAB")) is None

    def test_normalization_recorded(self):
        # A B^-2 A B^-3 matches after inverting B and swapping roles.
        form = primitive_form(CyclicWord("AbbAbbb"))
        assert form is not None
        assert form.base_generator == "B"
        assert form.exponent == 2
        assert form.inverted_b and form.swapped

    def test_single_exponent_accepted(self):
        form = primitive_form(CyclicWord("AAB"))
        assert form is not None
        assert form.exponent == 2
        assert form.high_count == 0

    @pytest.mark.parametrize("word, exponents", [
        ("AABAAAB", {2, 3}), ("AAB", {2}), ("AABAABAB", {1, 2}),
    ])
    def test_exponents(self, word, exponents):
        assert primitive_form(CyclicWord(word)).exponents == exponents

    def test_mixed_signs_rejected(self):
        assert primitive_form(CyclicWord("AABaab")) is None

    def test_empty_raises(self):
        with pytest.raises(EmptyWordError):
            primitive_form(CyclicWord(""))

    def test_single_generator_raises(self):
        with pytest.raises(SingleGeneratorError):
            primitive_form(CyclicWord("AAA"))

    def test_agrees_with_relabeling_search(self):
        classes = [w for w in cyclic_classes(10) if len(w.generators()) == 2]
        forms = 0
        for w in classes:
            match = reference_match_form(w.letters)
            expected = None if match is None else PrimitiveForm(
                "B" if match[5] else "A", *match[:6])
            assert primitive_form(w) == expected, w
            forms += expected is not None
        assert (len(classes), forms) == (9478, 188)


class TestIsPrimitive:
    @pytest.mark.parametrize("text", ["A", "a", "B", "AB", "Ab", "AAB", "AABAAAB"])
    def test_primitives(self, text):
        assert is_primitive(Word(text))

    @pytest.mark.parametrize(
        "text", ["", "ABab", "AA", "bb", "AABAAB", "AABB", "AABAAAAB"]
    )
    def test_non_primitives(self, text):
        assert not is_primitive(Word(text))

    def test_reduction_chain_example(self):
        # A^2BA^2BA^3B descends to AB^3 and then to a single letter.
        assert is_primitive(Word("AABAABAAAB"))

    def test_accepts_cyclic_words(self):
        assert is_primitive(CyclicWord("BAA"))

    def test_conjugates_of_generator(self):
        assert is_primitive(Word("BAb"))

    @given(words)
    def test_invariant_under_inversion(self, w):
        assert is_primitive(w) == is_primitive(~w)

    @given(words)
    def test_invariant_under_swap(self, w):
        swapped = substitute(w, Word("B"), Word("A"))
        assert is_primitive(w) == is_primitive(swapped)

    @given(words)
    def test_invariant_under_generator_inversion(self, w):
        flipped = substitute(w, Word("a"), Word("B"))
        assert is_primitive(w) == is_primitive(flipped)

    @given(words)
    def test_invariant_under_rotation(self, w):
        value = is_primitive(w)
        for rotation in CyclicWord(w).rotations():
            assert is_primitive(Word(rotation)) == value

    @given(words, words)
    def test_invariant_under_conjugation(self, w, g):
        assert is_primitive(g * w * ~g) == is_primitive(w)

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=6), st.sampled_from(["A", "B", "AB"]))
    def test_automorphism_images_of_primitives(self, moves, seed):
        w = Word(seed)
        for index in moves:
            image = nielsen_generators()[index](w)
            if len(image) > 20:
                break
            w = image
        assert is_primitive(w)


class TestIsBasisPair:
    def test_standard_basis(self):
        assert is_basis_pair(Word("A"), Word("B"))

    def test_elementary_transform(self):
        assert is_basis_pair(Word("AB"), Word("B"))

    def test_abelianization_obstruction(self):
        assert not is_basis_pair(Word("AA"), Word("B"))

    def test_commutator_fails(self):
        assert not is_basis_pair(Word("ABab"), Word("B"))

    def test_pair_of_primitives_need_not_be_basis(self):
        u, v = Word("AABAB"), Word("ABB")
        assert is_primitive(u) and is_primitive(v)
        assert not is_basis_pair(u, v)

    def test_conjugate_copies_of_a_generator(self):
        # A and BAb are each primitive but generate a proper subgroup.
        assert not is_basis_pair(Word("A"), Word("BAb"))

    @given(words, words)
    def test_symmetric(self, u, v):
        assert is_basis_pair(u, v) == is_basis_pair(v, u)

    @given(words, words)
    def test_basis_entries_are_primitive(self, u, v):
        if is_basis_pair(u, v):
            assert is_primitive(u) and is_primitive(v)

    @given(words, words)
    def test_invariant_under_inverting_either(self, u, v):
        value = is_basis_pair(u, v)
        assert is_basis_pair(~u, v) == value
        assert is_basis_pair(u, ~v) == value

    def test_determinant_gate_changes_no_verdict(self):
        """Every unordered pair of reduced words of total length <= 8 gets
        the verdict of the commutator kernel alone, and most of them have a
        determinant other than +-1, so the gate decides them."""
        by_length = [[""]]
        for _ in range(8):
            by_length.append([w + c for w in by_length[-1] for c in "AaBb"
                              if not w or w[-1] != _INV[c]])
        pairs = gated = bases = 0
        mismatches = []
        for i in range(9):
            for j in range(i, 9 - i):
                for k, u in enumerate(by_length[i]):
                    for v in by_length[j][k if i == j else 0:]:
                        pairs += 1
                        verdict = is_basis_pair(u, v)
                        if verdict != _commutator_is_basis(u, v):
                            mismatches.append((u, v))
                        (xu, yu), (xv, yv) = _abelianization(u), _abelianization(v)
                        gated += abs(xu * yv - xv * yu) != 1
                        bases += verdict
        assert not mismatches[:5]
        assert (pairs, gated, bases) == (70_065, 60_893, 1_428)


class TestAsProperPower:
    def test_square(self):
        assert as_proper_power(Word("BB")) == (CyclicWord("B"), 2)

    def test_visible_period(self):
        assert as_proper_power(Word("AABAAB")) == (CyclicWord("AAB"), 2)

    def test_primitive_has_no_period(self):
        assert as_proper_power(Word("AABAAAB")) is None

    def test_conjugation_invariant(self):
        w = Word("ab") * Word("AABAAB") * Word("BA")
        assert as_proper_power(w) == (CyclicWord("AAB"), 2)

    def test_maximal_power(self):
        assert as_proper_power(Word("ABABAB")) == (CyclicWord("AB"), 3)

    def test_trivial_word(self):
        assert as_proper_power(Word()) is None

    @given(words.filter(bool), st.integers(2, 4))
    def test_detects_built_powers(self, w, k):
        core = CyclicWord(w)
        if not core:
            return
        result = as_proper_power(core.to_word() ** k)
        assert result is not None
        root, power = result
        assert root.to_word() ** power == CyclicWord(core.to_word() ** k).to_word()
        assert power % k == 0 and power >= k


    @given(
        st.text(alphabet="AaBb", max_size=20),
        st.text(alphabet="AaBb", min_size=1, max_size=70),
        st.integers(1, 5),
        st.integers(0, 400),
    )
    def test_word_path_matches_cyclic_path(self, conj, root, k, shift):
        # A conjugated, rotated power, often past 64 letters.
        power = root * k
        shift %= len(power)
        letters = conj + power[shift:] + power[:shift] + _invert(conj)
        assert as_proper_power(Word(letters)) == as_proper_power(CyclicWord(letters))


class TestTrichotomy:
    def test_partition_on_small_classes(self):
        for w in cyclic_classes(6):
            primitive = is_primitive(w)
            power = as_proper_power(w) is not None
            assert not (primitive and power)

    def test_all_three_kinds_occur(self):
        kinds = {(is_primitive(w), as_proper_power(w) is not None)
                 for w in cyclic_classes(4)}
        assert (True, False) in kinds
        assert (False, True) in kinds
        assert (False, False) in kinds


def _outcome(decide, *args):
    """The value of ``decide(*args)``, or its exception type and text."""
    try:
        return decide(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestWordKinds:
    """A str, a Word and a CyclicWord of one class get one verdict."""

    REDUCED = [w for n in range(7) for w in map("".join, itertools.product("AaBb", repeat=n))
               if _reduce(w) == w]

    @pytest.mark.parametrize("decide", [is_primitive, as_proper_power, primitive_form],
                             ids=lambda f: f.__name__)
    def test_one_verdict_per_class(self, decide):
        for w in self.REDUCED:
            verdict = _outcome(decide, CyclicWord(w))
            assert _outcome(decide, w) == verdict, w
            assert _outcome(decide, Word(w)) == verdict, w

    def test_basis_pairs(self):
        short = [w for w in self.REDUCED if len(w) <= 3]
        for u in short:
            for v in short:
                verdict = is_basis_pair(Word(u), Word(v))
                assert is_basis_pair(u, v) == verdict, (u, v)
                assert is_basis_pair(list(u), Word(v)) == verdict, (u, v)


def shortening_loop_is_primitive(letters):
    """Reference: match the two-exponent shape, shorten, repeat.

    After relabeling so that B has exponent 1 throughout and A has
    exponents {e, e+1}, the substitution B -> A^-e B strictly shortens
    the cyclic word; a primitive ends at a single letter.
    """
    x, y = _abelianization(letters)
    if math.gcd(x, y) != 1:
        return False
    while True:
        upper = letters.upper()
        if "A" not in upper or "B" not in upper:
            return len(letters) == 1
        match = reference_match_form(letters)
        if match is None:
            return False
        e, table = match[0], match[-1]
        relabeled = letters.translate(table)
        shorten = {ord("B"): "a" * e + "B", ord("b"): "b" + "A" * e}
        shortened = _cyclic_core(_reduce(relabeled.translate(shorten)))
        assert len(shortened) < len(letters)
        letters = shortened


def balanced_and_aperiodic(cycle, symbol):
    """Definition: cyclic factors of each length hold the same number of
    ``symbol``, give or take one, and no rotation but the trivial one
    fixes the word."""
    n = len(cycle)
    doubled = cycle + cycle
    if doubled.find(cycle, 1) != n:
        return False
    for length in range(1, n):
        counts = [doubled[i:i + length].count(symbol) for i in range(n)]
        if max(counts) - min(counts) > 1:
            return False
    return True


def nielsen_images(count, seed):
    """Images of A under random Nielsen walks, 100 to 2,000 letters long."""
    rng = random.Random(seed)
    moves = nielsen_generators()
    out = []
    while len(out) < count:
        target = rng.randint(100, 2000)
        w = Word("A")
        for _ in range(500):
            if len(w) >= target:
                break
            image = rng.choice(moves)(w)
            if len(image) <= 2000:
                w = image
        if len(CyclicWord(w)) >= 100:
            out.append(CyclicWord(w))
    return out


def perturbations(word, rng):
    """One-letter edits: swap two neighbours, replace, delete, insert."""
    letters = word.letters
    n = len(letters)
    i = rng.randrange(n)
    j = (i + 1) % n
    swapped = list(letters)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    edits = [
        "".join(swapped),
        letters[:i] + rng.choice("AaBb") + letters[i + 1:],
        letters[:i] + letters[i + 1:],
        letters[:i] + rng.choice("AaBb") + letters[i:],
    ]
    return [CyclicWord(edit) for edit in edits]


class TestLongWordAgreement:
    """The Euclid descent against the shortening loop it replaced."""

    FIG3A_GRID = [
        (a, b, p, eps)
        for total in range(2, 21)
        for a in range(1, total)
        for b in [total - a]
        if math.gcd(a, b) == 1
        for p in range(2, 9)
        for eps in (1, -1)
        if min(p, p + eps) > 1
    ]

    def test_fig3a_grid(self):
        assert len(self.FIG3A_GRID) == 1651
        for params in self.FIG3A_GRID:
            w = alpha_word_fig3a(*params)
            assert is_primitive(w) is True
            assert shortening_loop_is_primitive(w.letters) is True

    def test_fig3a_grid_neighbours(self):
        rng = random.Random(3)
        for params in self.FIG3A_GRID[::7]:
            for edit in perturbations(alpha_word_fig3a(*params), rng):
                assert is_primitive(edit) == shortening_loop_is_primitive(edit.letters)

    def test_nielsen_images(self):
        rng = random.Random(5)
        verdicts = []
        for w in nielsen_images(40, seed=17):
            assert 100 <= len(w) <= 2000
            assert is_primitive(w) is True
            assert shortening_loop_is_primitive(w.letters) is True
            for edit in perturbations(w, rng):
                verdict = is_primitive(edit)
                assert verdict == shortening_loop_is_primitive(edit.letters), edit
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("n", range(1, 12))
    def test_descent_decides_balance(self, n):
        """A two-symbol cycle is balanced and aperiodic exactly when its
        counts are coprime and it is a rotation of their Christoffel word."""
        for symbols in itertools.product("|.", repeat=n):
            cycle = "".join(symbols)
            if "|" in cycle:
                expected = balanced_and_aperiodic(cycle, "|")
                letters = cycle.translate(str.maketrans(".|", "AB"))
                x, y = _abelianization(letters)
                built = math.gcd(x, y) == 1 and letters in _christoffel(x, y) * 2
                assert built == expected, cycle
