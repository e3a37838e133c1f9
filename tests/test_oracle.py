from math import gcd

import pytest

from genus2pairs.automorphisms import nielsen_generators
from genus2pairs.errors import BudgetExceededError, InvalidParamsError
from genus2pairs import oracle
from genus2pairs.oracle import brute_is_basis, enumerate_primitives
from genus2pairs.words import CyclicWord, Word


class TestEnumeratePrimitives:
    def test_length_one(self):
        assert enumerate_primitives(1) == {
            CyclicWord("A"), CyclicWord("a"), CyclicWord("B"), CyclicWord("b"),
        }

    def test_contains_known_primitive(self):
        assert CyclicWord("AABAAAB") in enumerate_primitives(7)

    @pytest.mark.parametrize("bound", [4, 6, 8])
    def test_excludes_commutator(self, bound):
        assert CyclicWord("ABab") not in enumerate_primitives(bound)

    def test_excludes_powers(self):
        found = enumerate_primitives(6)
        assert CyclicWord("AA") not in found
        assert CyclicWord("AABAAB") not in found

    def test_coprime_abelianization(self):
        for w in enumerate_primitives(8):
            x, y = w.abelianization()
            assert gcd(x, y) == 1

    def test_closed_under_symmetries(self):
        found = enumerate_primitives(6)
        swap = str.maketrans("AaBb", "BbAa")
        flip = str.maketrans("Aa", "aA")
        for w in found:
            assert ~w in found
            assert CyclicWord(w.letters.translate(swap)) in found
            assert CyclicWord(w.letters.translate(flip)) in found

    @pytest.mark.parametrize("bound", [1, 4, 7])
    def test_closed_under_generators_within_bound(self, bound):
        found = enumerate_primitives(bound)
        for w in found:
            for f in nielsen_generators():
                image = f.image_of_class(w)
                assert len(image) > bound or image in found

    @pytest.mark.parametrize("bound", [3, 5, 7])
    def test_stability_between_bounds(self, bound):
        small = enumerate_primitives(bound)
        restricted = {w for w in enumerate_primitives(bound + 1) if len(w) <= bound}
        assert small == restricted

    def test_count_up_to_nine(self):
        # Primitive classes correspond to coprime abelianization vectors;
        # this count was frozen from an independent tally of the classes.
        assert len(enumerate_primitives(9)) == 112

    @pytest.mark.parametrize("bad", [15, 99])
    def test_budget_guard(self, bad):
        with pytest.raises(BudgetExceededError):
            enumerate_primitives(bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_below_one_is_invalid(self, bad):
        with pytest.raises(InvalidParamsError, match="at least 1"):
            enumerate_primitives(bad)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", True, None], ids=repr)
    def test_non_integer_is_invalid(self, bad):
        with pytest.raises(InvalidParamsError, match="must be an integer"):
            enumerate_primitives(bad)
        assert all(type(key) is int for key in oracle._cache)
        with pytest.raises(InvalidParamsError, match="budget must be an integer"):
            brute_is_basis(Word("A"), Word("B"), bad)

    def test_cached_result_is_stable(self):
        assert enumerate_primitives(5) is enumerate_primitives(5)


class TestBruteIsBasis:
    def test_standard_basis(self):
        assert brute_is_basis(Word("A"), Word("B"))

    def test_one_reduction_step(self):
        assert brute_is_basis(Word("AB"), Word("B"))

    def test_commutator_stalls(self):
        assert not brute_is_basis(Word("ABab"), Word("B"))

    def test_determinant_obstruction(self):
        assert not brute_is_basis(Word("AA"), Word("B"))

    def test_conjugated_basis(self):
        u = Word("bAB")
        assert brute_is_basis(u, Word("B"))

    def test_deep_composition(self):
        # Image of the standard basis under a five-move composition;
        # the descent needs several rounds to unwind it.
        u, v = Word("AABAB"), Word("AABABAB")
        assert brute_is_basis(u, v, budget=16)
        assert not brute_is_basis(u, v * Word("B"), budget=16)

    def test_budget_exceeded_is_loud(self):
        with pytest.raises(BudgetExceededError):
            brute_is_basis(Word("AB") * Word("AB"), Word("B"), budget=3)

    @pytest.mark.parametrize("kind", [str, Word, CyclicWord], ids=lambda k: k.__name__)
    def test_reads_any_word(self, kind):
        assert brute_is_basis(kind("AB"), kind("B"))
        assert not brute_is_basis(kind("ABab"), kind("B"))

    def test_empty_entries_never_basis(self):
        assert not brute_is_basis(Word(), Word("B"))
        assert not brute_is_basis(Word(), Word())
