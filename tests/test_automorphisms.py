import random
from collections import deque

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from genus2pairs.automorphisms import (
    Automorphism,
    _common_prefix,
    _common_suffix,
    _descend,
    _move,
    _shortening,
    compose,
    nielsen_generators,
)
from genus2pairs.errors import InvalidParamsError, NotInvertibleError
from genus2pairs.primitivity import is_basis_pair, is_primitive
from genus2pairs.words import (
    CyclicWord,
    Word,
    _INV,
    _cancellation,
    _invert,
    _join,
    _reduce,
    cyclic_equal,
    cyclic_reduce,
)

words = st.text(alphabet="AaBb", max_size=10).map(Word)
move_lists = st.lists(st.integers(0, 3), max_size=6)


def from_moves(moves):
    f = Automorphism.identity()
    for index in moves:
        f = compose(f, nielsen_generators()[index])
    return f


automorphisms = move_lists.map(from_moves)


def spell(choices):
    """The reduced word whose i-th letter is choice i, modulo the number
    of letters that do not cancel the one before."""
    word = ""
    for choice in choices:
        letters = [c for c in "AaBb" if not word or c != _INV[word[-1]]]
        word += letters[choice % len(letters)]
    return word


def reduced_words(min_size, max_size):
    return st.lists(st.integers(0, 3), min_size=min_size, max_size=max_size).map(spell)


def is_reduced(letters):
    return _reduce(letters) == letters


def walk_automorphisms(count, seed, max_steps=20):
    """Automorphisms reached by seeded random walks on the Nielsen
    generators, each of 4 to ``max_steps - 1`` steps."""
    rng = random.Random(seed)
    gens = nielsen_generators()
    out = []
    for _ in range(count):
        f = Automorphism.identity()
        for _ in range(rng.randrange(4, max_steps)):
            f = compose(f, rng.choice(gens))
        out.append(f)
    return out


@pytest.fixture(scope="module")
def long_walks():
    """Walk bases of 11 to 25,027 letters, half of them above 265."""
    return walk_automorphisms(20, seed=41, max_steps=150)


class TestConstruction:
    def test_identity(self):
        f = Automorphism.identity()
        assert f.image_a == Word("A")
        assert f.image_b == Word("B")

    @pytest.mark.parametrize(
        "a, b", [("AA", "B"), ("ABab", "B"), ("A", "a"), ("1", "B")]
    )
    def test_non_bases_rejected(self, a, b):
        with pytest.raises(NotInvertibleError):
            Automorphism(Word(a), Word(b))

    def test_json_round_trip(self):
        f = Automorphism(Word("AB"), Word("B"))
        assert f.to_json() == {"A": "AB", "B": "B"}
        assert Automorphism.from_json(f.to_json()) == f

    @pytest.mark.parametrize("data, text", [
        (5, "malformed automorphism JSON: TypeError("),
        ({}, "malformed automorphism JSON: KeyError('A')"),
        ({"A": "A", "B": "B", "C": 1},
         "automorphism JSON has keys A and B only, got ['A', 'B', 'C']"),
    ], ids=["not-a-mapping", "missing-key", "extra-key"])
    def test_from_json_refuses_malformed_json(self, data, text):
        with pytest.raises(InvalidParamsError) as info:
            Automorphism.from_json(data)
        assert str(info.value).startswith(text)

    @pytest.mark.parametrize("a, b, text", [
        ("AB", "BA", "images (AB, BA) are not a basis"),
        ("1", "B", "images (1, B) are not a basis"),
        (Word("Aa"), CyclicWord("bAAB"), "images (1, AA) are not a basis"),
    ])
    def test_not_invertible_text(self, a, b, text):
        with pytest.raises(NotInvertibleError) as info:
            Automorphism(a, b)
        assert str(info.value) == text

    @given(words, words)
    def test_constructs_exactly_on_bases(self, u, v):
        """The constructor decides by the commutator alone, as
        ``is_basis_pair`` does after its determinant gate."""
        try:
            Automorphism(u, v)
        except NotInvertibleError:
            built = False
        else:
            built = True
        assert built == is_basis_pair(u, v)

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=20),
           st.sampled_from([str, Word, list]))
    def test_walk_bases_construct_and_invert(self, moves, kind):
        walk = from_moves(moves)
        u, v = walk.image_a.letters, walk.image_b.letters
        f = Automorphism(kind(u), kind(v))
        assert f == walk
        assert compose(f, f.inverse()) == Automorphism.identity()

    def test_str(self):
        assert str(Automorphism("AB", "B")) == "A -> AB, B -> B"

    @pytest.mark.parametrize("image_a", ["A", Word("A"), CyclicWord("A"), ["A"]], ids=repr)
    def test_images_are_stored_as_words(self, image_a):
        f = Automorphism(image_a, CyclicWord("B"))
        assert f == Automorphism("A", "B")
        assert type(f.image_a) is Word and type(f.image_b) is Word

    def test_image_of_class_reads_any_word(self):
        f = Automorphism("AB", "B")
        expected = CyclicWord("ABB")
        assert f.image_of_class(CyclicWord("AB")) == expected
        assert f.image_of_class("bABB") == expected
        assert f.image_of_class(Word("AB")) == expected


class TestApply:
    def test_length_reducing_move(self):
        f = Automorphism(Word("Ab"), Word("B"))
        assert f(Word("ABAB")) == Word("AA")

    def test_identity_fixes_everything(self):
        f = Automorphism.identity()
        assert f(Word("AbbA")) == Word("AbbA")

    def test_swap(self):
        f = Automorphism(Word("B"), Word("A"))
        assert f(Word("AAB")) == Word("BBA")

    def test_image_of_class(self):
        f = Automorphism(Word("AB"), Word("B"))
        assert f.image_of_class(CyclicWord("A")) == CyclicWord("AB")

    @given(automorphisms, words, words)
    def test_homomorphism(self, f, u, v):
        assert f(u * v) == f(u) * f(v)

    @given(automorphisms, words)
    def test_matrix_action_on_abelianization(self, f, w):
        (m00, m01), (m10, m11) = f.matrix()
        x, y = w.abelianization()
        assert f(w).abelianization() == (m00 * x + m01 * y, m10 * x + m11 * y)

    @given(automorphisms)
    def test_matrix_determinant_unimodular(self, f):
        (m00, m01), (m10, m11) = f.matrix()
        assert abs(m00 * m11 - m01 * m10) == 1

    @settings(deadline=None)
    @given(automorphisms, words)
    def test_preserves_primitivity(self, f, w):
        image = f(w)
        if len(image) <= 20:
            assert is_primitive(image) == is_primitive(w)

    @settings(deadline=None)
    @given(automorphisms, words, words)
    def test_preserves_basis_pairs(self, f, u, v):
        if len(f(u)) + len(f(v)) <= 24:
            assert is_basis_pair(f(u), f(v)) == is_basis_pair(u, v)

    @given(automorphisms)
    def test_commutator_class_preserved_up_to_inversion(self, f):
        image, _ = cyclic_reduce(f(Word("ABab")))
        assert cyclic_equal(image, CyclicWord("ABab"), up_to_inversion=True)


class TestComposeInvert:
    def test_compose_with_identity(self):
        f = Automorphism(Word("AB"), Word("B"))
        assert compose(Automorphism.identity(), f) == f
        assert compose(f, Automorphism.identity()) == f

    def test_mul_is_compose(self):
        f = Automorphism("AB", "B")
        assert f * f == compose(f, f) == Automorphism("ABB", "B")

    def test_swap_is_an_involution(self):
        swap = Automorphism(Word("B"), Word("A"))
        assert compose(swap, swap) == Automorphism.identity()

    def test_nielsen_move_inverse(self):
        f = Automorphism(Word("AB"), Word("B"))
        assert f.inverse() == Automorphism(Word("Ab"), Word("B"))

    @pytest.mark.parametrize(
        "u, v", [(x, y) for x in "AaBb" for y in "AaBb" if x.upper() != y.upper()]
    )
    def test_letter_pair_inverse(self, u, v):
        f = Automorphism(Word(u), Word(v))
        g = f.inverse()
        assert compose(f, g) == Automorphism.identity()
        assert compose(g, f) == Automorphism.identity()
        assert (g(Word(u)), g(Word(v))) == (Word("A"), Word("B"))

    @given(automorphisms, automorphisms, words)
    def test_compose_agrees_with_application_order(self, f, g, w):
        assert compose(f, g)(w) == f(g(w))

    @given(automorphisms)
    def test_inverse_round_trip(self, f):
        assert compose(f, f.inverse()) == Automorphism.identity()
        assert compose(f.inverse(), f) == Automorphism.identity()

    def test_inverse_of_random_long_compositions(self):
        rng = random.Random(20240817)
        gens = nielsen_generators()
        for _ in range(50):
            f = Automorphism.identity()
            for _ in range(rng.randrange(12)):
                f = compose(f, rng.choice(gens))
            assert compose(f, f.inverse()) == Automorphism.identity()


class TestMoveIndices:
    """``inverse`` replays ``_descend``'s move indices through ``_move``."""

    @staticmethod
    def check_replay(f):
        u, v = f.image_a.letters, f.image_b.letters
        final_u, final_v, moves = _descend(u, v)
        for index in moves:
            total = len(u) + len(v)
            u, v = _move(u, v, index)
            assert len(u) + len(v) < total
        assert (u, v) == (final_u, final_v)

    @given(automorphisms)
    def test_replay_reaches_terminal_pair(self, f):
        self.check_replay(f)

    def test_replay_on_walk_bases(self):
        for f in walk_automorphisms(40, seed=29):
            self.check_replay(f)

    def test_replay_on_long_walk_bases(self, long_walks):
        for f in long_walks:
            self.check_replay(f)

    @given(automorphisms, st.integers(0, 7))
    def test_move_composes_on_the_right(self, f, index):
        g = Automorphism(*_move("A", "B", index))
        images = _move(f.image_a.letters, f.image_b.letters, index)
        assert compose(f, g) == Automorphism(*images)


class TestNielsenGenerators:
    def test_contains_the_shift(self):
        assert Automorphism(Word("AB"), Word("B")) in nielsen_generators()

    def test_closed_under_inverse(self):
        gens = set(nielsen_generators())
        assert {f.inverse() for f in gens} == gens

    def test_all_validated(self):
        for f in nielsen_generators():
            assert is_basis_pair(f.image_a, f.image_b)


def reference_moves(u, v):
    """The eight Nielsen moves, every candidate built, in ``_move`` order."""
    inv_u, inv_v = _invert(u), _invert(v)
    return [
        (_join(u, v), v),
        (_join(u, inv_v), v),
        (_join(v, u), v),
        (_join(inv_v, u), v),
        (u, _join(v, u)),
        (u, _join(v, inv_u)),
        (u, _join(u, v)),
        (u, _join(inv_u, v)),
    ]


def reference_sizes(u, v):
    """Total length of each reference candidate."""
    return [len(x) + len(y) for x, y in reference_moves(u, v)]


def reference_descend(u, v):
    """Nielsen descent that builds all eight candidates of every state."""
    moves = []
    total = len(u) + len(v)
    while total > 2:
        start = (u, v)
        parents = {start: None}
        queue = deque([start])
        found = None
        while queue and found is None:
            current = queue.popleft()
            for index, candidate in enumerate(reference_moves(*current)):
                size = len(candidate[0]) + len(candidate[1])
                if size < total:
                    parents[candidate] = (current, index)
                    found = candidate
                    break
                if size == total and candidate not in parents:
                    parents[candidate] = (current, index)
                    queue.append(candidate)
        if found is None:
            return None
        segment = []
        node = found
        while node != start:
            node, index = parents[node]
            segment.append(index)
        moves.extend(reversed(segment))
        u, v = found
        total = len(u) + len(v)
    if len(u) == 1 and len(v) == 1 and u.upper() != v.upper():
        return u, v, moves
    return None


def reduced_pairs(max_total):
    """Pairs of reduced words of total length <= max_total, one from each
    orbit of the eight letter maps that swap A with B or invert either.

    Such a map commutes with inversion and free reduction, so it keeps
    every cancellation count and sends move i of a pair to move i of its
    image: the sizes, the shortening move and the descent's move list
    are the same across an orbit.  The representative is the pair whose
    letters u + v start with A and whose first B-letter is B.
    """
    by_length = [[""]]
    for _ in range(max_total):
        by_length.append([w + c for w in by_length[-1] for c in "AaBb"
                          if not w or w[-1] != _INV[c]])
    pairs = []
    for total in range(max_total + 1):
        for length in range(total + 1):
            for u in by_length[length]:
                if u and u[0] != "A":
                    continue
                for v in by_length[total - length]:
                    letters = u + v
                    if letters[:1] in ("", "A") and next(
                        (c for c in letters if c in "Bb"), "B"
                    ) == "B":
                        pairs.append((u, v))
    return pairs


PAIRS = reduced_pairs(8)


class TestCountedDescent:
    """``_descend`` reads candidate lengths off cancellation counts."""

    def test_pairs_cover_every_orbit(self):
        maps = [str.maketrans("AaBb", image)
                for image in ("AaBb", "aABb", "AabB", "aAbB",
                              "BbAa", "bBAa", "BbaA", "bBaA")]
        images = {(u.translate(m), v.translate(m)) for u, v in PAIRS for m in maps}
        # 4 * 3**(n - 1) reduced words of each length n >= 1, one of length 0.
        count = [1] + [4 * 3 ** (n - 1) for n in range(1, 9)]
        assert len(images) == sum(
            count[i] * count[j] for i in range(9) for j in range(9 - i)
        )

    def test_moves_and_sizes_match_built_candidates(self):
        for u, v in PAIRS:
            built = [_move(u, v, index) for index in range(8)]
            assert built == reference_moves(u, v)
            # Move i with count c: |u| + 2|v| - 2c for i < 4, else 2|u| + |v| - 2c.
            uv, vu = _cancellation(u, v), _cancellation(v, u)
            prefix, suffix = _common_prefix(u, v), _common_suffix(u, v)
            grow_u, grow_v = len(u) + 2 * len(v), 2 * len(u) + len(v)
            assert reference_sizes(u, v) == [
                grow_u - 2 * uv, grow_u - 2 * suffix, grow_u - 2 * vu, grow_u - 2 * prefix,
                grow_v - 2 * vu, grow_v - 2 * suffix, grow_v - 2 * uv, grow_v - 2 * prefix,
            ]

    def test_shortening_is_the_first_shorter_move(self):
        for u, v in PAIRS:
            total = len(u) + len(v)
            shorter = [i for i, size in enumerate(reference_sizes(u, v)) if size < total]
            assert _shortening(u, v) == (shorter[0] if shorter else None)

    def test_shortening_takes_move_order_over_length(self):
        # Move 5 leaves a shorter pair than move 1, which comes first.
        assert reference_sizes("AA", "AAA") == [8, 4, 8, 4, 7, 3, 7, 3]
        assert _shortening("AA", "AAA") == 1

    def test_descent_matches_reference_on_small_pairs(self):
        for u, v in PAIRS:
            assert _descend(u, v) == reference_descend(u, v), (u, v)

    def test_descent_matches_reference_on_walk_bases(self):
        for f in walk_automorphisms(40, seed=29):
            u, v = f.image_a.letters, f.image_b.letters
            assert _descend(u, v) == reference_descend(u, v)

    def test_descent_matches_reference_on_long_walk_bases(self, long_walks):
        for f in long_walks:
            u, v = f.image_a.letters, f.image_b.letters
            assert _descend(u, v) == reference_descend(u, v)


class TestShorteningProof:
    """Steps 4 to 9 of the proof in ``_descend``: v = pq with |p| = |q| = k,
    u starts with q^-1 and ends with p^-1, the only shape in which N2
    holds and N3 fails.  Any reduced u and 1 <= k <= |u| with pq
    reduced give one."""

    @given(reduced_words(1, 16).flatmap(
        lambda u: st.tuples(st.just(u), st.integers(1, len(u)))))
    @example(("bABa", 1))
    @example(("ABA", 2))
    @example(("baba", 2))
    def test_stuck_pairs_are_not_bases(self, case):
        u, k = case
        q, p = _invert(u[:k]), _invert(u[-k:])
        v = p + q
        assume(is_reduced(v))
        assert _shortening(u, v) is not None or not is_basis_pair(Word(u), Word(v))
        if len(u) < 2 * k:
            # Step 5: u*v cancels at least k > |u|/2 letters.
            assert 2 * _cancellation(u, v) > len(u)
            assert _shortening(u, v) is not None
        elif len(u) == 2 * k:
            # Step 6.
            assert u == _invert(v)
        else:
            m = u[k:-k]
            if is_reduced(m + q) and is_reduced(p + m):
                # Steps 8 and 9: the commutator's core is m w m^-1 w^-1.
                w = _join(q, p)
                core, _ = cyclic_reduce(Word(u) * Word(v) * ~Word(u) * ~Word(v))
                assert len(core) == 2 * len(m) + 2 * len(w) >= 6
