from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from genus2pairs.classifier import (
    PairClass,
    PowerPairOutcome,
    ProductStructure,
    classify,
    classify_power_pair,
    longitude_pair,
    separating_word,
)
from genus2pairs.errors import (
    BetaNotProperPowerError,
    EmptyWordError,
    InvalidParamsError,
    InvalidWordError,
)
from genus2pairs.primitivity import as_proper_power, is_primitive
from genus2pairs.rr_diagram import CanonicalParams
from genus2pairs.words import CyclicWord, Word, _canonical_rotation, cyclic_equal

coprime_pairs = st.tuples(
    st.integers(-30, 30).filter(lambda p: p != 0), st.integers(-30, 30)
).filter(lambda pq: gcd(pq[0], pq[1]) == 1)


class TestLongitudePair:
    @pytest.mark.parametrize(
        "p, q, expected",
        [(2, 1, (1, 1)), (3, 1, (2, 1)), (5, 2, (2, 1)),
         (1, 0, (0, 1)), (1, 7, (0, 1)), (-1, 3, (0, -1)), (-2, 1, (1, -1))],
    )
    def test_examples(self, p, q, expected):
        assert longitude_pair(p, q) == expected

    @given(coprime_pairs)
    def test_defining_identity(self, pq):
        p, q = pq
        r, s = longitude_pair(p, q)
        assert p * s - r * q == 1
        assert 0 <= r < abs(p)

    @given(coprime_pairs)
    def test_uniqueness_in_range(self, pq):
        p, q = pq
        r, s = longitude_pair(p, q)
        matches = [
            rr for rr in range(abs(p))
            if (1 + rr * q) % p == 0
        ]
        assert matches == [r]

    def test_p_zero_rejected(self):
        with pytest.raises(InvalidParamsError):
            longitude_pair(0, 1)

    def test_gcd_guard(self):
        with pytest.raises(InvalidParamsError):
            longitude_pair(6, 4)


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("call", [
    lambda bad: longitude_pair(bad, 1),
    lambda bad: longitude_pair(3, bad),
    separating_word,
], ids=["p", "q", "n"])
def test_integer_parameters_refuse_non_integers(call, bad):
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        call(bad)


class TestSeparatingWord:
    def test_commutator(self):
        assert str(separating_word(1)) == "ABab"

    def test_trivial_for_zero(self):
        w = separating_word(0)
        assert not w
        assert str(w) == "1"

    def test_square(self):
        assert separating_word(2) == CyclicWord("AABaab")

    # The twists of long fig2a diagrams reach +-750 (|p| up to 1,500).
    @pytest.mark.parametrize("n", [*range(-6, 7), -1499, -750, 750, 1499])
    def test_contract(self, n):
        w = separating_word(n)
        assert w.abelianization() == (0, 0)
        assert not is_primitive(w.to_word())
        expected = Word("A") ** n * Word("B") * Word("A") ** -n * ~Word("B")
        assert w == CyclicWord(expected)


class TestClassify:
    def test_fig1a(self):
        result = classify(CanonicalParams.fig1a())
        assert result.separated and result.type_I and result.type_II
        assert result.structure is ProductStructure.SEPARATED_DISK
        assert result.twist == 1
        assert result.separating_word == CyclicWord("ABab")

    def test_fig2a_both_types(self):
        result = classify(CanonicalParams.fig2a(2, 1))
        assert result.type_I and result.type_II and not result.separated
        assert result.structure is ProductStructure.PRODUCT
        assert abs(result.twist) == 1

    def test_fig2a_type_one_only(self):
        result = classify(CanonicalParams.fig2a(5, 2))
        assert result.type_I and not result.type_II
        assert result.structure is ProductStructure.TWISTED_PRODUCT
        assert abs(result.twist) == 2

    @pytest.mark.parametrize("p, q", [(1, 0), (1, 5), (-1, 2)])
    def test_fig2a_separated(self, p, q):
        result = classify(CanonicalParams.fig2a(p, q))
        assert result.separated and result.type_I and result.type_II
        assert result.twist == 0
        assert result.structure is ProductStructure.SEPARATED_DISK
        assert not result.separating_word

    def test_fig2a_twist_normalized_to_min_abs(self):
        for p in range(2, 13):
            for q in range(-12, 13):
                if gcd(p, q) != 1:
                    continue
                result = classify(CanonicalParams.fig2a(p, q))
                assert -p / 2 < result.twist <= p / 2

    @pytest.mark.parametrize("eps", [1, -1])
    def test_fig3a(self, eps):
        p = 2 if eps == 1 else 3
        result = classify(CanonicalParams.fig3a(2, 1, p, eps))
        assert result.type_II and not result.type_I and not result.separated
        assert result.twist == eps
        assert result.structure is ProductStructure.PRODUCT
        assert result.separating_word == separating_word(eps)

    def test_separated_implies_both_types(self):
        for q in range(-12, 13):
            for p in (1, -1):
                result = classify(CanonicalParams.fig2a(p, q))
                assert result.separated
                assert result.type_I and result.type_II

    def test_json_shape(self):
        data = classify(CanonicalParams.fig2a(5, 2)).to_json()
        assert sorted(data) == [
            "separated", "separating_word", "structure", "twist",
            "type_I", "type_II",
        ]
        assert data["structure"] == "TwistedProduct"
        assert isinstance(data["separating_word"], str)

    @pytest.mark.parametrize("params, twist, word, fields", [
        (CanonicalParams.fig1a(), 1, "ABab", (True, True, True, "SeparatedDisk")),
        (CanonicalParams.fig2a(1, 5), 0, "1", (True, True, True, "SeparatedDisk")),
        (CanonicalParams.fig2a(2, 1), 1, "ABab", (True, True, False, "Product")),
        (CanonicalParams.fig2a(5, 2), 2, "AABaab", (True, False, False, "TwistedProduct")),
        (CanonicalParams.fig2a(7, 3), 2, "AABaab", (True, False, False, "TwistedProduct")),
        (CanonicalParams.fig2a(5, 3), -2, "AAbaaB", (True, False, False, "TwistedProduct")),
        (CanonicalParams.fig3a(2, 3, 2, 1), 1, "ABab", (False, True, False, "Product")),
        (CanonicalParams.fig3a(2, 3, 3, -1), -1, "AbaB", (False, True, False, "Product")),
    ])
    def test_pinned_json(self, params, twist, word, fields):
        type_I, type_II, separated, structure = fields
        assert classify(params).to_json() == {
            "type_I": type_I, "type_II": type_II, "separated": separated,
            "structure": structure, "separating_word": word, "twist": twist,
        }

    def test_deterministic(self):
        params = CanonicalParams.fig2a(7, 3)
        assert classify(params) == classify(params)

    def test_invalid_params_propagate(self):
        with pytest.raises(InvalidParamsError):
            classify(CanonicalParams.fig2a(4, 2))


class TestClassifyPowerPair:
    def test_primitive_against_power(self):
        assert (
            classify_power_pair(Word("A"), Word("BB"))
            is PowerPairOutcome.SEPARATED
        )

    def test_conjugate_up_to_inversion(self):
        assert (
            classify_power_pair(Word("BB"), Word("bb"))
            is PowerPairOutcome.NONSEPARATING_ANNULUS
        )

    def test_distinct_powers(self):
        assert (
            classify_power_pair(Word("AA"), Word("BBB"))
            is PowerPairOutcome.SEPARATED
        )

    def test_conjugated_copy(self):
        w = Word("AB") ** 2
        conj = Word("BAb") * w * ~Word("BAb")
        assert (
            classify_power_pair(conj, w)
            is PowerPairOutcome.NONSEPARATING_ANNULUS
        )

    def test_beta_guard(self):
        with pytest.raises(BetaNotProperPowerError):
            classify_power_pair(Word("A"), Word("AB"))
        with pytest.raises(BetaNotProperPowerError):
            classify_power_pair(Word("A"), Word(""))

    def test_trivial_alpha_rejected(self):
        with pytest.raises(EmptyWordError):
            classify_power_pair(Word("Aa"), Word("BB"))

    def test_one_shot_iterables(self):
        """Each argument is read once, so an iterator gives its string's verdict."""
        assert (
            classify_power_pair(iter("ABAB"), "ABAB")
            is PowerPairOutcome.NONSEPARATING_ANNULUS
        )
        assert (
            classify_power_pair(iter("AB"), iter("ABAB"))
            is PowerPairOutcome.SEPARATED
        )

    @given(
        st.text(alphabet="AaBb", min_size=1, max_size=5),
        st.text(alphabet="AaBb", min_size=1, max_size=4),
        st.integers(2, 3),
    )
    def test_symmetric_under_inversion(self, alpha, root, k):
        beta = Word(root) ** k
        alpha_word = Word(alpha)
        try:
            value = classify_power_pair(alpha_word, beta)
        except (BetaNotProperPowerError, EmptyWordError):
            return
        assert classify_power_pair(~alpha_word, beta) is value
        assert classify_power_pair(alpha_word, ~beta) is value


# Every freely reduced word of at most four letters, the empty one first.
REDUCED_4 = [
    word
    for n in range(5)
    for word in map("".join, product("AaBb", repeat=n))
    if not any(pair in word for pair in ("Aa", "aA", "Bb", "bB"))
]
MALFORMED = ["C", "A^", "A^x", "Ab!", "A^99999999999", ["A", "Z"], 3]


def _rotation_route(alpha_word, beta_word):
    """The dichotomy on least rotations: CyclicWord, as_proper_power and
    cyclic_equal, each check in the order classify_power_pair keeps."""
    alpha = CyclicWord(alpha_word)
    beta = CyclicWord(beta_word)
    if not alpha:
        raise EmptyWordError("alpha must be nontrivial")
    if as_proper_power(beta) is None:
        raise BetaNotProperPowerError(f"beta {beta} is not a proper power")
    if cyclic_equal(alpha, beta, up_to_inversion=True):
        return PowerPairOutcome.NONSEPARATING_ANNULUS
    return PowerPairOutcome.SEPARATED


def _outcome(decide, alpha, beta):
    """The value of ``decide(alpha, beta)``, or its exception type and text."""
    try:
        return decide(alpha, beta)
    except Exception as exc:
        return type(exc), str(exc)


class TestPowerPairParity:
    """classify_power_pair works on cyclic cores as they come, with no
    least rotation; every outcome and message is the rotation route's."""

    @pytest.mark.parametrize("kind", [str, Word, CyclicWord, iter], ids=lambda k: k.__name__)
    def test_all_short_words(self, kind):
        """Each pair is built afresh, so an iterator is read by one call only."""
        mismatches = [
            (alpha, beta)
            for alpha in REDUCED_4
            for beta in REDUCED_4
            if _outcome(classify_power_pair, kind(alpha), kind(beta))
            != _outcome(_rotation_route, kind(alpha), kind(beta))
        ]
        assert not mismatches[:5]

    def test_malformed_inputs(self):
        inputs = MALFORMED + ["", "A", "BAA", "AAbAAb", "aBaB"]
        for alpha in inputs:
            for beta in inputs:
                assert _outcome(classify_power_pair, alpha, beta) == _outcome(
                    _rotation_route, alpha, beta
                ), (alpha, beta)

    @pytest.mark.parametrize("alpha, beta, error, text", [
        ("C", "Z", InvalidWordError, "cannot parse word 'C'"),
        ("A", "Z", InvalidWordError, "cannot parse word 'Z'"),
        ("", "Z", InvalidWordError, "cannot parse word 'Z'"),
        ("Aa", "AB", EmptyWordError, "alpha must be nontrivial"),
        ("A", "BA", BetaNotProperPowerError, "beta AB is not a proper power"),
        ("A", "", BetaNotProperPowerError, "beta 1 is not a proper power"),
    ])
    def test_precedence(self, alpha, beta, error, text):
        """Alpha is parsed, then beta; then alpha must be nontrivial, then
        beta a proper power, named by its least rotation."""
        with pytest.raises(error) as info:
            classify_power_pair(alpha, beta)
        assert str(info.value).startswith(text)

    def test_success_path_rotates_nothing(self):
        pairs = [
            ("BAABAABAA", "AAB" * 3),
            (Word("BAb") * Word("AB") ** 2 * ~Word("BAb"), Word("ba") ** 2),
            (CyclicWord("ABAB"), CyclicWord("BABA")),
            (Word("A"), "bb"),
            ("AAB", CyclicWord("AABAAB")),
        ]
        expected = [_rotation_route(alpha, beta) for alpha, beta in pairs]
        assert set(expected) == set(PowerPairOutcome)
        spy = mock.Mock(wraps=_canonical_rotation)
        with mock.patch("genus2pairs.words._canonical_rotation", spy), mock.patch(
            "genus2pairs.primitivity._canonical_rotation", spy
        ):
            outcomes = [classify_power_pair(alpha, beta) for alpha, beta in pairs]
        assert outcomes == expected
        assert spy.call_count == 0
