"""Exact arithmetic on words in the free group F(A, B) of rank two.

A word is a string over the four letters ``A``, ``a``, ``B``, ``b``:
uppercase is a generator, lowercase its inverse, so ``"AABab"`` means
A*A*B*A^-1*B^-1.  The caret form ``"A^2 B A^-1"`` is accepted anywhere a
word string is parsed.  The identity reads and prints as ``"1"``.

Two immutable types are provided.  ``Word`` keeps its letters freely
reduced.  ``CyclicWord`` models a conjugacy class: it is cyclically
reduced and stored in a canonical rotation, the lexicographically least
one under the letter order A < a < B < b, so equality and hashing are
rotation blind.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple

from .errors import EmptyWordError, InvalidWordError

GENERATORS = "AB"
LETTERS = "AaBb"

_INV = {"A": "a", "a": "A", "B": "b", "b": "B"}
_INVERT_TABLE = str.maketrans("AaBb", "aAbB")
# Letter order A < a < B < b used for canonical rotations.
_ORDER_KEY = str.maketrans("AaBb", "0123")

_TOKEN = re.compile(r"([AaBb])(?:\^(-?\d+))?\s*")
_DELETE_LETTERS = str.maketrans("", "", LETTERS)
_CANCELLING_PAIR = re.compile("Aa|aA|Bb|bB")


def parse_letters(text: str) -> str:
    """Parse a word string into a plain (possibly unreduced) letter string.

    >>> parse_letters("A^2 B A^-1")
    'AABa'
    >>> parse_letters("1")
    ''
    """
    stripped = text.strip()
    if not stripped.translate(_DELETE_LETTERS):
        return stripped
    if stripped == "1":
        return ""
    pos = 0
    parts = []
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if m is None:
            raise InvalidWordError(
                f"cannot parse word {text!r} at position {pos}: "
                f"expected a letter from {LETTERS!r}"
            )
        letter, exponent = m.group(1), m.group(2)
        if exponent is None:
            parts.append(letter)
        else:
            n = int(exponent)
            parts.append((letter if n >= 0 else _INV[letter]) * abs(n))
        pos = m.end()
    return "".join(parts)


def _reduce(letters: str) -> str:
    """Freely reduce a letter string by cancelling adjacent inverse pairs."""
    if not _CANCELLING_PAIR.search(letters):
        return letters
    stack: list[str] = []
    push = stack.append
    pop = stack.pop
    for ch in letters:
        if stack and stack[-1] == _INV[ch]:
            pop()
        else:
            push(ch)
    return "".join(stack)


def _join(left: str, right: str) -> str:
    """Free reduction of ``left + right`` when both parts are freely reduced.

    Cancellation can only happen across the boundary, so only the
    letters that meet there are compared.
    """
    limit = min(len(left), len(right))
    cut = 0
    while cut < limit and left[-1 - cut] == _INV[right[cut]]:
        cut += 1
    if not cut:
        return left + right
    return left[: len(left) - cut] + right[cut:]


def _invert(letters: str) -> str:
    return letters[::-1].translate(_INVERT_TABLE)


def _cyclic_core(letters: str) -> str:
    """Strip cancelling end pairs off a freely reduced string."""
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == _INV[letters[hi - 1]]:
        lo += 1
        hi -= 1
    return letters[lo:hi]


def _canonical_rotation(letters: str) -> str:
    """Least rotation of a string under the order A < a < B < b.

    The least rotation starts at the least letter, and any letter that
    follows a run of it is larger, so it starts where a cyclic run of
    the least letter starts; only those starts are compared.
    """
    n = len(letters)
    if n <= 1:
        return letters
    keyed = letters.translate(_ORDER_KEY)
    least = min(keyed)
    starts = [i for i in range(n) if keyed[i] == least and keyed[i - 1] != least]
    if not starts:  # a power of one letter: every rotation is the same
        return letters
    if len(starts) == 1:
        best = starts[0]
    else:
        doubled = keyed + keyed
        best = min(starts, key=lambda i: doubled[i : i + n])
    return letters[best:] + letters[:best]


def _runs(letters: str) -> list[tuple[str, int]]:
    """Cyclic maximal runs of equal letters, wrap-around merged."""
    runs: list[list] = []
    for ch in letters:
        if runs and runs[-1][0] == ch:
            runs[-1][1] += 1
        else:
            runs.append([ch, 1])
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        runs[0][1] += runs.pop()[1]
    return [(ch, count) for ch, count in runs]


def _abelianization(letters: str) -> tuple[int, int]:
    return (
        letters.count("A") - letters.count("a"),
        letters.count("B") - letters.count("b"),
    )


def _coerce_letters(source) -> str:
    """Raw letters from a string, Word, CyclicWord, or letter iterable."""
    if isinstance(source, Word):
        return source.letters
    if isinstance(source, CyclicWord):
        return source.letters
    if isinstance(source, str):
        return parse_letters(source)
    letters = "".join(source)
    bad = set(letters) - set(LETTERS)
    if bad:
        raise InvalidWordError(f"invalid letters {sorted(bad)!r}")
    return letters


class Syllable(NamedTuple):
    """A maximal run ``generator**exponent`` inside a cyclic word."""

    generator: str
    exponent: int


class Word:
    """A freely reduced word.  The constructor reduces its input.

    >>> Word("AAb") * Word("BA")
    Word('AAA')
    >>> ~Word("AAB")
    Word('baa')
    >>> str(Word("Aa"))
    '1'
    """

    __slots__ = ("_letters",)

    def __init__(self, source="") -> None:
        self._letters = _reduce(_coerce_letters(source))

    @classmethod
    def _raw(cls, reduced: str) -> "Word":
        w = cls.__new__(cls)
        w._letters = reduced
        return w

    @property
    def letters(self) -> str:
        return self._letters

    def __mul__(self, other: "Word") -> "Word":
        return Word._raw(_join(self._letters, other.letters))

    def __invert__(self) -> "Word":
        return Word._raw(_invert(self._letters))

    def __pow__(self, n: int) -> "Word":
        base = self._letters if n >= 0 else _invert(self._letters)
        return Word._raw(_reduce(base * abs(n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(("Word", self._letters))

    def __len__(self) -> int:
        return len(self._letters)

    def __bool__(self) -> bool:
        return bool(self._letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self._letters)

    def __str__(self) -> str:
        return self._letters or "1"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def abelianization(self) -> tuple[int, int]:
        """Signed exponent sums (sum over A, sum over B)."""
        return _abelianization(self._letters)


class CyclicWord:
    """A conjugacy class: cyclically reduced, canonically rotated.

    >>> CyclicWord("BAAB") == CyclicWord("ABBA")
    True
    >>> CyclicWord("bABB").letters
    'AB'
    """

    __slots__ = ("_letters",)

    def __init__(self, source="") -> None:
        core = _cyclic_core(_reduce(_coerce_letters(source)))
        self._letters = _canonical_rotation(core)

    @classmethod
    def _raw(cls, canonical: str) -> "CyclicWord":
        w = cls.__new__(cls)
        w._letters = canonical
        return w

    @property
    def letters(self) -> str:
        return self._letters

    def to_word(self) -> Word:
        """The canonical rotation as an ordinary word."""
        return Word._raw(self._letters)

    def __invert__(self) -> "CyclicWord":
        return CyclicWord._raw(_canonical_rotation(_invert(self._letters)))

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(("CyclicWord", self._letters))

    def __len__(self) -> int:
        return len(self._letters)

    def __bool__(self) -> bool:
        return bool(self._letters)

    def __str__(self) -> str:
        return self._letters or "1"

    def __repr__(self) -> str:
        return f"CyclicWord({str(self)!r})"

    def abelianization(self) -> tuple[int, int]:
        return _abelianization(self._letters)

    def rotations(self) -> Iterator[str]:
        s = self._letters
        for i in range(max(len(s), 1)):
            yield s[i:] + s[:i]

    def generators(self) -> set[str]:
        """The generators that occur, as uppercase letters."""
        return {ch for ch in self._letters.upper()}

    def syllables(self) -> list[Syllable]:
        """Maximal runs as (generator, signed exponent) pairs.

        Runs are read around the cycle (the wrap-around run is merged)
        and the list is rotated so the first syllable uses generator A
        whenever both generators occur.  Concatenating the syllables
        recovers the cyclic word up to rotation.
        """
        if not self._letters:
            raise EmptyWordError("the identity has no syllables")
        sylls = [
            Syllable(ch.upper(), count if ch.isupper() else -count)
            for ch, count in _runs(self._letters)
        ]
        if any(sy.generator == "A" for sy in sylls) and sylls[0].generator != "A":
            first = next(i for i, sy in enumerate(sylls) if sy.generator == "A")
            sylls = sylls[first:] + sylls[:first]
        return sylls


def cyclic_reduce(word: Word) -> tuple[CyclicWord, Word]:
    """Split ``word`` as conjugator * core * conjugator^-1.

    Returns the core as a CyclicWord together with the conjugator, so
    that ``conj * core.to_word() * ~conj == word`` exactly.

    >>> cyclic_reduce(Word("aBA"))
    (CyclicWord('B'), Word('a'))
    """
    s = word.letters
    core = _cyclic_core(s)
    strip = (len(s) - len(core)) // 2
    canonical = _canonical_rotation(core)
    if canonical == core:
        rotation = 0
    else:
        rotation = next(
            i for i in range(len(core)) if core[i:] + core[:i] == canonical
        )
    conjugator = s[:strip] + core[:rotation]
    return CyclicWord._raw(canonical), Word._raw(conjugator)


def cyclic_equal(u: CyclicWord, v: CyclicWord, up_to_inversion: bool = False) -> bool:
    """Rotation-invariant equality, optionally also inversion-invariant."""
    if u == v:
        return True
    return up_to_inversion and u == ~v


def substitute(word: Word, image_a: Word, image_b: Word) -> Word:
    """Image of ``word`` under A -> image_a, B -> image_b."""
    return Word._raw(_substitute(word.letters, image_a.letters, image_b.letters))


def _substitute(letters: str, image_a: str, image_b: str) -> str:
    table = {
        ord("A"): image_a,
        ord("a"): _invert(image_a),
        ord("B"): image_b,
        ord("b"): _invert(image_b),
    }
    return _reduce(letters.translate(table))
