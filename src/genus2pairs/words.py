"""Exact arithmetic on words in the free group F(A, B) of rank two.

A word is a string over the four letters ``A``, ``a``, ``B``, ``b``:
uppercase is a generator, lowercase its inverse, so ``"AABab"`` means
A*A*B*A^-1*B^-1.  The caret form ``"A^2 B A^-1"`` is accepted anywhere a
word string is parsed.  The identity reads and prints as ``"1"``.

Two immutable types are provided.  ``Word`` keeps its letters freely
reduced.  ``CyclicWord`` models a conjugacy class: it is cyclically
reduced and stored in a canonical rotation, the lexicographically least
one under the letter order A < a < B < b, so equality and hashing are
rotation blind.  Both constructors trust these normal forms: the letters
of a ``Word`` or ``CyclicWord`` argument are not scanned for cancelling
pairs again, and ``CyclicWord(CyclicWord)`` copies them.  ``Word ** n``
splits the word as conjugator * core * conjugator^-1 and repeats only
the core, so a power is never reduced after it is written out.
"""

from __future__ import annotations

import re
from itertools import groupby
from math import gcd
from typing import Iterator, NamedTuple

from .errors import BudgetExceededError, EmptyWordError, InvalidParamsError, InvalidWordError
from .errors import check_int

GENERATORS = "AB"
LETTERS = "AaBb"

_INV = {"A": "a", "a": "A", "B": "b", "b": "B"}
_INVERT_TABLE = str.maketrans(_INV)
# Letter order A < a < B < b used for canonical rotations.
_ORDER_KEY = str.maketrans("AaBb", "0123")

_TOKEN = re.compile(r"([AaBb])(?:\^(-?\d+))?\s*")
# No word, walk or diagram is written out past this many letters or steps.
_MAX_EXPANDED_LETTERS = 10_000_000
# Words up to this length take the run-start rotation path, which has
# less fixed cost than the run-length path used above it.
_SHORT_ROTATION = 64


def check_budget(size: int, what: str) -> None:
    """Raise BudgetExceededError when ``size`` is past the budget.

    Every writer computes the size of its output from its parameters and
    calls this before building anything; ``what`` names the unit.

    >>> check_budget(10_000_001, "letters in a power of a word")
    Traceback (most recent call last):
    ...
    genus2pairs.errors.BudgetExceededError: more than 10,000,000 letters in a power of a word
    """
    if size > _MAX_EXPANDED_LETTERS:
        raise BudgetExceededError(f"more than {_MAX_EXPANDED_LETTERS:,} {what}")


def parse_letters(text: str) -> str:
    """Parse a word string into a plain (possibly unreduced) letter string.

    >>> parse_letters("A^2 B A^-1")
    'AABa'
    >>> parse_letters("1")
    ''
    """
    stripped = str.strip(text)  # a TypeError, not AttributeError, for a non-str
    if not stripped.strip(LETTERS):
        return stripped
    if stripped == "1":
        return ""
    pos = 0
    tokens = []
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if m is None:
            raise InvalidWordError(
                f"cannot parse word {text!r} at position {pos}: "
                f"expected a letter from {LETTERS!r}"
            )
        letter, exponent = m.group(1), m.group(2)
        count = 1
        if exponent is not None:
            if exponent[0] == "-":
                letter = _INV[letter]
            digits = exponent.lstrip("-0")
            # Any count with more digits than the budget is past it, and
            # int() refuses very long digit strings.
            if len(digits) > len(str(_MAX_EXPANDED_LETTERS)):
                count = _MAX_EXPANDED_LETTERS + 1
            else:
                count = int(digits or "0")
        tokens.append((letter, count))
        pos = m.end()
    check_budget(sum(count for _, count in tokens), "letters in caret exponents")
    return "".join(letter * count for letter, count in tokens)


def _reduce(letters: str) -> str:
    """Freely reduce a letter string by cancelling adjacent inverse pairs."""
    # A generator can cancel only if both its signs occur, which one-letter
    # tests (memchr) show faster than the two-letter scans.
    if not (
        ("a" in letters and "A" in letters and ("Aa" in letters or "aA" in letters))
        or ("b" in letters and "B" in letters and ("Bb" in letters or "bB" in letters))
    ):
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


def _cancellation(left: str, right: str) -> int:
    """How many letters of each part cancel in ``left + right`` when both
    parts are freely reduced.

    Cancellation can only happen across the boundary, so only the
    letters that meet there are compared.
    """
    if not (left and right and left[-1] == _INV[right[0]]):
        return 0
    limit = min(len(left), len(right))
    cut = 1
    while cut < limit and left[-1 - cut] == _INV[right[cut]]:
        cut += 1
    return cut


def _join(left: str, right: str) -> str:
    """Free reduction of ``left + right`` when both parts are freely reduced."""
    cut = _cancellation(left, right)
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


def _commutator_is_basis(u: str, v: str) -> bool:
    """Whether freely reduced u, v form a basis: u*v*u^-1*v^-1 is conjugate to
    A*B*A^-1*B^-1 or to its inverse (Cohen-Metzler-Zimmermann, Math. Ann. 1981)."""
    commutator = _cyclic_core(_join(_join(_join(u, v), _invert(u)), _invert(v)))
    # Each rotation of ABab, or of its inverse BAba, is a 4-letter slice.
    return len(commutator) == 4 and (commutator in "ABabABa" or commutator in "BAbaBAb")


def _power_period(letters: str) -> int:
    """Length of the primitive root of ``letters``: the least p dividing
    n = len(letters) with ``letters == letters[:p] * (n // p)``.

    A k-th power has k | n and k | every letter count, so k divides the
    gcd of n and the count of the first letter (the empty string counts
    one).  k is grown one prime factor of that gcd at a time, each step
    checked by one slice compare.
    """
    n = len(letters)
    g = gcd(n, letters.count(letters[:1]))
    k = 1
    factor = 2
    while g > 1:
        if factor * factor > g:
            factor = g
        if g % factor:
            factor += 1
            continue
        g //= factor
        period = n // (k * factor)
        if letters[period:] == letters[: n - period]:
            k *= factor
        else:  # no higher power of this factor divides k either
            while g % factor == 0:
                g //= factor
    return n // k


def _canonical_rotation(letters: str) -> str:
    """Least rotation of a string under the order A < a < B < b.

    The least rotation starts at the least letter, and any letter that
    follows a run of it is larger, so it starts where a cyclic run of
    the least letter starts.  Short words find those starts with
    ``str.find``, jump past the rest of each run with one ``lstrip``, and
    keep the least slice of the doubled string seen so far (at first the
    word itself) and where it starts.  Longer words are first cut to their
    primitive root, whose least rotation, repeated, is the answer;
    ``_least_start`` then finds where the root's least rotation starts.

    >>> _canonical_rotation("AbAA")  # the least run wraps around the end
    'AAAb'
    >>> _canonical_rotation("BAAB" * 30)[:8]
    'AABBAABB'
    >>> w = "B" + "A" * 99
    >>> _canonical_rotation(w) == "A" * 99 + "B"
    True
    """
    n = len(letters)
    if n <= 1:
        return letters
    keyed = letters.translate(_ORDER_KEY)
    least = "0" if "0" in keyed else "1" if "1" in keyed else "2" if "2" in keyed else "3"
    if n <= _SHORT_ROTATION:
        doubled = keyed + keyed
        word, best = keyed, 0
        i = keyed.find(least)
        while i >= 0:
            if keyed[i - 1] != least:
                rotation = doubled[i : i + n]
                if rotation < word:
                    word, best = rotation, i
            else:  # inside a run: jump to its end
                i = n - len(keyed[i:].lstrip(least))
            i = keyed.find(least, i + 1)
    else:
        period = _power_period(letters)
        if period < n:
            return _canonical_rotation(letters[:period]) * (n // period)
        best = _least_start(keyed, least)
    return letters[best:] + letters[:best]


def _least_start(keyed: str, least: str) -> int:
    """Where the least rotation of a primitive string starts, given its
    least symbol, in plain ``str`` order.

    It starts at a longest run of ``least``, since a longer run beats a
    shorter one where the shorter one ends.  Up to ``_SHORT_ROTATION``
    such starts are scanned for the least slice, as short words are.
    With more, the string is cut before each longest run L into pieces
    L + x, and x holds no run of L's length and ends with another
    symbol.  Rotations from the cuts then compare as their sequences of
    x in ``str`` order: where x is a proper prefix of y, the L that
    follows x meets a shorter run and another symbol in y.  So the
    distinct x are ranked, and the least rotation of the rank string,
    primitive and at most half as long, gives the start.  Ranks are
    code points, so a string with more than 0x110000 distinct pieces
    keeps the slices.
    """
    n = len(keyed)
    run = re.compile(re.escape(least) + "+")
    # Rotate to start on another symbol, so that no run wraps around.
    head = run.match(keyed)
    shift = head.end() if head else 0
    keyed = keyed[shift:] + keyed[:shift]
    longest = least * max(map(len, run.findall(keyed)))
    if keyed.count(longest) > _SHORT_ROTATION:
        first = keyed.find(longest)
        pieces = (keyed[first:] + keyed[:first]).split(longest)[1:]
        distinct = sorted(set(pieces))
        if len(distinct) <= 0x110000:
            rank = {piece: chr(i) for i, piece in enumerate(distinct)}
            k = _least_start("".join(map(rank.__getitem__, pieces)), chr(0))
            best = first + k * len(longest) + sum(map(len, pieces[:k]))
            return (best + shift) % n
    doubled = keyed + keyed
    word, best = keyed, 0
    i = keyed.find(longest)
    while i >= 0:
        rotation = doubled[i : i + n]
        if rotation < word:
            word, best = rotation, i
        i = keyed.find(longest, i + len(longest))
    return (best + shift) % n


def _runs(letters: str) -> list[tuple[str, int]]:
    """Maximal runs of equal letters, left to right."""
    return [(ch, len(list(run))) for ch, run in groupby(letters)]


def _abelianization(letters: str) -> tuple[int, int]:
    return (
        letters.count("A") - letters.count("a"),
        letters.count("B") - letters.count("b"),
    )


def _christoffel(x: int, y: int) -> str:
    """The lower Christoffel word with |x| letters A and |y| letters B,
    for coprime x and y, spelled a and b where a count is negative.

    Euclid's algorithm cuts the larger count by k times the smaller one,
    which undoes B -> A^k B (more A) or A -> A B^k (more B); those
    substitutions, applied in reverse to the letter left over, build
    the word.  Its rotations are the primitive class of slope (x, y).

    >>> _christoffel(5, 3), _christoffel(-1, 2)
    ('AABAABAB', 'aBB')
    """
    a, b = "Aa"[x < 0], "Bb"[y < 0]
    p, q = abs(x), abs(y)
    steps = []
    while p and q:
        if p > q:
            k, p = divmod(p, q)
            steps.append((b, a * k + b))
        else:
            k, q = divmod(q, p)
            steps.append((a, a + b * k))
    word = a if p else b
    for letter, image in reversed(steps):
        word = word.replace(letter, image)
    return word


def _reduced_letters(source) -> str:
    """Freely reduced letters of a string, letter iterable, Word or
    CyclicWord; the last two are reduced already and are not scanned.
    Every public word parameter is read here; other types raise TypeError."""
    if isinstance(source, str):
        return _reduce(parse_letters(source))
    if isinstance(source, _LetterString):
        return source._letters
    try:
        if isinstance(source, (dict, set, frozenset)):  # unordered, so not a word
            raise TypeError
        letters = "".join(source)
    except TypeError:
        raise TypeError(
            f"expected a word: a str, Word, CyclicWord or letters, got {type(source).__name__}"
        ) from None
    bad = set(letters) - set(LETTERS)
    if bad:
        raise InvalidWordError(f"invalid letters {sorted(bad)!r}")
    return _reduce(letters)


def _core_letters(source) -> str:
    """Cyclic core of a word argument; a CyclicWord's own letters are its
    core in least rotation, any other word's core keeps its rotation."""
    if isinstance(source, CyclicWord):
        return source._letters
    return _cyclic_core(_reduced_letters(source))


class Syllable(NamedTuple):
    """A maximal run ``generator**exponent`` inside a cyclic word."""

    generator: str
    exponent: int


class _LetterString:
    """The value protocol of Word and CyclicWord: an immutable letter
    string, equal and hashed only within its own type."""

    __slots__ = ("_letters",)

    @classmethod
    def _raw(cls, letters: str):
        """Wrap letters already in the subclass's normal form."""
        w = cls.__new__(cls)
        w._letters = letters
        return w

    @property
    def letters(self) -> str:
        return self._letters

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._letters))

    def __len__(self) -> int:
        return len(self._letters)

    def __str__(self) -> str:
        return self._letters or "1"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def abelianization(self) -> tuple[int, int]:
        """Signed exponent sums (sum over A, sum over B)."""
        return _abelianization(self._letters)


class Word(_LetterString):
    """A freely reduced word.  The constructor reduces a string or letter
    iterable; a Word or CyclicWord is reduced already.

    >>> Word("AAb") * Word("BA")
    Word('AAA')
    >>> ~Word("AAB")
    Word('baa')
    >>> str(Word("Aa"))
    '1'
    """

    __slots__ = ()

    def __init__(self, source="") -> None:
        self._letters = _reduced_letters(source)

    def __mul__(self, other: "Word | CyclicWord | str") -> "Word":
        return Word._raw(_join(self._letters, _reduced_letters(other)))

    def __invert__(self) -> "Word":
        return Word._raw(_invert(self._letters))

    def __pow__(self, n: int) -> "Word":
        s = self._letters
        check_budget(len(s) * abs(check_int(n, "exponent")), "letters in a power of a word")
        if not n or not s:
            return Word._raw("")
        # s = c * core * c^-1, so s**n = c * core**n * c^-1, reduced as written.
        core = _cyclic_core(s)
        strip = (len(s) - len(core)) // 2
        base = core if n > 0 else _invert(core)
        return Word._raw(s[:strip] + base * abs(n) + s[strip + len(core):])

    def __iter__(self) -> Iterator[str]:
        return iter(self._letters)


class CyclicWord(_LetterString):
    """A conjugacy class: cyclically reduced, canonically rotated.

    >>> CyclicWord("BAAB") == CyclicWord("ABBA")
    True
    >>> CyclicWord("bABB").letters
    'AB'
    """

    __slots__ = ()

    def __init__(self, source="") -> None:
        core = _cyclic_core(_reduced_letters(source))
        self._letters = core if isinstance(source, CyclicWord) else _canonical_rotation(core)

    def to_word(self) -> Word:
        """The canonical rotation as an ordinary word."""
        return Word._raw(self._letters)

    def __invert__(self) -> "CyclicWord":
        return CyclicWord._raw(_canonical_rotation(_invert(self._letters)))

    def rotations(self) -> Iterator[str]:
        s = self._letters
        for i in range(max(len(s), 1)):
            yield s[i:] + s[:i]

    def generators(self) -> set[str]:
        """The generators that occur, as uppercase letters."""
        return {ch for ch in self._letters.upper()}

    def syllables(self) -> list[Syllable]:
        """Maximal runs as (generator, signed exponent) pairs.

        Runs are read around the cycle.  The canonical rotation starts
        where a run starts, so no run wraps around, and it starts with A
        or a, so the first syllable uses generator A whenever both
        generators occur.  Concatenating the syllables recovers the
        cyclic word up to rotation.
        """
        if not self._letters:
            raise EmptyWordError("the identity has no syllables")
        return [
            Syllable(ch.upper(), count if ch.isupper() else -count)
            for ch, count in _runs(self._letters)
        ]


def cyclic_reduce(word: Word | CyclicWord | str) -> tuple[CyclicWord, Word]:
    """Split ``word`` as conjugator * core * conjugator^-1.

    Returns the core as a CyclicWord together with the conjugator, so
    that ``conj * core.to_word() * ~conj == word`` exactly.

    >>> cyclic_reduce(Word("aBA"))
    (CyclicWord('B'), Word('a'))
    """
    s = _reduced_letters(word)
    core = _cyclic_core(s)
    strip = (len(s) - len(core)) // 2
    canonical = _canonical_rotation(core)
    rotation = (core + core).find(canonical)
    conjugator = s[:strip] + core[:rotation]
    return CyclicWord._raw(canonical), Word._raw(conjugator)


def cyclic_equal(u: Word | CyclicWord | str, v: Word | CyclicWord | str,
                 up_to_inversion: bool = False) -> bool:
    """Equality of conjugacy classes, optionally up to inversion: the
    cyclic cores have one length and one is a rotation of the other, or
    of the other's inverse."""
    if up_to_inversion is not True and up_to_inversion is not False:
        raise InvalidParamsError(f"up_to_inversion must be a bool, got {up_to_inversion!r}")
    cu, cv = _core_letters(u), _core_letters(v)
    return len(cu) == len(cv) and (cu in cv * 2 or up_to_inversion and _invert(cu) in cv * 2)


def substitute(word: Word | CyclicWord | str, image_a: Word | CyclicWord | str,
               image_b: Word | CyclicWord | str) -> Word:
    """Image of ``word`` under A -> image_a, B -> image_b."""
    letters, a, b = map(_reduced_letters, (word, image_a, image_b))
    count_a = letters.count("A") + letters.count("a")
    size = count_a * len(a) + (len(letters) - count_a) * len(b)
    check_budget(size, "letters in the image of a word")
    table = {ord("A"): a, ord("a"): _invert(a), ord("B"): b, ord("b"): _invert(b)}
    return Word._raw(_reduce(letters.translate(table)))
