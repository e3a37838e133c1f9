"""Primitivity, basis pairs, and proper powers in F(A, B).

A word is primitive when it is part of some free basis.  Up to
inverting either generator and swapping the two, a cyclically reduced
primitive that uses both generators must spell out as an alternating
product in which one generator carries exponent 1 throughout while the
other carries exponents drawn from {e, e+1} for a single e > 0.  That
exponent shape is necessary, not sufficient; but whenever it holds, the
substitution that divides out e letters of the base generator strictly
shortens the cyclic word, and iterating the shape-check plus shortening
until a single letter (primitive) or a dead end (not primitive) remains
decides primitivity.  The brute-force enumeration in ``oracle`` is kept
as an independent certificate of this loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyWordError, SingleGeneratorError
from .words import (
    CyclicWord,
    Word,
    _abelianization,
    _canonical_rotation,
    _cyclic_core,
    _invert,
    _join,
    _reduce,
    _runs,
)

# The eight letter relabelings: invert A and/or B, then optionally swap
# the two generators.  Tried in this fixed order; first match wins.
_RELABELINGS: list[tuple[bool, bool, bool, dict[int, str]]] = []
for _swapped in (False, True):
    for _inv_a in (False, True):
        for _inv_b in (False, True):
            _images = {}
            for _ch in "Aa":
                _out = _ch.swapcase() if _inv_a else _ch
                if _swapped:
                    _out = {"A": "B", "a": "b", "B": "A", "b": "a"}[_out]
                _images[ord(_ch)] = _out
            for _ch in "Bb":
                _out = _ch.swapcase() if _inv_b else _ch
                if _swapped:
                    _out = {"A": "B", "a": "b", "B": "A", "b": "a"}[_out]
                _images[ord(_ch)] = _out
            _RELABELINGS.append((_inv_a, _inv_b, _swapped, _images))
del _swapped, _inv_a, _inv_b, _images, _ch, _out


@dataclass(frozen=True)
class PrimitiveForm:
    """The exponent shape a primitive attains after relabeling letters.

    ``base_generator`` is the original generator whose exponents lie in
    {exponent, exponent + 1}; the other generator appears with exponent
    1 throughout once the recorded relabeling (invert A, invert B, then
    swap) is applied.  ``low_count`` and ``high_count`` say how many
    syllables carry ``exponent`` and ``exponent + 1`` respectively.
    """

    base_generator: str
    exponent: int
    low_count: int
    high_count: int
    inverted_a: bool
    inverted_b: bool
    swapped: bool

    @property
    def exponents(self) -> set[int]:
        out = set()
        if self.low_count:
            out.add(self.exponent)
        if self.high_count:
            out.add(self.exponent + 1)
        return out


def _match_form(letters: str) -> tuple[int, int, int, bool, bool, bool, dict] | None:
    """First relabeling under which the exponent shape appears.

    Returns (e, low_count, high_count, inv_a, inv_b, swapped, table),
    where in the relabeled word every B has exponent exactly 1 and every
    A run has length e or e + 1 with e > 0.
    """
    runs = [(ord(ch), count) for ch, count in _runs(letters)]
    for inv_a, inv_b, swapped, table in _RELABELINGS:
        a_counts = []
        for code, count in runs:
            image = table[code]
            if image == "A":
                a_counts.append(count)
            elif image != "B" or count != 1:
                break
        else:
            if not a_counts:
                continue
            low = min(a_counts)
            if max(a_counts) - low > 1:
                continue
            low_count = a_counts.count(low)
            high_count = a_counts.count(low + 1)
            return low, low_count, high_count, inv_a, inv_b, swapped, table
    return None


def primitive_form(word: CyclicWord) -> PrimitiveForm | None:
    """Exponent shape of a cyclic word using both generators, if any.

    Every primitive has one; some non-primitives (e.g. (A^2*B)^2) do
    too, which is why ``is_primitive`` iterates.
    """
    if not word:
        raise EmptyWordError("the identity has no exponent shape")
    if len(word.generators()) < 2:
        raise SingleGeneratorError(
            f"{word} uses a single generator; the shape needs both"
        )
    match = _match_form(word.letters)
    if match is None:
        return None
    e, low_count, high_count, inv_a, inv_b, swapped, _ = match
    return PrimitiveForm(
        base_generator="B" if swapped else "A",
        exponent=e,
        low_count=low_count,
        high_count=high_count,
        inverted_a=inv_a,
        inverted_b=inv_b,
        swapped=swapped,
    )


def _is_primitive_core(letters: str) -> bool:
    """Decide primitivity of a cyclically reduced letter string."""
    x, y = _abelianization(letters)
    if math.gcd(x, y) != 1:
        return False
    while True:
        upper = letters.upper()
        if "A" not in upper or "B" not in upper:
            return len(letters) == 1
        match = _match_form(letters)
        if match is None:
            return False
        e, _, _, _, _, _, table = match
        relabeled = letters.translate(table)
        shorten = {ord("B"): "a" * e + "B", ord("b"): "b" + "A" * e}
        shortened = _cyclic_core(_reduce(relabeled.translate(shorten)))
        if len(shortened) >= len(letters):
            raise AssertionError(
                f"shortening step did not shorten {letters!r}: got {shortened!r}"
            )
        letters = shortened


def is_primitive(word: Word | CyclicWord) -> bool:
    """True iff the word belongs to some free basis of F(A, B).

    Conjugation invariant; the input is cyclically reduced first.
    """
    if isinstance(word, CyclicWord):
        return _is_primitive_core(word.letters)
    return _is_primitive_core(_cyclic_core(word.letters))


_COMMUTATOR_CLASSES = (
    _canonical_rotation("ABab"),
    _canonical_rotation("BAba"),
)


def is_basis_pair(u: Word, v: Word) -> bool:
    """True iff (u, v) is a free basis of F(A, B).

    Uses the commutator test: the pair is a basis exactly when the
    commutator u*v*u^-1*v^-1 is conjugate to A*B*A^-1*B^-1 or to its
    inverse.  ``oracle.brute_is_basis`` cross-checks this by explicit
    length reduction.
    """
    su, sv = u.letters, v.letters
    commutator = _cyclic_core(_join(_join(_join(su, sv), _invert(su)), _invert(sv)))
    if len(commutator) != 4:
        return False
    return _canonical_rotation(commutator) in _COMMUTATOR_CLASSES


def as_proper_power(word: Word | CyclicWord) -> tuple[CyclicWord, int] | None:
    """Decompose a word as root**k with k >= 2 maximal, if possible.

    Returns (root, k) with the root cut to its shortest period, or None
    when the word is not a proper power.  Conjugation invariant.
    """
    if isinstance(word, CyclicWord):
        letters = word.letters
    else:
        letters = _canonical_rotation(_cyclic_core(word.letters))
    n = len(letters)
    for period in range(1, n // 2 + 1):
        if n % period:
            continue
        if letters[period:] + letters[:period] == letters:
            root = CyclicWord._raw(_canonical_rotation(letters[:period]))
            return root, n // period
    return None
