"""Primitivity, basis pairs, and proper powers in F(A, B).

A word is primitive when it is part of some free basis.  By
Osborne-Zieschang ("Primitives in the free group on two generators",
Invent. Math. 1981) and Cohen-Metzler-Zimmermann ("What does a basis of
F(a,b) look like?", Math. Ann. 1981), a primitive is determined up to
conjugacy by its abelianization (x, y), where gcd(x, y) = 1: its cyclic
core is a rotation of the signed Christoffel word (Berstel et al.,
"Combinatorics on Words: Christoffel Words and Repetitions in Words",
2008), which ``words._christoffel`` builds by Euclid's algorithm.  That
is the test ``is_primitive`` makes.  ``primitive_form`` reads the
exponent shape off the gaps between occurrences of the rarer letter.
The closure enumeration in ``oracle`` is kept as an independent
certificate.
"""

from __future__ import annotations

import math

from ._record import _Record
from .errors import EmptyWordError, SingleGeneratorError
from .words import CyclicWord, Word, _abelianization, _canonical_rotation, _christoffel
from .words import _commutator_is_basis, _core_letters, _power_period, _reduced_letters


class PrimitiveForm(_Record):
    """The exponent shape a primitive attains after relabeling letters.

    ``base_generator`` is the original generator whose exponents lie in
    {exponent, exponent + 1}; the other generator appears with exponent
    1 throughout once the recorded relabeling (invert A, invert B, then
    swap) is applied.  ``low_count`` and ``high_count`` say how many
    syllables carry ``exponent`` and ``exponent + 1`` respectively.
    """

    __slots__ = (
        "base_generator", "exponent", "low_count", "high_count",
        "inverted_a", "inverted_b", "swapped",
    )

    @property
    def exponents(self) -> set[int]:
        out = set()
        if self.low_count:
            out.add(self.exponent)
        if self.high_count:
            out.add(self.exponent + 1)
        return out


def primitive_form(word: Word | CyclicWord | str) -> PrimitiveForm | None:
    """Exponent shape of a word's cyclic core using both generators, if any.

    Every primitive has one; some non-primitives (e.g. (A^2*B)^2) do
    too, so the shape alone does not decide primitivity.
    """
    letters = _core_letters(word)
    if not letters:
        raise EmptyWordError("the identity has no exponent shape")
    if len(set(letters.upper())) < 2:
        raise SingleGeneratorError(
            f"{letters} uses a single generator; the shape needs both"
        )
    x, y = _abelianization(letters)
    if len(letters) != abs(x) + abs(y):
        return None  # both signs of one generator occur
    swapped = abs(y) > abs(x)
    # The separator is the rarer generator's letter, B on a tie.
    gaps = _gaps(letters, "Aa"[x < 0] if swapped else "Bb"[y < 0])
    low = min(gaps)
    if max(gaps) > low + 1:  # gaps average at least 1, so none is 0
        return None
    return PrimitiveForm(
        base_generator="B" if swapped else "A",
        exponent=low,
        low_count=gaps.count(low),
        high_count=len(gaps) - gaps.count(low),
        inverted_a="a" in letters,
        inverted_b="b" in letters,
        swapped=swapped,
    )


def _gaps(cycle: str, separator: str) -> list[int]:
    """Numbers of other symbols between consecutive separators, cyclically."""
    start = cycle.index(separator)
    return list(map(len, (cycle[start + 1:] + cycle[:start]).split(separator)))


def is_primitive(word: Word | CyclicWord | str) -> bool:
    """True iff the word belongs to some free basis of F(A, B).

    Conjugation invariant; the input is cyclically reduced first.
    """
    letters = _core_letters(word)
    x, y = _abelianization(letters)
    # The rotation test implies the length test, which rejects words with
    # both signs of one generator before the Christoffel word is built.
    return (
        math.gcd(x, y) == 1
        and len(letters) == abs(x) + abs(y)
        and letters in _christoffel(x, y) * 2
    )


def is_basis_pair(u: Word | CyclicWord | str, v: Word | CyclicWord | str) -> bool:
    """True iff (u, v) is a free basis of F(A, B).

    A pair whose abelianization determinant is not +-1 is refused up
    front, as a basis maps to a basis of Z^2; that spares most non-bases
    the commutator test of ``words._commutator_is_basis``, which decides
    the rest.  ``oracle.brute_is_basis`` makes the same pre-check and
    decides the rest by explicit length reduction.
    """
    su, sv = _reduced_letters(u), _reduced_letters(v)
    xu, yu = _abelianization(su)
    xv, yv = _abelianization(sv)
    return abs(xu * yv - xv * yu) == 1 and _commutator_is_basis(su, sv)


def as_proper_power(word: Word | CyclicWord | str) -> tuple[CyclicWord, int] | None:
    """Decompose a word as root**k with k >= 2 maximal, if possible.

    Returns (root, k) with the root cut to its shortest period, or None
    when the word is not a proper power.  Conjugation invariant.
    """
    letters = _core_letters(word)
    period = _power_period(letters)
    if period == len(letters):
        return None
    return CyclicWord._raw(_canonical_rotation(letters[:period])), len(letters) // period
