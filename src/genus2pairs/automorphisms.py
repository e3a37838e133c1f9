"""Automorphisms of F(A, B), given by the images of the generators.

An endomorphism A -> image_a, B -> image_b is an automorphism exactly
when the image pair is a basis, which the constructor enforces.  The
inverse is computed by Nielsen descent: elementary replacements of one
image by its product with the other are applied to the image pair until
only single letters remain, recording each move.  The recorded moves
are then replayed on (A, B), and the inverse of the terminal letter
map is applied to the result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import NotInvertibleError
from .words import CyclicWord, Word, _invert, _join, substitute


def _pair_moves(u: str, v: str) -> Iterator[tuple[str, str]]:
    """The eight elementary Nielsen moves applied to (u, v), in a fixed order.

    Applied to the image pair of a map f, move i gives the images of
    f composed on the right with the move applied to (A, B).
    """
    inv_u, inv_v = _invert(u), _invert(v)
    yield _join(u, v), v
    yield _join(u, inv_v), v
    yield _join(v, u), v
    yield _join(inv_v, u), v
    yield u, _join(v, u)
    yield u, _join(v, inv_u)
    yield u, _join(u, v)
    yield u, _join(inv_u, v)


def _descend(u: str, v: str) -> tuple[str, str, list[int]] | None:
    """Nielsen-descend an image pair to total length two.

    Strictly shortening moves are preferred; when none applies, states
    of equal total length are explored breadth-first until one admits a
    shortening move.  Returns the terminal pair and the move indices
    taken; None when the descent stalls, which happens exactly for
    non-bases.
    """
    moves: list[int] = []
    total = len(u) + len(v)
    while total > 2:
        start = (u, v)
        parents: dict[tuple[str, str], tuple[tuple[str, str], int] | None]
        parents = {start: None}
        queue = deque([start])
        found = None
        while queue and found is None:
            current = queue.popleft()
            for index, candidate in enumerate(_pair_moves(*current)):
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


@dataclass(frozen=True)
class Automorphism:
    """An automorphism A -> image_a, B -> image_b.

    >>> f = Automorphism(Word("Ab"), Word("B"))
    >>> f(Word("ABAB"))
    Word('AA')
    """

    image_a: Word
    image_b: Word

    def __post_init__(self) -> None:
        if isinstance(self.image_a, str):
            object.__setattr__(self, "image_a", Word(self.image_a))
        if isinstance(self.image_b, str):
            object.__setattr__(self, "image_b", Word(self.image_b))
        from .primitivity import is_basis_pair

        if not is_basis_pair(self.image_a, self.image_b):
            raise NotInvertibleError(
                f"images ({self.image_a}, {self.image_b}) are not a basis"
            )

    @classmethod
    def identity(cls) -> "Automorphism":
        return cls(Word("A"), Word("B"))

    def __call__(self, word: Word) -> Word:
        return substitute(word, self.image_a, self.image_b)

    def image_of_class(self, word: CyclicWord) -> CyclicWord:
        """Image of a conjugacy class."""
        return CyclicWord(self(word.to_word()))

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        return compose(self, other)

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Induced matrix on the abelianization, images as columns."""
        xa, ya = self.image_a.abelianization()
        xb, yb = self.image_b.abelianization()
        return ((xa, xb), (ya, yb))

    def inverse(self) -> "Automorphism":
        descent = _descend(self.image_a.letters, self.image_b.letters)
        if descent is None:  # unreachable: construction checked the basis
            raise NotInvertibleError(f"{self} is not invertible")
        final_u, final_v, moves = descent
        u, v = "A", "B"
        for index in moves:
            u, v = next(islice(_pair_moves(u, v), index, None))
        # self * (u, v) sends A to final_u and B to final_v, so the inverse
        # of self sends those letters to u and v.
        image = {final_u: u, final_v: v}
        image.update({_invert(x): _invert(w) for x, w in image.items()})
        return Automorphism(Word._raw(image["A"]), Word._raw(image["B"]))

    def to_json(self) -> dict:
        return {"A": str(self.image_a), "B": str(self.image_b)}

    @classmethod
    def from_json(cls, data: dict) -> "Automorphism":
        return cls(Word(data["A"]), Word(data["B"]))

    def __str__(self) -> str:
        return f"A -> {self.image_a}, B -> {self.image_b}"


def compose(outer: Automorphism, inner: Automorphism) -> Automorphism:
    """The composite mapping w to outer(inner(w))."""
    return Automorphism(outer(inner.image_a), outer(inner.image_b))


def nielsen_generators() -> tuple[Automorphism, ...]:
    """The standard generating set of Aut(F(A, B)), closed under inverse.

    Inverting A and swapping the generators are involutions; the shift
    A -> A*B comes paired with its inverse A -> A*B^-1.
    """
    return (
        Automorphism(Word("a"), Word("B")),
        Automorphism(Word("B"), Word("A")),
        Automorphism(Word("AB"), Word("B")),
        Automorphism(Word("Ab"), Word("B")),
    )
