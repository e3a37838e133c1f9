"""Automorphisms of F(A, B), given by the images of the generators.

An endomorphism A -> image_a, B -> image_b is an automorphism exactly
when the image pair is a basis, which the constructor enforces.  The
inverse is computed by Nielsen descent: elementary replacements of one
image by its product with the other are applied to the image pair until
only single letters remain, recording each move, and the recorded moves
are composed with the inverse of the terminal letter permutation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotInvertibleError
from .words import CyclicWord, Word, _invert, _join, _substitute

# Elementary Nielsen moves on an image pair (u, v), together with the
# automorphism each one corresponds to under precomposition.
_PAIR_MOVES: tuple[tuple[tuple[str, str], str], ...] = (
    (("AB", "B"), "uv"),
    (("Ab", "B"), "uV"),
    (("BA", "B"), "vu"),
    (("bA", "B"), "Vu"),
    (("A", "BA"), "vu2"),
    (("A", "Ba"), "vU"),
    (("A", "AB"), "uv2"),
    (("A", "aB"), "Uv"),
)


def _apply_pair_move(u: str, v: str, index: int) -> tuple[str, str]:
    if index == 0:
        return _join(u, v), v
    if index == 1:
        return _join(u, _invert(v)), v
    if index == 2:
        return _join(v, u), v
    if index == 3:
        return _join(_invert(v), u), v
    if index == 4:
        return u, _join(v, u)
    if index == 5:
        return u, _join(v, _invert(u))
    if index == 6:
        return u, _join(u, v)
    return u, _join(_invert(u), v)


def _compose_images(
    outer: tuple[str, str], inner: tuple[str, str]
) -> tuple[str, str]:
    """Images of the composite "outer after inner"."""
    return (
        _substitute(inner[0], outer[0], outer[1]),
        _substitute(inner[1], outer[0], outer[1]),
    )


def _descend(u: str, v: str, trace: bool) -> tuple[str, str, list[int]] | None:
    """Nielsen-descend an image pair to total length two.

    Strictly shortening moves are preferred; when none applies, states
    of equal total length are explored breadth-first until one admits a
    shortening move.  Returns the terminal pair and, when tracing, the
    move indices taken; None when the descent stalls, which happens
    exactly for non-bases.
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
            for index in range(len(_PAIR_MOVES)):
                candidate = _apply_pair_move(*current, index)
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
        if trace:
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


_LETTER_PAIRS = [
    (x, y) for x in "AaBb" for y in "AaBb" if x.upper() != y.upper()
]


def _invert_letter_pair(u: str, v: str) -> tuple[str, str]:
    """Inverse of the automorphism A -> u, B -> v with single letters."""
    for candidate in _LETTER_PAIRS:
        if _compose_images((u, v), candidate) == ("A", "B"):
            return candidate
    raise AssertionError(f"no inverse letter pair for ({u!r}, {v!r})")


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
        return Word._raw(
            _substitute(word.letters, self.image_a.letters, self.image_b.letters)
        )

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
        descent = _descend(self.image_a.letters, self.image_b.letters, trace=True)
        if descent is None:  # unreachable: construction checked the basis
            raise NotInvertibleError(f"{self} is not invertible")
        final_u, final_v, moves = descent
        images = ("A", "B")
        for index in moves:
            images = _compose_images(images, _PAIR_MOVES[index][0])
        images = _compose_images(images, _invert_letter_pair(final_u, final_v))
        return Automorphism(Word._raw(images[0]), Word._raw(images[1]))

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
