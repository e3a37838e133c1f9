"""Automorphisms of F(A, B), given by the images of the generators.

An endomorphism A -> image_a, B -> image_b is an automorphism exactly
when the image pair is a basis, which the constructor enforces.  The
inverse is computed by Nielsen descent: elementary replacements of one
image by its product with the other are applied to the image pair until
only single letters remain, recording each move.  Each step reads the
lengths of all eight candidate pairs off four boundary counts (the
cancellation in u*v and in v*u, and the common prefix and suffix of u
and v) and builds only the candidate it takes.  The recorded moves are
then replayed on (A, B), and the inverse of the terminal letter map is
applied to the result.
"""

from __future__ import annotations

from collections import deque

from ._record import _Record, _set_field
from .errors import NotInvertibleError
from .words import CyclicWord, Word, _cancellation, _invert, _join, substitute

# The eight elementary Nielsen moves on (u, v), in a fixed order.  Applied
# to the image pair of a map f, move i gives the images of f composed on
# the right with the move applied to (A, B).
_MOVES = (
    lambda u, v: (_join(u, v), v),
    lambda u, v: (_join(u, _invert(v)), v),
    lambda u, v: (_join(v, u), v),
    lambda u, v: (_join(_invert(v), u), v),
    lambda u, v: (u, _join(v, u)),
    lambda u, v: (u, _join(v, _invert(u))),
    lambda u, v: (u, _join(u, v)),
    lambda u, v: (u, _join(_invert(u), v)),
)


def _move(u: str, v: str, index: int) -> tuple[str, str]:
    """Elementary Nielsen move ``index`` (0 to 7) applied to (u, v)."""
    return _MOVES[index](u, v)


def _common_prefix(u: str, v: str) -> int:
    """Letters cancelled in v^-1*u and in u^-1*v (moves 3 and 7)."""
    if not (u and v and u[0] == v[0]):
        return 0
    limit = min(len(u), len(v))
    n = 1
    while n < limit and u[n] == v[n]:
        n += 1
    return n


def _common_suffix(u: str, v: str) -> int:
    """Letters cancelled in u*v^-1 and in v*u^-1 (moves 1 and 5)."""
    if not (u and v and u[-1] == v[-1]):
        return 0
    limit = min(len(u), len(v))
    n = 1
    while n < limit and u[-1 - n] == v[-1 - n]:
        n += 1
    return n


def _move_sizes(u: str, v: str) -> tuple[int, ...]:
    """Total length of each of the eight moved pairs, without building any.

    Move i with cancellation count c gives |u| + 2|v| - 2c for i < 4,
    where v is added to u, and 2|u| + |v| - 2c otherwise.
    """
    uv, vu = _cancellation(u, v), _cancellation(v, u)
    prefix, suffix = _common_prefix(u, v), _common_suffix(u, v)
    grow_u = len(u) + 2 * len(v)
    grow_v = 2 * len(u) + len(v)
    return (
        grow_u - 2 * uv, grow_u - 2 * suffix, grow_u - 2 * vu, grow_u - 2 * prefix,
        grow_v - 2 * vu, grow_v - 2 * suffix, grow_v - 2 * uv, grow_v - 2 * prefix,
    )


def _shortening(u: str, v: str) -> int | None:
    """The first move that shortens (u, v), or None.

    A move with cancellation count c shortens the pair when 2c exceeds
    the length of the word it adds.  The counts are read lazily, in move
    order, so when one of moves 0 to 3 shortens, the later counts are
    never read.
    """
    half_v, half_u = len(v) // 2, len(u) // 2
    uv = _cancellation(u, v)
    if uv > half_v:
        return 0
    suffix = _common_suffix(u, v)
    if suffix > half_v:
        return 1
    vu = _cancellation(v, u)
    if vu > half_v:
        return 2
    prefix = _common_prefix(u, v)
    if prefix > half_v:
        return 3
    for index, count in ((4, vu), (5, suffix), (6, uv), (7, prefix)):
        if count > half_u:
            return index
    return None


def _plateau(
    start: tuple[str, str], total: int
) -> tuple[tuple[str, str], list[int]] | None:
    """Breadth-first search over the pairs of total length ``total``
    reachable from ``start``, up to the first that a move shortens.

    Returns the shorter pair and the moves from ``start`` to it, or None
    when no pair of this length shortens.  Only moves that keep the
    length are built.
    """
    parents: dict[tuple[str, str], tuple[tuple[str, str], int] | None]
    parents = {start: None}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        sizes = _move_sizes(*current)
        for index, size in enumerate(sizes):
            if size < total:
                found = _move(*current, index)
                path = [index]
                node = current
                while node != start:
                    node, index = parents[node]
                    path.append(index)
                path.reverse()
                return found, path
        for index, size in enumerate(sizes):
            if size == total:
                candidate = _move(*current, index)
                if candidate not in parents:
                    parents[candidate] = (current, index)
                    queue.append(candidate)
    return None


def _descend(u: str, v: str) -> tuple[str, str, list[int]] | None:
    """Nielsen-descend an image pair to total length two.

    Strictly shortening moves are preferred, the first in move order;
    when none applies, states of equal total length are explored
    breadth-first until one admits a shortening move.  Returns the
    terminal pair and the move indices taken; None when the descent
    stalls, which happens exactly for non-bases.
    """
    moves: list[int] = []
    total = len(u) + len(v)
    while total > 2:
        index = _shortening(u, v)
        if index is not None:
            moves.append(index)
            u, v = _move(u, v, index)
        else:
            step = _plateau((u, v), total)
            if step is None:
                return None
            (u, v), path = step
            moves.extend(path)
        total = len(u) + len(v)
    if len(u) == 1 and len(v) == 1 and u.upper() != v.upper():
        return u, v, moves
    return None


class Automorphism(_Record):
    """An automorphism A -> image_a, B -> image_b.

    >>> f = Automorphism(Word("Ab"), Word("B"))
    >>> f(Word("ABAB"))
    Word('AA')
    """

    __slots__ = ("image_a", "image_b")

    def __init__(self, image_a: Word, image_b: Word) -> None:
        if isinstance(image_a, str):
            image_a = Word(image_a)
        if isinstance(image_b, str):
            image_b = Word(image_b)
        from .primitivity import is_basis_pair

        if not is_basis_pair(image_a, image_b):
            raise NotInvertibleError(
                f"images ({image_a}, {image_b}) are not a basis"
            )
        _set_field(self, "image_a", image_a)
        _set_field(self, "image_b", image_b)

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
            u, v = _move(u, v, index)
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
