"""Automorphisms of F(A, B), given by the images of the generators.

An endomorphism A -> image_a, B -> image_b is an automorphism exactly
when the image pair is a basis, which the constructor enforces.  The
inverse is computed by Nielsen descent: elementary replacements of one
image by its product with the other are applied to the image pair until
only single letters remain, recording each move.  Each step takes the
first move that shortens the pair, testing the moves in order with
lengths read off the boundary cancellation counts, and builds only that
move; a pair with no shortening move is not a basis (see ``_descend``).
The recorded moves are then replayed on (A, B), and the inverse of the
terminal letter map is applied to the result.
"""

from __future__ import annotations

from ._record import _Record, _set_field
from .errors import InvalidParamsError, NotInvertibleError
from .words import CyclicWord, Word, _cancellation, _commutator_is_basis, _invert, _join
from .words import _reduced_letters, substitute

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


def _descend(u: str, v: str) -> tuple[str, str, list[int]] | None:
    """Nielsen-descend an image pair to total length two.

    Each step takes the first strictly shortening move in move order.
    Returns the terminal pair and the move indices taken; None when the
    descent stalls, which happens exactly for non-bases:

    >>> _descend("AB", "B")
    ('A', 'B', [1])
    >>> _descend("AB", "BA") is None
    True

    A basis (u, v) with |u| + |v| > 2 always has a shortening move.  The
    proof uses Nielsen reduction (Lyndon-Schupp, Combinatorial Group
    Theory, Ch. I, Sec. 2), with conditions N1: x != 1, N2: |xy| >= |x|
    and |xy| >= |y|, N3: |xyz| > |x| - |y| + |z| on {u, v}^+-1 whenever
    no product is 1, and the commutator criterion behind
    ``is_basis_pair`` (Cohen-Metzler-Zimmermann, Math. Ann. 1981).
    Suppose no move shortens the basis (u, v) of total above two.

    1. N1 holds, as a basis has no trivial element, and so does N2: x*x
       never shortens, and the eight moves are exactly the other tests.
    2. N3 fails: otherwise {u, v} is N-reduced and generates F, and as a
       reduced product of n >= 1 of u^+-1, v^+-1 has length >= n, A and
       B lie in {u^+-1, v^+-1}, making the total two.
    3. Under N2 at most |y|/2 letters of the middle y of a failing
       triple x*y*z cancel into x and at most |y|/2 into z, so exactly
       half cancel each way: y = pq with |p| = |q| = k >= 1, x ends
       with p^-1 and z starts with q^-1.  Then x = y, z = y and
       x = z^-1 are impossible, as each makes y = pq unreduced.
    4. So x = z and, up to swapping u and v and inverting either,
       v = pq and u = x starts with q^-1 and ends with p^-1.
    5. If |u| < 2k, u*v cancels at least k > |u|/2 letters, so move 6
       (v -> uv) shortens.
    6. If |u| = 2k, then u = v^-1, not a basis.
    7. If |u| > 2k, write u = q^-1 m p^-1 with m != 1.  By N2 exactly k
       letters cancel in u*v and in v*u, so mq and pm are reduced; since
       u is reduced, so are q^-1 m and m p^-1.
    8. Conjugating by q, [u, v] ~ [m (qp)^-1, qp] = [m, w], where w is
       the free reduction of qp.  As q != p^-1, |w| >= 2, and w starts
       with q[0] and ends with p[-1].
    9. By the four facts of step 7, m w m^-1 w^-1 is cyclically reduced,
       of length 2|m| + 2|w| >= 6, but a basis commutator has length 4.
    """
    moves: list[int] = []
    while len(u) + len(v) > 2:
        index = _shortening(u, v)
        if index is None:
            return None
        moves.append(index)
        u, v = _move(u, v, index)
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

    def __init__(self, image_a: Word | CyclicWord | str,
                 image_b: Word | CyclicWord | str) -> None:
        a, b = _reduced_letters(image_a), _reduced_letters(image_b)
        # No determinant pre-check: inverse and compose pass only bases.
        if not _commutator_is_basis(a, b):
            raise NotInvertibleError(f"images ({a or '1'}, {b or '1'}) are not a basis")
        _set_field(self, "image_a", Word._raw(a))
        _set_field(self, "image_b", Word._raw(b))

    @classmethod
    def identity(cls) -> "Automorphism":
        return cls("A", "B")

    def __call__(self, word: Word | CyclicWord | str) -> Word:
        return substitute(word, self.image_a, self.image_b)

    def image_of_class(self, word: Word | CyclicWord | str) -> CyclicWord:
        """Image of the conjugacy class of ``word``."""
        return CyclicWord(self(word))

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
        try:
            keys = sorted(data, key=repr)
            images = data["A"], data["B"]
        except (KeyError, TypeError) as exc:
            raise InvalidParamsError(f"malformed automorphism JSON: {exc!r}") from None
        if keys != ["A", "B"]:
            raise InvalidParamsError(f"automorphism JSON has keys A and B only, got {keys!r}")
        return cls(*images)

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
        Automorphism("a", "B"),
        Automorphism("B", "A"),
        Automorphism("AB", "B"),
        Automorphism("Ab", "B"),
    )
