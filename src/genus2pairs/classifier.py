"""Classification of disjoint curve pairs from canonical diagram data.

A disjoint pair of primitive curves on the genus-2 handlebody is graded
by how it sits relative to cutting disks: *separated* pairs lie on the
two sides of a separating disk, *Type I* pairs admit a cutting disk
meeting each curve once, and *Type II* pairs lie on opposite ends of a
(once-punctured-torus) x I product.  For the canonical diagram families
the whole classification is governed by a single integer, the twist of
the longitude completing the alpha pattern on its handle: twist 0 means
separated, |twist| = 1 means product ends, and a larger twist leaves
only the twisted product.

The separating curve witnessing the split carries the conjugacy class
A^n B A^-n B^-1 where n is the twist, which is also how the product
structure is certified; ``separating_word`` constructs it.

Pairs (alpha, beta) with beta a proper power obey a simpler dichotomy,
``classify_power_pair``: the curves are separated, or they cobound a
nonseparating annulus, when the classes agree up to inversion, as
``words.cyclic_equal`` decides.
"""

from __future__ import annotations

import enum
from math import gcd

from ._record import _Record
from .errors import BetaNotProperPowerError, EmptyWordError, InvalidParamsError, check_int
from .rr_diagram import CanonicalParams
from .words import CyclicWord, Word, _core_letters, _power_period, check_budget, cyclic_equal


class ProductStructure(enum.Enum):
    """How the handlebody splits along the pair's separating curve."""

    SEPARATED_DISK = "SeparatedDisk"
    PRODUCT = "Product"
    TWISTED_PRODUCT = "TwistedProduct"


class PowerPairOutcome(enum.Enum):
    SEPARATED = "Separated"
    NONSEPARATING_ANNULUS = "NonseparatingAnnulus"


class PairClass(_Record):
    """Full classification record for one canonical diagram."""

    __slots__ = (
        "type_I", "type_II", "separated", "structure", "separating_word", "twist",
    )

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["structure"] = self.structure.value
        out["separating_word"] = str(self.separating_word)
        return out


def separating_word(n: int) -> CyclicWord:
    """The class of A^n B A^-n B^-1; trivial when n = 0.  It is written in
    its least rotation, which starts at its one run of A: A^m B a^m b for
    n = m > 0 and A^m b a^m B for n = -m < 0.

    >>> str(separating_word(1)), str(separating_word(-2))
    ('ABab', 'AAbaaB')
    >>> str(separating_word(0))
    '1'
    """
    check_budget(2 * abs(check_int(n, "twist n")) + 2, "letters in the separating word")
    m, sign = abs(n), n < 0
    return CyclicWord._raw("A" * m + "Bb"[sign] + "a" * m + "bB"[sign] if n else "")


def longitude_pair(p: int, q: int) -> tuple[int, int]:
    """The unique (r, s) with p*s - r*q = 1 and 0 <= r < |p|.

    (r, s) is the slope of the longitude completing the (p, q) pattern
    on its handle; |p| = 1 gives r = 0 (the pattern is already dual to
    a disk).

    >>> longitude_pair(2, 1)
    (1, 1)
    >>> longitude_pair(5, 2)
    (2, 1)
    """
    if check_int(p, "p") == 0:
        raise InvalidParamsError("p = 0 gives an inessential handle pattern")
    check_int(q, "q")
    if gcd(p, q) != 1:
        raise InvalidParamsError(f"gcd({p}, {q}) != 1")
    # p*s - r*q = 1 holds exactly when r*q = -1 (mod |p|).
    m = abs(p)
    r = -pow(q, -1, m) % m
    s = (1 + r * q) // p
    if p * s - r * q != 1:
        raise AssertionError(
            f"inverse of q mod |p| gave (r, s) = ({r}, {s}) with p*s - r*q != 1"
        )
    return r, s


def classify(params: CanonicalParams) -> PairClass:
    """Classify the curve pair of a canonical diagram.

    Every field is read off the twist: the longitude twist for fig2a, eps
    for fig3a.  Twist 0 is separated, |twist| = 1 a product and a larger
    one a twisted product; Type II pairs have |twist| <= 1, and every pair
    but fig3a is Type I.  fig1a is the one exception: twist 1, yet
    separated.  Its curves also bound product ends with a commutator
    separating curve; the structure field reports the stronger separated
    form and the word keeps the witness.
    """
    params = params.validated()
    if params.variant == "fig2a":
        r, _s = longitude_pair(params.p, params.q)
        # 0 <= r < m = |p|, so the twist is r's representative in (-m/2, m/2].
        m = abs(params.p)
        twist = r - m if 2 * r > m else r
    else:
        twist = 1 if params.variant == "fig1a" else params.eps
    separated = twist == 0 or params.variant == "fig1a"
    if separated:
        structure = ProductStructure.SEPARATED_DISK
    elif abs(twist) == 1:
        structure = ProductStructure.PRODUCT
    else:
        structure = ProductStructure.TWISTED_PRODUCT
    return PairClass(
        type_I=params.variant != "fig3a",
        type_II=abs(twist) <= 1,
        separated=separated,
        structure=structure,
        separating_word=separating_word(twist),
        twist=twist,
    )


def classify_power_pair(
    alpha_word: Word | CyclicWord | str,
    beta_word: Word | CyclicWord | str,
) -> PowerPairOutcome:
    """Dichotomy for a disjoint pair whose beta curve is a proper power.

    The curves either cobound a nonseparating annulus, which happens
    exactly when the conjugacy classes agree up to inversion, or they
    are separated.  Geometric realizability of the input pair is the
    caller's responsibility.
    """
    alpha, beta = _core_letters(alpha_word), _core_letters(beta_word)
    if not alpha:
        raise EmptyWordError("alpha must be nontrivial")
    if _power_period(beta) == len(beta):
        raise BetaNotProperPowerError(f"beta {CyclicWord(beta)} is not a proper power")
    if cyclic_equal(Word._raw(alpha), Word._raw(beta), up_to_inversion=True):
        return PowerPairOutcome.NONSEPARATING_ANNULUS
    return PowerPairOutcome.SEPARATED
