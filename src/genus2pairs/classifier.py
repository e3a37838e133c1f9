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
implemented by ``classify_power_pair``: either the two curves are
separated, or they cobound a nonseparating annulus, which for the word
data means the two conjugacy classes agree up to inversion.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from .errors import (
    BetaNotProperPowerError,
    EmptyWordError,
    InvalidParamsError,
)
from .primitivity import as_proper_power
from .rr_diagram import CanonicalParams
from .words import CyclicWord, Word, cyclic_equal, cyclic_reduce


class ProductStructure(enum.Enum):
    """How the handlebody splits along the pair's separating curve."""

    SEPARATED_DISK = "SeparatedDisk"
    PRODUCT = "Product"
    TWISTED_PRODUCT = "TwistedProduct"


class PowerPairOutcome(enum.Enum):
    SEPARATED = "Separated"
    NONSEPARATING_ANNULUS = "NonseparatingAnnulus"


@dataclass(frozen=True)
class PairClass:
    """Full classification record for one canonical diagram."""

    type_I: bool
    type_II: bool
    separated: bool
    structure: ProductStructure
    separating_word: CyclicWord
    twist: int

    def to_json(self) -> dict:
        return {
            "type_I": self.type_I,
            "type_II": self.type_II,
            "separated": self.separated,
            "structure": self.structure.value,
            "separating_word": str(self.separating_word),
            "twist": self.twist,
        }


def separating_word(n: int) -> CyclicWord:
    """The class of A^n B A^-n B^-1; trivial when n = 0.

    >>> str(separating_word(1))
    'ABab'
    >>> str(separating_word(0))
    '1'
    """
    if n >= 0:
        letters = "A" * n + "B" + "a" * n + "b"
    else:
        letters = "a" * -n + "B" + "A" * -n + "b"
    return CyclicWord(letters)


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
    if p == 0:
        raise InvalidParamsError("p = 0 gives an inessential handle pattern")
    if gcd(p, q) != 1:
        raise InvalidParamsError(f"gcd({p}, {q}) != 1")
    # Extended Euclid: p*x + q*y = 1, so (r, s) = (-y, x) is one
    # solution of p*s - r*q = 1; shift r into [0, |p|) along the lattice
    # (r + k*p, s + k*q).
    old_r, cur_r = p, q
    old_x, cur_x = 1, 0
    old_y, cur_y = 0, 1
    while cur_r:
        quot = old_r // cur_r
        old_r, cur_r = cur_r, old_r - quot * cur_r
        old_x, cur_x = cur_x, old_x - quot * cur_x
        old_y, cur_y = cur_y, old_y - quot * cur_y
    sign = 1 if old_r > 0 else -1
    s, r = sign * old_x, -sign * old_y
    m = abs(p)
    r_norm = r % m
    k = (r_norm - r) // p
    s_norm = s + k * q
    if p * s_norm - r_norm * q != 1:
        raise AssertionError(
            f"Euclid gave (r, s) = ({r_norm}, {s_norm}) with p*s - r*q != 1"
        )
    return r_norm, s_norm


def _min_abs_twist(r: int, m: int) -> int:
    """Representative of r mod m in (-m/2, m/2]."""
    r %= m
    if 2 * r > m:
        r -= m
    return r


def classify(params: CanonicalParams) -> PairClass:
    """Classify the curve pair of a canonical diagram.

    fig1a pairs are separated (and of both types); fig2a pairs are
    always Type I, with the rest read off the longitude twist; fig3a
    pairs are Type II only, with twist eps.
    """
    params = params.validated()
    if params.variant == "fig1a":
        # Separated, yet the curves also bound product ends with a
        # commutator separating curve; the structure field reports the
        # stronger separated form and the word keeps the witness.
        return PairClass(
            type_I=True,
            type_II=True,
            separated=True,
            structure=ProductStructure.SEPARATED_DISK,
            separating_word=separating_word(1),
            twist=1,
        )
    if params.variant == "fig2a":
        r, _s = longitude_pair(params.p, params.q)
        twist = _min_abs_twist(r, abs(params.p))
        if twist == 0:
            structure = ProductStructure.SEPARATED_DISK
        elif abs(twist) == 1:
            structure = ProductStructure.PRODUCT
        else:
            structure = ProductStructure.TWISTED_PRODUCT
        return PairClass(
            type_I=True,
            type_II=abs(twist) <= 1,
            separated=twist == 0,
            structure=structure,
            separating_word=separating_word(twist),
            twist=twist,
        )
    return PairClass(
        type_I=False,
        type_II=True,
        separated=False,
        structure=ProductStructure.PRODUCT,
        separating_word=separating_word(params.eps),
        twist=params.eps,
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
    alpha, _ = cyclic_reduce(Word(alpha_word))
    beta, _ = cyclic_reduce(Word(beta_word))
    if not alpha:
        raise EmptyWordError("alpha must be nontrivial")
    if as_proper_power(beta) is None:
        raise BetaNotProperPowerError(f"beta {beta} is not a proper power")
    if cyclic_equal(alpha, beta, up_to_inversion=True):
        return PowerPairOutcome.NONSEPARATING_ANNULUS
    return PowerPairOutcome.SEPARATED
