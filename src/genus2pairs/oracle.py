"""Brute-force ground truth for primitivity and basis recognition.

Both routines here avoid the exponent-shape reasoning used by
``primitivity`` so they can serve as independent referees: primitives
are enumerated by closing {A} under the standard automorphism
generators in one breadth-first pass, and basis pairs are certified
by greedy Nielsen length reduction.  That reduction is the same
descent that ``Automorphism.inverse`` runs.  It shares with
``is_basis_pair`` only the necessary determinant pre-check; past it,
the tests play that function's commutator test against the descent.
"""

from __future__ import annotations

from .automorphisms import _descend, nielsen_generators
from .errors import BudgetExceededError, InvalidParamsError, check_int
from .words import CyclicWord, Word, _abelianization, _reduced_letters

_SLACK = 4
_MAX_LEN_CAP = 14
_cache: dict[int, frozenset[CyclicWord]] = {}


def enumerate_primitives(max_len: int) -> frozenset[CyclicWord]:
    """All primitive conjugacy classes of cyclic length <= max_len.

    Closure of {A} under the Nielsen generators, pruned at
    max_len + 4 letters.  The extra slack guards against shortest
    representatives that are only reachable through longer ones.  Each
    kept class joins the next frontier and is expanded, so when the
    frontier empties every image within the bound is kept already.
    Results are cached per max_len.

    Raises InvalidParamsError when max_len is not an int or is below 1,
    and BudgetExceededError when it is above 14.
    """
    check_int(max_len, "max_len")
    if max_len < 1:
        raise InvalidParamsError(f"max_len must be at least 1, got {max_len}")
    if max_len > _MAX_LEN_CAP:
        raise BudgetExceededError(
            f"max_len must lie in 1..{_MAX_LEN_CAP}, got {max_len}"
        )
    if max_len not in _cache:
        bound = max_len + _SLACK
        generators = nielsen_generators()
        seed = CyclicWord("A")
        seen = {seed}
        frontier = [seed]
        while frontier:
            fresh = []
            for word in frontier:
                for f in generators:
                    image = f.image_of_class(word)
                    if len(image) <= bound and image not in seen:
                        seen.add(image)
                        fresh.append(image)
            frontier = fresh
        _cache[max_len] = frozenset(w for w in seen if len(w) <= max_len)
    return _cache[max_len]


def brute_is_basis(u: Word | CyclicWord | str, v: Word | CyclicWord | str,
                   budget: int = 32) -> bool:
    """Basis test by Nielsen length reduction, no commutator involved.

    Replaces one word by its product with the other, taking the first
    move that shortens the pair, until the pair is two distinct single
    letters (a basis) or no move shortens it (not a basis: every basis
    longer than two letters has a shortening move, as the docstring of
    ``automorphisms._descend`` proves).  This is the descent that
    ``Automorphism.inverse`` runs.  As in ``is_basis_pair``, a pair whose
    abelianization determinant is not +-1 (a necessary condition for a
    basis) is rejected up front; the descent decides the rest.

    Raises InvalidParamsError when ``budget`` is not an int, and
    BudgetExceededError when the pair is longer than ``budget``; the
    reduction itself never grows the pair.
    """
    su, sv = _reduced_letters(u), _reduced_letters(v)
    total = len(su) + len(sv)
    if total > check_int(budget, "budget"):
        raise BudgetExceededError(
            f"pair of total length {total} exceeds budget {budget}"
        )
    xu, yu = _abelianization(su)
    xv, yv = _abelianization(sv)
    if abs(xu * yv - xv * yu) != 1:
        return False
    return _descend(su, sv) is not None
