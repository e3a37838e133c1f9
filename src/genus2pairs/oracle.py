"""Brute-force ground truth for primitivity and basis recognition.

Both routines here avoid the exponent-shape reasoning used by
``primitivity`` so they can serve as independent referees: primitives
are enumerated by closing {A} under the standard automorphism
generators, and basis pairs are certified by explicit Nielsen length
reduction.
"""

from __future__ import annotations

from collections import deque

from .automorphisms import nielsen_generators
from .errors import BudgetExceededError
from .words import CyclicWord, Word, _invert, _reduce

_SLACK = 4
_MAX_LEN_CAP = 14
_cache: dict[int, frozenset[CyclicWord]] = {}


def enumerate_primitives(max_len: int) -> frozenset[CyclicWord]:
    """All primitive conjugacy classes of cyclic length <= max_len.

    Closure of {A} under the Nielsen generators, pruned at
    max_len + 4 letters.  The extra slack guards against shortest
    representatives that are only reachable through longer ones; after
    the closure stabilises, one more full sweep checks that no kept
    class produces anything new.  Results are cached per max_len.
    """
    if not 1 <= max_len <= _MAX_LEN_CAP:
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
        for word in seen:  # stability sweep
            for f in generators:
                image = f.image_of_class(word)
                if len(image) <= bound and image not in seen:
                    raise AssertionError(
                        f"closure not stable: {word} maps to new class {image}"
                    )
        _cache[max_len] = frozenset(w for w in seen if len(w) <= max_len)
    return _cache[max_len]


_BRUTE_MOVES = (
    lambda u, v: (_reduce(u + v), v),
    lambda u, v: (_reduce(u + _invert(v)), v),
    lambda u, v: (_reduce(v + u), v),
    lambda u, v: (_reduce(_invert(v) + u), v),
    lambda u, v: (u, _reduce(v + u)),
    lambda u, v: (u, _reduce(v + _invert(u))),
    lambda u, v: (u, _reduce(u + v)),
    lambda u, v: (u, _reduce(_invert(u) + v)),
)


def brute_is_basis(u: Word, v: Word, budget: int = 32) -> bool:
    """Basis test by Nielsen length reduction, no commutator involved.

    Replaces one word by its product with the other whenever that
    shortens the pair, exploring equal-length states breadth-first when
    no move shortens directly, until the pair is two distinct single
    letters (a basis) or nothing helps (not a basis).  A pair whose
    abelianization determinant is not +-1 is rejected up front; that is
    a necessary condition for a basis and keeps bulk sweeps fast.

    Raises BudgetExceededError when the pair is longer than ``budget``;
    the reduction itself never grows the pair.
    """
    su, sv = u.letters, v.letters
    total = len(su) + len(sv)
    if total > budget:
        raise BudgetExceededError(
            f"pair of total length {total} exceeds budget {budget}"
        )
    xu, yu = u.abelianization()
    xv, yv = v.abelianization()
    if abs(xu * yv - xv * yu) != 1:
        return False
    while total > 2:
        start = (su, sv)
        visited = {start}
        queue = deque([start])
        found = None
        while queue and found is None:
            current = queue.popleft()
            for move in _BRUTE_MOVES:
                candidate = move(*current)
                size = len(candidate[0]) + len(candidate[1])
                if size < total:
                    found = candidate
                    break
                if size == total and candidate not in visited:
                    visited.add(candidate)
                    queue.append(candidate)
        if found is None:
            return False
        su, sv = found
        total = len(su) + len(sv)
    return len(su) == 1 and len(sv) == 1 and su.upper() != sv.upper()
