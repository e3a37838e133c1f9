"""Independent routes the benchmark checks genus2pairs' verdicts against.

Nothing here imports genus2pairs: each function recomputes a fact from
plain strings and integers, so a defect in the package cannot hide
behind the same defect in its checker.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

_INVERSE = {"A": "a", "a": "A", "B": "b", "b": "B"}
_ORDER = str.maketrans("AaBb", "0123")


def free_reduce(letters: str) -> str:
    out: list[str] = []
    for ch in letters:
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse(letters: str) -> str:
    return "".join(_INVERSE[ch] for ch in reversed(letters))


def canonical_class(letters: str) -> str:
    """Least rotation (A < a < B < b) of the cyclic reduction."""
    s = free_reduce(letters)
    while len(s) >= 2 and s[0] == _INVERSE[s[-1]]:
        s = s[1:-1]
    if len(s) <= 1:
        return s
    return min((s[i:] + s[:i] for i in range(len(s))), key=lambda r: r.translate(_ORDER))


def abelianization(letters: str) -> tuple[int, int]:
    return (letters.count("A") - letters.count("a"),
            letters.count("B") - letters.count("b"))


def is_periodic(letters: str) -> bool:
    """True when the cyclic word is a proper power of a shorter one."""
    n = len(letters)
    return any(n % d == 0 and letters == letters[d:] + letters[:d]
               for d in range(1, n // 2 + 1))


def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def primitive_class_count(max_len: int) -> int:
    """Primitive conjugacy classes of length <= max_len: 4 * phi(n) per length."""
    return sum(4 * euler_phi(n) for n in range(1, max_len + 1))


def longitude_by_search(p: int, q: int) -> tuple[int, int]:
    """The (r, s) with p*s - r*q = 1 and 0 <= r < |p|, by plain search."""
    for r in range(abs(p)):
        if (1 + r * q) % p == 0:
            return r, (1 + r * q) // p
    raise ValueError(f"no longitude for ({p}, {q})")


def fig2a_twist(p: int, q: int) -> int:
    r, _ = longitude_by_search(p, q)
    m = abs(p)
    return r - m if 2 * r > m else r


def separating_class(n: int) -> str:
    """Canonical letters of A^n B A^-n B^-1."""
    a = "A" if n >= 0 else "a"
    return canonical_class(a * abs(n) + "B" + inverse(a * abs(n)) + "b")


# Four-vertex graphs: multiplicity vectors over the ten vertex slots.
VERTICES = ("A+", "A-", "B+", "B-")
SLOTS = tuple(combinations_with_replacement(VERTICES, 2))
_SLOT_INDEX = {slot: i for i, slot in enumerate(SLOTS)}
_VERTEX_ORDER = {v: i for i, v in enumerate(VERTICES)}


def _slot_permutation(mapping: dict[str, str]) -> tuple[int, ...]:
    out = []
    for x, y in SLOTS:
        xx, yy = mapping[x], mapping[y]
        pair = (xx, yy) if _VERTEX_ORDER[xx] <= _VERTEX_ORDER[yy] else (yy, xx)
        out.append(_SLOT_INDEX[pair])
    return tuple(out)


_SWAP_A = {"A+": "A-", "A-": "A+", "B+": "B+", "B-": "B-"}
_SWAP_B = {"A+": "A+", "A-": "A-", "B+": "B-", "B-": "B+"}
_PERMUTATIONS = tuple(
    _slot_permutation(m)
    for m in ({v: v for v in VERTICES}, _SWAP_A, _SWAP_B,
              {v: _SWAP_B[_SWAP_A[v]] for v in VERTICES})
)
_AA = _SLOT_INDEX[("A+", "A-")]
_PM = _SLOT_INDEX[("A+", "B-")]
_MP = _SLOT_INDEX[("A-", "B+")]
_PP = _SLOT_INDEX[("A+", "B+")]
_MM = _SLOT_INDEX[("A-", "B-")]
_BB = _SLOT_INDEX[("B+", "B-")]
_LOOPS = tuple(_SLOT_INDEX[(v, v)] for v in VERTICES)
CROSSING_SLOTS = (_PM, _MP, _PP, _MM)
AA_SLOT = _AA
_DEGREE_A = tuple((x == "A+") - (x == "A-") + (y == "A+") - (y == "A-") for x, y in SLOTS)
_DEGREE_B = tuple((x == "B+") - (x == "B-") + (y == "B+") - (y == "B-") for x, y in SLOTS)


def alpha_assignments(total_max: int):
    """Every alpha multiplicity vector with entries summing to <= total_max."""
    m = [0] * len(SLOTS)

    def fill(i: int, left: int):
        for value in range(left + 1):
            m[i] = value
            if i == len(SLOTS) - 1:
                yield tuple(m)
            else:
                yield from fill(i + 1, left - value)
        m[i] = 0

    yield from fill(0, total_max)


def parity_balanced(m: tuple[int, ...]) -> bool:
    return (sum(x * w for x, w in zip(m, _DEGREE_A)) == 0
            and sum(x * w for x, w in zip(m, _DEGREE_B)) == 0)


def fig5c_conclusions(m: tuple[int, ...]) -> tuple[int, int] | None:
    """The minimal-form shape, rechecked one conclusion at a time.

    Under some disk-copy swap: A+ meets B- but not B+, A- meets B+ but
    not B-, there are A+A- edges, no alpha B+B- edges or loops, and the
    two crossing families have one size s >= 2 with c >= s.
    """
    for perm in _PERMUTATIONS:
        r = [m[i] for i in perm]
        if r[_PM] < 1 or r[_PP] or r[_MP] < 1 or r[_MM]:
            continue
        if r[_AA] < 1 or r[_BB] or any(r[i] for i in _LOOPS):
            continue
        c, s = r[_AA], r[_PM]
        if r[_MP] == s and s >= 2 and c >= s:
            return c, s
    return None


def is_short_loop_shape(m: tuple[int, ...]) -> bool:
    """The recognised shape except that c < s, so a band sum reduces it."""
    for perm in _PERMUTATIONS:
        r = [m[i] for i in perm]
        if {i for i, v in enumerate(r) if v} != {_AA, _PM, _MP}:
            continue
        if r[_MP] == r[_PM] >= 2 and r[_AA] < r[_PM]:
            return True
    return False
