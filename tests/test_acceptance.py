"""Acceptance suite: seven end-to-end checks, one printed line each.

Every check pits two independent routes against each other: the
enumeration closure against the substitution decision procedure, the
commutator basis test against explicit Nielsen descent and against a
closure of the letter pairs under the Nielsen moves, diagram words
against direct balanced construction, longitude arithmetic against a
plain integer search, and the graph-shape recogniser against a
conclusion-by-conclusion brute-force checker.  Expected counts are
frozen so a silent change in any scan domain also fails loudly.
"""

import random
import time
from collections import Counter
from itertools import combinations_with_replacement
from math import gcd

import pytest

from genus2pairs import (
    CanonicalParams,
    CyclicWord,
    HGraph,
    ParityViolationError,
    PowerPairOutcome,
    ProductStructure,
    Word,
    alpha_word_fig3a,
    as_proper_power,
    brute_is_basis,
    classify,
    classify_power_pair,
    cut_vertices,
    cyclic_equal,
    cyclic_reduce,
    enumerate_primitives,
    is_basis_pair,
    is_primitive,
    matches_fig5c,
    minimality_witness,
)

ALPHABET = "AaBb"


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _cyclically_reduced_strings(max_len):
    """Every nonempty cyclically reduced string up to max_len letters."""

    def extend(prefix):
        if prefix[-1] != prefix[0].swapcase():
            yield prefix
        if len(prefix) == max_len:
            return
        bad = prefix[-1].swapcase()
        for ch in ALPHABET:
            if ch != bad:
                yield from extend(prefix + ch)

    for ch in ALPHABET:
        yield from extend(ch)


def _fig3a_grid():
    for total in range(2, 11):
        for a in range(1, total):
            b = total - a
            if gcd(a, b) == 1:
                for eps in (1, -1):
                    for low in range(2, 6):
                        yield a, b, (low if eps == 1 else low + 1), eps


def _fig2a_sweep():
    for p in range(-12, 13):
        if p == 0:
            continue
        for q in range(-12, 13):
            if gcd(abs(p), abs(q)) == 1:
                yield p, q


def test_criterion_1_primitivity_matches_enumeration(capsys):
    """is_primitive equals membership in the enumerated orbit closure.

    Scans every cyclic word of length <= 12 whose abelianization is
    coprime (the same pre-filter the enumeration satisfies by
    construction) and demands exact agreement.
    """
    start = time.perf_counter()
    oracle = enumerate_primitives(12)
    seen = set()
    disagreements = []
    for s in _cyclically_reduced_strings(12):
        x = s.count("A") - s.count("a")
        y = s.count("B") - s.count("b")
        if gcd(x, y) != 1:
            continue
        cls = CyclicWord(s)
        if cls in seen:
            continue
        seen.add(cls)
        if is_primitive(cls) != (cls in oracle):
            disagreements.append(cls)
    elapsed = time.perf_counter() - start
    ok = (not disagreements and len(seen) == 37496 and len(oracle) == 184
          and elapsed <= 60.0)
    _report(capsys, 1, ok,
            f"{len(seen)} coprime classes at length <= 12, "
            f"{len(oracle)} primitives, {len(disagreements)} disagreements, "
            f"{elapsed:.1f}s")


def _basis_closure(max_total):
    """Ordered pairs reached from the 8 ordered letter pairs by the 8
    elementary moves, keeping those of total length <= max_total.

    Written with ``Word`` products, so it shares no move table and no
    search with the descent behind ``brute_is_basis``.  Every basis
    longer than two letters has a move that shortens it, and the moves
    are closed under inverses, so bounding the closure at max_total
    loses no basis of that total.
    """
    seeds = [(Word(x), Word(y)) for x in ALPHABET for y in ALPHABET
             if x.upper() != y.upper()]
    seen = set(seeds)
    frontier = seeds
    while frontier:
        fresh = []
        for u, v in frontier:
            for pair in ((u * v, v), (u * ~v, v), (v * u, v), (~v * u, v),
                         (u, v * u), (u, v * ~u), (u, u * v), (u, ~u * v)):
                if len(pair[0]) + len(pair[1]) <= max_total and pair not in seen:
                    seen.add(pair)
                    fresh.append(pair)
        frontier = fresh
    return seen


def test_criterion_2_basis_routes_agree(capsys):
    """Commutator basis test vs Nielsen descent vs move closure,
    exhaustive then random.

    All unordered pairs with total length <= 10, where membership in the
    closure of the letter pairs under the elementary moves must match
    too, then 10000 pairs built by random Nielsen moves from (A, B)
    capped at total length 16 (all of which must be bases by
    construction), then perturbed variants of those with no
    predetermined verdict.
    """
    start = time.perf_counter()
    closure = _basis_closure(10)
    by_len = [[""]]
    for _ in range(10):
        level = []
        for s in by_len[-1]:
            bad = s[-1].swapcase() if s else ""
            level.extend(s + ch for ch in ALPHABET if ch != bad)
        by_len.append(level)
    words_by_len = [[Word(s) for s in level] for level in by_len]

    pairs = bases = 0
    disagreements = []
    for i in range(11):
        for j in range(i, 11 - i):
            vs = words_by_len[j]
            for ui, u in enumerate(words_by_len[i]):
                for v in vs[ui if i == j else 0:]:
                    pairs += 1
                    lhs = is_basis_pair(u, v)
                    if lhs != brute_is_basis(u, v) or lhs != ((u, v) in closure):
                        disagreements.append((u, v))
                    bases += lhs

    rng = random.Random(20260825)
    pool = []
    u, v = Word("A"), Word("B")
    while len(pool) < 10000:
        move = rng.randrange(6)
        if move == 0:
            cand = (u * v, v)
        elif move == 1:
            cand = (u * ~v, v)
        elif move == 2:
            cand = (u, v * u)
        elif move == 3:
            cand = (u, v * ~u)
        elif move == 4:
            cand = (v, u)
        else:
            cand = (~u, v)
        if len(cand[0]) + len(cand[1]) <= 16:
            u, v = cand
            pool.append(cand)
        elif rng.random() < 0.5:
            u, v = Word("A"), Word("B")
    walk_failures = [
        (u, v) for u, v in pool
        if not (is_basis_pair(u, v) and brute_is_basis(u, v))
    ]

    perturbed = 0
    for i in range(0, 6000, 3):
        u, v = pool[i]
        tail = Word("".join(rng.choice(ALPHABET)
                            for _ in range(rng.randrange(1, 5))))
        if len(u) + len(v * tail) > 16:
            continue
        perturbed += 1
        if is_basis_pair(u, v * tail) != brute_is_basis(u, v * tail):
            disagreements.append((u, v * tail))

    elapsed = time.perf_counter() - start
    ok = (not disagreements and not walk_failures
          and pairs == 787563 and bases == 3364 and len(closure) == 2 * 3364)
    _report(capsys, 2, ok,
            f"{pairs} exhaustive pairs with {bases} bases, "
            f"{len(closure)} ordered bases in the move closure, "
            f"{len(pool)} walk pairs, {perturbed} perturbed pairs, "
            f"{len(disagreements) + len(walk_failures)} disagreements, "
            f"{elapsed:.1f}s")


def test_criterion_3_fig3a_words_primitive_with_exact_exponents(capsys):
    """fig3a alpha words are primitive with exponent multiset {p: a, p+eps: b}."""
    failures = []
    count = 0
    for a, b, p, eps in _fig3a_grid():
        count += 1
        w = alpha_word_fig3a(a, b, p, eps)
        syls = w.syllables()
        a_exps = Counter(s.exponent for s in syls if s.generator == "A")
        b_exps = Counter(s.exponent for s in syls if s.generator == "B")
        if not is_primitive(w):
            failures.append((a, b, p, eps, "not primitive"))
        if a_exps != Counter({p: a, p + eps: b}) or b_exps != Counter({1: a + b}):
            failures.append((a, b, p, eps, dict(a_exps)))
    ok = not failures and count == 248
    _report(capsys, 3, ok,
            f"{count} grid words, {len(failures)} failures")


def test_criterion_4_classification_table(capsys):
    """fig2a verdicts agree with an independent integer search.

    Two routes for every coprime (p, q) with |p| <= 12, |q| <= 12:
    classify() reads the longitude twist, the check below just asks
    whether q = p*s +- 1 has an integer solution.  Also: fig3a grid
    pairs are Type II only, and fig1a is separated and of both types.
    """
    failures = []
    n = n_sep = n_both = n_t1only = 0
    for p, q in _fig2a_sweep():
        n += 1
        res = classify(CanonicalParams.fig2a(p, q))
        bound = abs(q) + 2
        search_both = any(q == p * s + e
                          for s in range(-bound, bound + 1) for e in (1, -1))
        if res.type_I is not True:
            failures.append((p, q, "not Type I"))
        if res.type_II != search_both:
            failures.append((p, q, "type II routes disagree"))
        if res.separated != (abs(p) == 1):
            failures.append((p, q, "separated route disagrees"))
        if not search_both and res.structure is not ProductStructure.TWISTED_PRODUCT:
            failures.append((p, q, "expected twisted product"))
        n_sep += res.separated
        n_both += res.type_II
        n_t1only += not res.type_II

    for a, b, p, eps in _fig3a_grid():
        res = classify(CanonicalParams.fig3a(a, b, p, eps))
        if (res.type_I, res.type_II, res.separated) != (False, True, False):
            failures.append((a, b, p, eps, "fig3a not Type II only"))

    res = classify(CanonicalParams.fig1a())
    if not (res.separated and res.type_I and res.type_II):
        failures.append(("fig1a", "not separated of both types"))

    ok = (not failures and n == 366 and n_sep == 50
          and n_both == 234 and n_t1only == 132)
    _report(capsys, 4, ok,
            f"{n} fig2a pairs ({n_sep} separated, {n_both} both types, "
            f"{n_t1only} Type I only), fig3a grid and fig1a checked, "
            f"{len(failures)} failures")


def test_criterion_5_separating_word_contract(capsys):
    """Every classification's separating word is A^n B A^-n B^-1.

    n is the reported twist; the word must also abelianize to (0, 0)
    and must not be primitive.
    """
    outputs = [classify(CanonicalParams.fig1a())]
    outputs.extend(classify(CanonicalParams.fig2a(p, q))
                   for p, q in _fig2a_sweep())
    outputs.extend(classify(CanonicalParams.fig3a(a, b, p, eps))
                   for a, b, p, eps in _fig3a_grid())
    A, B = Word("A"), Word("B")
    failures = []
    for res in outputs:
        w = res.separating_word
        expected, _ = cyclic_reduce(A ** res.twist * B * A ** (-res.twist) * ~B)
        if w.abelianization() != (0, 0) or is_primitive(w) or w != expected:
            failures.append((res.twist, str(w)))
    ok = not failures and len(outputs) == 615
    _report(capsys, 5, ok,
            f"{len(outputs)} classification outputs, {len(failures)} failures")


VERTS = ("A+", "A-", "B+", "B-")
SLOTS = tuple(combinations_with_replacement(VERTS, 2))
_IDX = {slot: i for i, slot in enumerate(SLOTS)}
_ORDER = {v: i for i, v in enumerate(VERTS)}


def _perm_for(mapping):
    out = []
    for x, y in SLOTS:
        xx, yy = mapping[x], mapping[y]
        out.append(_IDX[(xx, yy) if _ORDER[xx] <= _ORDER[yy] else (yy, xx)])
    return tuple(out)


_SWAP_A = {"A+": "A-", "A-": "A+", "B+": "B+", "B-": "B-"}
_SWAP_B = {"A+": "A+", "A-": "A-", "B+": "B-", "B-": "B+"}
_PERMS = tuple(
    _perm_for(m)
    for m in ({v: v for v in VERTS}, _SWAP_A, _SWAP_B,
              {v: _SWAP_B[_SWAP_A[v]] for v in VERTS})
)

_I_AA = _IDX[("A+", "A-")]
_I_PM = _IDX[("A+", "B-")]
_I_MP = _IDX[("A-", "B+")]
_I_PP = _IDX[("A+", "B+")]
_I_MM = _IDX[("A-", "B-")]
_I_BB = _IDX[("B+", "B-")]
_I_LOOPS = tuple(_IDX[(v, v)] for v in VERTS)
_I_CROSS = (_I_PM, _I_MP, _I_PP, _I_MM)

# per-slot contribution to deg(A+) - deg(A-) and deg(B+) - deg(B-)
_WA = tuple((x == "A+") - (x == "A-") + (y == "A+") - (y == "A-")
            for x, y in SLOTS)
_WB = tuple((x == "B+") - (x == "B-") + (y == "B+") - (y == "B-")
            for x, y in SLOTS)


def _parity_balanced(m):
    return (sum(mi * w for mi, w in zip(m, _WA)) == 0
            and sum(mi * w for mi, w in zip(m, _WB)) == 0)


def _fig5c_conclusions(m):
    """Conclusion-by-conclusion recheck of the minimal-form shape.

    Under each disk-copy swap: A+ meets B- but not B+, mirrored for
    A-; some A+A- edges; no alpha B+B- edges; no other edges; and the
    two crossing families have the same size s >= 2 with c >= s.  The
    exact shape forces the parity balance, so no separate parity test
    is needed here.
    """
    for perm in _PERMS:
        r = [m[i] for i in perm]
        if not (r[_I_PM] >= 1 and r[_I_PP] == 0):
            continue
        if not (r[_I_MP] >= 1 and r[_I_MM] == 0):
            continue
        if r[_I_AA] < 1 or r[_I_BB] != 0 or any(r[i] for i in _I_LOOPS):
            continue
        c, s = r[_I_AA], r[_I_PM]
        if r[_I_MP] == s and s >= 2 and c >= s:
            return c, s
    return None


def _is_short_loop_shape(m):
    """The recognised shape except that c < s."""
    for perm in _PERMS:
        r = [m[i] for i in perm]
        if {i for i, v in enumerate(r) if v} != {_I_AA, _I_PM, _I_MP}:
            continue
        c, s = r[_I_AA], r[_I_PM]
        if r[_I_MP] == s and s >= 2 and c < s:
            return True
    return False


def _alpha_assignments(total_max):
    m = [0] * len(SLOTS)

    def rec(i, left):
        if i == len(SLOTS) - 1:
            for v in range(left + 1):
                m[i] = v
                yield tuple(m)
            m[i] = 0
            return
        for v in range(left + 1):
            m[i] = v
            yield from rec(i + 1, left - v)
        m[i] = 0

    yield from rec(0, total_max)


def test_criterion_6_graph_scan(capsys):
    """Exhaustive scan of all graphs with one dual beta edge.

    Over every alpha multiplicity assignment of total <= 8 (beta fixed
    to a single B+B- edge): matches_fig5c must equal the independent
    conclusion checker, a match implies no reduction witness and cut
    vertices at both A copies, both band-sum reduction branches must
    fire somewhere, and parity violations must raise.
    """
    start = time.perf_counter()
    beta = {("B+", "B-"): 1}
    n = matched = parity_bad = rule_a = rule_b = 0
    failures = []
    raise_checked = False
    for m in _alpha_assignments(8):
        n += 1
        alpha = {SLOTS[i]: v for i, v in enumerate(m) if v}
        expected = _fig5c_conclusions(m)
        graph = HGraph(alpha=alpha, beta=beta, check_parity=False)
        got = matches_fig5c(graph)
        if got != expected:
            failures.append((alpha, got, expected))
            continue
        if not _parity_balanced(m):
            parity_bad += 1
            if expected is not None:
                failures.append((alpha, "matched despite parity"))
            if not raise_checked:
                with pytest.raises(ParityViolationError):
                    HGraph(alpha=alpha, beta=beta)
                with pytest.raises(ParityViolationError):
                    minimality_witness(graph)
                raise_checked = True
            continue
        witness = minimality_witness(graph)
        if got is not None:
            matched += 1
            if witness is not None:
                failures.append((alpha, "matched but reducible"))
            if not cut_vertices(graph, "alpha") >= {"A+", "A-"}:
                failures.append((alpha, "matched without A cut vertices"))
        if m[_I_AA] == 0 and any(m[i] for i in _I_CROSS):
            rule_a += 1
            if witness != "BandsumReducesB":
                failures.append((alpha, "missed crossing reduction"))
        elif _is_short_loop_shape(m):
            rule_b += 1
            if witness != "BandsumReducesB":
                failures.append((alpha, "missed short-loop reduction"))
    elapsed = time.perf_counter() - start
    ok = (not failures and n == 43758 and matched == 6
          and rule_a >= 1 and rule_b >= 1 and parity_bad >= 1
          and raise_checked and elapsed <= 10.0)
    _report(capsys, 6, ok,
            f"{n} graphs, {matched} matches, witness branches "
            f"{rule_a}+{rule_b}, {parity_bad} parity rejects, "
            f"{len(failures)} failures, {elapsed:.1f}s")


def test_criterion_7_power_pair_dichotomy(capsys):
    """(primitive, power) pairs separate; (power, power) pairs split.

    Over all classes of length <= 8: pairing any primitive with any
    proper power yields Separated, and pairing two proper powers yields
    NonseparatingAnnulus exactly when the classes agree up to
    inversion.
    """
    classes = {CyclicWord(s) for s in _cyclically_reduced_strings(8)}
    primitives = enumerate_primitives(8)
    powers = [c for c in classes if as_proper_power(c) is not None]
    failures = []
    mixed = 0
    for alpha in primitives:
        for beta in powers:
            mixed += 1
            if classify_power_pair(alpha, beta) is not PowerPairOutcome.SEPARATED:
                failures.append((str(alpha), str(beta)))
    square = annuli = 0
    for b1 in powers:
        for b2 in powers:
            square += 1
            out = classify_power_pair(b1, b2)
            is_annulus = out is PowerPairOutcome.NONSEPARATING_ANNULUS
            if is_annulus != cyclic_equal(b1, b2, up_to_inversion=True):
                failures.append((str(b1), str(b2)))
            annuli += is_annulus
    ok = (not failures and len(primitives) == 88 and len(powers) == 66
          and mixed == 5808 and square == 4356 and annuli == 132)
    _report(capsys, 7, ok,
            f"{mixed} primitive/power pairs, {square} power/power pairs "
            f"with {annuli} annuli, {len(failures)} failures")
