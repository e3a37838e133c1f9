"""Standing outcome digests: one sha256 per layer over a fixed input corpus.

Each layer maps every input of its corpus to outcomes, one line each:
the value's ``repr``, or the exception's type and message.  Sets are
sorted (by ``str``, which also keys ``CyclicWord``s), because their
``repr`` order follows ``PYTHONHASHSEED``.  ``digests.json`` holds the
number of outcomes and their sha256 per layer, so a digest moves only
when some outcome in its corpus moves.  A change that moves one says in
CHANGES.md which input class moved, and rewrites the file with

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from genus2pairs import (
    CanonicalParams,
    CyclicWord,
    HGraph,
    as_proper_power,
    brute_is_basis,
    build_canonical,
    classify,
    classify_power_pair,
    cut_vertices,
    cyclic_reduce,
    diagram_from_json,
    diagram_to_json,
    is_basis_pair,
    is_connected,
    is_primitive,
    matches_fig5c,
    minimality_witness,
    primitive_form,
    trace_word,
    validate,
)
from genus2pairs.heegaard import SLOTS

EXPECTED = Path(__file__).with_name("digests.json")


def refusal(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def outcome(call, *args) -> str:
    try:
        value = call(*args)
    except Exception as exc:  # an exception is an outcome like any value
        return refusal(exc)
    if isinstance(value, (set, frozenset)):
        return repr(sorted(value, key=str))
    return repr(value)


def strings(max_len: int, reduced: bool = False):
    """Every string over A, a, B, b of at most ``max_len`` letters, shortest first."""
    for n in range(max_len + 1):
        for letters in itertools.product("AaBb", repeat=n):
            s = "".join(letters)
            if not (reduced and any(pair in s for pair in ("Aa", "aA", "Bb", "bB"))):
                yield s


def word_layer():
    """The kernel and its word decisions on all 21,845 strings of <= 7 letters."""
    for s in strings(7):
        for call in (CyclicWord, cyclic_reduce, is_primitive, as_proper_power, primitive_form):
            yield outcome(call, s)


def basis_layer():
    """``is_basis_pair`` and its referee on all reduced pairs of total length <= 6."""
    words = list(strings(6, reduced=True))
    for u, v in itertools.product(words, repeat=2):
        if len(u) + len(v) <= 6:
            yield outcome(is_basis_pair, u, v)
            yield outcome(brute_is_basis, u, v)


def grid():
    """fig1a, fig2a(p, q) for |p|, |q| <= 8 and fig3a(a, b, p, eps) for
    a, b <= 5, 0 <= p <= 7: refused parameters included."""
    yield CanonicalParams.fig1a()
    for p, q in itertools.product(range(-8, 9), repeat=2):
        yield CanonicalParams.fig2a(p, q)
    for a, b, p, eps in itertools.product(range(1, 6), range(1, 6), range(8), (-1, 1)):
        yield CanonicalParams.fig3a(a, b, p, eps)


def diagram_layer():
    """Build, JSON round trip, validate and trace on the parameter grid."""
    for params in grid():
        try:
            diagram = build_canonical(params)
        except Exception as exc:
            yield refusal(exc)
            continue
        data = diagram_to_json(diagram)
        yield repr(data)
        yield outcome(lambda: diagram_to_json(diagram_from_json(data)) == data)
        yield outcome(validate, diagram)
        yield outcome(trace_word, diagram, "alpha")
        yield outcome(trace_word, diagram, "beta")


def classify_layer():
    """``classify`` on the grid, and the power-pair dichotomy of each
    traced alpha against its cube."""
    for params in grid():
        yield outcome(classify, params)
        try:
            alpha = trace_word(build_canonical(params), "alpha")
        except Exception:
            continue  # the diagram layer records the refusal
        cube = alpha.to_word() ** 3
        yield outcome(classify_power_pair, alpha.to_word(), cube)
        yield outcome(classify_power_pair, ~cube, cube)


def alpha_assignments(total: int, slots: int = len(SLOTS)):
    """Every alpha multiplicity vector with entries summing to <= ``total``."""
    if slots == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in alpha_assignments(total - first, slots - 1):
            yield (first, *rest)


def graph_layer():
    """The shape, minimality and connectivity reports on the 8,008 graphs
    whose alpha has total multiplicity <= 6 and beta one B+B- edge."""
    for m in alpha_assignments(6):
        alpha = {SLOTS[i]: v for i, v in enumerate(m) if v}
        graph = HGraph(alpha=alpha, beta={("B+", "B-"): 1}, check_parity=False)
        yield outcome(matches_fig5c, graph)
        yield outcome(minimality_witness, graph)
        yield outcome(cut_vertices, graph, "alpha")
        yield outcome(is_connected, graph, "alpha")


LAYERS = {
    "words": word_layer,
    "basis": basis_layer,
    "diagrams": diagram_layer,
    "classify": classify_layer,
    "graphs": graph_layer,
}


def digest(layer: str) -> dict:
    sha = hashlib.sha256()
    count = 0
    for line in LAYERS[layer]():
        sha.update(line.encode() + b"\n")
        count += 1
    return {"outcomes": count, "sha256": sha.hexdigest()}


@pytest.mark.parametrize("layer", LAYERS)
def test_digest(layer):
    assert digest(layer) == json.loads(EXPECTED.read_text())[layer]


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps({layer: digest(layer) for layer in LAYERS}, indent=2) + "\n")
