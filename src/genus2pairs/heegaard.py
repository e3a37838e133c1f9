"""Intersection graphs of curve pairs with the two cutting disks.

Cutting the handlebody along its two disks leaves four fat vertices,
the disk copies A+, A-, B+ and B-; a curve that crosses a disk n times
contributes n arc endpoints to each copy.  Per curve we record a
multigraph on these four vertices whose edge multiplicities count the
curve's arcs between disk copies.  Crossing counts force the parity
rule deg(A+) = deg(A-) and deg(B+) = deg(B-) for every curve, which the
constructor enforces unless asked not to (reports on raw input need to
load broken graphs).

``matches_fig5c`` recognises, up to renaming each +/- pair, the shape
forced on a minimal diagram whose beta curve is the handle-B disk dual:
alpha contributes c >= s parallel A+A- edges plus s >= 2 edges from
each of A+ to B- and A- to B+, and nothing else.  ``minimality_witness``
flags shapes on which a band sum of the two disks would lower the
number of crossings with the B disk, contradicting minimality.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import ParityViolationError

VERTICES = ("A+", "A-", "B+", "B-")
CURVES = ("alpha", "beta")
_VERTEX_INDEX = {v: i for i, v in enumerate(VERTICES)}

SLOTS = tuple(combinations_with_replacement(VERTICES, 2))

# The four consistent renamings: swap A+ with A-, B+ with B-, or both.
_RELABELINGS = []
for _swap_a in (False, True):
    for _swap_b in (False, True):
        _relabel = {}
        for _v in VERTICES:
            _w = _v
            if _swap_a and _v[0] == "A":
                _w = "A" + ("-" if _v[1] == "+" else "+")
            if _swap_b and _v[0] == "B":
                _w = "B" + ("-" if _v[1] == "+" else "+")
            _relabel[_v] = _w
        _RELABELINGS.append(_relabel)
del _swap_a, _swap_b, _relabel, _v, _w


def _slot(v: str, w: str) -> tuple[str, str]:
    if v not in _VERTEX_INDEX or w not in _VERTEX_INDEX:
        raise ValueError(f"unknown vertex in edge ({v!r}, {w!r})")
    return (v, w) if _VERTEX_INDEX[v] <= _VERTEX_INDEX[w] else (w, v)


def _parse_slot_key(key) -> tuple[str, str]:
    if isinstance(key, str):
        for split in (2, 3):
            v, w = key[:split], key[split:]
            if v in _VERTEX_INDEX and w in _VERTEX_INDEX:
                return _slot(v, w)
        raise ValueError(f"cannot parse edge key {key!r}")
    v, w = key
    return _slot(v, w)


class HGraph:
    """Per-curve edge multiplicities on the four disk-copy vertices."""

    def __init__(self, alpha=None, beta=None, *, check_parity: bool = True):
        self._edges: dict[str, dict[tuple[str, str], int]] = {}
        for name, data in (("alpha", alpha), ("beta", beta)):
            if data is None:
                continue
            if not isinstance(data, dict):
                raise ValueError(f"curve {name} must map edges to multiplicities")
            edges: dict[tuple[str, str], int] = {}
            for key, mult in data.items():
                if type(mult) is not int:  # bool is an int subclass
                    raise ValueError(
                        f"multiplicity for {key!r} must be an integer, got {mult!r}"
                    )
                if mult < 0:
                    raise ValueError(f"negative multiplicity for {key!r}")
                if mult:
                    slot = _parse_slot_key(key)
                    edges[slot] = edges.get(slot, 0) + mult
            self._edges[name] = edges
        if check_parity:
            problems = self.parity_violations()
            if problems:
                raise ParityViolationError("; ".join(problems))

    @property
    def curves(self) -> tuple[str, ...]:
        return tuple(name for name in CURVES if name in self._edges)

    def multiplicity(self, curve: str, v: str, w: str) -> int:
        return self._edges.get(curve, {}).get(_slot(v, w), 0)

    def edges(self, curve: str) -> dict[tuple[str, str], int]:
        return dict(self._edges.get(curve, {}))

    def degree(self, curve: str, v: str) -> int:
        total = 0
        for (x, y), mult in self._edges.get(curve, {}).items():
            if x == v:
                total += mult
            if y == v:
                total += mult
        return total

    def parity_violations(self) -> list[str]:
        """Each curve must load A+ like A- and B+ like B-."""
        out = []
        for curve in self.curves:
            for handle in "AB":
                plus = self.degree(curve, handle + "+")
                minus = self.degree(curve, handle + "-")
                if plus != minus:
                    out.append(
                        f"curve {curve}: deg({handle}+) = {plus} but "
                        f"deg({handle}-) = {minus}"
                    )
        return out

    def relabeled(self, mapping: dict[str, str]) -> "HGraph":
        graph = HGraph.__new__(HGraph)
        graph._edges = {
            curve: {
                _slot(mapping[v], mapping[w]): mult
                for (v, w), mult in edges.items()
            }
            for curve, edges in self._edges.items()
        }
        return graph

    def to_json(self) -> dict:
        return {
            curve: {v + w: mult for (v, w), mult in sorted(
                self._edges[curve].items(),
                key=lambda item: (_VERTEX_INDEX[item[0][0]], _VERTEX_INDEX[item[0][1]]),
            )}
            for curve in self.curves
        }

    @classmethod
    def from_json(cls, data: dict, *, check_parity: bool = True) -> "HGraph":
        unknown = sorted(set(data) - set(CURVES))
        if unknown:
            raise ValueError(f"unknown curves {unknown!r}; expected alpha and/or beta")
        return cls(
            alpha=data.get("alpha"),
            beta=data.get("beta"),
            check_parity=check_parity,
        )

    def dot(self) -> str:
        """Graphviz source; multiplicities become edge labels."""
        lines = ["graph curve_pair {", "  node [shape=circle];"]
        for v in VERTICES:
            lines.append(f'  "{v}";')
        styles = {"alpha": "solid", "beta": "dashed"}
        for curve in self.curves:
            items = sorted(
                self._edges[curve].items(),
                key=lambda item: (_VERTEX_INDEX[item[0][0]], _VERTEX_INDEX[item[0][1]]),
            )
            for (v, w), mult in items:
                lines.append(
                    f'  "{v}" -- "{w}" [label="{curve}:{mult}", '
                    f"style={styles[curve]}];"
                )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"HGraph({self.to_json()!r})"


def _support(graph: HGraph, curve: str) -> set[str]:
    return {v for v in VERTICES if graph.degree(curve, v) > 0}


def _component_count(vertices: set[str], edges: dict[tuple[str, str], int]) -> int:
    remaining = set(vertices)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            v = stack.pop()
            for (x, y), mult in edges.items():
                if not mult:
                    continue
                if x == v and y in remaining:
                    remaining.discard(y)
                    stack.append(y)
                elif y == v and x in remaining:
                    remaining.discard(x)
                    stack.append(x)
    return count


def is_connected(graph: HGraph, curve: str) -> bool:
    """Connectivity of the curve's edges on their supporting vertices."""
    support = _support(graph, curve)
    if len(support) <= 1:
        return True
    return _component_count(support, graph.edges(curve)) == 1


def cut_vertices(graph: HGraph, curve: str) -> set[str]:
    """Vertices whose removal disconnects the curve's subgraph."""
    support = _support(graph, curve)
    if len(support) <= 2:
        return set()
    edges = graph.edges(curve)
    base = _component_count(support, edges)
    out = set()
    for v in support:
        rest = support - {v}
        kept = {
            slot: mult for slot, mult in edges.items() if v not in slot
        }
        if _component_count(rest, kept) > base:
            out.add(v)
    return out


def _beta_is_single_dual(graph: HGraph) -> int | None:
    """Multiplicity s when beta is exactly s B+B- edges, else None."""
    edges = graph.edges("beta")
    if set(edges) != {("B+", "B-")}:
        return None
    return edges[("B+", "B-")]


def matches_fig5c(graph: HGraph) -> tuple[int, int] | None:
    """Recognise the minimal-form shape, up to renaming the disk copies.

    Requires beta to contribute exactly one B+B- edge and alpha to
    consist of c >= s edges A+A-, s >= 2 edges A+B- and s edges A-B+
    with nothing else.  Returns (c, s) or None.
    """
    if set(graph.curves) != {"alpha", "beta"}:
        return None
    if _beta_is_single_dual(graph) != 1:
        return None
    for mapping in _RELABELINGS:
        relabeled = graph.relabeled(mapping)
        edges = relabeled.edges("alpha")
        c = edges.get(("A+", "A-"), 0)
        s = edges.get(("A+", "B-"), 0)
        if set(edges) != {("A+", "A-"), ("A+", "B-"), ("A-", "B+")}:
            continue
        if s >= 2 and relabeled.multiplicity("alpha", "A-", "B+") == s and c >= s:
            return c, s
    return None


def minimality_witness(graph: HGraph) -> str | None:
    """Check a graph against the band-sum reductions.

    Assumes beta is s >= 1 parallel B+B- edges.  Returns None when no
    reduction applies, or "BandsumReducesB" when tubing the two disks
    along an alpha arc would lower the crossing count with the B disk:
    either alpha has no A+A- edges yet meets both disks, or it has the
    recognised shape except that c < s.
    """
    problems = graph.parity_violations()
    if problems:
        raise ParityViolationError("; ".join(problems))
    if _beta_is_single_dual(graph) is None:
        raise ValueError(
            "minimality analysis needs beta drawn as parallel B+B- edges"
        )
    edges = graph.edges("alpha")
    crossing_slots = [
        slot for slot in edges if {slot[0][0], slot[1][0]} == {"A", "B"}
    ]
    if edges.get(("A+", "A-"), 0) == 0 and crossing_slots:
        return "BandsumReducesB"
    for mapping in _RELABELINGS:
        relabeled = graph.relabeled(mapping)
        shape = relabeled.edges("alpha")
        if set(shape) != {("A+", "A-"), ("A+", "B-"), ("A-", "B+")}:
            continue
        c = shape[("A+", "A-")]
        s = shape[("A+", "B-")]
        if shape[("A-", "B+")] == s and s >= 2 and c < s:
            return "BandsumReducesB"
    return None
