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

from .errors import InvalidParamsError, ParityViolationError, check_int

VERTICES = ("A+", "A-", "B+", "B-")
CURVES = ("alpha", "beta")

SLOTS = tuple(combinations_with_replacement(VERTICES, 2))
# The slot of each of the 32 valid edge keys, "v"+"w" and (v, w) either way.
_SLOT_OF_KEY = {
    key: (v, w) for v, w in SLOTS for key in (v + w, w + v, (v, w), (w, v))
}


def _slot(key) -> tuple[str, str]:
    """The slot of an edge key; InvalidParamsError for any key outside the table."""
    slot = _SLOT_OF_KEY.get(key)
    if slot is None:
        if isinstance(key, str):
            raise InvalidParamsError(f"cannot parse edge key {key!r}")
        v, w = key
        raise InvalidParamsError(f"unknown vertex in edge ({v!r}, {w!r})")
    return slot


def _degrees(edges: dict[tuple[str, str], int]) -> dict[str, int]:
    """The degree of every vertex in one pass; a loop counts twice."""
    degrees = dict.fromkeys(VERTICES, 0)
    for (v, w), mult in edges.items():
        degrees[v] += mult
        degrees[w] += mult
    return degrees


class HGraph:
    """Per-curve edge multiplicities on the four disk-copy vertices.

    A curve that is not a dict, a multiplicity that is not an exact
    integer >= 0, or an unknown edge key, vertex or curve name raises
    InvalidParamsError, which is a ValueError too."""

    def __init__(self, alpha=None, beta=None, *, check_parity: bool = True):
        self._edges: dict[str, dict[tuple[str, str], int]] = {}
        for name, data in (("alpha", alpha), ("beta", beta)):
            if data is None:
                continue
            if not isinstance(data, dict):
                raise InvalidParamsError(f"curve {name} must map edges to multiplicities")
            edges: dict[tuple[str, str], int] = {}
            for key, mult in data.items():
                if check_int(mult, "multiplicity for {!r}", key) < 0:
                    raise InvalidParamsError(f"negative multiplicity for {key!r}")
                if mult:
                    # One inline table read per edge; _slot raises for the rest.
                    slot = _SLOT_OF_KEY.get(key) or _slot(key)
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
        return self._edges.get(curve, {}).get(_slot((v, w)), 0)

    def edges(self, curve: str) -> dict[tuple[str, str], int]:
        return dict(self._edges.get(curve, {}))

    def degree(self, curve: str, v: str) -> int:
        return _degrees(self._edges.get(curve, {})).get(v, 0)

    def parity_violations(self) -> list[str]:
        """Each curve must load A+ like A- and B+ like B-."""
        out = []
        for curve, edges in self._edges.items():
            degrees = _degrees(edges)
            for handle in "AB":
                plus, minus = degrees[handle + "+"], degrees[handle + "-"]
                if plus != minus:
                    out.append(
                        f"curve {curve}: deg({handle}+) = {plus} but "
                        f"deg({handle}-) = {minus}"
                    )
        return out

    def relabeled(self, mapping: dict[str, str]) -> "HGraph":
        """The same graph with each vertex v renamed to mapping[v].

        The mapping must be a permutation of ``VERTICES``; one that sends
        two vertices to one would merge edges.
        """
        if set(mapping) != set(VERTICES) or set(mapping.values()) != set(VERTICES):
            raise InvalidParamsError(
                f"relabeling must permute the vertices {VERTICES}, got {mapping!r}"
            )
        graph = HGraph.__new__(HGraph)
        graph._edges = {
            curve: {
                _SLOT_OF_KEY[mapping[v], mapping[w]]: mult
                for (v, w), mult in edges.items()
            }
            for curve, edges in self._edges.items()
        }
        return graph

    def _ordered_edges(self, curve: str) -> list[tuple[tuple[str, str], int]]:
        """The curve's edges in ``SLOTS`` order, the order of all output."""
        edges = self._edges[curve]
        return [(slot, edges[slot]) for slot in SLOTS if slot in edges]

    def to_json(self) -> dict:
        return {
            curve: {v + w: mult for (v, w), mult in self._ordered_edges(curve)}
            for curve in self.curves
        }

    @classmethod
    def from_json(cls, data: dict, *, check_parity: bool = True) -> "HGraph":
        unknown = sorted(set(data) - set(CURVES))
        if unknown:
            raise InvalidParamsError(
                f"unknown curves {unknown!r}; expected alpha and/or beta")
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
            for (v, w), mult in self._ordered_edges(curve):
                lines.append(
                    f'  "{v}" -- "{w}" [label="{curve}:{mult}", '
                    f"style={styles[curve]}];"
                )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"HGraph({self.to_json()!r})"


def _neighbours(edges: dict[tuple[str, str], int]) -> dict[str, set[str]]:
    """The neighbours of each vertex that an edge touches; a loop makes
    its vertex its own neighbour.  Stored multiplicities are positive."""
    out: dict[str, set[str]] = {}
    for v, w in edges:
        out.setdefault(v, set()).add(w)
        out.setdefault(w, set()).add(v)
    return out


def _component_count(vertices, neighbours: dict[str, set[str]]) -> int:
    """Components of the subgraph spanned by ``vertices``."""
    remaining = set(vertices)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            found = neighbours[stack.pop()] & remaining
            remaining -= found
            stack.extend(found)
    return count


def is_connected(graph: HGraph, curve: str) -> bool:
    """Connectivity of the curve's edges on their supporting vertices."""
    neighbours = _neighbours(graph._edges.get(curve, {}))
    return _component_count(neighbours, neighbours) <= 1


def cut_vertices(graph: HGraph, curve: str) -> set[str]:
    """Vertices whose removal disconnects the curve's subgraph."""
    neighbours = _neighbours(graph._edges.get(curve, {}))
    if len(neighbours) <= 2:
        return set()
    base = _component_count(neighbours, neighbours)
    # A path through v enters and leaves by two distinct neighbours, so
    # only a vertex with two neighbours besides itself can be a cut.
    return {
        v for v, near in neighbours.items()
        if len(near - {v}) > 1
        and _component_count(neighbours.keys() - {v}, neighbours) > base
    }


def _beta_is_single_dual(graph: HGraph) -> int | None:
    """Multiplicity s when beta is exactly s B+B- edges, else None."""
    edges = graph._edges.get("beta", {})
    return edges.get(("B+", "B-")) if len(edges) == 1 else None


# The crossing slot pairs of the fig5c shape.  Swapping A+ with A- or
# B+ with B- fixes the A+A- slot and maps each pair onto itself or the
# other, so they are the shape under all four renamings.
_FIG5C_CROSSINGS = (
    (("A+", "B-"), ("A-", "B+")),
    (("A+", "B+"), ("A-", "B-")),
)


def _fig5c_shape(graph: HGraph) -> tuple[int, int] | None:
    """(c, s) when, up to renaming, alpha is c A+A-, s >= 2 A+B- and s
    A-B+ edges.

    The alpha edges are read as they are: exactly the A+A- slot plus
    one crossing pair of ``_FIG5C_CROSSINGS``, with equal multiplicity
    s >= 2 in both of its slots.
    """
    edges = graph._edges.get("alpha", {})
    if len(edges) != 3 or ("A+", "A-") not in edges:
        return None
    for first, second in _FIG5C_CROSSINGS:
        s = edges.get(first, 0)
        if s >= 2 and edges.get(second) == s:
            return edges[("A+", "A-")], s
    return None


def matches_fig5c(graph: HGraph) -> tuple[int, int] | None:
    """Recognise the minimal-form shape, up to renaming the disk copies.

    Requires beta to contribute exactly one B+B- edge and alpha to
    consist of c >= s edges A+A-, s >= 2 edges A+B- and s edges A-B+
    with nothing else.  Returns (c, s) or None.
    """
    if _beta_is_single_dual(graph) != 1:
        return None
    shape = _fig5c_shape(graph)
    if shape is None or shape[0] < shape[1]:
        return None
    return shape


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
    edges = graph._edges.get("alpha", {})
    if ("A+", "A-") not in edges and any(v[0] != w[0] for v, w in edges):
        return "BandsumReducesB"
    shape = _fig5c_shape(graph)
    if shape is not None and shape[0] < shape[1]:
        return "BandsumReducesB"
    return None
