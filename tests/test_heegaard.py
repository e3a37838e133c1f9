import itertools

import pytest
from hypothesis import given, strategies as st

from genus2pairs.errors import InvalidParamsError, ParityViolationError
from genus2pairs.heegaard import (
    _degrees,
    CURVES,
    HGraph,
    SLOTS,
    VERTICES,
    cut_vertices,
    is_connected,
    matches_fig5c,
    minimality_witness,
)


def fig5c_graph(c=3, s=2):
    return HGraph(
        alpha={"A+A-": c, "A+B-": s, "A-B+": s},
        beta={"B+B-": 1},
    )


# The four renamings: swap A+ with A-, B+ with B-, or both.
FLIP = {"+": "-", "-": "+"}
RENAMINGS = [
    {v: v[0] + (FLIP[v[1]] if v[0] in swapped else v[1]) for v in VERTICES}
    for swapped in ("", "A", "B", "AB")
]


def reference_shape(graph):
    """(c, s) by matching each renamed copy of the graph literally."""
    for mapping in RENAMINGS:
        edges = graph.relabeled(mapping).edges("alpha")
        if set(edges) != {("A+", "A-"), ("A+", "B-"), ("A-", "B+")}:
            continue
        c, s = edges[("A+", "A-")], edges[("A+", "B-")]
        if s >= 2 and edges[("A-", "B+")] == s:
            return c, s
    return None


def reference_match(graph):
    if set(graph.curves) != {"alpha", "beta"}:
        return None
    if graph.edges("beta") != {("B+", "B-"): 1}:
        return None
    shape = reference_shape(graph)
    return shape if shape is not None and shape[0] >= shape[1] else None


def reference_witness(graph):
    """minimality_witness for a balanced graph whose beta is B+B- edges."""
    edges = graph.edges("alpha")
    crossing = any({v[0], w[0]} == {"A", "B"} for v, w in edges)
    if not edges.get(("A+", "A-")) and crossing:
        return "BandsumReducesB"
    shape = reference_shape(graph)
    if shape is not None and shape[0] < shape[1]:
        return "BandsumReducesB"
    return None


def assert_agrees_with_reference(alpha, beta):
    graph = HGraph(alpha=alpha, beta=beta, check_parity=False)
    assert matches_fig5c(graph) == reference_match(graph)
    if not graph.parity_violations() and set(graph.edges("beta")) == {("B+", "B-")}:
        assert minimality_witness(graph) == reference_witness(graph)


def reference_component_count(vertices, edges):
    """Components by scanning every edge for each vertex reached."""
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


def reference_connectivity(graph, curve):
    """(is_connected, cut_vertices), recounting components without each
    vertex on a filtered copy of the edges."""
    edges = graph.edges(curve)
    support = {v for v, degree in _degrees(edges).items() if degree}
    connected = len(support) <= 1 or reference_component_count(support, edges) == 1
    if len(support) <= 2:
        return connected, set()
    base = reference_component_count(support, edges)
    cuts = set()
    for v in support:
        kept = {slot: mult for slot, mult in edges.items() if v not in slot}
        if reference_component_count(support - {v}, kept) > base:
            cuts.add(v)
    return connected, cuts


def assert_connectivity_agrees(alpha):
    graph = HGraph(alpha=alpha, check_parity=False)
    expected = reference_connectivity(graph, "alpha")
    assert (is_connected(graph, "alpha"), cut_vertices(graph, "alpha")) == expected


multiplicities = st.integers(0, 50)
# Random assignments rarely hit the shape, so also build near-misses of
# it: an A+A- slot, one crossing pair with nearly equal multiplicities,
# and maybe one more slot.
shaped_alphas = st.builds(
    lambda c, pair, s, t, extra, m: {
        ("A+", "A-"): c,
        pair[0]: s,
        pair[1]: t,
        **({extra: m} if extra else {}),
    },
    multiplicities,
    st.sampled_from(
        [(("A+", "B-"), ("A-", "B+")), (("A+", "B+"), ("A-", "B-")),
         (("A+", "B-"), ("A-", "B-")), (("A+", "B+"), ("A+", "B-"))]
    ),
    multiplicities,
    multiplicities,
    st.one_of(st.none(), st.sampled_from(SLOTS)),
    multiplicities,
)
random_alphas = st.lists(multiplicities, min_size=10, max_size=10).map(
    lambda ms: dict(zip(SLOTS, ms))
)
betas = st.sampled_from(
    [{("B+", "B-"): 1}, {("B+", "B-"): 2}, {("B+", "B-"): 1, ("A+", "A-"): 1}]
)


class TestConstruction:
    def test_multiplicity_lookup_is_order_blind(self):
        g = fig5c_graph()
        assert g.multiplicity("alpha", "A+", "A-") == 3
        assert g.multiplicity("alpha", "A-", "A+") == 3
        assert g.multiplicity("alpha", "B+", "B-") == 0

    def test_degree_counts_loops_twice(self):
        g = HGraph(alpha={"A+A+": 1, "A-A-": 1}, beta={"B+B-": 1})
        assert g.degree("alpha", "A+") == 2

    def test_zero_multiplicities_dropped(self):
        g = HGraph(alpha={"A+A-": 1, "A+B-": 0}, beta={"B+B-": 1})
        assert g.edges("alpha") == {("A+", "A-"): 1}

    def test_tuple_keys_accepted(self):
        g = HGraph(alpha={("A-", "A+"): 2}, beta={("B+", "B-"): 1})
        assert g.multiplicity("alpha", "A+", "A-") == 2

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            HGraph(alpha={"A+A-": -1})

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            HGraph(alpha={"A+C-": 1})

    def test_parity_enforced(self):
        with pytest.raises(ParityViolationError):
            HGraph(alpha={"A+B-": 1}, beta={"B+B-": 1})

    def test_parity_check_skippable_for_reports(self):
        g = HGraph(alpha={"A+B-": 1}, beta={"B+B-": 1}, check_parity=False)
        report = g.parity_violations()
        assert any("deg(A+)" in line for line in report)

    def test_curves_present(self):
        assert fig5c_graph().curves == ("alpha", "beta")
        assert HGraph(beta={"B+B-": 1}).curves == ("beta",)

    def test_relabeling_that_merges_vertices_rejected(self):
        # Sending A- to B- as well would merge A+A- into A+B- and keep
        # only one of the two multiplicities.
        g = HGraph(alpha={"A+A-": 1, "A+B-": 2}, check_parity=False)
        merge = {"A+": "A+", "A-": "B-", "B+": "B+", "B-": "B-"}
        with pytest.raises(InvalidParamsError):
            g.relabeled(merge)

    @pytest.mark.parametrize("mapping", [
        {"A+": "A+", "A-": "A-", "B+": "B+"},
        {"A+": "A+", "A-": "A-", "B+": "B+", "B-": "C-"},
        {"A+": "A-", "A-": "A+", "B+": "B+", "B-": "B-", "C+": "C+"},
    ])
    def test_relabeling_must_permute_the_vertices(self, mapping):
        with pytest.raises(InvalidParamsError):
            fig5c_graph().relabeled(mapping)


@pytest.mark.parametrize("refuse", [
    lambda: HGraph(alpha={"A+A-": 1.5}),
    lambda: HGraph(alpha={"A+A-": True}),
    lambda: HGraph(alpha={"A+A-": -1}),
    lambda: HGraph(alpha={"A+C-": 1}),
    lambda: HGraph(alpha={("A+", "C-"): 1}),
    lambda: HGraph(alpha=[1]),
    lambda: HGraph.from_json({"gamma": {}}),
    lambda: fig5c_graph().multiplicity("alpha", "A+", "C-"),
    lambda: fig5c_graph().relabeled({}),
    lambda: minimality_witness(HGraph(alpha={"A+A-": 1}, beta={"B+B-": 1, "A+A-": 1})),
    lambda: fig5c_graph().multiplicity("gamma", "A+", "A-"),
    lambda: fig5c_graph().edges("gamma"),
    lambda: fig5c_graph().degree("gamma", "A+"),
    lambda: fig5c_graph().degree("alpha", "C+"),
    lambda: fig5c_graph().degree("alpha", 5),
    lambda: is_connected(fig5c_graph(), "gamma"),
    lambda: cut_vertices(fig5c_graph(), "gamma"),
], ids=["float", "bool", "negative", "key", "vertex", "curve-list", "curve-name",
        "multiplicity-vertex", "relabeling", "beta-shape", "multiplicity-curve",
        "edges-curve", "degree-curve", "degree-vertex", "degree-int", "connected-curve",
        "cut-curve"])
def test_refusals_are_invalid_params_and_value_errors(refuse):
    try:
        refuse()
    except ValueError as exc:
        assert type(exc) is InvalidParamsError
    else:
        pytest.fail("no refusal")


def single_edge_slot(key):
    """The one slot an edge key of multiplicity 2 lands in."""
    (slot,) = HGraph(alpha={key: 2}, check_parity=False).edges("alpha")
    return slot


class TestEdgeKeys:
    """Every valid key reads as its ``SLOTS`` entry; every other key
    raises InvalidParamsError with a message that names it."""

    @pytest.mark.parametrize("v", VERTICES)
    @pytest.mark.parametrize("w", VERTICES)
    def test_ordered_keys_read_as_their_slot(self, v, w):
        slot = (v, w) if VERTICES.index(v) <= VERTICES.index(w) else (w, v)
        assert slot in SLOTS
        assert single_edge_slot(v + w) == slot
        assert single_edge_slot((v, w)) == slot

    def test_reversed_string_key(self):
        assert single_edge_slot("B-A+") == ("A+", "B-")

    @pytest.mark.parametrize("key", ["A+C-", "A+", "", "A+A-B+", "a+A-", " A+A-"])
    def test_malformed_string_keys(self, key):
        message = f"cannot parse edge key {key!r}"
        with pytest.raises(ValueError) as info:
            HGraph(alpha={key: 1}, check_parity=False)
        assert str(info.value) == message

    def test_unknown_vertex_in_tuple_key(self):
        with pytest.raises(ValueError) as info:
            HGraph(alpha={("A+", "C-"): 1}, check_parity=False)
        assert str(info.value) == "unknown vertex in edge ('A+', 'C-')"

    def test_unknown_vertex_in_multiplicity(self):
        graph = HGraph(alpha={"A+A-": 1}, check_parity=False)
        with pytest.raises(ValueError) as info:
            graph.multiplicity("alpha", "A+", "C-")
        assert str(info.value) == "unknown vertex in edge ('A+', 'C-')"

    @pytest.mark.parametrize("key", [("A+",), ("A+", "B-", "B+")])
    def test_wrong_length_tuple_keys(self, key):
        with pytest.raises(InvalidParamsError) as info:
            HGraph(alpha={key: 1}, check_parity=False)
        assert str(info.value) == f"cannot parse edge key {key!r}"

    def test_non_iterable_key(self):
        with pytest.raises(InvalidParamsError) as info:
            HGraph(alpha={5: 1}, check_parity=False)
        assert str(info.value) == "cannot parse edge key 5"

    def test_zero_multiplicity_key_is_not_read(self):
        g = HGraph(alpha={"A+C-": 0, ("A+",): 0}, check_parity=False)
        assert g.edges("alpha") == {}

    def test_multiplicity_checked_before_key(self):
        with pytest.raises(ValueError, match="must be an integer"):
            HGraph(alpha={"A+C-": 1.0}, check_parity=False)
        with pytest.raises(ValueError, match="negative multiplicity"):
            HGraph(alpha={"A+C-": -1}, check_parity=False)

    def test_keys_of_one_slot_add_up_in_first_seen_order(self):
        g = HGraph(
            alpha={"B-A+": 1, "A+A-": 2, ("A+", "B-"): 3, "A-A+": 4},
            check_parity=False,
        )
        assert list(g.edges("alpha").items()) == [
            (("A+", "B-"), 4), (("A+", "A-"), 6)
        ]

    @pytest.mark.parametrize("call, message", [
        (lambda g: g.degree("alpha", "C+"), "unknown vertex 'C+'"),
        (lambda g: g.edges("Alpha"), "unknown curve 'Alpha'; expected alpha or beta"),
        (lambda g: cut_vertices(g, "gamma"), "unknown curve 'gamma'; expected alpha or beta"),
    ], ids=["degree-vertex", "edges-curve", "cut-curve"])
    def test_accessors_name_unknown_vertices_and_curves(self, call, message):
        with pytest.raises(InvalidParamsError) as info:
            call(HGraph(beta={"B+B-": 1}))
        assert str(info.value) == message

    def test_known_absent_curve_has_no_edges(self):
        g = HGraph(beta={"B+B-": 1})
        assert (g.edges("alpha"), g.degree("alpha", "A+")) == ({}, 0)
        assert g.multiplicity("alpha", "A+", "A-") == 0

    def test_edges_returns_a_copy(self):
        g = fig5c_graph()
        g.edges("alpha")[("A+", "A-")] = 99
        assert g.multiplicity("alpha", "A+", "A-") == 3


def reference_degree(graph, curve, v):
    """One scan of the curve's edges per vertex; a loop counts twice."""
    return sum(
        mult * ((x == v) + (y == v)) for (x, y), mult in graph.edges(curve).items()
    )


def reference_parity_violations(graph):
    """``parity_violations`` from one edge scan per vertex."""
    out = []
    for curve in graph.curves:
        for handle in "AB":
            plus = reference_degree(graph, curve, handle + "+")
            minus = reference_degree(graph, curve, handle + "-")
            if plus != minus:
                out.append(
                    f"curve {curve}: deg({handle}+) = {plus} but "
                    f"deg({handle}-) = {minus}"
                )
    return out


# Any multiplicities on any slots, loops included, mostly unbalanced.
curve_edges = st.dictionaries(st.sampled_from(SLOTS), st.integers(0, 9))


class TestDegrees:
    @given(curve_edges, curve_edges)
    def test_one_pass_matches_degree(self, alpha, beta):
        g = HGraph(alpha=alpha, beta=beta, check_parity=False)
        for curve in CURVES:
            degrees = _degrees(g._edges[curve])
            assert degrees == {v: reference_degree(g, curve, v) for v in VERTICES}
            assert degrees == {v: g.degree(curve, v) for v in VERTICES}

    @given(st.one_of(st.none(), curve_edges), st.one_of(st.none(), curve_edges))
    def test_parity_text_unchanged(self, alpha, beta):
        g = HGraph(alpha=alpha, beta=beta, check_parity=False)
        assert g.parity_violations() == reference_parity_violations(g)

    def test_loop_counts_twice(self):
        assert _degrees({("A+", "A+"): 3, ("A+", "B-"): 1}) == {
            "A+": 7, "A-": 0, "B+": 0, "B-": 1
        }


class TestConnectivity:
    def test_two_parallel_edges(self):
        g = HGraph(alpha={"A+A-": 2}, beta={"B+B-": 1})
        assert is_connected(g, "alpha")
        assert cut_vertices(g, "alpha") == set()

    def test_two_components(self):
        g = HGraph(alpha={"A+B+": 1, "A-B-": 1}, beta={"B+B-": 1})
        assert not is_connected(g, "alpha")

    def test_absent_curve_trivially_connected(self):
        g = HGraph(beta={"B+B-": 1})
        assert is_connected(g, "alpha")
        assert cut_vertices(g, "alpha") == set()

    def test_fig5c_shape_cut_vertices(self):
        # Each B vertex hangs off a single A vertex, for any c, k >= 1.
        for c, k in itertools.product(range(1, 4), range(1, 4)):
            g = HGraph(
                alpha={"A+A-": c, "A+B-": k, "A-B+": k},
                beta={"B+B-": 1},
            )
            assert cut_vertices(g, "alpha") == {"A+", "A-"}
            assert is_connected(g, "alpha")

    def test_path_pattern(self):
        g = HGraph(alpha={"A+B+": 1, "A+A-": 1, "A-B-": 1}, beta={"B+B-": 1})
        assert cut_vertices(g, "alpha") == {"A+", "A-"}

    def test_cycle_has_no_cut_vertices(self):
        g = HGraph(
            alpha={"A+B+": 1, "B+A-": 1, "A-B-": 1, "B-A+": 1},
            beta={"B+B-": 1},
        )
        assert cut_vertices(g, "alpha") == set()


    def test_every_assignment_up_to_total_six(self):
        for total in range(7):
            for chosen in itertools.combinations_with_replacement(SLOTS, total):
                alpha = {}
                for slot in chosen:
                    alpha[slot] = alpha.get(slot, 0) + 1
                assert_connectivity_agrees(alpha)

    @given(st.one_of(shaped_alphas, random_alphas, curve_edges))
    def test_random_multiplicities(self, alpha):
        assert_connectivity_agrees(alpha)


class TestMatchesFig5c:
    def test_reference_shape(self):
        assert matches_fig5c(fig5c_graph(3, 2)) == (3, 2)

    def test_c_below_s_rejected(self):
        assert matches_fig5c(fig5c_graph(1, 2)) is None

    def test_c_equal_s_accepted(self):
        assert matches_fig5c(fig5c_graph(2, 2)) == (2, 2)

    def test_s_one_rejected(self):
        assert matches_fig5c(fig5c_graph(3, 1)) is None

    def test_a_vertex_adjacent_to_both_b_vertices_rejected(self):
        g = HGraph(
            alpha={"A+B+": 1, "A+B-": 1, "A-B+": 1, "A-B-": 1},
            beta={"B+B-": 1},
        )
        assert matches_fig5c(g) is None

    def test_relabeled_shapes_match(self):
        base = fig5c_graph(4, 2)
        for swap_a, swap_b in itertools.product((False, True), repeat=2):
            mapping = {}
            for v in VERTICES:
                w = v
                if swap_a and v[0] == "A":
                    w = "A" + ("-" if v[1] == "+" else "+")
                if swap_b and v[0] == "B":
                    w = "B" + ("-" if v[1] == "+" else "+")
                mapping[v] = w
            assert matches_fig5c(base.relabeled(mapping)) == (4, 2)

    def test_extra_edge_rejected(self):
        g = HGraph(
            alpha={"A+A-": 3, "A+B-": 2, "A-B+": 2, "B+B-": 1},
            beta={"B+B-": 1},
        )
        assert matches_fig5c(g) is None

    def test_beta_must_be_single_dual(self):
        g = HGraph(alpha={"A+A-": 3, "A+B-": 2, "A-B+": 2}, beta={"B+B-": 2})
        assert matches_fig5c(g) is None

    def test_needs_both_curves(self):
        g = HGraph(alpha={"A+A-": 3, "A+B-": 2, "A-B+": 2})
        assert matches_fig5c(g) is None

    def test_match_implies_witness_ok_and_cut_vertices(self):
        for c in range(2, 6):
            for s in range(2, c + 1):
                g = fig5c_graph(c, s)
                assert matches_fig5c(g) == (c, s)
                assert minimality_witness(g) is None
                assert cut_vertices(g, "alpha") >= {"A+", "A-"}


class TestFig5cReference:
    """The direct slot reading against the four-renaming scan."""

    def test_every_assignment_up_to_total_six(self):
        for total in range(7):
            for chosen in itertools.combinations_with_replacement(SLOTS, total):
                alpha = {}
                for slot in chosen:
                    alpha[slot] = alpha.get(slot, 0) + 1
                assert_agrees_with_reference(alpha, {("B+", "B-"): 1})

    @given(st.one_of(shaped_alphas, random_alphas), betas)
    def test_random_multiplicities_up_to_50(self, alpha, beta):
        assert_agrees_with_reference(alpha, beta)


class TestMinimalityWitness:
    def test_crossing_only_alpha_reduces(self):
        g = HGraph(alpha={"A+B-": 1, "A-B+": 1}, beta={"B+B-": 1})
        assert minimality_witness(g) == "BandsumReducesB"

    def test_surviving_shape_ok(self):
        assert minimality_witness(fig5c_graph(3, 2)) is None

    def test_c_below_s_reduces(self):
        assert minimality_witness(fig5c_graph(1, 2)) == "BandsumReducesB"

    def test_alpha_avoiding_b_disk_ok(self):
        g = HGraph(alpha={"A+A-": 2}, beta={"B+B-": 1})
        assert minimality_witness(g) is None

    def test_parity_guard(self):
        g = HGraph(alpha={"A+B-": 1}, beta={"B+B-": 1}, check_parity=False)
        with pytest.raises(ParityViolationError):
            minimality_witness(g)

    def test_beta_shape_guard(self):
        g = HGraph(alpha={"A+A-": 1}, beta={"B+B-": 1, "A+A-": 1})
        with pytest.raises(ValueError):
            minimality_witness(g)


class TestSerialization:
    def test_json_round_trip(self):
        g = fig5c_graph()
        assert HGraph.from_json(g.to_json()).to_json() == g.to_json()

    def test_repr(self):
        assert repr(HGraph({"A+A-": 1})) == "HGraph({'alpha': {'A+A-': 1}})"

    def test_json_key_order_deterministic(self):
        g = fig5c_graph()
        assert list(g.to_json()["alpha"]) == ["A+A-", "A+B-", "A-B+"]

    @pytest.mark.parametrize("data", [5, [], "alpha", None], ids=repr)
    def test_from_json_refuses_non_objects(self, data):
        with pytest.raises(InvalidParamsError) as info:
            HGraph.from_json(data)
        assert str(info.value) == "expected a JSON object"

    def test_non_strict_load(self):
        data = {"alpha": {"A+B-": 1}, "beta": {"B+B-": 1}}
        with pytest.raises(ParityViolationError):
            HGraph.from_json(data)
        g = HGraph.from_json(data, check_parity=False)
        assert g.multiplicity("alpha", "A+", "B-") == 1

    def test_dot_output(self):
        dot = fig5c_graph().dot()
        assert dot.startswith("graph curve_pair {")
        assert '"A+" -- "A-" [label="alpha:3"' in dot
        assert 'style=dashed' in dot
        assert dot == fig5c_graph().dot()

    def test_slots_cover_all_pairs(self):
        assert len(SLOTS) == 10  # 4 choose 2 plus 4 loops
