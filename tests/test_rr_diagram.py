import re
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from genus2pairs.classifier import classify
from genus2pairs.errors import (
    BudgetExceededError,
    InvalidParamsError,
    UnknownCurveError,
    UnlabeledBandError,
)
from genus2pairs.rr_diagram import (
    Arc,
    ArcStep,
    Band,
    CanonicalParams,
    Endpoint,
    HandleLabel,
    RRDiagram,
    TraverseStep,
    alpha_word_fig3a,
    build_canonical,
    diagram_from_json,
    diagram_to_json,
    parse_endpoint,
    parse_step,
    trace_word,
    validate,
)
from genus2pairs.primitivity import is_primitive
from genus2pairs.words import CyclicWord, _canonical_rotation, _christoffel

FIG3A_GRID = [
    (a, b, p, eps)
    for a, b in [(1, 1), (1, 2), (2, 1), (3, 2), (2, 3), (1, 4), (5, 2)]
    for eps in (1, -1)
    for p in ([2, 3] if eps == 1 else [3, 4])
]


def kinds(violations):
    return {v.kind for v in violations}


class TestTokens:
    def test_traverse_token_round_trip(self):
        step = TraverseStep("A", 0, 1)
        assert step.token() == "A.0.+"
        assert parse_step("A.0.+") == step
        assert parse_step("B.2.-") == TraverseStep("B", 2, -1)

    def test_arc_token_round_trip(self):
        assert ArcStep(3, -1).token() == "arc:3.-"
        assert parse_step("arc:3.-") == ArcStep(3, -1)

    def test_endpoint_round_trip(self):
        assert parse_endpoint("A.1.-") == Endpoint("A", 1, "-")
        assert Endpoint("B", 0, "+").token() == "B.0.+"

    @pytest.mark.parametrize(
        "bad", ["C.0.+", "A.x.+", "A.0.*", "arc:+.3", "arc:1", "A.0", ""]
    )
    def test_malformed_tokens(self, bad):
        with pytest.raises(InvalidParamsError):
            parse_step(bad)

    # Each is not what token() writes; int() would read most of them.
    @pytest.mark.parametrize("bad", [
        "A. 1.+", "A.+1.+", "A.1_0.+", "A.00.+", "A.-0.+", "B.0 .-", "A.0.+\n",
        "arc:+2.+", "arc:\u0663.-", "B.1\u0663.-", "arc:01.+", "a.0.+",
    ])
    def test_only_plain_decimal_indices(self, bad):
        with pytest.raises(InvalidParamsError) as info:
            parse_step(bad)
        assert str(info.value) == f"malformed step token {bad!r}"
        with pytest.raises(InvalidParamsError) as info:
            parse_endpoint(bad)
        assert str(info.value) == f"malformed endpoint token {bad!r}"

    def test_arc_is_no_endpoint(self):
        assert parse_step("arc:10.+") == ArcStep(10, 1)
        with pytest.raises(InvalidParamsError, match="malformed endpoint token"):
            parse_endpoint("arc:10.+")

    @pytest.mark.parametrize("bad", [3, None, b"A.0.+", ["A.0.+"]], ids=repr)
    def test_non_string_tokens(self, bad):
        with pytest.raises(InvalidParamsError) as info:
            parse_step(bad)
        assert str(info.value) == f"malformed step token {bad!r}"
        with pytest.raises(InvalidParamsError) as info:
            parse_endpoint(bad)
        assert str(info.value) == f"malformed endpoint token {bad!r}"

    @given(st.text(alphabet="ABarc:.+-0123456789 _\u0663", max_size=9))
    def test_accepted_tokens_round_trip(self, text):
        for parse in (parse_step, parse_endpoint):
            try:
                parsed = parse(text)
            except InvalidParamsError:
                continue
            assert parsed.token() == text

    @given(st.sampled_from(["A", "B", None]), st.integers(0, 10**30), st.booleans())
    def test_written_tokens_parse(self, handle, index, plus):
        direction = 1 if plus else -1
        if handle is None:
            step = ArcStep(index, direction)
        else:
            step = TraverseStep(handle, index, direction)
            end = Endpoint(handle, index, "+" if plus else "-")
            assert parse_endpoint(end.token()) == end
        assert parse_step(step.token()) == step


class TestHandleConstraints:
    def build(self, bands_a, bands_b=(Band(1, 1),)):
        handle_a = HandleLabel("A", tuple(bands_a))
        handle_b = HandleLabel("B", tuple(bands_b))
        return RRDiagram(handle_a, handle_b)

    def test_missing_bands(self):
        d = self.build(())
        assert "MissingBands" in kinds(validate(d))

    def test_too_many_bands(self):
        d = self.build([Band(1, 1), Band(1, 2), Band(1, 3), Band(1, 4)])
        assert "TooManyBands" in kinds(validate(d))

    def test_two_band_gcd(self):
        d = self.build([Band(1, 2), Band(1, 4)])
        assert "GcdViolation" in kinds(validate(d))

    def test_two_band_coprime_ok(self):
        d = self.build([Band(1, 2), Band(1, 3)])
        assert "GcdViolation" not in kinds(validate(d))

    def test_three_band_middle_sum(self):
        d = self.build([Band(1, 1), Band(1, 4), Band(1, 2)])
        assert "BandSumViolation" in kinds(validate(d))

    def test_three_band_sum_ok(self):
        d = self.build([Band(1, 1), Band(1, 3), Band(1, 2)])
        assert "BandSumViolation" not in kinds(validate(d))

    def test_three_band_outer_gcd(self):
        d = self.build([Band(1, 2), Band(1, 4), Band(1, 2)])
        assert [str(v) for v in validate(d) if v.kind != "EndpointBalance"] == [
            "GcdViolation: handle A outer labels 2, 2 are not coprime",
        ]

    def test_gcd_before_determinant(self):
        d = self.build([Band(1, 2, 1), Band(1, 4, 3)])
        assert [str(v) for v in validate(d) if v.kind != "EndpointBalance"] == [
            "GcdViolation: handle A band labels 2, 4 are not coprime",
            "DetViolation: handle A full labels have determinant 2, expected +-1",
        ]

    def test_band_sum_before_gcd(self):
        d = self.build([Band(1, 2), Band(1, 5), Band(1, 2)])
        assert [str(v) for v in validate(d) if v.kind != "EndpointBalance"] == [
            "BandSumViolation: handle A middle label 5 is not 2 + 2",
            "GcdViolation: handle A outer labels 2, 2 are not coprime",
        ]

    def test_full_label_determinant(self):
        d = self.build([Band(1, 3, 1), Band(1, 1, 1)])
        assert "DetViolation" in kinds(validate(d))
        d = self.build([Band(1, 2, 1), Band(1, 1, 1)])
        assert "DetViolation" not in kinds(validate(d))

    def test_unlabeled_multi_band(self):
        d = self.build([Band(1, None), Band(1, 1)])
        assert "UnlabeledBand" in kinds(validate(d))

    def test_bad_multiplicity(self):
        d = self.build([Band(0, 1)])
        assert "BadMultiplicity" in kinds(validate(d))


class TestDiagramConstraints:
    def test_unknown_endpoint(self):
        d = RRDiagram(
            HandleLabel("A", (Band(1, 1),)),
            HandleLabel("B", (Band(1, 1),)),
            arcs=(Arc(Endpoint("A", 0, "+"), Endpoint("A", 5, "-"), 1),),
        )
        assert "UnknownEndpoint" in kinds(validate(d))

    def test_endpoint_balance(self):
        d = RRDiagram(
            HandleLabel("A", (Band(2, 1),)),
            HandleLabel("B", (Band(1, 1),)),
            arcs=(
                Arc(Endpoint("A", 0, "+"), Endpoint("A", 0, "-"), 1),
                Arc(Endpoint("B", 0, "+"), Endpoint("B", 0, "-"), 1),
            ),
        )
        assert "EndpointBalance" in kinds(validate(d))

    def test_open_curve(self):
        d = build_canonical(CanonicalParams.fig1a())
        d.curves = dict(d.curves)
        d.curves["alpha"] = (TraverseStep("A", 0, 1), ArcStep(1, 1))
        assert "OpenCurve" in kinds(validate(d))

    def test_unknown_step(self):
        d = build_canonical(CanonicalParams.fig1a())
        d.curves = dict(d.curves)
        d.curves["alpha"] = (TraverseStep("A", 7, 1),)
        assert "UnknownStep" in kinds(validate(d))

    def test_empty_curve(self):
        d = build_canonical(CanonicalParams.fig1a())
        d.curves = dict(d.curves)
        d.curves["alpha"] = ()
        assert "EmptyCurve" in kinds(validate(d))

    def test_slot_usage(self):
        d = build_canonical(CanonicalParams.fig1a())
        d.curves = dict(d.curves)
        # beta walks its band but nobody uses arc 0 or band A.
        del d.curves["alpha"]
        assert "SlotUsage" in kinds(validate(d))


class TestCanonicalParams:
    def test_fig1a_takes_no_params(self):
        with pytest.raises(InvalidParamsError):
            CanonicalParams("fig1a", p=3).validated()

    @pytest.mark.parametrize("p, q", [(0, 1), (4, 2), (6, 3)])
    def test_fig2a_invalid(self, p, q):
        with pytest.raises(InvalidParamsError):
            CanonicalParams.fig2a(p, q).validated()

    @pytest.mark.parametrize(
        "a, b, p, eps",
        [
            (2, 2, 2, 1),    # gcd
            (2, 0, 2, 1),    # b < 1
            (1, 1, 1, 1),    # min exponent 1
            (1, 1, 2, -1),   # min exponent 1 after eps
            (1, 1, 2, 2),    # eps not a sign
            (1, 0, 2, 1),    # a + b < 2
        ],
    )
    def test_fig3a_invalid(self, a, b, p, eps):
        with pytest.raises(InvalidParamsError):
            CanonicalParams.fig3a(a, b, p, eps).validated()

    def test_unknown_variant(self):
        with pytest.raises(InvalidParamsError):
            CanonicalParams("fig9z").validated()

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda bad: build_canonical(CanonicalParams.fig2a(bad, 1)),
        lambda bad: classify(CanonicalParams.fig2a(2, bad)),
        lambda bad: build_canonical(CanonicalParams.fig3a(1, 2, bad, 1)),
        lambda bad: classify(CanonicalParams.fig3a(bad, 2, 3, 1)),
        lambda bad: alpha_word_fig3a(1, 2, 3, bad),
    ], ids=["build-fig2a-p", "classify-fig2a-q", "build-fig3a-p",
            "classify-fig3a-a", "alpha-fig3a-eps"])
    def test_non_integer_parameters(self, call, bad):
        with pytest.raises(InvalidParamsError, match=r"parameter (p|q|a|eps) must be "
                           r"an integer, got " + re.escape(repr(bad))):
            call(bad)

    @pytest.mark.parametrize("params, message", [
        (CanonicalParams("fig1a", p=3), "fig1a takes no parameters, got ['p']"),
        (CanonicalParams("fig2a", p=2.5), "fig2a needs exactly p and q, got ['p']"),
        (CanonicalParams("fig3a", a=1, b=2, p=3),
         "fig3a needs exactly a, b, p, eps, got ['a', 'b', 'p']"),
        (CanonicalParams("fig9z"),
         "unknown variant 'fig9z'; expected fig1a, fig2a, or fig3a"),
        (CanonicalParams(["fig1a"]),
         "unknown variant ['fig1a']; expected fig1a, fig2a, or fig3a"),
    ], ids=["fig1a", "fig2a", "fig3a", "fig9z", "unhashable"])
    def test_exact_messages(self, params, message):
        with pytest.raises(InvalidParamsError) as info:
            params.validated()
        assert str(info.value) == message

    def test_count_and_variant_checks_come_first(self):
        with pytest.raises(InvalidParamsError, match="fig1a takes no parameters"):
            CanonicalParams("fig1a", p=2.5).validated()
        with pytest.raises(InvalidParamsError, match="fig2a needs exactly p and q"):
            CanonicalParams("fig2a", p=2.5).validated()
        with pytest.raises(InvalidParamsError, match="unknown variant"):
            CanonicalParams("fig9z", p=2.5).validated()
        with pytest.raises(InvalidParamsError, match="fig3a parameter b must be"):
            CanonicalParams.fig3a(2, True, 2, 1).validated()


class TestBuilders:
    def test_fig1a_validates_and_traces(self):
        d = build_canonical(CanonicalParams.fig1a())
        assert validate(d) == []
        assert trace_word(d, "alpha") == CyclicWord("A")
        assert trace_word(d, "beta") == CyclicWord("B")

    @pytest.mark.parametrize("p, q", [(2, 1), (3, 1), (5, 2), (-2, 1), (1, 0), (-1, 3)])
    def test_fig2a_validates_and_traces(self, p, q):
        d = build_canonical(CanonicalParams.fig2a(p, q))
        assert validate(d) == []
        expected = CyclicWord(("A" if p > 0 else "a") * abs(p) + "B")
        assert trace_word(d, "alpha") == expected
        assert trace_word(d, "beta") == CyclicWord("B")

    def test_fig2a_crossing_counts(self):
        d = build_canonical(CanonicalParams.fig2a(2, 1))
        alpha = d.curves["alpha"]
        a_crossings = sum(
            1 for s in alpha if isinstance(s, TraverseStep) and s.handle == "A"
        )
        b_crossings = sum(
            1 for s in alpha if isinstance(s, TraverseStep) and s.handle == "B"
        )
        assert (a_crossings, b_crossings) == (1, 1)
        assert d.handle("A").bands[0].disk == 2

    @pytest.mark.parametrize("name", ["C", "a"])
    def test_unknown_handle_name_rejected(self, name):
        d = build_canonical(CanonicalParams.fig2a(2, 1))
        with pytest.raises(InvalidParamsError):
            d.handle(name)

    @pytest.mark.parametrize("a, b, p, eps", FIG3A_GRID)
    def test_fig3a_validates_and_traces(self, a, b, p, eps):
        d = build_canonical(CanonicalParams.fig3a(a, b, p, eps))
        assert validate(d) == []
        assert trace_word(d, "alpha") == alpha_word_fig3a(a, b, p, eps)
        assert trace_word(d, "beta") == CyclicWord("B")

    def test_fig3a_crossing_counts(self):
        d = build_canonical(CanonicalParams.fig3a(1, 1, 2, 1))
        alpha = d.curves["alpha"]
        b_crossings = sum(
            1 for s in alpha if isinstance(s, TraverseStep) and s.handle == "B"
        )
        assert b_crossings == 2  # s = a + b

    def test_beta_convention(self):
        # One B-handle traversal plus one inessential arc in each family.
        for params in (
            CanonicalParams.fig1a(),
            CanonicalParams.fig2a(3, 2),
            CanonicalParams.fig3a(2, 1, 2, 1),
        ):
            d = build_canonical(params)
            beta = d.curves["beta"]
            assert len(beta) == 2
            assert isinstance(beta[0], TraverseStep) and beta[0].handle == "B"
            assert isinstance(beta[1], ArcStep)


def per_pass_walk(passes, n):
    """The fig2a/fig3a alpha walk written out one pass at a time: band
    ``passes[i]`` of A, its arc to B, the band of B, and the arc back to
    the band of the next pass; ``n`` is the number of A bands."""
    alpha = []
    for band, band_next in zip(passes, passes[1:] + passes[:1]):
        alpha += (
            TraverseStep("A", band, 1), ArcStep(band, 1),
            TraverseStep("B", 0, 1), ArcStep(n + band_next, 1),
        )
    return tuple(alpha)


def floor_passes(a, b):
    """fig3a pass pattern by the floor formula: pass i, counted from 1,
    takes band 1 (multiplicity b) exactly when floor(i * b / (a + b))
    steps up."""
    n = a + b
    return [i * b // n - (i - 1) * b // n for i in range(1, n + 1)]


class TestAlphaWalk:
    """The builder's alpha walk against the walk written pass by pass."""

    @staticmethod
    def check(params, passes, n):
        walk = build_canonical(params).curves["alpha"]
        expected = per_pass_walk(passes, n)
        assert walk == expected, params
        # Equal tuples could still mix up the two step types.
        assert [step.token() for step in walk] == [step.token() for step in expected]

    @pytest.mark.parametrize("eps", [1, -1])
    def test_fig3a_every_small_coprime_pair(self, eps):
        for a in range(1, 31):
            for b in range(1, 31):
                if gcd(a, b) == 1 and a + b > 1:
                    self.check(CanonicalParams.fig3a(a, b, 3, eps), floor_passes(a, b), 2)

    @pytest.mark.parametrize("p, q", [(2, 1), (-3, 1), (1, 0), (7, -5)])
    def test_fig2a(self, p, q):
        self.check(CanonicalParams.fig2a(p, q), [0], 1)


class TestIntegerLabels:
    """Bands built by hand must carry exact integers, as JSON input must."""

    @staticmethod
    def diagram(bands_a, bands_b=(Band(1, 1),)):
        return RRDiagram(
            HandleLabel("A", bands_a),
            HandleLabel("B", bands_b),
            curves={"alpha": (TraverseStep("A", 0, 1),)},
        )

    @staticmethod
    def refused(call, message):
        with pytest.raises(InvalidParamsError) as info:
            call()
        assert str(info.value) == message

    def test_float_disk_label_in_validate(self):
        d = self.diagram((Band(1, 2.0), Band(1, 3)))
        self.refused(lambda: validate(d), "band A.0 disk label must be an integer, got 2.0")

    def test_float_disk_label_in_trace_word(self):
        d = self.diagram((Band(1, 2.5),))
        self.refused(
            lambda: trace_word(d, "alpha"),
            "band A.0 disk label must be an integer, got 2.5",
        )

    def test_float_multiplicity(self):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.handle_a = HandleLabel("A", (Band(1.5, 3, 1),))
        message = "band A.0 multiplicity must be an integer, got 1.5"
        self.refused(lambda: validate(d), message)
        self.refused(lambda: trace_word(d, "alpha"), message)

    @pytest.mark.parametrize("bands_b, message", [
        ((Band(1, 1, True),), "band B.0 longitude label must be an integer, got True"),
        ((Band("1", 1),), "band B.0 multiplicity must be an integer, got '1'"),
        ((Band(1, None), Band(1, 3.0)), "band B.1 disk label must be an integer, got 3.0"),
    ])
    def test_handle_b_and_other_labels(self, bands_b, message):
        d = self.diagram((Band(1, 2),), bands_b)
        self.refused(lambda: validate(d), message)
        self.refused(lambda: trace_word(d, "alpha"), message)

    @pytest.mark.parametrize("bad", [1.5, True], ids=repr)
    def test_arc_multiplicity(self, bad):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        first = d.arcs[0]
        d.arcs = (Arc(first.start, first.stop, bad),) + d.arcs[1:]
        message = f"arc 0 multiplicity must be an integer, got {bad!r}"
        self.refused(lambda: validate(d), message)
        self.refused(lambda: trace_word(d, "alpha"), message)

    def test_bands_are_checked_before_arcs(self):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.handle_b = HandleLabel("B", (Band(2, 1.0),))
        d.arcs = (Arc(d.arcs[0].start, d.arcs[0].stop, 1.5),) + d.arcs[1:]
        self.refused(lambda: validate(d), "band B.0 disk label must be an integer, got 1.0")

    def test_unlabeled_bands_stay_violations(self):
        d = self.diagram((Band(1, None), Band(1, 2)))
        assert "UnlabeledBand" in kinds(validate(d))

    # diagram_from_json checks in this order: multiplicity, label size,
    # disk label, longitude label.
    @pytest.mark.parametrize("band, message", [
        ({"mult": 1.5, "label": [1, 2, 3]}, "band multiplicity must be an integer, got 1.5"),
        ({"mult": 1, "label": [1.5, 2, 3]}, "band label has at most two entries, got [1.5, 2, 3]"),
        ({"mult": 1, "label": [2.0, 0.5]}, "band disk label must be an integer, got 2.0"),
        ({"mult": 1, "label": [2, 0.5]}, "band longitude label must be an integer, got 0.5"),
        ({"mult": True, "label": None}, "band multiplicity must be an integer, got True"),
    ])
    def test_json_messages(self, band, message):
        data = diagram_to_json(build_canonical(CanonicalParams.fig2a(3, 1)))
        data["handles"]["A"]["bands"] = [band]
        self.refused(lambda: diagram_from_json(data), message)


class TestTraceWord:
    def test_unknown_curve(self):
        d = build_canonical(CanonicalParams.fig1a())
        with pytest.raises(UnknownCurveError):
            trace_word(d, "gamma")

    def test_unlabeled_band(self):
        d = RRDiagram(
            HandleLabel("A", (Band(1, None),)),
            HandleLabel("B", (Band(1, 1),)),
            curves={"alpha": (TraverseStep("A", 0, 1),)},
        )
        with pytest.raises(UnlabeledBandError):
            trace_word(d, "alpha")

    def test_negative_direction_inverts(self):
        d = RRDiagram(
            HandleLabel("A", (Band(1, 2),)),
            HandleLabel("B", (Band(1, 1),)),
            curves={
                "alpha": (TraverseStep("A", 0, -1),),
                "beta": (TraverseStep("B", 0, 1),),
            },
        )
        assert trace_word(d, "alpha") == CyclicWord("aa")

    @pytest.mark.parametrize(
        "params",
        [CanonicalParams.fig1a(), CanonicalParams.fig2a(5, 2),
         CanonicalParams.fig3a(3, 2, 2, 1)],
    )
    def test_rotation_invariance(self, params):
        d = build_canonical(params)
        steps = d.curves["alpha"]
        reference = trace_word(d, "alpha")
        for k in range(1, len(steps)):
            d.curves = dict(d.curves)
            d.curves["alpha"] = steps[k:] + steps[:k]
            assert trace_word(d, "alpha") == reference

    def test_unknown_handle(self):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.curves["alpha"] = (TraverseStep("C", 0, 1),) + d.curves["alpha"][1:]
        with pytest.raises(InvalidParamsError) as info:
            trace_word(d, "alpha")
        assert str(info.value) == "curve alpha traverses missing band C.0"
        assert [str(v) for v in validate(d)] == [
            "UnknownStep: curve alpha traverses missing band C.0"
        ]

    def test_direction_other_than_one_rejected(self):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.curves = {
            curve: tuple(step._replace(direction=2 * step.direction) for step in steps)
            for curve, steps in d.curves.items()
        }
        with pytest.raises(InvalidParamsError) as info:
            trace_word(d, "alpha")
        assert str(info.value) == (
            "curve alpha steps through band A.0 in direction 2, not 1 or -1"
        )
        assert [str(v) for v in validate(d)] == [
            f"UnknownStep: curve {curve} steps through {where} in direction 2, "
            "not 1 or -1"
            for curve, where in [
                ("alpha", "band A.0"), ("alpha", "arc 0"), ("alpha", "band B.0"),
                ("alpha", "arc 1"), ("beta", "band B.0"), ("beta", "arc 2"),
            ]
        ]

    @staticmethod
    def fig2a_unlabeled_with(extra, first):
        """fig2a(3, 1) with band A.0 unlabeled and ``extra`` steps put
        before (``first``) or after the walk."""
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.handle_a = HandleLabel("A", (Band(1, None),))
        walk = d.curves["alpha"]
        d.curves["alpha"] = extra + walk if first else walk + extra
        return d

    def test_first_bad_step_in_walk_order_raises(self):
        d = self.fig2a_unlabeled_with((ArcStep(99, 1),), first=True)
        with pytest.raises(InvalidParamsError) as info:
            trace_word(d, "alpha")
        assert str(info.value) == "curve alpha uses missing arc 99"
        d = self.fig2a_unlabeled_with((ArcStep(99, 1),), first=False)
        with pytest.raises(UnlabeledBandError) as info:
            trace_word(d, "alpha")
        assert str(info.value) == "band A.0 has no disk label"

    def test_each_occurrence_of_a_bad_step_is_listed(self):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        walk = d.curves["alpha"]
        d.curves["alpha"] = (
            ArcStep(99, 1), *walk, TraverseStep("A", 5, -1), ArcStep(99, 1)
        )
        assert [str(v) for v in validate(d)] == [
            "UnknownStep: curve alpha uses missing arc 99",
            "UnknownStep: curve alpha traverses missing band A.5",
            "UnknownStep: curve alpha uses missing arc 99",
        ]

    def test_budget_is_checked_before_letters_are_written(self):
        # Writing the run first would ask for 10**12 letters.
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.handle_a = HandleLabel("A", (Band(1, 10**12, 1),))
        with pytest.raises(BudgetExceededError):
            trace_word(d, "alpha")

    @pytest.mark.parametrize("step", [TraverseStep("A", 0, 0), ArcStep(0, -3)])
    def test_trace_and_validate_share_the_direction_message(self, step):
        d = build_canonical(CanonicalParams.fig1a())
        d.curves["alpha"] = d.curves["alpha"] + (step,)
        with pytest.raises(InvalidParamsError) as info:
            trace_word(d, "alpha")
        assert f"UnknownStep: {info.value}" in [str(v) for v in validate(d)]


class TestAlphaWordFig3a:
    def test_minimal_instance(self):
        assert alpha_word_fig3a(1, 1, 2, 1) == CyclicWord("AABAAAB")

    def test_sturmian_arrangement(self):
        expected = CyclicWord("AAB" + "AAB" + "AAAB" + "AAB" + "AAAB")
        assert alpha_word_fig3a(3, 2, 2, 1) == expected

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            alpha_word_fig3a(2, 0, 2, 1)

    @pytest.mark.parametrize("a, b, p, eps", FIG3A_GRID)
    def test_exponent_multiset(self, a, b, p, eps):
        sylls = alpha_word_fig3a(a, b, p, eps).syllables()
        exponents = [e for gen, e in sylls if gen == "A"]
        b_exponents = [e for gen, e in sylls if gen == "B"]
        assert sorted(exponents) == sorted([p] * a + [p + eps] * b)
        assert b_exponents == [1] * (a + b)

    @pytest.mark.parametrize("a, b, p, eps", FIG3A_GRID)
    def test_abelianization(self, a, b, p, eps):
        w = alpha_word_fig3a(a, b, p, eps)
        assert w.abelianization() == (a * p + b * (p + eps), a + b)

    @pytest.mark.parametrize("a, b, p, eps", FIG3A_GRID)
    def test_primitive(self, a, b, p, eps):
        assert is_primitive(alpha_word_fig3a(a, b, p, eps))

    @pytest.mark.parametrize("a, b, p, eps", FIG3A_GRID)
    def test_balanced_runs(self, a, b, p, eps):
        # Balance: all occurrences of the rarer exponent are spread out,
        # so consecutive equal-exponent runs differ in length by <= 1.
        exponents = [e for gen, e in alpha_word_fig3a(a, b, p, eps).syllables()
                     if gen == "A"]
        doubled = exponents + exponents
        runs = []
        count = 0
        for value in doubled:
            if value == p:
                count += 1
            elif count:
                runs.append(count)
                count = 0
        inner = runs[1:-1] if len(runs) > 2 else runs
        if inner and b > 1:
            assert max(inner) - min(inner) <= 1

    def test_least_rotation_closed_form(self):
        """The closed form is the least rotation of the Christoffel word's
        syllable image, as the general rotation finds it."""
        count = 0
        for n in range(2, 21):
            for a in (a for a in range(1, n) if gcd(a, n) == 1):
                for p in range(2, 10):
                    for eps in (e for e in (1, -1) if p + e > 1):
                        syllables = {ord("A"): "A" * p + "B",
                                     ord("B"): "A" * (p + eps) + "B"}
                        image = _christoffel(a, n - a).translate(syllables)
                        got = alpha_word_fig3a(a, n - a, p, eps).letters
                        assert got == _canonical_rotation(image), (a, n - a, p, eps)
                        count += 1
        assert count == 1905

    def test_no_rotation_is_computed(self):
        with mock.patch(
            "genus2pairs.words._canonical_rotation", wraps=_canonical_rotation
        ) as spy:
            for a, b, p, eps in FIG3A_GRID:
                alpha_word_fig3a(a, b, p, eps)
        assert spy.call_count == 0


class TestJson:
    @pytest.mark.parametrize(
        "params",
        [CanonicalParams.fig1a(), CanonicalParams.fig2a(5, 2),
         CanonicalParams.fig3a(2, 3, 3, -1)],
    )
    def test_round_trip(self, params):
        d = build_canonical(params)
        data = diagram_to_json(d)
        rebuilt = diagram_from_json(data)
        assert diagram_to_json(rebuilt) == data
        assert trace_word(rebuilt, "alpha") == trace_word(d, "alpha")
        assert validate(rebuilt) == []

    def test_label_null_round_trip(self):
        d = RRDiagram(
            HandleLabel("A", (Band(1, None),)),
            HandleLabel("B", (Band(1, 1),)),
        )
        rebuilt = diagram_from_json(diagram_to_json(d))
        assert rebuilt.handle("A").bands[0].disk is None

    @pytest.mark.parametrize(
        "data",
        [
            {},
            {"handles": {"A": {"bands": []}}},
            {"handles": {"A": {"bands": [{"label": [1, 0]}]}, "B": {"bands": []}}},
        ],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(InvalidParamsError):
            diagram_from_json(data)

    # One misspelled key at each level of the format: (object path, key, misspelling).
    @pytest.mark.parametrize("path, key, typo, message", [
        ((), "curves", "curve",
         "diagram has unknown key 'curve'; expected ('handles', 'arcs', 'curves')"),
        (("handles",), "B", "C", "handles has unknown key 'C'; expected ('A', 'B')"),
        (("handles", "A"), "bands", "band", "handle A has unknown key 'band'; expected ('bands',)"),
        (("handles", "B", "bands", 0), "label", "lable",
         "band B.0 has unknown key 'lable'; expected ('mult', 'label')"),
        (("arcs", 1), "mult", "multiplicity",
         "arc 1 has unknown key 'multiplicity'; expected ('from', 'to', 'mult')"),
    ], ids=["diagram", "handles", "handle", "band", "arc"])
    def test_unknown_keys_refused(self, path, key, typo, message):
        data = diagram_to_json(build_canonical(CanonicalParams.fig2a(5, 2)))
        target = data
        for step in path:
            target = target[step]
        target[typo] = target.pop(key)
        with pytest.raises(InvalidParamsError) as info:
            diagram_from_json(data)
        assert str(info.value) == message

    def test_curve_names_are_free(self):
        d = build_canonical(CanonicalParams.fig2a(5, 2))
        data = diagram_to_json(d)
        data["curves"]["gamma"] = data["curves"].pop("alpha")
        assert trace_word(diagram_from_json(data), "gamma") == trace_word(d, "alpha")

    @pytest.mark.parametrize("data", [5, [], "alpha", None], ids=repr)
    def test_non_objects_refused(self, data):
        with pytest.raises(InvalidParamsError) as info:
            diagram_from_json(data)
        assert str(info.value) == "expected a JSON object"

    # Exact builder output, arc order and step tokens included.
    PINNED = [
        (CanonicalParams.fig2a(5, 2), {
            "handles": {"A": {"bands": [{"mult": 1, "label": [5, 2]}]},
                        "B": {"bands": [{"mult": 2, "label": [1, None]}]}},
            "arcs": [{"from": "A.0.+", "to": "B.0.-", "mult": 1},
                     {"from": "B.0.+", "to": "A.0.-", "mult": 1},
                     {"from": "B.0.+", "to": "B.0.-", "mult": 1}],
            "curves": {"alpha": ["A.0.+", "arc:0.+", "B.0.+", "arc:1.+"],
                       "beta": ["B.0.+", "arc:2.+"]},
        }),
        (CanonicalParams.fig2a(-3, 1), {
            "handles": {"A": {"bands": [{"mult": 1, "label": [-3, 1]}]},
                        "B": {"bands": [{"mult": 2, "label": [1, None]}]}},
            "arcs": [{"from": "A.0.+", "to": "B.0.-", "mult": 1},
                     {"from": "B.0.+", "to": "A.0.-", "mult": 1},
                     {"from": "B.0.+", "to": "B.0.-", "mult": 1}],
            "curves": {"alpha": ["A.0.+", "arc:0.+", "B.0.+", "arc:1.+"],
                       "beta": ["B.0.+", "arc:2.+"]},
        }),
        (CanonicalParams.fig3a(3, 2, 2, 1), {
            "handles": {"A": {"bands": [{"mult": 3, "label": [2, -1]},
                                        {"mult": 2, "label": [3, -1]}]},
                        "B": {"bands": [{"mult": 6, "label": [1, None]}]}},
            "arcs": [{"from": "A.0.+", "to": "B.0.-", "mult": 3},
                     {"from": "A.1.+", "to": "B.0.-", "mult": 2},
                     {"from": "B.0.+", "to": "A.0.-", "mult": 3},
                     {"from": "B.0.+", "to": "A.1.-", "mult": 2},
                     {"from": "B.0.+", "to": "B.0.-", "mult": 1}],
            "curves": {
                "alpha": ["A.0.+", "arc:0.+", "B.0.+", "arc:2.+",
                          "A.0.+", "arc:0.+", "B.0.+", "arc:3.+",
                          "A.1.+", "arc:1.+", "B.0.+", "arc:2.+",
                          "A.0.+", "arc:0.+", "B.0.+", "arc:3.+",
                          "A.1.+", "arc:1.+", "B.0.+", "arc:2.+"],
                "beta": ["B.0.+", "arc:4.+"],
            },
        }),
    ]

    @pytest.mark.parametrize("params, expected", PINNED)
    def test_pinned_builder_output(self, params, expected):
        assert diagram_to_json(build_canonical(params)) == expected

    def test_deterministic_serialization(self):
        d1 = build_canonical(CanonicalParams.fig3a(3, 2, 2, 1))
        d2 = build_canonical(CanonicalParams.fig3a(3, 2, 2, 1))
        assert diagram_to_json(d1) == diagram_to_json(d2)


def _fig1a_with(**curves):
    d = build_canonical(CanonicalParams.fig1a())
    d.curves = {**d.curves, **curves}
    return d


def _fig3a_broken():
    # fig3a(3, 2, 2, 1) with two return arcs swapped and one B traversal reversed.
    d = build_canonical(CanonicalParams.fig3a(3, 2, 2, 1))
    steps = list(d.curves["alpha"])
    steps[3], steps[7] = steps[7], steps[3]
    steps[6] = TraverseStep("B", 0, -1)
    d.curves = {**d.curves, "alpha": tuple(steps)}
    return d


class TestSlotTable:
    """A step or endpoint names a band or arc only by a key in the slot
    table: a negative index names nothing, as an out-of-range one does."""

    def test_negative_step_indices(self):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.curves["alpha"] = (
            TraverseStep("A", -1, 1), ArcStep(-4, 1), *d.curves["alpha"][2:]
        )
        assert [str(v) for v in validate(d)] == [
            "UnknownStep: curve alpha traverses missing band A.-1",
            "UnknownStep: curve alpha uses missing arc -4",
        ]
        with pytest.raises(InvalidParamsError) as info:
            trace_word(d, "alpha")
        assert str(info.value) == "curve alpha traverses missing band A.-1"

    @pytest.mark.parametrize("step, message", [
        (TraverseStep("A", -1, 1), "curve alpha traverses missing band A.-1"),
        (ArcStep(-1, 1), "curve alpha uses missing arc -1"),
        (TraverseStep("B", -1, -1), "curve alpha traverses missing band B.-1"),
    ])
    def test_trace_word_refuses_negative_indices(self, step, message):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.curves["alpha"] = (step,)
        with pytest.raises(InvalidParamsError) as info:
            trace_word(d, "alpha")
        assert str(info.value) == message

    def test_negative_endpoint_index(self):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.arcs = (Arc(Endpoint("A", -1, "+"), d.arcs[0].stop, 1),) + d.arcs[1:]
        assert [str(v) for v in validate(d)] == [
            "UnknownEndpoint: arc 0 touches missing band A.-1.+",
            "OpenCurve: curve alpha breaks between step 0 (exits A.0.+) and "
            "step 1 (enters A.-1.+)",
        ]

    @pytest.mark.parametrize("step, message", [
        (TraverseStep("A", "0", 1), "index of step TraverseStep(handle='A', "
         "band='0', direction=1) must be an integer, got '0'"),
        (TraverseStep("A", 0.0, 1), "index of step TraverseStep(handle='A', "
         "band=0.0, direction=1) must be an integer, got 0.0"),
        (ArcStep(0.0, 1), "index of step ArcStep(arc=0.0, direction=1) must be "
         "an integer, got 0.0"),
        (TraverseStep("A", 0, 1.0), "direction of step TraverseStep(handle='A', "
         "band=0, direction=1.0) must be an integer, got 1.0"),
        (TraverseStep("A", 0, True), "direction of step TraverseStep(handle='A', "
         "band=0, direction=True) must be an integer, got True"),
        (ArcStep(0, "+"), "direction of step ArcStep(arc=0, direction='+') must "
         "be an integer, got '+'"),
    ])
    def test_non_integer_step_fields(self, step, message):
        """A step names its slot by exact integers: 0.0 and "0" are not
        band 0, and True is not direction 1."""
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.curves["alpha"] = (step, *d.curves["alpha"][1:])
        for read in (validate, lambda d: trace_word(d, "alpha")):
            with pytest.raises(InvalidParamsError) as info:
                read(d)
            assert str(info.value) == message

    @pytest.mark.parametrize("names, message", [
        (("Q", "B"), "handle_a is named 'Q', not 'A'"),
        (("B", "A"), "handle_a is named 'B', not 'A'"),
        (("A", "A"), "handle_b is named 'A', not 'B'"),
    ])
    def test_handle_names(self, names, message):
        """Each handle label carries its own slot's name, or the diagram
        is refused before any band is reported under the wrong name."""
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.handle_a = HandleLabel(names[0], d.handle_a.bands)
        d.handle_b = HandleLabel(names[1], d.handle_b.bands)
        for read in (validate, lambda d: trace_word(d, "alpha")):
            with pytest.raises(InvalidParamsError) as info:
                read(d)
            assert str(info.value) == message

    def test_non_integer_index_after_a_missing_arc(self):
        # trace_word raises for the first bad step in walk order; validate
        # raises for the non-integer wherever it is.
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.curves["alpha"] = (ArcStep(99, 1), TraverseStep("A", "0", 1))
        with pytest.raises(InvalidParamsError) as info:
            trace_word(d, "alpha")
        assert str(info.value) == "curve alpha uses missing arc 99"
        with pytest.raises(InvalidParamsError, match="index of step TraverseStep"):
            validate(d)
        d.curves["alpha"] = d.curves["alpha"][::-1]
        with pytest.raises(InvalidParamsError, match="index of step TraverseStep"):
            trace_word(d, "alpha")

    @pytest.mark.parametrize("band", ["0", 0.0, None])
    def test_non_integer_endpoint_index(self, band):
        d = build_canonical(CanonicalParams.fig2a(3, 1))
        d.arcs = (d.arcs[0], Arc(d.arcs[1].start, Endpoint("A", band, "-"), 1),
                  *d.arcs[2:])
        message = f"arc 1 endpoint band index must be an integer, got {band!r}"
        for read in (validate, lambda d: trace_word(d, "alpha")):
            with pytest.raises(InvalidParamsError) as info:
                read(d)
            assert str(info.value) == message


class TestViolationMessages:
    """Exact ``validate`` output, in order, for diagrams that break the walk."""

    def test_open_curve(self):
        d = _fig1a_with(alpha=(TraverseStep("A", 0, 1), ArcStep(1, 1)))
        assert [str(v) for v in validate(d)] == [
            "OpenCurve: curve alpha breaks between step 0 (exits A.0.+) and "
            "step 1 (enters B.0.+)",
            "OpenCurve: curve alpha breaks between step 1 (exits B.0.-) and "
            "step 0 (enters A.0.-)",
            "SlotUsage: arc 0 has multiplicity 1 but is used 0 times",
            "SlotUsage: arc 1 has multiplicity 1 but is used 2 times",
        ]

    def test_open_curve_fig3a(self):
        assert [str(v) for v in validate(_fig3a_broken())] == [
            "OpenCurve: curve alpha breaks between step 3 (exits A.1.-) and "
            "step 4 (enters A.0.-)",
            "OpenCurve: curve alpha breaks between step 5 (exits B.0.-) and "
            "step 6 (enters B.0.+)",
            "OpenCurve: curve alpha breaks between step 6 (exits B.0.-) and "
            "step 7 (enters B.0.+)",
            "OpenCurve: curve alpha breaks between step 7 (exits A.0.-) and "
            "step 8 (enters A.1.-)",
        ]

    def test_unknown_band(self):
        d = _fig1a_with(
            alpha=(TraverseStep("A", 7, 1), ArcStep(0, 1), TraverseStep("B", 3, -1))
        )
        assert [str(v) for v in validate(d)] == [
            "UnknownStep: curve alpha traverses missing band A.7",
            "UnknownStep: curve alpha traverses missing band B.3",
        ]

    def test_unknown_arc(self):
        d = _fig1a_with(alpha=(TraverseStep("A", 0, 1), ArcStep(9, -1)))
        assert [str(v) for v in validate(d)] == [
            "UnknownStep: curve alpha uses missing arc 9",
        ]

    def test_unknown_step_then_open_curve(self):
        d = _fig1a_with(
            alpha=(TraverseStep("A", 0, 1), ArcStep(2, 1), TraverseStep("A", 1, -1)),
            beta=(TraverseStep("B", 0, 1), ArcStep(0, -1)),
        )
        assert [str(v) for v in validate(d)] == [
            "UnknownStep: curve alpha uses missing arc 2",
            "UnknownStep: curve alpha traverses missing band A.1",
            "OpenCurve: curve beta breaks between step 0 (exits B.0.+) and "
            "step 1 (enters A.0.-)",
            "OpenCurve: curve beta breaks between step 1 (exits A.0.+) and "
            "step 0 (enters B.0.-)",
        ]

    def test_endpoint_balance(self):
        d = RRDiagram(
            HandleLabel("A", (Band(2, 1),)),
            HandleLabel("B", (Band(1, 1),)),
            arcs=(
                Arc(Endpoint("A", 0, "+"), Endpoint("A", 0, "-"), 1),
                Arc(Endpoint("B", 0, "+"), Endpoint("B", 0, "-"), 1),
            ),
        )
        assert [str(v) for v in validate(d)] == [
            "EndpointBalance: band end A.0.+ carries 1 arc strands but the "
            "band has multiplicity 2",
            "EndpointBalance: band end A.0.- carries 1 arc strands but the "
            "band has multiplicity 2",
        ]

    def test_unknown_endpoint(self):
        d = build_canonical(CanonicalParams.fig1a())
        d.arcs = d.arcs + (Arc(Endpoint("A", 5, "-"), Endpoint("B", 0, "+"), 1),)
        assert [str(v) for v in validate(d)] == [
            "UnknownEndpoint: arc 2 touches missing band A.5.-",
            "SlotUsage: arc 2 has multiplicity 1 but is used 0 times",
        ]

    def test_unknown_handle_endpoint(self):
        d = build_canonical(CanonicalParams.fig1a())
        d.arcs = (Arc(Endpoint("C", 0, "+"), Endpoint("A", 0, "-"), 1),) + d.arcs[1:]
        assert [str(v) for v in validate(d)] == [
            "UnknownEndpoint: arc 0 touches missing band C.0.+",
            "OpenCurve: curve alpha breaks between step 0 (exits A.0.+) and "
            "step 1 (enters C.0.+)",
        ]

    def test_arc_bad_multiplicity(self):
        d = build_canonical(CanonicalParams.fig1a())
        d.arcs = (Arc(d.arcs[0].start, d.arcs[0].stop, 0),) + d.arcs[1:]
        assert [str(v) for v in validate(d)] == [
            "BadMultiplicity: arc 0 has multiplicity 0",
            "EndpointBalance: band end A.0.+ carries 0 arc strands but the "
            "band has multiplicity 1",
            "EndpointBalance: band end A.0.- carries 0 arc strands but the "
            "band has multiplicity 1",
            "SlotUsage: arc 0 has multiplicity 0 but is used 1 times",
        ]

    def test_slot_usage(self):
        d = build_canonical(CanonicalParams.fig1a())
        d.curves = {"beta": d.curves["beta"]}
        assert [str(v) for v in validate(d)] == [
            "SlotUsage: band A.0 has multiplicity 1 but is traversed 0 times",
            "SlotUsage: arc 0 has multiplicity 1 but is used 0 times",
        ]
