import io
import json
import sys

import pytest

from genus2pairs.cli import main


def invoke(*args, stdin=None):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    code = 0
    try:
        main(list(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    finally:
        sys.stdout, sys.stderr, sys.stdin = old_out, old_err, old_in
    return code, out.getvalue(), err.getvalue()


class TestWordCommands:
    def test_reduce(self):
        assert invoke("word", "reduce", "A^2 B A^-1") == (0, "AABa\n", "")

    def test_reduce_to_identity(self):
        assert invoke("word", "reduce", "Aa")[1] == "1\n"

    def test_invert(self):
        assert invoke("word", "invert", "AAB")[1] == "baa\n"

    def test_mul(self):
        assert invoke("word", "mul", "AB", "ba")[1] == "1\n"
        assert invoke("word", "mul", "A", "B", "ab")[1] == "ABab\n"

    def test_abelianize(self):
        assert invoke("word", "abelianize", "AABAAAB")[1] == "5 2\n"


class TestPrimCommands:
    def test_primitive_exit_zero(self):
        assert invoke("prim", "check", "AABAAAB") == (0, "primitive\n", "")

    def test_proper_power_exit_one(self):
        assert invoke("prim", "check", "AABAAB") == (1, "proper-power 2 of AAB\n", "")

    def test_neither_exit_two(self):
        assert invoke("prim", "check", "ABab") == (2, "neither\n", "")

    def test_basis(self):
        assert invoke("prim", "basis", "AB", "B") == (0, "basis\n", "")
        assert invoke("prim", "basis", "ABab", "B") == (1, "not-basis\n", "")


class TestRRCommands:
    def test_build_trace_validate_pipeline(self):
        code, built, err = invoke("rr", "build", "--variant", "fig2a",
                                  "--p", "3", "--q", "1")
        assert code == 0, err
        assert json.loads(built)["handles"]["A"]["bands"][0]["label"] == [3, 1]
        assert invoke("rr", "trace", "-", "alpha", stdin=built) == (0, "AAAB\n", "")
        assert invoke("rr", "trace", "-", "beta", stdin=built)[1] == "B\n"
        assert invoke("rr", "validate", "-", stdin=built) == (0, "ok\n", "")

    def test_fig1a_traces(self):
        _, built, _ = invoke("rr", "build", "--variant", "fig1a")
        assert invoke("rr", "trace", "-", "beta", stdin=built)[1] == "B\n"
        assert invoke("rr", "trace", "-", "alpha", stdin=built)[1] == "A\n"

    def test_build_to_file(self, tmp_path):
        out_file = tmp_path / "d.json"
        code, out, _ = invoke("rr", "build", "--variant", "fig1a",
                              "--out", str(out_file))
        assert code == 0 and out == ""
        data = json.loads(out_file.read_text())
        assert data["curves"]["beta"] == ["B.0.+", "arc:1.+"]

    def test_validate_reports_violations(self):
        bad = {
            "handles": {
                "A": {"bands": [{"mult": 1, "label": [2, None]},
                                 {"mult": 1, "label": [4, None]}]},
                "B": {"bands": [{"mult": 1, "label": [1, None]}]},
            },
            "arcs": [],
            "curves": {},
        }
        code, out, _ = invoke("rr", "validate", "-", stdin=json.dumps(bad))
        assert code == 1
        assert any(line.startswith("GcdViolation:") for line in out.splitlines())

    def test_trace_unknown_curve_is_domain_error(self):
        _, built, _ = invoke("rr", "build", "--variant", "fig1a")
        code, _, err = invoke("rr", "trace", "-", "gamma", stdin=built)
        assert code == 65
        assert err.startswith("UnknownCurve:")


class TestClassifyCommands:
    def test_fig2a_json(self):
        code, out, _ = invoke("classify", "--variant", "fig2a",
                              "--p", "2", "--q", "1")
        assert code == 0
        data = json.loads(out)
        assert data["type_I"] is True and data["type_II"] is True
        assert data["separated"] is False

    def test_fig1a_json(self):
        _, out, _ = invoke("classify", "--variant", "fig1a")
        data = json.loads(out)
        assert data["separated"] is True
        assert data["separating_word"] == "ABab"

    def test_power_separated(self):
        assert invoke("classify", "power", "A", "B^2") == (0, "separated\n", "")

    def test_power_annulus(self):
        assert invoke("classify", "power", "B^2", "B^-2") == (0, "annulus\n", "")

    def test_missing_variant_is_usage_error(self):
        code, _, err = invoke("classify")
        assert code == 64
        assert "variant" in err


class TestGraphCommands:
    GOOD = json.dumps(
        {"alpha": {"A+A-": 3, "A+B-": 2, "A-B+": 2}, "beta": {"B+B-": 1}}
    )

    def test_check_report(self):
        code, out, _ = invoke("graph", "check", "-", stdin=self.GOOD)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "parity: ok"
        assert lines[1] == "alpha: connected=yes cut-vertices=A+,A-"
        assert lines[2] == "beta: connected=yes cut-vertices=none"
        assert lines[3] == "fig5c: c=3 s=2"
        assert lines[4] == "minimality: ok"

    def test_check_broken_parity_still_reports(self):
        bad = json.dumps({"alpha": {"A+B-": 1}, "beta": {"B+B-": 1}})
        code, out, _ = invoke("graph", "check", "-", stdin=bad)
        assert code == 0
        assert "deg(A+) = 1 but deg(A-) = 0" in out
        assert "minimality: skipped (parity violation)" in out

    def test_check_reduction_witness(self):
        g = json.dumps({"alpha": {"A+B-": 1, "A-B+": 1}, "beta": {"B+B-": 1}})
        _, out, _ = invoke("graph", "check", "-", stdin=g)
        assert "minimality: BandsumReducesB" in out
        assert "fig5c: no-match" in out

    def test_dot(self):
        code, out, _ = invoke("graph", "dot", "-", stdin=self.GOOD)
        assert code == 0
        assert out.startswith("graph curve_pair {")
        assert '"B+" -- "B-" [label="beta:1", style=dashed];' in out


class TestOracleCommand:
    def test_sorted_listing(self):
        code, out, _ = invoke("oracle", "primitives", "--max-len", "2")
        assert code == 0
        assert out.splitlines() == ["A", "a", "B", "b", "AB", "Ab", "aB", "ab"]

    def test_budget_guard(self):
        code, _, err = invoke("oracle", "primitives", "--max-len", "50")
        assert code == 65
        assert err.startswith("BudgetExceeded:")


class TestExitProtocol:
    @pytest.mark.parametrize(
        "args",
        [
            ("prim", "check"),
            ("word", "frobnicate", "A"),
            ("rr", "build"),
            ("rr", "build", "--variant", "fig8"),
            ("rr", "build", "--variant", "fig2a", "--p", "x", "--q", "1"),
            ("no-such-command",),
        ],
    )
    def test_usage_errors_exit_64(self, args):
        code, _, err = invoke(*args)
        assert code == 64
        assert err

    @pytest.mark.parametrize(
        "args, name",
        [
            (("word", "reduce", "AXB"), "InvalidWord"),
            (("rr", "build", "--variant", "fig2a", "--p", "4", "--q", "2"),
             "InvalidParams"),
            (("rr", "build", "--variant", "fig1a", "--p", "3"), "InvalidParams"),
            (("rr", "build", "--variant", "fig3a", "--a", "2", "--b", "1",
              "--p", "1", "--eps", "1"), "InvalidParams"),
            (("classify", "power", "A", "AB"), "BetaNotProperPower"),
            (("rr", "build", "--variant", "fig2a", "--p", "3"), "InvalidParams"),
            (("classify", "--variant", "fig2a", "--p", "3", "--q", "1",
              "--a", "1"), "InvalidParams"),
            (("classify", "--variant", "fig3a", "--a", "2", "--b", "1",
              "--p", "3", "--eps", "1", "--q", "1"), "InvalidParams"),
            (("word", "reduce", "A^99999999999"), "BudgetExceeded"),
        ],
    )
    def test_domain_errors_exit_65(self, args, name):
        code, _, err = invoke(*args)
        assert code == 65
        assert err.startswith(name + ":")

    def test_malformed_json_stdin(self):
        code, _, err = invoke("graph", "check", "-", stdin="{broken")
        assert code == 65
        assert err.startswith("InvalidParams:")

    @pytest.mark.parametrize(
        "graph",
        [
            {"alpha": {"A+A-": "x"}},
            {"alpha": {"A+A-": 1.5}},
            {"alpha": {"A+A-": True}},
            {"alpha": [["A+", "A-"]]},
            {"A+A-": 1.5},
        ],
    )
    def test_malformed_graph_json(self, graph):
        code, out, err = invoke("graph", "check", "-", stdin=json.dumps(graph))
        assert (code, out) == (65, "")
        assert err.startswith("InvalidParams:")

    @pytest.mark.parametrize(
        "path, value",
        [
            (("handles", "A", "bands", 0, "mult"), "2"),
            (("handles", "A", "bands", 0, "mult"), 2.0),
            (("handles", "A", "bands", 0, "mult"), True),
            (("handles", "A", "bands", 0, "label"), ["3", 1]),
            (("arcs", 0, "mult"), 1.0),
            (("curves",), ["A.0.+"]),
            (("handles", "A", "bands", 0, "label"), [3, 1, 7]),
            (("arcs", 0, "from"), "A.-1.+"),
        ],
    )
    def test_malformed_diagram_json(self, path, value):
        _, built, _ = invoke("rr", "build", "--variant", "fig2a",
                             "--p", "3", "--q", "1")
        data = json.loads(built)
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        code, out, err = invoke("rr", "validate", "-", stdin=json.dumps(data))
        assert (code, out) == (65, "")
        assert err.startswith("InvalidParams:")

    def test_trace_missing_arc(self):
        _, built, _ = invoke("rr", "build", "--variant", "fig2a",
                             "--p", "3", "--q", "1")
        data = json.loads(built)
        data["curves"]["alpha"] = ["arc:99.+"]
        code, out, err = invoke("rr", "trace", "-", "alpha", stdin=json.dumps(data))
        assert (code, out) == (65, "")
        assert err.startswith("InvalidParams:")


    @pytest.mark.parametrize("command", ["trace", "validate"])
    @pytest.mark.parametrize(
        "curve, tokens",
        [
            ("beta", ["B.-1.+", "arc:2.+"]),
            ("alpha", ["A.0.+", "arc:-3.+", "B.0.+", "arc:-2.+"]),
        ],
    )
    def test_negative_indices_exit_65(self, command, curve, tokens):
        # Negative indices would count from the end of the band or arc list.
        _, built, _ = invoke("rr", "build", "--variant", "fig2a",
                             "--p", "3", "--q", "1")
        data = json.loads(built)
        data["curves"][curve] = tokens
        args = ("trace", "-", curve) if command == "trace" else ("validate", "-")
        code, out, err = invoke("rr", *args, stdin=json.dumps(data))
        assert (code, out) == (65, "")
        assert err.startswith("InvalidParams:")


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("classify", "--variant", "fig3a", "--a", "3", "--b", "2",
             "--p", "2", "--eps", "1"),
            ("rr", "build", "--variant", "fig3a", "--a", "3", "--b", "2",
             "--p", "2", "--eps", "1"),
            ("oracle", "primitives", "--max-len", "5"),
        ],
    )
    def test_byte_identical_across_runs(self, args):
        assert invoke(*args) == invoke(*args)
