import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import genus2pairs
from genus2pairs import words
from genus2pairs.cli import main
from genus2pairs.rr_diagram import CanonicalParams, build_canonical, diagram_to_json


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


def run_module(*args, argv0=None):
    """Run ``python -m genus2pairs.cli`` (or, with argv0, a console script)."""
    src = str(Path(genus2pairs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if argv0 is None:
        command = [sys.executable, "-m", "genus2pairs.cli", *args]
    else:
        script = f"import sys; sys.argv[0] = {argv0!r}; from genus2pairs.cli import main; main()"
        command = [sys.executable, "-c", script, *args]
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)


# Every --help screen, as `$ <command>` followed by its stdout.
_TRANSCRIPT = (Path(__file__).parent / "cli_help.txt").read_text()
HELP_SCREENS = dict(zip(*[iter(re.split(r"^\$ (.*)\n", _TRANSCRIPT, flags=re.M)[1:])] * 2))


class TestGolden:
    """Byte-identical stdout of the help screens and of the README calls."""

    def test_transcript_has_every_screen(self):
        # The root, 6 groups and 13 commands.
        assert len(HELP_SCREENS) == 20

    @pytest.mark.parametrize("command", sorted(HELP_SCREENS))
    def test_help_screen(self, command):
        args = command.split()[3:]
        result = run_module(*args)
        assert (result.returncode, result.stdout, result.stderr) == (
            0, HELP_SCREENS[command], "")

    def test_console_script_name(self):
        result = run_module("--help", argv0="/usr/local/bin/genus2pairs")
        expected = HELP_SCREENS["python -m genus2pairs.cli --help"]
        assert result.returncode == 0
        assert result.stdout == expected.replace("python -m genus2pairs.cli", "genus2pairs")

    FIG2A = ("--variant", "fig2a", "--p", "5", "--q", "2")
    README_CALLS = [
        (("word", "reduce", "A^2 B A^-1"), 0, "AABa\n"),
        (("prim", "check", "AABAAAB"), 0, "primitive\n"),
        (("prim", "check", "AABAAB"), 1, "proper-power 2 of AAB\n"),
        (("prim", "basis", "AB", "B"), 0, "basis\n"),
        (("prim", "basis", "AB", "BA"), 1, "not-basis\n"),
        (("rr", "build", *FIG2A, "--out", "d.json"), 0, ""),
        (("rr", "trace", "d.json", "alpha"), 0, "AAAAAB\n"),
        (("rr", "validate", "d.json"), 0, "ok\n"),
        (("classify", *FIG2A), 0,
         '{\n  "type_I": true,\n  "type_II": false,\n  "separated": false,\n'
         '  "structure": "TwistedProduct",\n  "separating_word": "AABaab",\n'
         '  "twist": 2\n}\n'),
        (("classify", "power", "A", "B^2"), 0, "separated\n"),
        (("graph", "check", "g.json"), 0,
         "parity: ok\nalpha: connected=yes cut-vertices=A+,A-\n"
         "beta: connected=yes cut-vertices=none\nfig5c: c=3 s=2\nminimality: ok\n"),
        (("oracle", "primitives", "--max-len", "2"), 0,
         "A\na\nB\nb\nAB\nAb\naB\nab\n"),
    ]

    @pytest.mark.parametrize("args, code, stdout", README_CALLS,
                             ids=[" ".join(c[0][:2]) for c in README_CALLS])
    def test_readme_call(self, tmp_path, monkeypatch, args, code, stdout):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.json").write_text(json.dumps(
            {"alpha": {"A+A-": 3, "A+B-": 2, "A-B+": 2}, "beta": {"B+B-": 1}}))
        assert invoke("rr", "build", *self.FIG2A, "--out", "d.json") == (0, "", "")
        assert invoke(*args)[:2] == (code, stdout)

    def test_build_out_file_bytes(self, tmp_path):
        out_file = tmp_path / "d.json"
        invoke("rr", "build", *self.FIG2A, "--out", str(out_file))
        assert out_file.read_text() == invoke("rr", "build", *self.FIG2A)[1]


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

    def test_validate_stdout_on_broken_walk(self):
        _, built, _ = invoke("rr", "build", "--variant", "fig3a", "--a", "3",
                             "--b", "2", "--p", "2", "--eps", "1")
        data = json.loads(built)
        alpha = data["curves"]["alpha"]
        alpha[3], alpha[7] = alpha[7], alpha[3]
        alpha[6] = "B.0.-"
        assert invoke("rr", "validate", "-", stdin=json.dumps(data)) == (
            1,
            "OpenCurve: curve alpha breaks between step 3 (exits A.1.-) and "
            "step 4 (enters A.0.-)\n"
            "OpenCurve: curve alpha breaks between step 5 (exits B.0.-) and "
            "step 6 (enters B.0.+)\n"
            "OpenCurve: curve alpha breaks between step 6 (exits B.0.-) and "
            "step 7 (enters B.0.+)\n"
            "OpenCurve: curve alpha breaks between step 7 (exits A.0.-) and "
            "step 8 (enters A.1.-)\n",
            "",
        )
        alpha[10] = "B.4.+"
        assert invoke("rr", "validate", "-", stdin=json.dumps(data)) == (
            1, "UnknownStep: curve alpha traverses missing band B.4\n", ""
        )

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

    @pytest.mark.parametrize("max_len", ["0", "-1"])
    def test_below_one_is_invalid(self, max_len):
        code, out, err = invoke("oracle", "primitives", "--max-len", max_len)
        assert code == 65
        assert out == ""
        assert err == f"InvalidParams: max_len must be at least 1, got {max_len}\n"


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
            (),
            ("word",),
            ("word", "reduce", "A", "extra"),
            ("oracle", "primitives", "--max-len"),
            ("word", "mul"),
            ("graph", "dot", "nope.json"),
            ("rr", "build", "--variant", "fig1a", "--out", "."),
        ],
    )
    def test_usage_errors_exit_64(self, args):
        code, _, err = invoke(*args)
        assert code == 64
        assert err

    @pytest.mark.parametrize("spelling, value", [("-5", -5), ("+5", 5), ("05", 5)])
    def test_signed_int_options(self, spelling, value):
        for args in (("--p", spelling), (f"--p={spelling}",)):
            code, out, err = invoke("rr", "build", "--variant", "fig2a", *args, "--q", "2")
            assert code == 0, err
            assert json.loads(out)["handles"]["A"]["bands"][0]["label"] == [value, 2]

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

    def test_out_path_that_cannot_be_written(self, tmp_path):
        out = tmp_path / "no-such-dir" / "d.json"
        code, out_text, err = invoke("rr", "build", "--variant", "fig1a", "--out", str(out))
        assert (code, out_text) == (64, "")
        assert "Traceback" not in err

    def test_json_file_not_utf8(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = invoke("graph", "check", str(path))
        assert (code, out) == (65, "")
        assert err.startswith("InvalidParams:")

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

    @pytest.mark.parametrize("graph, message", [
        ({"alpha": {"A+A-": 1.5}}, "multiplicity for 'A+A-' must be an integer, got 1.5"),
        ({"A+A-": -1}, "unknown curves ['A+A-']; expected alpha and/or beta"),
        ({"A+C-": 1}, "unknown curves ['A+C-']; expected alpha and/or beta"),
        ({"alpha": [1]}, "curve alpha must map edges to multiplicities"),
        ({"gamma": {}}, "unknown curves ['gamma']; expected alpha and/or beta"),
        ({"alpha": {"A+A-": -1}}, "negative multiplicity for 'A+A-'"),
        ({"alpha": {"A+C-": 1}}, "cannot parse edge key 'A+C-'"),
    ])
    @pytest.mark.parametrize("command", ["check", "dot"])
    def test_graph_refusal_texts(self, command, graph, message):
        """``HGraph``'s own InvalidParamsError reaches stderr word for word."""
        code, out, err = invoke("graph", command, "-", stdin=json.dumps(graph))
        assert (code, out, err) == (65, "", f"InvalidParams: {message}\n")

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
            (("arcs", 0, "from"), "A. 0.+"),
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

    def test_trace_letter_budget(self):
        # The walk would spell 12,000,003 letters, past the 10,000,000
        # that caret exponents may ask for.
        _, built, _ = invoke("rr", "build", "--variant", "fig2a",
                             "--p", "3", "--q", "1")
        data = json.loads(built)
        data["handles"]["A"]["bands"][0]["label"] = [12000001, 1]
        code, out, err = invoke("rr", "trace", "-", "alpha", stdin=json.dumps(data))
        assert (code, out) == (65, "")
        assert err.startswith("BudgetExceeded:")

    def test_classify_letter_budget(self):
        # The fig2a twist is 10,000,000, so the separating word would
        # have 20,000,002 letters.
        code, out, err = invoke("classify", "--variant", "fig2a",
                                "--p", "20000001", "--q", "2")
        assert (code, out) == (65, "")
        assert err.startswith("BudgetExceeded:")

    def test_build_step_budget(self, monkeypatch):
        # A fig3a alpha walk has 4 (a + b) steps.
        monkeypatch.setattr(words, "_MAX_EXPANDED_LETTERS", 100)
        fig3a = ("rr", "build", "--variant", "fig3a", "--p", "2", "--eps", "1")
        assert invoke(*fig3a, "--a", "24", "--b", "1")[0] == 0
        code, out, err = invoke(*fig3a, "--a", "25", "--b", "1")
        assert (code, out) == (65, "")
        assert err.startswith("BudgetExceeded:")

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


EXIT_CODES = {0, 1, 2, 64, 65}

_TOKENS = ["A.0.+", "A.1.-", "B.0.+", "B.2.-", "arc:0.+", "arc:4.-", "arc:-1.+",
           "A.-1.+", "C.0.+", "A.0", "A+A-", "A+B-", "A-B+", "B+B-", "X+Y-"]
_KEYS = ["mult", "label", "from", "to", "bands", "handles", "arcs", "curves",
         "A", "B", "alpha", "beta", "A+A-", "B+B-"]
# Integers stay small: a disk label expands into that many letters in `rr trace`.
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.sampled_from(_TOKENS),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_DIAGRAMS = [
    diagram_to_json(build_canonical(params))
    for params in (CanonicalParams.fig1a(), CanonicalParams.fig2a(3, 1),
                   CanonicalParams.fig3a(3, 2, 2, 1))
]
_GRAPHS = [
    {"alpha": {"A+A-": 3, "A+B-": 2, "A-B+": 2}, "beta": {"B+B-": 1}},
    {"alpha": {"A+B-": 1, "A-B+": 1}, "beta": {"B+B-": 1}},
]
_letters = st.sampled_from("AaBb") | st.builds(
    "{}^{}".format, st.sampled_from("AaBb"), st.integers(-30, 30)
)
_junk = st.sampled_from([" ", "^", "^-", "A^", "B^x", "Z", "1", "-"])
_words = st.one_of(
    st.lists(_letters, max_size=12).map(" ".join),
    st.lists(_letters | _junk, max_size=12).map("".join),
    st.text(alphabet="AaBb^-0123456789 xZ", max_size=8),
)


def _mutated(draw, document):
    """The document with one to three entries replaced, deleted or added."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            node = child
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "add" or not keys:
            value = draw(_json_values)
            if isinstance(node, dict):
                node[draw(st.sampled_from(_KEYS) | st.text(max_size=4))] = value
            else:
                node.insert(draw(st.integers(0, len(node))), value)
        elif action == "delete":
            del node[key]
        else:
            node[key] = draw(_json_values)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _assert_clean_exit(args, stdin=None):
    code, _, err = invoke(*args, stdin=stdin)
    assert code in EXIT_CODES, (args, stdin, code, err)
    assert "Traceback" not in err


class TestFuzz:
    """Random input ends with an exit code of the protocol, never a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["reduce", "check", "power"]), _words, _words)
    def test_words(self, command, first, second):
        if command == "reduce":
            _assert_clean_exit(("word", "reduce", first))
        elif command == "check":
            _assert_clean_exit(("prim", "check", first))
        else:
            _assert_clean_exit(("classify", "power", first, second))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_diagram_json(self, data):
        text = _mutated(data.draw, data.draw(st.sampled_from(_DIAGRAMS)))
        curve = data.draw(st.sampled_from(["alpha", "beta", "gamma"]))
        _assert_clean_exit(("rr", "trace", "-", curve), stdin=text)
        _assert_clean_exit(("rr", "validate", "-"), stdin=text)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_graph_json(self, data):
        text = _mutated(data.draw, data.draw(st.sampled_from(_GRAPHS)))
        _assert_clean_exit(("graph", "check", "-"), stdin=text)
