"""Command-line front end.

Every operation of the library is scriptable here; outputs are plain
text or JSON and byte-identical across runs.  Exit codes follow one
protocol throughout: 0 yes / 1 no / 2 other for decision commands,
64 for usage errors, 65 for domain errors (the violation name is
printed to standard error).

A call builds only the parsers of the commands it names, and each
command reaches the package through its lazy namespace, so a call
imports only the modules it runs.  One command tree drives both the
parsing and the ``--help`` screens.
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace

import genus2pairs as api

from .errors import DomainError, InvalidParamsError


class _UsageError(Exception):
    """A command line that does not parse; main exits 64."""


class _Parser(argparse.ArgumentParser):
    """One level of the command tree; its description is its help screen."""

    def format_help(self) -> str:
        return self.description

    def error(self, message):
        usage = self.description.split("\n", 1)[0]
        raise _UsageError(f"{usage}\nTry '{self.prog} --help' for help.\n\nError: {message}")


def _node(doc=None):
    return SimpleNamespace(doc=doc, params=(), handler=None, commands={})


# The command tree.  A parameter is (name, type[, required]): a name
# without "--" is a positional argument, and one ending in "..." takes
# one or more values; an option of type str names a file.  A group's
# handler runs when no command follows.
_ROOT = _node("Disjoint curve pairs on the genus-2 handlebody.")
_ROOT.commands.update(
    word=_node("Free reduction and arithmetic on words over A, a, B, b."),
    prim=_node("Primitivity and basis decisions."),
    rr=_node("Build, trace and validate curve-pair diagrams."),
    graph=_node("Reports on four-vertex intersection graphs."),
    oracle=_node("Brute-force enumeration back ends."),
)


def _command(path: str, *params):
    """Make the decorated function the handler of ``path``; its docstring is the help."""

    def register(handler):
        node = _ROOT
        for name in path.split():
            node = node.commands.setdefault(name, _node())
        node.doc, node.params, node.handler = handler.__doc__, params, handler
        return handler

    return register


def _rows(pairs) -> list[str]:
    width = max(len(first) for first, _ in pairs)
    return [f"  {first:<{width}}  {second}".rstrip() for first, second in pairs]


def _parser(path: str, node) -> _Parser:
    """The parser of one node, and its help screen laid out as click lays it out."""
    parser = _Parser(prog=path, add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help")
    options, arguments = [], []
    for name, kind, *required in node.params:
        if not name.startswith("--"):
            arguments.append(name.upper())
            parser.add_argument(name.rstrip("."), type=kind, metavar=name.upper(),
                                nargs="+" if name.endswith("...") else None)
            continue
        if isinstance(kind, tuple):
            metavar = f"[{'|'.join(kind)}]"
            parser.add_argument(name, choices=kind, required=bool(required))
        else:
            metavar = "INTEGER" if kind is int else "FILE"
            parser.add_argument(name, type=kind, required=bool(required))
        options.append((f"{name} {metavar}", "[required]" if required else ""))
    if node.commands:
        arguments = ["COMMAND [ARGS]..."]
        parser.add_argument("command", nargs=argparse.REMAINDER)
    lines = [" ".join(["Usage:", path, "[OPTIONS]", *arguments])]
    if node.doc:
        lines += ["", "  " + node.doc]
    lines += ["", "Options:", *_rows(options + [("--help", "Show this message and exit.")])]
    if node.commands:
        commands = sorted((name, sub.doc or "") for name, sub in node.commands.items())
        lines += ["", "Commands:", *_rows(commands)]
    parser.description = "\n".join(lines) + "\n"
    return parser


def _run(path: str, node, args: list[str]):
    """Parse one level's options, then hand the rest to the named command."""
    parser = _parser(path, node)
    options = vars(parser.parse_args(args))
    rest = options.pop("command", None)
    if rest:
        if rest[0] not in node.commands:
            parser.error(f"No such command {rest[0]!r}.")
        return _run(f"{path} {rest[0]}", node.commands[rest[0]], rest[1:])
    if node.handler is None:
        parser.error("Missing command.")
    return node.handler(**options)


def _read_json(path: str):
    """The JSON document in a file, or on standard input for -."""
    import json

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as handle:
                text = handle.read()
        data = json.loads(text)
    except OSError as exc:
        raise _UsageError(f"Error: cannot read {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InvalidParamsError(f"malformed JSON: {exc}") from exc
    return data


def _json_text(data: dict) -> str:
    import json

    return json.dumps(data, indent=2)


_VARIANT = ("fig1a", "fig2a", "fig3a")
_SHAPE = tuple((f"--{name}", int) for name in ("p", "q", "a", "b", "eps"))


@_command("word reduce", ("text", str))
def word_reduce(text: str) -> None:
    print(api.Word(text))


@_command("word invert", ("text", str))
def word_invert(text: str) -> None:
    print(~api.Word(text))


@_command("word mul", ("texts...", str))
def word_mul(texts: list[str]) -> None:
    product = api.Word()
    for text in texts:
        product = product * api.Word(text)
    print(product)


@_command("word abelianize", ("text", str))
def word_abelianize(text: str) -> None:
    x, y = api.Word(text).abelianization()
    print(f"{x} {y}")


@_command("prim check", ("text", str))
def prim_check(text: str) -> int:
    """primitive (exit 0), proper-power (1), or neither (2)."""
    w = api.Word(text)
    if api.is_primitive(w):
        print("primitive")
        return 0
    power = api.as_proper_power(w)
    if power is not None:
        root, k = power
        print(f"proper-power {k} of {root}")
        return 1
    print("neither")
    return 2


@_command("prim basis", ("first", str), ("second", str))
def prim_basis(first: str, second: str) -> int:
    """basis (exit 0) or not-basis (exit 1)."""
    if api.is_basis_pair(first, second):
        print("basis")
        return 0
    print("not-basis")
    return 1


@_command("rr build", ("--variant", _VARIANT, True), *_SHAPE, ("--out", str))
def rr_build(out, **params) -> None:
    """Emit the canonical diagram of a variant as JSON."""
    diagram = api.build_canonical(api.CanonicalParams(**params))
    text = _json_text(api.diagram_to_json(diagram))
    if out is None:
        print(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    except OSError as exc:
        raise _UsageError(f"Error: cannot write {out!r}: {exc.strerror}") from exc


@_command("rr trace", ("diagram_json", str), ("curve", str))
def rr_trace(diagram_json: str, curve: str) -> None:
    print(api.trace_word(api.diagram_from_json(_read_json(diagram_json)), curve))


@_command("rr validate", ("diagram_json", str))
def rr_validate(diagram_json: str) -> int:
    """List violations; exit 1 when there are any."""
    violations = api.validate(api.diagram_from_json(_read_json(diagram_json)))
    if not violations:
        print("ok")
        return 0
    for violation in violations:
        print(violation)
    return 1


@_command("classify", ("--variant", _VARIANT), *_SHAPE)
def classify(**params) -> None:
    """Classification JSON for a canonical diagram variant."""
    if params["variant"] is None:
        raise _UsageError("Error: missing --variant (or the 'power' subcommand)")
    print(_json_text(api.classify(api.CanonicalParams(**params)).to_json()))


@_command("classify power", ("alpha", str), ("beta", str))
def classify_power(alpha: str, beta: str) -> None:
    """Dichotomy for pairs whose beta word is a proper power."""
    outcome = api.classify_power_pair(alpha, beta)
    print("annulus" if outcome is api.PowerPairOutcome.NONSEPARATING_ANNULUS else "separated")


def _curve_report(g, curve: str) -> str:
    if curve not in g.curves:
        return f"{curve}: absent"
    connected = "yes" if api.is_connected(g, curve) else "no"
    cut_text = ",".join(sorted(api.cut_vertices(g, curve))) or "none"
    return f"{curve}: connected={connected} cut-vertices={cut_text}"


@_command("graph check", ("graph_json", str))
def graph_check(graph_json: str) -> None:
    """Parity, connectivity, cut-vertex, shape and minimality report."""
    g = api.HGraph.from_json(_read_json(graph_json), check_parity=False)
    problems = g.parity_violations()
    print("parity: " + ("ok" if not problems else "; ".join(problems)))
    print(_curve_report(g, "alpha"))
    print(_curve_report(g, "beta"))
    match = api.matches_fig5c(g)
    print("fig5c: no-match" if match is None else f"fig5c: c={match[0]} s={match[1]}")
    if problems:
        print("minimality: skipped (parity violation)")
        return
    try:
        witness = api.minimality_witness(g)
    except InvalidParamsError as exc:
        print(f"minimality: skipped ({exc})")
        return
    print("minimality: " + ("ok" if witness is None else witness))


@_command("graph dot", ("graph_json", str))
def graph_dot(graph_json: str) -> None:
    print(api.HGraph.from_json(_read_json(graph_json), check_parity=False).dot(), end="")


@_command("oracle primitives", ("--max-len", int, True))
def oracle_primitives(max_len: int) -> None:
    """All primitive classes up to a length bound, shortest first."""
    from .words import _ORDER_KEY

    words = api.enumerate_primitives(max_len)
    for w in sorted(words, key=lambda w: (len(w), w.letters.translate(_ORDER_KEY))):
        print(w)


def main(argv=None) -> None:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        # Usage lines name the program as it was started, as click did.
        prog = "python -m genus2pairs.cli" if __name__ == "__main__" else "genus2pairs"
        code = _run(prog, _ROOT, args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        code = 64
    except DomainError as exc:
        print(f"{exc.violation_name}: {exc}", file=sys.stderr)
        code = 65
    except KeyboardInterrupt:
        code = 130
    sys.exit(code or 0)


if __name__ == "__main__":
    main()
