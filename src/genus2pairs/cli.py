"""Command-line front end.

Every operation of the library is scriptable here; outputs are plain
text or JSON and byte-identical across runs.  Exit codes follow one
protocol throughout: 0 yes / 1 no / 2 other for decision commands,
64 for usage errors, 65 for domain errors (the violation name is
printed to standard error).
"""

from __future__ import annotations

import json
import sys

import click

from . import classifier, heegaard, oracle, rr_diagram
from .errors import DomainError, InvalidParamsError
from .primitivity import as_proper_power, is_basis_pair, is_primitive
from .words import Word, _ORDER_KEY


def _read_json(path: str) -> dict:
    with click.open_file(path, "r") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InvalidParamsError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParamsError("expected a JSON object")
    return data


def _emit_json(data: dict) -> None:
    click.echo(json.dumps(data, indent=2))


def _load_graph(path: str, *, check_parity: bool) -> heegaard.HGraph:
    data = _read_json(path)
    try:
        return heegaard.HGraph.from_json(data, check_parity=check_parity)
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from exc


_JSON_ARG = click.Path(exists=True, dir_okay=False, allow_dash=True)


@click.group()
def cli() -> None:
    """Disjoint curve pairs on the genus-2 handlebody."""


@cli.group()
def word() -> None:
    """Free reduction and arithmetic on words over A, a, B, b."""


@word.command("reduce")
@click.argument("text")
def word_reduce(text: str) -> None:
    click.echo(str(Word(text)))


@word.command("invert")
@click.argument("text")
def word_invert(text: str) -> None:
    click.echo(str(~Word(text)))


@word.command("mul")
@click.argument("texts", nargs=-1, required=True)
def word_mul(texts: tuple[str, ...]) -> None:
    product = Word()
    for text in texts:
        product = product * Word(text)
    click.echo(str(product))


@word.command("abelianize")
@click.argument("text")
def word_abelianize(text: str) -> None:
    x, y = Word(text).abelianization()
    click.echo(f"{x} {y}")


@cli.group()
def prim() -> None:
    """Primitivity and basis decisions."""


@prim.command("check")
@click.argument("text")
@click.pass_context
def prim_check(ctx: click.Context, text: str) -> None:
    """primitive (exit 0), proper-power (1), or neither (2)."""
    w = Word(text)
    if is_primitive(w):
        click.echo("primitive")
        ctx.exit(0)
    power = as_proper_power(w)
    if power is not None:
        root, k = power
        click.echo(f"proper-power {k} of {root}")
        ctx.exit(1)
    click.echo("neither")
    ctx.exit(2)


@prim.command("basis")
@click.argument("first")
@click.argument("second")
@click.pass_context
def prim_basis(ctx: click.Context, first: str, second: str) -> None:
    """basis (exit 0) or not-basis (exit 1)."""
    if is_basis_pair(Word(first), Word(second)):
        click.echo("basis")
        ctx.exit(0)
    click.echo("not-basis")
    ctx.exit(1)


_VARIANT = click.Choice(["fig1a", "fig2a", "fig3a"])


@cli.group()
def rr() -> None:
    """Build, trace and validate curve-pair diagrams."""


@rr.command("build")
@click.option("--variant", type=_VARIANT, required=True)
@click.option("--p", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--a", type=int, default=None)
@click.option("--b", type=int, default=None)
@click.option("--eps", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def rr_build(variant, p, q, a, b, eps, out) -> None:
    """Emit the canonical diagram of a variant as JSON."""
    params = rr_diagram.CanonicalParams(variant, p=p, q=q, a=a, b=b, eps=eps)
    diagram = rr_diagram.build_canonical(params)
    text = json.dumps(rr_diagram.diagram_to_json(diagram), indent=2)
    if out is None:
        click.echo(text)
    else:
        with open(out, "w") as handle:
            handle.write(text + "\n")


@rr.command("trace")
@click.argument("diagram_json", type=_JSON_ARG)
@click.argument("curve")
def rr_trace(diagram_json: str, curve: str) -> None:
    diagram = rr_diagram.diagram_from_json(_read_json(diagram_json))
    click.echo(str(rr_diagram.trace_word(diagram, curve)))


@rr.command("validate")
@click.argument("diagram_json", type=_JSON_ARG)
@click.pass_context
def rr_validate(ctx: click.Context, diagram_json: str) -> None:
    """List violations; exit 1 when there are any."""
    diagram = rr_diagram.diagram_from_json(_read_json(diagram_json))
    violations = rr_diagram.validate(diagram)
    if not violations:
        click.echo("ok")
        ctx.exit(0)
    for violation in violations:
        click.echo(str(violation))
    ctx.exit(1)


@cli.group(invoke_without_command=True)
@click.option("--variant", type=_VARIANT, default=None)
@click.option("--p", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--a", type=int, default=None)
@click.option("--b", type=int, default=None)
@click.option("--eps", type=int, default=None)
@click.pass_context
def classify(ctx: click.Context, variant, p, q, a, b, eps) -> None:
    """Classification JSON for a canonical diagram variant."""
    if ctx.invoked_subcommand is not None:
        return
    if variant is None:
        raise click.UsageError("missing --variant (or the 'power' subcommand)")
    params = rr_diagram.CanonicalParams(variant, p=p, q=q, a=a, b=b, eps=eps)
    _emit_json(classifier.classify(params).to_json())


@classify.command("power")
@click.argument("alpha")
@click.argument("beta")
def classify_power(alpha: str, beta: str) -> None:
    """Dichotomy for pairs whose beta word is a proper power."""
    outcome = classifier.classify_power_pair(alpha, beta)
    if outcome is classifier.PowerPairOutcome.NONSEPARATING_ANNULUS:
        click.echo("annulus")
    else:
        click.echo("separated")


@cli.group()
def graph() -> None:
    """Reports on four-vertex intersection graphs."""


def _curve_report(g: heegaard.HGraph, curve: str) -> str:
    if curve not in g.curves:
        return f"{curve}: absent"
    connected = "yes" if heegaard.is_connected(g, curve) else "no"
    cuts = sorted(
        heegaard.cut_vertices(g, curve),
        key=heegaard.VERTICES.index,
    )
    cut_text = ",".join(cuts) if cuts else "none"
    return f"{curve}: connected={connected} cut-vertices={cut_text}"


@graph.command("check")
@click.argument("graph_json", type=_JSON_ARG)
def graph_check(graph_json: str) -> None:
    """Parity, connectivity, cut-vertex, shape and minimality report."""
    g = _load_graph(graph_json, check_parity=False)
    problems = g.parity_violations()
    click.echo("parity: " + ("ok" if not problems else "; ".join(problems)))
    click.echo(_curve_report(g, "alpha"))
    click.echo(_curve_report(g, "beta"))
    match = heegaard.matches_fig5c(g)
    if match is None:
        click.echo("fig5c: no-match")
    else:
        click.echo(f"fig5c: c={match[0]} s={match[1]}")
    if problems:
        click.echo("minimality: skipped (parity violation)")
        return
    try:
        witness = heegaard.minimality_witness(g)
    except ValueError as exc:
        click.echo(f"minimality: skipped ({exc})")
        return
    click.echo("minimality: " + ("ok" if witness is None else witness))


@graph.command("dot")
@click.argument("graph_json", type=_JSON_ARG)
def graph_dot(graph_json: str) -> None:
    g = _load_graph(graph_json, check_parity=False)
    click.echo(g.dot(), nl=False)


@cli.group(name="oracle")
def oracle_group() -> None:
    """Brute-force enumeration back ends."""


@oracle_group.command("primitives")
@click.option("--max-len", type=int, required=True)
def oracle_primitives(max_len: int) -> None:
    """All primitive classes up to a length bound, shortest first."""
    words = oracle.enumerate_primitives(max_len)
    for w in sorted(words, key=lambda w: (len(w), w.letters.translate(_ORDER_KEY))):
        click.echo(str(w))


def main(argv=None) -> None:
    # standalone_mode=False hands control of exit codes back to us:
    # ctx.exit(n) comes back as a plain return value.
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        sys.exit(64)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(130)
    except DomainError as exc:
        print(f"{exc.violation_name}: {exc}", file=sys.stderr)
        sys.exit(65)
    sys.exit(result if isinstance(result, int) else 0)


if __name__ == "__main__":
    main()
