"""Railroad diagrams for curves on the boundary of a genus-2 handlebody.

The boundary surface is split by the two cutting disks into a pair of
once-punctured tori (the handles, named A and B) joined along an
annulus.  A simple closed curve meets each handle in parallel families
of essential arcs; each family is a band through the handle, labeled by
its signed crossing count with the handle's cutting-disk boundary and,
optionally, with a fixed longitude.  Inside the annulus the curve runs
along arcs joining band ends.  A diagram records the bands, the annulus
arcs with multiplicities, and named curves as closed walks; reading the
disk labels along a walk spells the conjugacy class the curve carries
in the free group F(A, B).

Band ends are written ``A.0.+`` (handle, band index, end).  Walk steps
are ``A.0.+`` for a traversal of band 0 of handle A in the + direction
(entering at the - end) and ``arc:3.-`` for arc 3 against its
orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .errors import InvalidParamsError, UnknownCurveError, UnlabeledBandError
from .words import CyclicWord

HANDLES = ("A", "B")
ENDS = ("+", "-")


@dataclass(frozen=True)
class Band:
    """A family of parallel essential arcs through one handle."""

    multiplicity: int
    disk: int | None
    longitude: int | None = None


@dataclass(frozen=True)
class HandleLabel:
    """A handle together with its bands, at most three of them."""

    handle: str
    bands: tuple[Band, ...]


class Endpoint(NamedTuple):
    handle: str
    band: int
    end: str

    def token(self) -> str:
        return f"{self.handle}.{self.band}.{self.end}"


@dataclass(frozen=True)
class Arc:
    """An annulus arc between band ends, drawn with a multiplicity."""

    start: Endpoint
    stop: Endpoint
    multiplicity: int


class TraverseStep(NamedTuple):
    handle: str
    band: int
    direction: int

    def token(self) -> str:
        return f"{self.handle}.{self.band}.{'+' if self.direction > 0 else '-'}"


class ArcStep(NamedTuple):
    arc: int
    direction: int

    def token(self) -> str:
        return f"arc:{self.arc}.{'+' if self.direction > 0 else '-'}"


Step = Union[TraverseStep, ArcStep]


def parse_step(token: str) -> Step:
    try:
        if token.startswith("arc:"):
            index, sign = token[4:].split(".")
            if sign not in ENDS:
                raise ValueError(token)
            return ArcStep(int(index), 1 if sign == "+" else -1)
        handle, band, sign = token.split(".")
        if handle not in HANDLES or sign not in ENDS:
            raise ValueError(token)
        return TraverseStep(handle, int(band), 1 if sign == "+" else -1)
    except (ValueError, IndexError):
        raise InvalidParamsError(f"malformed step token {token!r}") from None


def parse_endpoint(token: str) -> Endpoint:
    try:
        handle, band, end = token.split(".")
        if handle not in HANDLES or end not in ENDS:
            raise ValueError(token)
        return Endpoint(handle, int(band), end)
    except (ValueError, IndexError):
        raise InvalidParamsError(f"malformed endpoint token {token!r}") from None


@dataclass
class RRDiagram:
    handle_a: HandleLabel
    handle_b: HandleLabel
    arcs: tuple[Arc, ...] = ()
    curves: dict[str, tuple[Step, ...]] = field(default_factory=dict)

    def handle(self, name: str) -> HandleLabel:
        return self.handle_a if name == "A" else self.handle_b


@dataclass(frozen=True)
class Violation:
    """One failed diagram constraint."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def _traverse_ends(step: TraverseStep) -> tuple[Endpoint, Endpoint]:
    entry = Endpoint(step.handle, step.band, "-" if step.direction > 0 else "+")
    exit_ = Endpoint(step.handle, step.band, "+" if step.direction > 0 else "-")
    return entry, exit_


def _arc_ends(arc: Arc, direction: int) -> tuple[Endpoint, Endpoint]:
    return (arc.start, arc.stop) if direction > 0 else (arc.stop, arc.start)


def _check_handle(label: HandleLabel, out: list[Violation]) -> None:
    name = label.handle
    if not label.bands:
        out.append(Violation("MissingBands", f"handle {name} has no bands"))
        return
    if len(label.bands) > 3:
        out.append(
            Violation(
                "TooManyBands",
                f"handle {name} has {len(label.bands)} bands; nonparallel "
                f"connection families in a once-punctured torus number at most 3",
            )
        )
        return
    for i, band in enumerate(label.bands):
        if band.multiplicity < 1:
            out.append(
                Violation(
                    "BadMultiplicity",
                    f"band {name}.{i} has multiplicity {band.multiplicity}",
                )
            )
    disks = [band.disk for band in label.bands]
    if len(disks) >= 2 and any(d is None for d in disks):
        out.append(
            Violation(
                "UnlabeledBand",
                f"handle {name} has unlabeled bands; multi-band constraints "
                f"need disk labels",
            )
        )
        return
    if len(disks) == 2:
        if math.gcd(disks[0], disks[1]) != 1:
            out.append(
                Violation(
                    "GcdViolation",
                    f"handle {name} band labels {disks[0]}, {disks[1]} are not coprime",
                )
            )
        longitudes = [band.longitude for band in label.bands]
        if all(l is not None for l in longitudes):
            det = disks[0] * longitudes[1] - disks[1] * longitudes[0]
            if abs(det) != 1:
                out.append(
                    Violation(
                        "DetViolation",
                        f"handle {name} full labels have determinant {det}, "
                        f"expected +-1",
                    )
                )
    elif len(disks) == 3:
        if disks[1] != disks[0] + disks[2]:
            out.append(
                Violation(
                    "BandSumViolation",
                    f"handle {name} middle label {disks[1]} is not "
                    f"{disks[0]} + {disks[2]}",
                )
            )
        if math.gcd(disks[0], disks[2]) != 1:
            out.append(
                Violation(
                    "GcdViolation",
                    f"handle {name} outer labels {disks[0]}, {disks[2]} "
                    f"are not coprime",
                )
            )


def validate(diagram: RRDiagram) -> list[Violation]:
    """All constraint failures; an empty list means the diagram is valid."""
    out: list[Violation] = []
    _check_handle(diagram.handle_a, out)
    _check_handle(diagram.handle_b, out)

    def band_exists(endpoint: Endpoint) -> bool:
        return endpoint.band < len(diagram.handle(endpoint.handle).bands)

    arcs_ok = True
    for i, arc in enumerate(diagram.arcs):
        if arc.multiplicity < 1:
            out.append(
                Violation("BadMultiplicity", f"arc {i} has multiplicity {arc.multiplicity}")
            )
        for endpoint in (arc.start, arc.stop):
            if not band_exists(endpoint):
                arcs_ok = False
                out.append(
                    Violation(
                        "UnknownEndpoint",
                        f"arc {i} touches missing band {endpoint.token()}",
                    )
                )
    if arcs_ok:
        attached: dict[Endpoint, int] = {}
        for arc in diagram.arcs:
            attached[arc.start] = attached.get(arc.start, 0) + arc.multiplicity
            attached[arc.stop] = attached.get(arc.stop, 0) + arc.multiplicity
        for name in HANDLES:
            for i, band in enumerate(diagram.handle(name).bands):
                for end in ENDS:
                    got = attached.get(Endpoint(name, i, end), 0)
                    if got != band.multiplicity:
                        out.append(
                            Violation(
                                "EndpointBalance",
                                f"band end {name}.{i}.{end} carries {got} arc "
                                f"strands but the band has multiplicity "
                                f"{band.multiplicity}",
                            )
                        )

    band_usage: dict[tuple[str, int], int] = {}
    arc_usage: dict[int, int] = {}
    for curve, steps in diagram.curves.items():
        if not steps:
            out.append(Violation("EmptyCurve", f"curve {curve} has no steps"))
            continue
        walk_ok = True
        ends: list[tuple[Endpoint, Endpoint]] = []
        for step in steps:
            if isinstance(step, TraverseStep):
                if step.handle not in HANDLES or not band_exists(
                    Endpoint(step.handle, step.band, "+")
                ):
                    out.append(
                        Violation(
                            "UnknownStep",
                            f"curve {curve} traverses missing band "
                            f"{step.handle}.{step.band}",
                        )
                    )
                    walk_ok = False
                    continue
                band_usage[(step.handle, step.band)] = (
                    band_usage.get((step.handle, step.band), 0) + 1
                )
                ends.append(_traverse_ends(step))
            else:
                if step.arc >= len(diagram.arcs):
                    out.append(
                        Violation(
                            "UnknownStep",
                            f"curve {curve} uses missing arc {step.arc}",
                        )
                    )
                    walk_ok = False
                    continue
                arc_usage[step.arc] = arc_usage.get(step.arc, 0) + 1
                ends.append(_arc_ends(diagram.arcs[step.arc], step.direction))
        if walk_ok:
            for i, (_, exit_) in enumerate(ends):
                entry_next = ends[(i + 1) % len(ends)][0]
                if exit_ != entry_next:
                    out.append(
                        Violation(
                            "OpenCurve",
                            f"curve {curve} breaks between step {i} "
                            f"(exits {exit_.token()}) and step "
                            f"{(i + 1) % len(ends)} (enters {entry_next.token()})",
                        )
                    )
    if not any(v.kind in ("UnknownStep", "EmptyCurve") for v in out) and diagram.curves:
        for name in HANDLES:
            for i, band in enumerate(diagram.handle(name).bands):
                used = band_usage.get((name, i), 0)
                if used != band.multiplicity:
                    out.append(
                        Violation(
                            "SlotUsage",
                            f"band {name}.{i} has multiplicity "
                            f"{band.multiplicity} but is traversed {used} times",
                        )
                    )
        for i, arc in enumerate(diagram.arcs):
            used = arc_usage.get(i, 0)
            if used != arc.multiplicity:
                out.append(
                    Violation(
                        "SlotUsage",
                        f"arc {i} has multiplicity {arc.multiplicity} "
                        f"but is used {used} times",
                    )
                )
    return out


def trace_word(diagram: RRDiagram, curve: str) -> CyclicWord:
    """The conjugacy class in F(A, B) spelled by a curve's walk."""
    if curve not in diagram.curves:
        raise UnknownCurveError(
            f"no curve {curve!r}; have {sorted(diagram.curves)}"
        )
    letters: list[str] = []
    for step in diagram.curves[curve]:
        if not isinstance(step, TraverseStep):
            continue
        bands = diagram.handle(step.handle).bands
        if step.band >= len(bands):
            raise InvalidParamsError(
                f"curve {curve} traverses missing band {step.handle}.{step.band}"
            )
        disk = bands[step.band].disk
        if disk is None:
            raise UnlabeledBandError(
                f"band {step.handle}.{step.band} has no disk label"
            )
        exponent = disk * step.direction
        if exponent:
            letters.append(
                (step.handle if exponent > 0 else step.handle.lower()) * abs(exponent)
            )
    return CyclicWord("".join(letters))


@dataclass(frozen=True)
class CanonicalParams:
    """Parameters selecting one of the three canonical diagram families.

    fig1a: the two disk duals, one band on each handle.
    fig2a(p, q): alpha crosses handle A in one band with full label
        (p, q), p != 0 and gcd(p, q) = 1, and crosses handle B once.
    fig3a(a, b, p, eps): alpha crosses handle A in two bands labeled p
        and p + eps with multiplicities a and b, gcd(a, b) = 1,
        a + b > 1, eps = +-1, min(p, p + eps) > 1; it crosses handle B
        a + b times.  In every family beta is the handle-B disk dual.
    """

    variant: str
    p: int | None = None
    q: int | None = None
    a: int | None = None
    b: int | None = None
    eps: int | None = None

    @classmethod
    def fig1a(cls) -> "CanonicalParams":
        return cls("fig1a")

    @classmethod
    def fig2a(cls, p: int, q: int) -> "CanonicalParams":
        return cls("fig2a", p=p, q=q)

    @classmethod
    def fig3a(cls, a: int, b: int, p: int, eps: int) -> "CanonicalParams":
        return cls("fig3a", p=p, a=a, b=b, eps=eps)

    def validated(self) -> "CanonicalParams":
        given = {
            name: value
            for name, value in (
                ("p", self.p), ("q", self.q),
                ("a", self.a), ("b", self.b), ("eps", self.eps),
            )
            if value is not None
        }
        if self.variant == "fig1a":
            if given:
                raise InvalidParamsError(
                    f"fig1a takes no parameters, got {sorted(given)}"
                )
        elif self.variant == "fig2a":
            if sorted(given) != ["p", "q"]:
                raise InvalidParamsError(
                    f"fig2a needs exactly p and q, got {sorted(given)}"
                )
            if self.p == 0:
                raise InvalidParamsError("fig2a needs p != 0")
            if math.gcd(self.p, self.q) != 1:
                raise InvalidParamsError(
                    f"fig2a needs gcd(p, q) = 1, got gcd({self.p}, {self.q}) "
                    f"= {math.gcd(self.p, self.q)}"
                )
        elif self.variant == "fig3a":
            if sorted(given) != ["a", "b", "eps", "p"]:
                raise InvalidParamsError(
                    f"fig3a needs exactly a, b, p, eps, got {sorted(given)}"
                )
            if self.a < 1 or self.b < 1 or self.a + self.b < 2:
                raise InvalidParamsError(
                    f"fig3a needs a, b >= 1 with a + b > 1, got ({self.a}, {self.b})"
                )
            if math.gcd(self.a, self.b) != 1:
                raise InvalidParamsError(
                    f"fig3a needs gcd(a, b) = 1, got gcd({self.a}, {self.b})"
                )
            if self.eps not in (1, -1):
                raise InvalidParamsError(f"fig3a needs eps = +-1, got {self.eps}")
            if min(self.p, self.p + self.eps) <= 1:
                raise InvalidParamsError(
                    f"fig3a needs min(p, p + eps) > 1, got p = {self.p}, "
                    f"eps = {self.eps}"
                )
        else:
            raise InvalidParamsError(
                f"unknown variant {self.variant!r}; expected fig1a, fig2a, or fig3a"
            )
        return self


def _balanced_exponents(a: int, b: int, p: int, eps: int) -> list[int]:
    """Exponent sequence with p appearing a times and p + eps b times.

    The two values are interleaved as evenly as possible (the balanced
    two-letter pattern), which is the arrangement a simple closed curve
    can realize.
    """
    j = a + b
    return [p + eps * ((i * b) // j - ((i - 1) * b) // j) for i in range(1, j + 1)]


def alpha_word_fig3a(a: int, b: int, p: int, eps: int) -> CyclicWord:
    """The conjugacy class carried by the fig3a alpha curve."""
    CanonicalParams.fig3a(a, b, p, eps).validated()
    exponents = _balanced_exponents(a, b, p, eps)
    return CyclicWord("".join("A" * m + "B" for m in exponents))


def build_canonical(params: CanonicalParams) -> RRDiagram:
    """Construct one of the canonical diagram families."""
    params = params.validated()
    if params.variant == "fig1a":
        handle_a = HandleLabel("A", (Band(1, 1),))
        handle_b = HandleLabel("B", (Band(1, 1),))
        arcs = (
            Arc(Endpoint("A", 0, "+"), Endpoint("A", 0, "-"), 1),
            Arc(Endpoint("B", 0, "+"), Endpoint("B", 0, "-"), 1),
        )
        curves = {
            "alpha": (TraverseStep("A", 0, 1), ArcStep(0, 1)),
            "beta": (TraverseStep("B", 0, 1), ArcStep(1, 1)),
        }
        return RRDiagram(handle_a, handle_b, arcs, curves)
    if params.variant == "fig2a":
        handle_a = HandleLabel("A", (Band(1, params.p, params.q),))
        handle_b = HandleLabel("B", (Band(2, 1),))
        arcs = (
            Arc(Endpoint("A", 0, "+"), Endpoint("B", 0, "-"), 1),
            Arc(Endpoint("B", 0, "+"), Endpoint("A", 0, "-"), 1),
            Arc(Endpoint("B", 0, "+"), Endpoint("B", 0, "-"), 1),
        )
        curves = {
            "alpha": (
                TraverseStep("A", 0, 1),
                ArcStep(0, 1),
                TraverseStep("B", 0, 1),
                ArcStep(1, 1),
            ),
            "beta": (TraverseStep("B", 0, 1), ArcStep(2, 1)),
        }
        return RRDiagram(handle_a, handle_b, arcs, curves)
    a, b, p, eps = params.a, params.b, params.p, params.eps
    handle_a = HandleLabel("A", (Band(a, p, -eps), Band(b, p + eps, -eps)))
    handle_b = HandleLabel("B", (Band(a + b + 1, 1),))
    arcs = (
        Arc(Endpoint("A", 0, "+"), Endpoint("B", 0, "-"), a),
        Arc(Endpoint("A", 1, "+"), Endpoint("B", 0, "-"), b),
        Arc(Endpoint("B", 0, "+"), Endpoint("A", 0, "-"), a),
        Arc(Endpoint("B", 0, "+"), Endpoint("A", 1, "-"), b),
        Arc(Endpoint("B", 0, "+"), Endpoint("B", 0, "-"), 1),
    )
    exponents = _balanced_exponents(a, b, p, eps)
    alpha: list[Step] = []
    j = len(exponents)
    for i, m in enumerate(exponents):
        band = 0 if m == p else 1
        band_next = 0 if exponents[(i + 1) % j] == p else 1
        alpha.extend(
            (
                TraverseStep("A", band, 1),
                ArcStep(band, 1),
                TraverseStep("B", 0, 1),
                ArcStep(2 + band_next, 1),
            )
        )
    curves = {
        "alpha": tuple(alpha),
        "beta": (TraverseStep("B", 0, 1), ArcStep(4, 1)),
    }
    return RRDiagram(handle_a, handle_b, arcs, curves)


def diagram_to_json(diagram: RRDiagram) -> dict:
    def band_json(band: Band) -> dict:
        label = None if band.disk is None else [band.disk, band.longitude]
        return {"mult": band.multiplicity, "label": label}

    return {
        "handles": {
            name: {"bands": [band_json(b) for b in diagram.handle(name).bands]}
            for name in HANDLES
        },
        "arcs": [
            {
                "from": arc.start.token(),
                "to": arc.stop.token(),
                "mult": arc.multiplicity,
            }
            for arc in diagram.arcs
        ],
        "curves": {
            name: [step.token() for step in steps]
            for name, steps in diagram.curves.items()
        },
    }


def _json_int(value, what: str) -> int:
    """An exact JSON integer; floats, strings and booleans are rejected."""
    if type(value) is not int:
        raise InvalidParamsError(f"{what} must be an integer, got {value!r}")
    return value


def diagram_from_json(data: dict) -> RRDiagram:
    try:
        def band_from(entry: dict) -> Band:
            mult = _json_int(entry["mult"], "band multiplicity")
            label = entry.get("label")
            if label is None:
                return Band(mult, None, None)
            disk = _json_int(label[0], "band disk label")
            longitude = label[1] if len(label) > 1 else None
            if longitude is not None:
                longitude = _json_int(longitude, "band longitude label")
            return Band(mult, disk, longitude)

        handles = {
            name: HandleLabel(
                name,
                tuple(band_from(entry) for entry in data["handles"][name]["bands"]),
            )
            for name in HANDLES
        }
        arcs = tuple(
            Arc(
                parse_endpoint(entry["from"]),
                parse_endpoint(entry["to"]),
                _json_int(entry["mult"], "arc multiplicity"),
            )
            for entry in data.get("arcs", [])
        )
        curves = {
            name: tuple(parse_step(token) for token in tokens)
            for name, tokens in data.get("curves", {}).items()
        }
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise InvalidParamsError(f"malformed diagram JSON: {exc!r}") from None
    return RRDiagram(handles["A"], handles["B"], arcs, curves)
