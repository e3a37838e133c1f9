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
orientation.  An index is plain decimal, in ASCII digits with no sign
and no leading zero, so a token parses exactly when it is what
``token()`` writes.  A step or an endpoint names its band or arc through
one table, keyed by its fields but the last.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import chain
from typing import NamedTuple, Union

from ._record import _Record
from .errors import InvalidParamsError, UnknownCurveError, UnlabeledBandError, check_int
from .words import CyclicWord, _christoffel, check_budget

HANDLES = ("A", "B")
ENDS = ("+", "-")


class Band(_Record, defaults=(None,)):
    """A family of parallel essential arcs through one handle."""

    __slots__ = ("multiplicity", "disk", "longitude")


class HandleLabel(_Record):
    """A handle together with its bands, at most three of them."""

    __slots__ = ("handle", "bands")


class Endpoint(NamedTuple):
    handle: str
    band: int
    end: str

    def token(self) -> str:
        return f"{self.handle}.{self.band}.{self.end}"


class Arc(_Record):
    """An annulus arc between band ends, drawn with a multiplicity."""

    __slots__ = ("start", "stop", "multiplicity")


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


# A handle and ``.``, or ``arc:``; the index; the end or direction sign.
_TOKEN = re.compile(r"(?:([AB])\.|arc:)(0|[1-9][0-9]*)\.([+-])")


def _read_token(token, kind: str) -> tuple:
    """The handle (None for an arc), index and sign of a ``kind`` token."""
    match = _TOKEN.fullmatch(token) if isinstance(token, str) else None
    if match is None or (kind == "endpoint" and match[1] is None):
        raise InvalidParamsError(f"malformed {kind} token {token!r}")
    return match[1], int(match[2]), match[3]


def parse_step(token: str) -> Step:
    handle, index, sign = _read_token(token, "step")
    direction = 1 if sign == "+" else -1
    if handle is None:
        return ArcStep(index, direction)
    return TraverseStep(handle, index, direction)


def parse_endpoint(token: str) -> Endpoint:
    return Endpoint(*_read_token(token, "endpoint"))


class RRDiagram(_Record, frozen=False):
    """A railroad diagram: the bands of each handle, the annulus arcs,
    and named curves as closed walks of steps.  It is mutable, and each
    diagram built without ``curves`` gets an empty dict of its own."""

    __slots__ = ("handle_a", "handle_b", "arcs", "curves")

    def __init__(
        self,
        handle_a: HandleLabel,
        handle_b: HandleLabel,
        arcs: tuple[Arc, ...] = (),
        curves: dict[str, tuple[Step, ...]] | None = None,
    ) -> None:
        self.handle_a = handle_a
        self.handle_b = handle_b
        self.arcs = arcs
        self.curves = {} if curves is None else curves

    def handle(self, name: str) -> HandleLabel:
        if name == "A":
            return self.handle_a
        if name == "B":
            return self.handle_b
        raise InvalidParamsError(f"unknown handle {name!r}, expected one of {HANDLES}")


class Violation(_Record):
    """One failed diagram constraint."""

    __slots__ = ("kind", "message")

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


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
    if len(disks) == 3 and disks[1] != disks[0] + disks[2]:
        out.append(
            Violation(
                "BandSumViolation",
                f"handle {name} middle label {disks[1]} is not "
                f"{disks[0]} + {disks[2]}",
            )
        )
    # Two bands, or the outer two of three, carry coprime labels.
    if len(disks) >= 2 and math.gcd(disks[0], disks[-1]) != 1:
        which = "band" if len(disks) == 2 else "outer"
        out.append(
            Violation(
                "GcdViolation",
                f"handle {name} {which} labels {disks[0]}, {disks[-1]} are not coprime",
            )
        )
    longitudes = [band.longitude for band in label.bands]
    if len(disks) == 2 and None not in longitudes:
        det = disks[0] * longitudes[1] - disks[1] * longitudes[0]
        if abs(det) != 1:
            out.append(
                Violation(
                    "DetViolation",
                    f"handle {name} full labels have determinant {det}, expected +-1",
                )
            )


def _slots(diagram: RRDiagram) -> dict[tuple, Band | Arc]:
    """Each band under its (handle, index), then each arc under (index,).

    A step or an endpoint without its last field is the key of what it
    names, so a negative or out-of-range index, or an unknown handle,
    names nothing.  InvalidParamsError is raised, in table order, for a
    ``handle_a`` not named A or a ``handle_b`` not named B, and, as
    ``diagram_from_json`` does, for a band multiplicity or label, or an
    arc multiplicity or endpoint index, that is not an exact integer."""
    slots: dict[tuple, Band | Arc] = {}
    for name in HANDLES:
        handle = diagram.handle(name)
        if handle.handle != name:
            raise InvalidParamsError(
                f"handle_{name.lower()} is named {handle.handle!r}, not {name!r}")
        for i, band in enumerate(handle.bands):
            check_int(band.multiplicity, "band {}.{} multiplicity", name, i)
            for label, what in ((band.disk, "disk"), (band.longitude, "longitude")):
                if label is not None:
                    check_int(label, "band {}.{} {} label", name, i, what)
            slots[name, i] = band
    for i, arc in enumerate(diagram.arcs):
        check_int(arc.multiplicity, "arc {} multiplicity", i)
        for endpoint in (arc.start, arc.stop):
            check_int(endpoint.band, "arc {} endpoint band index", i)
        slots[i,] = arc
    return slots


def _named(key: tuple) -> str:
    """``band A.0`` for a band's slot key, ``arc 3`` for an arc's."""
    return ("band " if len(key) == 2 else "arc ") + ".".join(map(str, key))


def validate(diagram: RRDiagram) -> list[Violation]:
    """All constraint failures; an empty list means the diagram is valid.

    A band multiplicity or label, or an arc multiplicity, that is not an
    exact integer is not a constraint failure but bad input: it raises
    InvalidParamsError.
    """
    slots = _slots(diagram)
    out: list[Violation] = []
    _check_handle(diagram.handle_a, out)
    _check_handle(diagram.handle_b, out)

    # Arc strands at each end they touch; band ends are found by plain tuples.
    attached: dict[Endpoint, int] = {}
    for i, arc in enumerate(diagram.arcs):
        if arc.multiplicity < 1:
            out.append(
                Violation("BadMultiplicity", f"arc {i} has multiplicity {arc.multiplicity}")
            )
        for endpoint in (arc.start, arc.stop):
            attached[endpoint] = attached.get(endpoint, 0) + arc.multiplicity
            if endpoint[:-1] not in slots:
                out.append(
                    Violation(
                        "UnknownEndpoint",
                        f"arc {i} touches missing band {endpoint.token()}",
                    )
                )
    if not any(v.kind == "UnknownEndpoint" for v in out):
        for key, band in slots.items():
            for end in ENDS if len(key) == 2 else ():
                got = attached.get((*key, end), 0)
                if got != band.multiplicity:
                    out.append(
                        Violation(
                            "EndpointBalance",
                            f"band end {key[0]}.{key[1]}.{end} carries {got} arc "
                            f"strands but the band has multiplicity "
                            f"{band.multiplicity}",
                        )
                    )

    # Each walk is read once, as counts of (step, next step) pairs: they
    # give the usage of each step, and the walk closes when every distinct
    # pair does.  Only a broken walk, or one with an unknown step, is read
    # again in order, to report each fault where it occurs.
    walks, usage = {}, {}
    for curve, steps in diagram.curves.items():
        walks[curve] = pairs = Counter(zip(steps, steps[1:] + steps[:1]))
        for (step, _), count in pairs.items():
            usage[step] = usage.get(step, 0) + count
    table = {step: _step_row(slots, step) for step in usage}
    for curve, steps in diagram.curves.items():
        if not steps:
            out.append(Violation("EmptyCurve", f"curve {curve} has no steps"))
            continue
        # Every step of the walk is the first of some pair.
        if any(isinstance(table[step], str) for step, _ in walks[curve]):
            for step in steps:
                if isinstance(table[step], str):
                    out.append(Violation("UnknownStep", f"curve {curve} {table[step]}"))
            continue
        if all(table[step][1] == table[nxt][0] for step, nxt in walks[curve]):
            continue
        ends = [table[step] for step in steps]
        for i, (step_ends, next_ends) in enumerate(zip(ends, ends[1:] + ends[:1])):
            if step_ends[1] != next_ends[0]:
                out.append(
                    Violation(
                        "OpenCurve",
                        f"curve {curve} breaks between step {i} "
                        f"(exits {Endpoint(*step_ends[1]).token()}) and step "
                        f"{(i + 1) % len(steps)} "
                        f"(enters {Endpoint(*next_ends[0]).token()})",
                    )
                )
    if not any(v.kind in ("UnknownStep", "EmptyCurve") for v in out) and diagram.curves:
        for key, slot in slots.items():
            used = usage.get((*key, 1), 0) + usage.get((*key, -1), 0)
            if used != slot.multiplicity:
                verb = "traversed" if len(key) == 2 else "used"
                out.append(
                    Violation(
                        "SlotUsage",
                        f"{_named(key)} has multiplicity {slot.multiplicity} "
                        f"but is {verb} {used} times",
                    )
                )
    return out


def _step_row(slots: dict, step: Step) -> tuple | str:
    """A step, its index and direction exact integers, as (entry end, exit
    end, letter, count), or as its fault, worded to follow "curve <name> ",
    when its band or arc is missing or its direction is not +-1.  Band ends
    are plain tuples; an arc spells no letter, an unlabeled band has count None."""
    check_int(step[-2], "index of step {!r}", step)
    check_int(step.direction, "direction of step {!r}", step)
    key = step[:-1]
    slot = slots.get(key)
    if step.direction not in (1, -1):
        direction = f"in direction {step.direction!r}, not 1 or -1"
        return f"steps through {_named(key)} {direction}"
    if slot is None:
        verb = "traverses" if len(key) == 2 else "uses"
        return f"{verb} missing {_named(key)}"
    if len(key) == 2:
        exponent = 0 if slot.disk is None else slot.disk * step.direction
        entry, exit_ = (*key, "-"), (*key, "+")
        letter = key[0] if exponent > 0 else key[0].lower()
        count = None if slot.disk is None else abs(exponent)
    else:
        entry, exit_, letter, count = slot.start, slot.stop, "", 0
    ends = (entry, exit_) if step.direction > 0 else (exit_, entry)
    return *ends, letter, count


def trace_word(diagram: RRDiagram, curve: str) -> CyclicWord:
    """The conjugacy class in F(A, B) spelled by a curve's walk.

    Raises for the first bad step in walk order, BudgetExceededError before
    writing out more letters than ``words.check_budget`` allows, and
    InvalidParamsError for a number of the diagram that is not an integer.
    """
    if curve not in diagram.curves:
        raise UnknownCurveError(
            f"no curve {curve!r}; have {sorted(diagram.curves)}"
        )
    slots = _slots(diagram)
    steps = diagram.curves[curve]
    # Counts of each step, in order of first occurrence.
    occurrences = Counter(steps)
    table, size = {}, 0
    for step in occurrences:
        table[step] = row = _step_row(slots, step)
        if isinstance(row, str):
            raise InvalidParamsError(f"curve {curve} {row}")
        if row[3] is None:
            raise UnlabeledBandError(f"band {step.handle}.{step.band} has no disk label")
        size += row[3] * occurrences[step]
    check_budget(size, f"letters in curve {curve}")
    runs = {step: letter * count for step, (_, _, letter, count) in table.items()}
    return CyclicWord("".join(map(runs.__getitem__, steps)))


# Each variant's parameter names, sorted, and the phrase refusing any others.
_VARIANTS = {
    "fig1a": ([], "takes no parameters"),
    "fig2a": (["p", "q"], "needs exactly p and q"),
    "fig3a": (["a", "b", "eps", "p"], "needs exactly a, b, p, eps"),
}


class CanonicalParams(_Record, defaults=(None,) * 5):
    """Parameters selecting one of the three canonical diagram families.

    fig1a: the two disk duals, one band on each handle.
    fig2a(p, q): alpha crosses handle A in one band with full label
        (p, q), p != 0 and gcd(p, q) = 1, and crosses handle B once.
    fig3a(a, b, p, eps): alpha crosses handle A in two bands labeled p
        and p + eps with multiplicities a and b, gcd(a, b) = 1,
        a + b > 1, eps = +-1, min(p, p + eps) > 1; it crosses handle B
        a + b times.  In every family beta is the handle-B disk dual.
    """

    __slots__ = ("variant", "p", "q", "a", "b", "eps")

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
        # A variant that is not a string, hashable or not, is unknown.
        spec = _VARIANTS.get(self.variant) if isinstance(self.variant, str) else None
        if spec is None:
            raise InvalidParamsError(
                f"unknown variant {self.variant!r}; expected fig1a, fig2a, or fig3a"
            )
        names, phrase = spec
        given = sorted(
            name for name in self.__slots__[1:] if getattr(self, name) is not None
        )
        if given != names:
            raise InvalidParamsError(f"{self.variant} {phrase}, got {given}")
        for name in given:
            check_int(getattr(self, name), "{} parameter {}", self.variant, name)
        if self.variant == "fig2a":
            if self.p == 0:
                raise InvalidParamsError("fig2a needs p != 0")
            if math.gcd(self.p, self.q) != 1:
                raise InvalidParamsError(
                    f"fig2a needs gcd(p, q) = 1, got gcd({self.p}, {self.q}) "
                    f"= {math.gcd(self.p, self.q)}"
                )
        elif self.variant == "fig3a":
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
        return self


def alpha_word_fig3a(a: int, b: int, p: int, eps: int) -> CyclicWord:
    """The class of the fig3a alpha curve: the syllables A^p B and
    A^(p+eps) B in the balanced (Christoffel) arrangement a curve realizes.

    It is written in its least rotation, which starts at a syllable, as
    every run of A does.  Syllable strings compare as their first
    differing syllables, and A^p B is less than A^(p-1) B but greater
    than A^(p+1) B, so the substitution keeps the order of rotations for
    eps = -1 and reverses it for eps = +1.  The lower Christoffel word is
    the least rotation of its class, and its reverse the greatest.
    """
    CanonicalParams.fig3a(a, b, p, eps).validated()
    check_budget(a * p + b * (p + eps) + a + b, "letters in the fig3a alpha word")
    syllables = {ord("A"): "A" * p + "B", ord("B"): "A" * (p + eps) + "B"}
    return CyclicWord._raw(_christoffel(a, b)[::-eps].translate(syllables))


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
        return _one_b_band((Band(1, params.p, params.q),), [0])
    a, b, p, eps = params.a, params.b, params.p, params.eps
    check_budget(4 * (a + b), "steps in the fig3a alpha walk")
    return _one_b_band(
        (Band(a, p, -eps), Band(b, p + eps, -eps)),
        [0 if band == "A" else 1 for band in _christoffel(a, b)],
    )


def _one_b_band(bands: tuple[Band, ...], passes: list[int]) -> RRDiagram:
    """fig2a and fig3a: the A bands, joined through the one band of B.

    Pass i of alpha crosses A in band ``passes[i]``, then crosses B;
    beta is the disk dual of B.  Arcs run from each A band to B, from B
    back to each A band, then from B to itself.
    """
    n = len(bands)
    mults = [band.multiplicity for band in bands]
    b_in, b_out = Endpoint("B", 0, "-"), Endpoint("B", 0, "+")
    arcs = (
        *(Arc(Endpoint("A", i, "+"), b_in, m) for i, m in enumerate(mults)),
        *(Arc(b_out, Endpoint("A", i, "-"), m) for i, m in enumerate(mults)),
        Arc(b_out, b_in, 1),
    )
    # The four steps of a pass depend only on its band and the next one.
    legs = {
        (band, band_next): (
            TraverseStep("A", band, 1), ArcStep(band, 1),
            TraverseStep("B", 0, 1), ArcStep(n + band_next, 1),
        )
        for band in range(n)
        for band_next in range(n)
    }
    pairs = zip(passes, passes[1:] + passes[:1])
    # Into a list first: tuple() of an iterator of unknown length grows by
    # resizing, which raised diagram-scan's peak RSS by about 0.4 MB.
    alpha = list(chain.from_iterable(map(legs.__getitem__, pairs)))
    curves = {
        "alpha": tuple(alpha),
        "beta": (TraverseStep("B", 0, 1), ArcStep(2 * n, 1)),
    }
    handle_b = HandleLabel("B", (Band(len(passes) + 1, 1),))
    return RRDiagram(HandleLabel("A", bands), handle_b, arcs, curves)


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


def _known_keys(entry: dict, keys: tuple[str, ...], where: str, *args) -> dict:
    """``entry``, once each of its keys is one of ``keys``."""
    for key in entry.keys():
        if key not in keys:
            where = where.format(*args)
            raise InvalidParamsError(f"{where} has unknown key {key!r}; expected {keys}")
    return entry


def diagram_from_json(data: dict) -> RRDiagram:
    """The diagram of a ``diagram_to_json`` document; InvalidParamsError for a
    non-object, or a key outside the format at any level but curve names."""
    if not isinstance(data, dict):
        raise InvalidParamsError("expected a JSON object")
    try:
        def band_from(entry: dict, name: str, index: int) -> Band:
            _known_keys(entry, ("mult", "label"), "band {}.{}", name, index)
            mult = check_int(entry["mult"], "band multiplicity")
            label = entry.get("label")
            if label is None:
                return Band(mult, None, None)
            if len(label) > 2:
                raise InvalidParamsError(
                    f"band label has at most two entries, got {label!r}"
                )
            disk = check_int(label[0], "band disk label")
            longitude = label[1] if len(label) > 1 else None
            if longitude is not None:
                longitude = check_int(longitude, "band longitude label")
            return Band(mult, disk, longitude)

        _known_keys(data, ("handles", "arcs", "curves"), "diagram")
        labels = _known_keys(data["handles"], HANDLES, "handles")
        handles = []
        for name in HANDLES:
            entries = _known_keys(labels[name], ("bands",), "handle {}", name)["bands"]
            handles.append(HandleLabel(
                name, tuple(band_from(entry, name, i) for i, entry in enumerate(entries))
            ))
        arcs = []
        for i, entry in enumerate(data.get("arcs", [])):
            _known_keys(entry, ("from", "to", "mult"), "arc {}", i)
            arcs.append(Arc(
                parse_endpoint(entry["from"]),
                parse_endpoint(entry["to"]),
                check_int(entry["mult"], "arc multiplicity"),
            ))
        curves = {
            name: tuple(parse_step(token) for token in tokens)
            for name, tokens in data.get("curves", {}).items()
        }
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise InvalidParamsError(f"malformed diagram JSON: {exc!r}") from None
    return RRDiagram(*handles, tuple(arcs), curves)
