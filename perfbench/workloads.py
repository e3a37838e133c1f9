"""The benchmark's four workloads.

Each workload turns ``--seed`` into a fixed list of items during set-up
and is then driven one item at a time (closed loop, one client) by
``worker.closed_loop``.  Per item, ``work`` makes every call into
genus2pairs and is the timed region; ``check`` then compares the
results with an independent route from ``referee`` outside the timing.
The item list is scanned in passes; at the end of each complete pass
the counts that the size fixes (classes, primitives, bases, graphs,
matches) are compared with frozen values.  Sizes keep an in-process
pass near half a second, so that each item repeats a few dozen times
in a run (see ``worker.closed_loop`` for why that matters).

The calls into genus2pairs go through a namespace from ``bind``, so the
traced run can put a span around each one without touching the
package.
"""

from __future__ import annotations

import json
import operator
import random
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import referee

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"

# Layer span names, as <module>.<function>, and how to reach each from
# the package.  ``Word.pow`` is the ``**`` operator on a Word.
LAYERS = {
    "CyclicWord": ("words.CyclicWord", lambda g: g.CyclicWord),
    "pow": ("words.Word.pow", lambda g: operator.pow),
    "is_primitive": ("primitivity.is_primitive", lambda g: g.is_primitive),
    "as_proper_power": ("primitivity.as_proper_power", lambda g: g.as_proper_power),
    "is_basis_pair": ("primitivity.is_basis_pair", lambda g: g.is_basis_pair),
    "Automorphism": ("automorphisms.Automorphism", lambda g: g.Automorphism),
    "inverse": ("automorphisms.Automorphism.inverse", lambda g: g.Automorphism.inverse),
    "compose": ("automorphisms.compose", lambda g: g.compose),
    "enumerate_primitives": ("oracle.enumerate_primitives", lambda g: g.enumerate_primitives),
    "brute_is_basis": ("oracle.brute_is_basis", lambda g: g.brute_is_basis),
    "build_canonical": ("rr_diagram.build_canonical", lambda g: g.build_canonical),
    "validate": ("rr_diagram.validate", lambda g: g.validate),
    "trace_word": ("rr_diagram.trace_word", lambda g: g.trace_word),
    "alpha_word_fig3a": ("rr_diagram.alpha_word_fig3a", lambda g: g.alpha_word_fig3a),
    "classify": ("classifier.classify", lambda g: g.classify),
    "classify_power_pair": ("classifier.classify_power_pair", lambda g: g.classify_power_pair),
    "HGraph": ("heegaard.HGraph", lambda g: g.HGraph),
    "matches_fig5c": ("heegaard.matches_fig5c", lambda g: g.matches_fig5c),
    "minimality_witness": ("heegaard.minimality_witness", lambda g: g.minimality_witness),
    "cut_vertices": ("heegaard.cut_vertices", lambda g: g.cut_vertices),
}

# Functions whose input is a word; their self time on items whose word
# is over LONG letters is also reported on its own.
LONG = 500
WORD_TAKING = ("is_primitive", "as_proper_power", "pow", "classify_power_pair")


def bind(g, tracer):
    """The package calls a workload makes, wrapped in spans when tracing."""
    calls = {}
    for attr, (name, get) in LAYERS.items():
        fn = get(g)
        calls[attr] = fn if tracer is None else tracer.wrap(name, fn)
    return SimpleNamespace(**calls)


def cyclically_reduced_strings(max_len: int):
    """Every nonempty cyclically reduced string of at most max_len letters."""

    def extend(prefix):
        if prefix[-1] != prefix[0].swapcase():
            yield prefix
        if len(prefix) < max_len:
            bad = prefix[-1].swapcase()
            for ch in "AaBb":
                if ch != bad:
                    yield from extend(prefix + ch)

    for ch in "AaBb":
        yield from extend(ch)


class _Workload:
    """Defaults shared by the workloads."""

    bind = staticmethod(bind)
    tail = 99

    @staticmethod
    def warm_up(g, quick: bool) -> None:
        pass

    @staticmethod
    def layer_ratios(tally, items: int) -> dict:
        return {}


class PrimScan(_Workload):
    """Every coprime cyclically reduced string up to a length, seeded order.

    Each string is parsed into a CyclicWord; each new class goes through
    the ``prim check`` decision (is_primitive, then as_proper_power) and
    is looked up in the referee's enumeration.
    """

    name = "prim-scan"
    # Distinct classes among the coprime strings, counted by
    # referee.canonical_class when these sizes were chosen.
    _CLASSES = {6: 116, 9: 2556}

    def __init__(self, g, seed: int, quick: bool) -> None:
        self.max_len = 6 if quick else 9
        strings = [s for s in cyclically_reduced_strings(self.max_len)
                   if gcd(*referee.abelianization(s)) == 1]
        random.Random(seed).shuffle(strings)
        self.items = [("word", s) for s in strings]
        self.expected = {
            "classes": self._CLASSES[self.max_len],
            "primitives": referee.primitive_class_count(self.max_len),
        }

    @staticmethod
    def warm_up(g, quick: bool) -> None:
        g.enumerate_primitives(6 if quick else 9)

    @staticmethod
    def new_pass() -> dict:
        return {"seen": set(), "classes": 0, "primitives": 0}

    def work(self, api, item, state):
        cls = api.CyclicWord(item[1])
        if cls in state["seen"]:
            return cls, None
        state["seen"].add(cls)
        primitive = api.is_primitive(cls)
        power = None if primitive else api.as_proper_power(cls)
        in_referee = cls in api.enumerate_primitives(self.max_len)
        return cls, (primitive, power, in_referee)

    def check(self, item, result, state, tally) -> str | None:
        cls, decision = result
        if cls.letters != referee.canonical_class(item[1]):
            return f"CyclicWord({item[1]!r}) = {cls}"
        if decision is None:
            return None
        primitive, power, in_referee = decision
        state["classes"] += 1
        state["primitives"] += primitive
        tally["new_classes"] += 1
        if primitive != in_referee:
            return f"is_primitive({cls}) = {primitive}, enumeration says {in_referee}"
        if primitive:
            return None
        if power is None:
            return f"{cls} is periodic but not a power" if referee.is_periodic(cls.letters) else None
        root, k = power
        if k < 2 or referee.is_periodic(root.letters) or (
                referee.canonical_class(root.letters * k) != cls.letters):
            return f"as_proper_power({cls}) = ({root}, {k})"
        return None

    def layer_ratios(self, tally, items: int) -> dict:
        return {"words.CyclicWord.new_class_ratio": tally["new_classes"] / items}


class BasisScan(_Workload):
    """All unordered pairs up to a total length, plus Nielsen-walk bases.

    Every pair runs the commutator test and the brute-force descent; the
    walk bases also invert their automorphism and compose it back.
    """

    name = "basis-scan"
    # (pairs, bases) of the exhaustive part, counted with is_basis_pair
    # and brute_is_basis in agreement when these sizes were chosen.
    _EXHAUSTIVE = {5: (1629, 292), 7: (20439, 964)}
    _WALK_CAP = 16

    def __init__(self, g, seed: int, quick: bool) -> None:
        total = 5 if quick else 7
        walks, perturbed = (40, 20) if quick else (400, 200)
        rng = random.Random(seed)
        by_len = [[""]]
        for _ in range(total):
            by_len.append([s + ch for s in by_len[-1] for ch in "AaBb"
                           if not s or ch != s[-1].swapcase()])
        words = [[g.Word(s) for s in level] for level in by_len]
        items = []
        for i in range(total + 1):
            for j in range(i, total + 1 - i):
                for k, u in enumerate(words[i]):
                    items.extend(("pair", u, v) for v in words[j][k if i == j else 0:])
        walk = self._nielsen_walk(rng, walks)
        items.extend(("walk", g.Word(u), g.Word(v)) for u, v in walk)
        for u, v in walk[:perturbed]:
            tail = "".join(rng.choice("AaBb") for _ in range(rng.randrange(1, 5)))
            items.append(("perturbed", g.Word(u), g.Word(referee.free_reduce(v + tail))))
        rng.shuffle(items)
        self.items = items
        pairs, bases = self._EXHAUSTIVE[total]
        self.expected = {"pairs": pairs, "bases": bases, "walk_bases": walks}

    def _nielsen_walk(self, rng, count: int) -> list[tuple[str, str]]:
        """Bases reached by random Nielsen moves from (A, B), as strings.

        Walk steps are kept so that total lengths cycle evenly through
        4..16: the bases change with the seed, the spread of their sizes
        does not.
        """
        inv, red = referee.inverse, referee.free_reduce
        lengths = [4 + i % (self._WALK_CAP - 3) for i in range(count)]
        missing = Counter(lengths)
        kept: dict[int, list] = {n: [] for n in missing}
        u, v = "A", "B"
        while +missing:
            move = rng.randrange(6)
            if move == 0:
                cand = (red(u + v), v)
            elif move == 1:
                cand = (red(u + inv(v)), v)
            elif move == 2:
                cand = (u, red(v + u))
            elif move == 3:
                cand = (u, red(v + inv(u)))
            elif move == 4:
                cand = (v, u)
            else:
                cand = (inv(u), v)
            size = len(cand[0]) + len(cand[1])
            if size <= self._WALK_CAP:
                u, v = cand
                if missing[size] > 0:
                    missing[size] -= 1
                    kept[size].append(cand)
            elif rng.random() < 0.5:
                u, v = "A", "B"
        return [kept[n].pop() for n in lengths]

    @staticmethod
    def new_pass() -> dict:
        return {"pairs": 0, "bases": 0, "walk_bases": 0}

    @staticmethod
    def work(api, item, state):
        kind, u, v = item
        basis = api.is_basis_pair(u, v)
        brute = api.brute_is_basis(u, v)
        if kind != "walk":
            return basis, brute, None
        f = api.Automorphism(u, v)
        return basis, brute, api.compose(f, api.inverse(f))

    @staticmethod
    def check(item, result, state, tally) -> str | None:
        kind, u, v = item
        basis, brute, identity = result
        xu, yu = referee.abelianization(u.letters)
        xv, yv = referee.abelianization(v.letters)
        tally["unimodular"] += abs(xu * yv - xv * yu) == 1
        if kind == "pair":
            state["pairs"] += 1
            state["bases"] += basis
        elif kind == "walk":
            state["walk_bases"] += basis
        if basis != brute:
            return f"is_basis_pair({u}, {v}) = {basis}, brute_is_basis says {brute}"
        if kind == "walk" and not basis:
            return f"walk pair ({u}, {v}) is not a basis"
        if identity is not None and (identity.image_a.letters, identity.image_b.letters) != ("A", "B"):
            return f"f * f.inverse() = {identity} for f = ({u}, {v})"
        return None

    @staticmethod
    def layer_ratios(tally, items: int) -> dict:
        return {"oracle.brute_is_basis.descent_ratio": tally["unimodular"] / items}


_BETA_DUAL = {("B+", "B-"): 1}


class DiagramScan(_Workload):
    """Seeded fig3a/fig2a diagrams with long words, among all small graphs.

    Diagram items run the whole diagram pipeline on alpha words of up to
    about 1,500 letters; graph items run the four-vertex graph checks on
    every alpha assignment with one dual beta edge.  Graph items are the
    short majority, diagram items the slow tail.
    """

    name = "diagram-scan"
    # Graph matches, counted by referee.fig5c_conclusions.
    _MATCHES = {4: 0, 6: 2}

    def __init__(self, g, seed: int, quick: bool) -> None:
        graph_total = 4 if quick else 6
        diagrams = 12 if quick else 150
        rng = random.Random(seed)
        items = []
        for m in referee.alpha_assignments(graph_total):
            alpha = {referee.SLOTS[i]: v for i, v in enumerate(m) if v}
            items.append(("graph", m, alpha, referee.parity_balanced(m)))
        for i in range(diagrams):
            params, length = self._diagram_params(g, rng, i, diagrams, quick)
            kind = "diagram.long" if length > LONG else "diagram"
            items.append((kind, params, rng.randrange(3)))
        rng.shuffle(items)
        self.items = items
        self.expected = {"graphs": len(items) - diagrams,
                         "matches": self._MATCHES[graph_total],
                         "diagrams": diagrams}

    @staticmethod
    def _diagram_params(g, rng, i: int, n: int, quick: bool):
        """Parameters and traced alpha length of diagram ``i`` of ``n``.

        The sizes follow ``i`` and only the rest comes from the seed, so
        every seed scans the same spread of word lengths: the first
        quarter are fig2a with |p| evenly up to 1,500, the others fig3a
        with a + b evenly up to 60 and p cycling through 3..25.
        """
        fig2a = n // 4
        if i < fig2a:
            p = rng.choice((-1, 1)) * (2 + i * (58 if quick else 1498) // max(fig2a - 1, 1))
            q = rng.choice([q for q in range(-50, 51) if gcd(p, q) == 1])
            return g.CanonicalParams.fig2a(p, q), abs(p) + 1
        k = i - fig2a
        j = 2 + k * (6 if quick else 58) // max(n - fig2a - 1, 1)
        p = 3 + k * 7 % (4 if quick else 23)
        a = rng.choice([a for a in range(1, j) if gcd(a, j) == 1])
        eps = rng.choice((-1, 1))
        return g.CanonicalParams.fig3a(a, j - a, p, eps), a * p + (j - a) * (p + eps) + j

    @staticmethod
    def new_pass() -> dict:
        return {"graphs": 0, "matches": 0, "diagrams": 0}

    @staticmethod
    def work(api, item, state):
        if item[0] == "graph":
            _, _, alpha, balanced = item
            graph = api.HGraph(alpha=alpha, beta=_BETA_DUAL, check_parity=False)
            match = api.matches_fig5c(graph)
            if not balanced:
                return match, None, None
            return match, api.minimality_witness(graph), api.cut_vertices(graph, "alpha")
        _, params, choice = item
        diagram = api.build_canonical(params)
        violations = api.validate(diagram)
        alpha = api.trace_word(diagram, "alpha")
        reference = None
        if params.variant == "fig3a":
            reference = api.alpha_word_fig3a(params.a, params.b, params.p, params.eps)
        primitive = api.is_primitive(alpha)
        pair_class = api.classify(params)
        cube = api.pow(alpha.to_word(), 3)
        power = api.as_proper_power(cube)
        first = (alpha.to_word(), cube, ~cube)[choice]
        outcome = api.classify_power_pair(first, cube)
        return violations, alpha, reference, primitive, pair_class, cube, power, outcome

    def check(self, item, result, state, tally) -> str | None:
        if item[0] == "graph":
            return self._check_graph(item, result, state)
        state["diagrams"] += 1
        return self._check_diagram(item, result)

    @staticmethod
    def _check_graph(item, result, state) -> str | None:
        _, m, alpha, balanced = item
        match, witness, cuts = result
        state["graphs"] += 1
        expected = referee.fig5c_conclusions(m)
        if match != expected:
            return f"matches_fig5c({alpha}) = {match}, conclusions say {expected}"
        if not balanced:
            return None
        state["matches"] += match is not None
        if match is not None and (witness is not None or not cuts >= {"A+", "A-"}):
            return f"match {alpha} has witness {witness}, cut vertices {cuts}"
        crossing_only = m[referee.AA_SLOT] == 0 and any(m[i] for i in referee.CROSSING_SLOTS)
        if (crossing_only or referee.is_short_loop_shape(m)) and witness != "BandsumReducesB":
            return f"minimality_witness({alpha}) = {witness}, a band sum reduces it"
        return None

    @staticmethod
    def _check_diagram(item, result) -> str | None:
        _, params, choice = item
        violations, alpha, reference, primitive, pair_class, cube, power, outcome = result
        if violations:
            return f"validate({params}) = {violations[:3]}"
        if params.variant == "fig3a":
            a, b, p, eps = params.a, params.b, params.p, params.eps
            if alpha != reference:
                return f"trace_word({params}) = {alpha}, alpha_word_fig3a = {reference}"
            if referee.abelianization(alpha.letters) != (a * p + b * (p + eps), a + b):
                return f"trace_word({params}) has abelianization {alpha.abelianization()}"
            twist, structure = eps, "Product"
            types = (False, True)
        else:
            p, q = params.p, params.q
            expected = ("A" if p > 0 else "a") * abs(p) + "B"
            if len(alpha) != len(expected) or alpha.letters not in expected + expected:
                return f"trace_word({params}) = {alpha}, expected the class of {expected}"
            twist = referee.fig2a_twist(p, q)
            structure = ("SeparatedDisk", "Product")[twist != 0] if abs(twist) <= 1 else "TwistedProduct"
            types = (True, abs(twist) <= 1)
        if not primitive:
            return f"is_primitive({params} alpha) = False"
        got = (pair_class.type_I, pair_class.type_II), pair_class.twist, pair_class.structure.value
        if got != (types, twist, structure) or pair_class.separated != (twist == 0) or (
                pair_class.separating_word.letters != referee.separating_class(twist)):
            return f"classify({params}) = {pair_class}, expected twist {twist}, {structure}"
        if cube.letters != alpha.letters * 3:  # alpha is cyclically reduced
            return f"({params} alpha) ** 3 = {cube}"
        if power is None or power[1] != 3 or power[0] != alpha:
            return f"as_proper_power(alpha ** 3) = {power} for {params}"
        want = "Separated" if choice == 0 else "NonseparatingAnnulus"
        if outcome.value != want:
            return f"classify_power_pair(choice {choice}) = {outcome.value} for {params}"
        return None


_FIG2A = ("--variant", "fig2a", "--p", "5", "--q", "2")
_BUILD = ("rr", "build", *_FIG2A, "--out", "d.json")
_GRAPH = {"alpha": {"A+A-": 3, "A+B-": 2, "A-B+": 2}, "beta": {"B+B-": 1}}
# The README's commands with its stated outputs; ``prim basis`` has no
# README example, so its two expectations are written out here.
EXAMPLES = (
    ("word.reduce", ("word", "reduce", "A^2 B A^-1"), "AABa\n", 0),
    ("prim.check", ("prim", "check", "AABAAAB"), "primitive\n", 0),
    ("prim.check", ("prim", "check", "AABAAB"), "proper-power 2 of AAB\n", 1),
    ("prim.basis", ("prim", "basis", "AB", "B"), "basis\n", 0),
    ("prim.basis", ("prim", "basis", "AB", "BA"), "not-basis\n", 1),
    ("rr.build", _BUILD, "", 0),
    ("rr.trace", ("rr", "trace", "d.json", "alpha"), "AAAAAB\n", 0),
    ("rr.validate", ("rr", "validate", "d.json"), "ok\n", 0),
    ("classify.variant", ("classify", *_FIG2A),
     '{\n  "type_I": true,\n  "type_II": false,\n  "separated": false,\n'
     '  "structure": "TwistedProduct",\n  "separating_word": "AABaab",\n'
     '  "twist": 2\n}\n', 0),
    ("classify.power", ("classify", "power", "A", "B^2"), "separated\n", 0),
    ("graph.check", ("graph", "check", "g.json"),
     "parity: ok\nalpha: connected=yes cut-vertices=A+,A-\n"
     "beta: connected=yes cut-vertices=none\nfig5c: c=3 s=2\nminimality: ok\n", 0),
    ("oracle.primitives", ("oracle", "primitives", "--max-len", "2"),
     "A\na\nB\nb\nAB\nAb\naB\nab\n", 0),
)
COMMANDS = tuple(sorted({name for name, *_ in EXAMPLES}))
CLI_DIR = CACHE / "cli"


def run_cli(args) -> subprocess.CompletedProcess:
    """One ``python -m genus2pairs.cli`` child, waited for before returning."""
    return subprocess.run([sys.executable, "-m", "genus2pairs.cli", *args],
                          cwd=CLI_DIR, capture_output=True, text=True, timeout=60)


class CliCalls(_Workload):
    """The README's commands in a seeded order, one CLI child at a time.

    The only workload that pays interpreter start-up and the import of
    ``genus2pairs.cli``.
    """

    name = "cli-calls"
    tail = 90  # a pass holds twelve calls, too few for a p99

    def __init__(self, g, seed: int, quick: bool) -> None:
        self.items = list(EXAMPLES)
        random.Random(seed).shuffle(self.items)
        self.expected = {"calls": len(self.items)}

    @staticmethod
    def warm_up(g, quick: bool) -> None:
        """Write the inputs the commands read, then make one untimed call."""
        CLI_DIR.mkdir(parents=True, exist_ok=True)
        (CLI_DIR / "g.json").write_text(json.dumps(_GRAPH))
        run_cli(_BUILD).check_returncode()

    @staticmethod
    def new_pass() -> dict:
        return {"calls": 0}

    @staticmethod
    def work(api, item, state):
        return getattr(api, item[0].replace(".", "_"))(item[1])

    @staticmethod
    def check(item, result, state, tally) -> str | None:
        name, args, stdout, code = item
        state["calls"] += 1
        if (result.returncode, result.stdout) != (code, stdout):
            return (f"{name} {list(args)}: exit {result.returncode}, stdout "
                    f"{result.stdout!r}, stderr {result.stderr[-300:]!r}")
        return None

    @staticmethod
    def bind(g, tracer):
        return SimpleNamespace(**{
            name.replace(".", "_"): run_cli if tracer is None else tracer.wrap("cli." + name, run_cli)
            for name in COMMANDS
        })


WORKLOADS = {w.name: w for w in (PrimScan, BasisScan, DiagramScan, CliCalls)}
