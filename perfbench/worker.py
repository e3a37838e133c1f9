"""One workload run in a fresh interpreter, started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--setup-only]

Prints one JSON object on standard output.  The set-up time covers the
import of genus2pairs and the workload's warm-up; input generation
after it is timed separately.  ``--trace 0`` drives the items for S
seconds and reports the end-to-end figures.  ``--trace 1`` drives them
for S seconds with traced and untraced items taking turns, and reports
the per-layer figures from the spans plus the overhead of tracing.
``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from time import perf_counter, perf_counter_ns

import workloads
from tracing import Tracer


def drift_rate() -> float:
    """Iterations per second of a fixed pure-Python loop, best of three."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, perf_counter() - start)
    return 300_000 / best


_UNSEEN = 2**63 - 1


def nearest_rank(n: int, q: float) -> int:
    """Index of the nearest-rank q-th percentile among n sorted values."""
    return max(1, math.ceil(n * q / 100)) - 1


def closed_loop(workload, modes, seconds: float) -> list[dict]:
    """Drive items one at a time for ``seconds``; time and check each.

    ``modes`` holds (api, tracer or None) pairs that take turns item by
    item, the turn shifting by one each pass, so that a traced and an
    untraced mode see the same items at the same moments of the run.
    Every pass repeats the same items in the same order from the same
    state, so the k-th item of one pass is the same computation as the
    k-th item of the next.  Each position keeps, per mode, the fastest
    of its repeats: on a 2-vCPU virtual machine shared with other
    tenants, whole-run averages moved by up to a fifth between runs with
    the neighbours' load, while the fastest repeat of each item stayed
    put.
    """
    items = workload.items
    runs = [{"best": array("q", [_UNSEEN]) * len(items), "items": 0, "failed": 0,
             "tally": Counter()} for _ in modes]
    errors: list[str] = []
    passes = position = 0
    state = workload.new_pass()
    span_names = {}
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while perf_counter_ns() < deadline:
        turn = (position + passes) % len(modes)
        api, tracer = modes[turn]
        run = runs[turn]
        item = items[position]
        if tracer is not None:
            kind = item[0]
            if kind not in span_names:
                span_names[kind] = tracer.name_id("item." + kind)
            span = tracer.open(span_names[kind], run["items"])
        start = perf_counter_ns()
        try:
            result = workload.work(api, item, state)
            error = None
        except Exception as exc:  # a raising call is a failed item, not a crash
            error = f"{type(exc).__name__}: {exc}"
        latency = perf_counter_ns() - start
        if tracer is not None:
            tracer.close(span)
        run["items"] += 1
        if latency < run["best"][position]:
            run["best"][position] = latency
        if error is None:
            error = workload.check(item, result, state, run["tally"])
        if error is not None:
            run["failed"] += 1
            errors.append(error)
        position += 1
        if position == len(items):
            for key, value in workload.expected.items():
                if state[key] != value:
                    run["failed"] += 1
                    errors.append(f"pass {passes}: counted {key} = {state[key]}, expected {value}")
            passes += 1
            position = 0
            state = workload.new_pass()
        del errors[10:]
    return [summarize(workload, run, passes) for run in runs], errors


def summarize(workload, run: dict, passes: int) -> dict:
    """Figures over the fastest repeat of each item position reached."""
    ordered = sorted(b for b in run.pop("best") if b != _UNSEEN)
    n = len(ordered)
    tail = nearest_rank(n, workload.tail)
    return run | {
        "passes": passes, "positions": n, "tail_beyond": n - 1 - tail,
        "items_per_s": n / (sum(ordered) / 1e9),
        "p50_us": ordered[nearest_rank(n, 50)] / 1e3,
        "tail_us": ordered[tail] / 1e3,
    }


def end_to_end(phase: dict, peak_rss_kib: int) -> dict:
    return {
        "items_per_s": phase["items_per_s"],
        "item_p50_us": phase["p50_us"],
        "item_tail_us": phase["tail_us"],
        "peak_rss_mb": peak_rss_kib * 1024 / 1e6,
    }


def span_table(tracer: Tracer) -> dict:
    """Per span name: calls, self time, mean and median duration, and the
    same for the calls made while processing items over LONG letters."""
    self_ns = tracer.self_times_ns()
    long_ids = {i for i, name in enumerate(tracer.names) if name.endswith(".long")}
    durations: dict[int, list] = {}
    long_durations: dict[int, list] = {}
    own, own_long = Counter(), Counter()
    for i, name_id in enumerate(tracer.name):
        duration = tracer.end[i] - tracer.start[i]
        durations.setdefault(name_id, []).append(duration)
        own[name_id] += self_ns[i]
        parent = tracer.parent[i]
        if parent >= 0 and tracer.name[parent] in long_ids:
            long_durations.setdefault(name_id, []).append(duration)
            own_long[name_id] += self_ns[i]
    table = {}
    for name_id, samples in durations.items():
        row = {"calls": len(samples), "self_s": own[name_id] / 1e9,
               "mean_us": statistics.fmean(samples) / 1e3,
               "p50_ms": statistics.median(samples) / 1e6}
        if name_id in long_durations:
            row["long.mean_us"] = statistics.fmean(long_durations[name_id]) / 1e3
            row["long.self_s"] = own_long[name_id] / 1e9
        table[tracer.names[name_id]] = row
    return table


def per_layer(workload, table: dict, plain: dict, traced: dict) -> dict:
    """Calls and self-time shares per layer, long-input shares, ratios, overhead.

    Self time is given as a share of all traced item time, so that a
    layer a workload never calls reads 0 as a share, not as a time.
    """
    busy_s = sum(row["self_s"] for row in table.values())  # self times tile the item spans
    out = {}
    layers = [name for name, _ in workloads.LAYERS.values()]
    for name in layers + ["cli." + command for command in workloads.COMMANDS]:
        row = table.get(name, {})
        out[name + ".calls"] = row.get("calls", 0)
        out[name + ".self_share"] = row.get("self_s", 0.0) / busy_s
    for attr in workloads.WORD_TAKING:
        name = workloads.LAYERS[attr][0]
        out[name + ".long.self_share"] = table.get(name, {}).get("long.self_s", 0.0) / busy_s
    out.update(workload.layer_ratios(traced["tally"], traced["items"]))
    out["trace.overhead_ratio"] = plain["items_per_s"] / traced["items_per_s"] - 1
    return out


def cli_floor_ms(repeats: int = 7) -> dict:
    """Fastest wall time of a bare interpreter, and of importing the CLI on top.

    Every traced run measures this floor, which no change to the package
    can lower, whatever its workload.
    """

    def fastest_ms(code: str) -> float:
        times = []
        for _ in range(repeats + 1):  # the first call may fill the bytecode cache
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
            times.append(perf_counter() - start)
        return min(times[1:]) * 1e3

    interpreter = fastest_ms("pass")
    return {"cli.interpreter_ms": interpreter,
            "cli.import_ms": fastest_ms("import genus2pairs.cli") - interpreter}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    kind = workloads.WORKLOADS[args.workload]
    in_process = kind is not workloads.CliCalls

    start = perf_counter()
    g = importlib.import_module("genus2pairs") if in_process else None
    kind.warm_up(g, args.quick)
    record = {"setup_s": perf_counter() - start}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    record["drift_start_per_s"] = drift_rate()
    start = perf_counter()
    workload = kind(g, args.seed, args.quick)
    record["generate_s"] = perf_counter() - start
    record["items_per_pass"] = len(workload.items)
    record["tail_percentile"] = workload.tail
    plain_api = kind.bind(g, None)
    if args.trace:
        tracer = Tracer()
        (plain, traced), errors = closed_loop(
            workload, [(plain_api, None), (kind.bind(g, tracer), tracer)], args.seconds)
        record["spans"] = span_table(tracer)
        record["metrics"] = per_layer(workload, record["spans"], plain, traced) | cli_floor_ms()
        tracer.write(workloads.CACHE / "spans" / f"{args.workload}.spans")
        record["span_count"] = len(tracer.name)
        phases = {"untraced": plain, "traced": traced}
    else:
        [plain], errors = closed_loop(workload, [(plain_api, None)], args.seconds)
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        record["metrics"] = end_to_end(plain, resource.getrusage(who).ru_maxrss)
        phases = {"untraced": plain}
    record["drift_end_per_s"] = drift_rate()
    record["phases"] = phases
    record["errors"] = errors
    record["attempted"] = sum(p["items"] for p in phases.values())
    record["failed"] = sum(p["failed"] for p in phases.values())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
