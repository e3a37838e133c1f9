"""Benchmark runner for genus2pairs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
BENCHMARK.json, or ``all`` to run each in turn.  Every workload is a
closed loop with one client, and at most one worker process (and, for
cli-calls, one CLI child under it) runs at a time.

Children of this runner get a bytecode policy of their own: the
``PYTHONDONTWRITEBYTECODE`` variable is dropped and
``PYTHONPYCACHEPREFIX`` points into ``.perfbench_cache/``, so imports
are timed on the cached path an installed user has, and nothing is
written next to the sources.  One untimed set-up probe fills the cache
before anything is timed.  ``PYTHONHASHSEED`` is fixed so that set and
dict order repeat from run to run.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
over several fresh set-up probes.  ``--trace 1`` reports the per-layer
metrics of the traced run.  Every line before the last is for people;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of each run, with the drift
diagnostic and the error messages, goes to ``.perfbench_cache/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import CACHE, ROOT

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(CACHE / "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, env: dict, *extra: str) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_one(args, spec: dict, env: dict) -> dict:
    run_worker(args, env, "--setup-only")  # untimed: fills the bytecode cache
    setups = []
    if not args.trace:
        setups = [run_worker(args, env, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES - 1)]
    record = run_worker(args, env)
    setups.append(record["setup_s"])
    metrics = record.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if args.trace:  # a layer or ratio this workload never reaches reads 0
        metrics = {name: metrics.get(name, 0) for name in names} | metrics
    if set(metrics) != names:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json")
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup_samples_s=setups, python=platform.python_version(), machine=platform.machine(),
        fail_ratio=record["failed"] / max(record["attempted"], 1),
        metrics={m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    )
    runs = CACHE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    phase = record["phases"]["untraced"]
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} items, {record['failed']} failed, "
          f"fail_ratio {record['fail_ratio']:g}; {phase['passes']} passes over "
          f"{phase['positions']} items, item_tail_us is p{record['tail_percentile']} "
          f"with {phase['tail_beyond']} items beyond")
    print(f"  drift loop {record['drift_start_per_s']:.4g} -> {record['drift_end_per_s']:.4g} iter/s,"
          f" inputs generated in {record['generate_s']:.3f} s")
    for error in record["errors"]:
        print(f"  error: {error}")
    for name, metric in record["metrics"].items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    if record["trace"]:
        print(f"  {'span':40s} {'calls':>9s} {'self_s':>9s} {'mean_us':>10s} {'p50_ms':>10s} {'long.mean_us':>12s}")
        for name, row in sorted(record["spans"].items()):
            print(f"  {name:40s} {row['calls']:9d} {row['self_s']:9.4f} {row['mean_us']:10.2f} "
                  f"{row['p50_ms']:10.4f} {row.get('long.mean_us', float('nan')):12.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for testing the harness itself")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "genus2pairs" / "__init__.py").is_file():
        print(f"no genus2pairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    chosen = known if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(known):
        print(f"unknown workload {args.workload!r}; expected one of {known} or all", file=sys.stderr)
        return 2
    env = child_env()
    records = []
    for name in chosen:
        args.workload = name
        record = run_one(args, spec, env)
        report(record)
        records.append(record)
    correct = all(r["failed"] == 0 for r in records)
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": records[0]["metrics"] if len(records) == 1 else
        {r["workload"]: r["metrics"] for r in records},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
