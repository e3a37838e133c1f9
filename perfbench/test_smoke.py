"""Smoke test of the benchmark harness itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Every workload must report every metric BENCHMARK.json names, with its
unit, and fail nothing; the checks must reject a wrong verdict; the
spans must survive the trip to disk; and the runner must refuse to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CACHE = ROOT / ".perfbench_cache"


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_and_nothing_failed(workload, trace):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((CACHE / "runs" / f"{workload}-seed7-trace{trace}.json").read_text())
    assert record["fail_ratio"] == 0
    if trace:
        sys.path.insert(0, str(ROOT / "perfbench"))
        from tracing import read_spans

        names, fields = read_spans(CACHE / "spans" / f"{workload}.spans")
        assert len(fields["name"]) == record["span_count"] > 0
        assert all(e >= s for s, e in zip(fields["start"], fields["end"]))
        assert any(name.startswith("item.") for name in names)


def test_checks_reject_wrong_verdicts():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import genus2pairs as g
    from collections import Counter

    import workloads

    prim = workloads.PrimScan(g, seed=1, quick=True)
    cls = g.CyclicWord("AAB")
    wrong = (cls, (False, None, True))
    assert prim.check(("word", "AAB"), wrong, prim.new_pass(), Counter()) is not None
    basis = workloads.BasisScan(g, seed=1, quick=True)
    pair = ("pair", g.Word("A"), g.Word("B"))
    assert basis.check(pair, (True, False, None), basis.new_pass(), Counter()) is not None
    graph = next(item for item in workloads.DiagramScan(g, seed=1, quick=True).items
                 if item[0] == "graph" and item[3])
    assert workloads.DiagramScan._check_graph(graph, ((9, 9), None, set()), {"graphs": 0}) is not None


def test_refuses_to_run_without_the_package():
    bare = CACHE / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run_bench("--workload", "prim-scan", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
