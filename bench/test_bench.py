"""Tests of the benchmark itself, at the seconds-long smoke size.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Work counts that must repeat exactly between two traced runs at one seed.
WORK_COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] + [
    "pivot.dedup_ratio", "pivot.match_yield",
]
#: Counts that every workload does some of.
NONZERO_COUNTS = (
    "forest.leaves", "forest.nodes", "pivot.rows_src", "pivot.rows_tgt",
    "pivot.jsd_pairs", "pivot.pivots", "adaptation.z", "transfer.selected",
    "transfer.merged", "dataset.cells_parsed", "experiment.cells",
)


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digests = next(json.loads(line.split(" ", 1)[1])
                   for line in lines if line.startswith("digests "))
    return json.loads(lines[-1]), digests


@pytest.fixture(scope="module")
def runs():
    """Smoke runs keyed by (workload, trace, repetition), each made once."""
    cache = {}

    def get(workload, trace, repetition=0):
        key = (workload, trace, repetition)
        if key not in cache:
            cache[key] = parse(run_bench(workload, trace))
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(runs, workload, trace, section):
    result, _ = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_print_identical_digests(runs, workload):
    assert runs(workload, 0)[1] == runs(workload, 1)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts_repeat_exactly_across_traced_runs(runs, workload):
    first = runs(workload, 1)[0]["metrics"]
    second = runs(workload, 1, repetition=1)[0]["metrics"]
    assert {n: first[n]["value"] for n in WORK_COUNTS} == \
        {n: second[n]["value"] for n in WORK_COUNTS}
    assert all(first[n]["value"] > 0 for n in NONZERO_COUNTS)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
