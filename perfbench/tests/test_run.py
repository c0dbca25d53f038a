"""Quick self-test of the benchmark driver at tiny windows.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run as bench  # noqa: E402

TINY_F2 = ("resolve", "--module", "f2", "--max-s", "4", "--max-t", "10", "--format", "json")
TINY_F = ("scenario", "--kind", "f", "--max-s", "4", "--max-t", "10", "--format", "json")
TINY = {
    "ext-f2": bench.Workload(TINY_F2, warm=False),
    "fiber-f-warm": bench.Workload(TINY_F, warm=True),
}


def measure(tmp_path, workload, references, record=False, trace=False):
    runner = bench.Runner(tmp_path, references, record)
    return bench.measure(runner, workload, seconds=0, trace=trace, seed=0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_present(tmp_path, name, trace):
    references = {}
    run = measure(tmp_path, TINY[name], references, record=True, trace=trace)
    # The first sample records the digests; every later one is checked against them.
    assert run.failed == 0, run.problems
    assert run.attempted >= bench.MIN_SAMPLES
    metrics = bench.metrics_of(run, trace)
    assert set(metrics) == set(bench.PER_LAYER if trace else bench.END_TO_END)
    if not trace:
        assert all(value > 0 for value in metrics.values())
    elif name == "fiber-f-warm":
        assert metrics["resolve.hits"] == 3 and metrics["resolve.misses"] == 0
    else:
        assert metrics["resolve.misses"] == 1
    assert list(tmp_path.glob("cache-*")) == []


@pytest.mark.parametrize("part", ["stdout", "cache"])
@pytest.mark.parametrize("name", list(TINY))
def test_corrupt_reference_is_a_failure(tmp_path, name, part):
    workload = TINY[name]
    references = {}
    measure(tmp_path, workload, references, record=True)
    digests = references[" ".join(workload.argv)]
    if part == "stdout":
        digests["stdout"] = "0" * 64
    else:
        first = next(iter(digests["cache"]))
        digests["cache"][first] = "0" * 64
    run = measure(tmp_path, workload, references)
    # Warm fills write no stdout, so a bad stdout digest fails only the samples.
    fills = bench.SETUP_REPEATS if workload.warm and part == "stdout" else 0
    assert run.failed == run.attempted - fills > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ext-f2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
