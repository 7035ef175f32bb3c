"""Smoke test of the benchmark: a tiny run of every workload, both modes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run ends with the JSON result line, that it names exactly
the metrics BENCHMARK.json declares, that the table names every
workload-specific metric, and that the result file records the environment.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLE_METRICS = {
    "build": ("build_s.small", "build_s.runge", "build_s.bump"),
    "query": ("query.points_per_s", "query.grid_points_per_s", "query.doc_s"),
    "cli": tuple(f"cli_s.{cmd}" for cmd in
                 ("approx", "eval", "export", "interp", "integrate", "diff")),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["build", "query", "cli"])
def test_tiny_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        assert result["metrics"]["ops.attempted"]["value"] == result["attempted"]
    else:
        table = "\n".join(lines[:-1])
        for name in TABLE_METRICS[workload]:
            assert name in table

    saved = json.loads((ROOT / ".perfbench_work" / "results"
                        / f"{workload}-seed7-trace{trace}.json").read_text())
    for key in ("seed", "nproc", "numpy", "blas_threads", "cache_bytes"):
        assert key in saved["environment"]
    assert saved["working_set"]
    assert saved["result"] == result


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
