"""Tests of the benchmark itself, on the small preset (seconds per workload).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
# The trace file each workload exports, and the check that must catch an edit.
TRACE_FILES = {
    "wide-layer": "trace.csv",
    "policy-compare": "full.csv",
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, record = run.measure(workload, seed=3, seconds=0, trace=trace, size_name="small")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    expected = (
        {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
        if trace
        else run.END_TO_END
    )
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert {"numpy", "blas", "blas_threads", "nproc"} <= set(record["env"])
    assert record["env"]["blas_threads"] <= record["env"]["nproc"]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_computed_counts_repeat_exactly(workload):
    first, _ = run.measure(workload, seed=5, seconds=0, trace=True, size_name="small")
    second, _ = run.measure(workload, seed=5, seconds=0, trace=True, size_name="small")
    for name in tracing.COMPUTED:
        assert first["metrics"][name] == second["metrics"][name]


def _corrupt_kept(path: Path) -> None:
    """Point the first merge of a trace at a different neuron, still in range."""
    lines = path.read_text().splitlines()
    step, kept, removed, rest = lines[1].split(",", 3)
    kept, removed = int(kept), int(removed)
    other = next(k for k in (kept - 1, kept - 2, kept + 1, kept + 2) if k >= 0 and k != removed)
    lines[1] = ",".join([step, str(other), str(removed), rest])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_trace_is_a_failed_operation(workload, tmp_path):
    wl = workloads.WORKLOADS[workload]
    size = inputs.SIZES["small"]
    case = wl.setup(1, size, tmp_path / "setup")
    out_dir = tmp_path / "out"
    out = wl.run(case, out_dir)
    clean = workloads.Checks()
    wl.verify(case, out, out_dir, clean, None)
    assert clean.failed == 0, clean.failures

    _corrupt_kept(out_dir / TRACE_FILES[workload])
    checks = workloads.Checks()
    wl.verify(case, out, out_dir, checks, None)
    assert checks.failed >= 1
    assert checks.attempted == clean.attempted


def test_prune_again_must_reproduce_the_outputs(tmp_path):
    wl = workloads.WORKLOADS["policy-compare"]
    case = wl.setup(2, inputs.SIZES["small"], tmp_path / "setup")
    out_dir = tmp_path / "out"
    out = wl.run(case, out_dir)
    clean = workloads.Checks()
    assert wl.prune_again(case, out, out_dir, clean) > 0
    assert clean.attempted == 1 and clean.failed == 0, clean.failures

    _corrupt_kept(out_dir / "full.csv")
    checks = workloads.Checks()
    wl.prune_again(case, out, out_dir, checks)
    assert checks.failed == 1


def test_digest_mismatch_is_a_failed_operation(tmp_path):
    wl = workloads.WORKLOADS["wide-layer"]
    case = wl.setup(0, inputs.SIZES["small"], tmp_path / "setup")
    out = wl.run(case, tmp_path / "out")
    checks = workloads.Checks()
    wl.verify(case, out, tmp_path / "out", checks, {"wide-layer/trace.csv": "0" * 64})
    assert checks.failed == 1 and checks.failures[0].startswith("digest")


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-layer", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
