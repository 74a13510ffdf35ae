"""Smoke tests for the bench and experiment drivers, one per subcommand, run as a user would."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """Run one script under ``scripts/`` against the source tree; fail on a nonzero exit."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )


def test_bench_prune_counts_the_pairs_it_scores():
    # The script wraps private saliency names; if they move, its counts
    # must fail here rather than read 0.
    done = run_script("bench.py", "prune", "--shapes", "64x16", "--timeout", "120")
    lines = done.stdout.splitlines()
    assert len(lines) == 2  # one per similarity mode
    for line in lines:
        record = json.loads(line)
        assert record["timed_out"] is False
        assert "error" not in record
        assert record["width"] == 64 and record["fan_in"] == 16
        assert 0 < record["pairs_scored"] <= record["all_pairs"] == 64 * 63 // 2
        assert record["first_scan_s"] > 0 and record["rescans"] > 0
        assert record["seed"] == 0
        assert record["ru_maxrss_mb"] >= record["setup_maxrss_mb"] > 0


def test_bench_case_stopped_at_the_timeout_keeps_its_memory_peak():
    # A 4096-wide prune alone takes about 0.7 s, well past the timeout even on a
    # quiet host; a 1024-wide case can finish within it, start-up included.
    done = run_script(
        "bench.py", "prune", "--shapes", "4096x256", "--modes", "raw", "--timeout", "0.3"
    )
    (line,) = done.stdout.splitlines()
    record = json.loads(line)
    assert record["timed_out"] is True
    assert record["ru_maxrss_mb"] > 0
    assert "prune_s" not in record and "error" not in record


def test_bench_model_io_round_trips_bit_exact(tmp_path):
    done = run_script(
        "bench.py", "model-io", "--shapes", "64x16", "--timeout", "120", "--dir", tmp_path
    )
    (line,) = done.stdout.splitlines()
    record = json.loads(line)
    assert record["timed_out"] is False
    assert "error" not in record
    assert record["width"] == 64 and record["fan_in"] == 16
    assert record["bit_exact"] is True
    # version 2 writes 17 bytes per value plus the header and the "bias " prefixes
    values = 64 * 16 + 64 + 10 * 64 + 10
    assert 17 * values <= record["file_bytes"] < 17 * values + 200
    assert record["save_s"] > 0 and record["load_s"] > 0
    assert record["ru_maxrss_mb"] >= record["setup_maxrss_mb"] > 0
    assert record["load_maxrss_mb"] > 0  # the peak of the process that ran the load
    assert list(tmp_path.iterdir()) == []  # the model file is cleaned up


def test_bench_train_reports_one_digest_per_case():
    done = run_script("bench.py", "train", "--widths", "8", "--epochs", "1", "--repeats", "2")
    lines = done.stdout.splitlines()
    assert len(lines) == 2  # one per activation
    for line, activation in zip(lines, ["sigmoid", "relu"]):
        record = json.loads(line)
        assert record["timed_out"] is False
        assert "error" not in record
        assert record["activation"] == activation and record["width"] == 8
        assert record["seed"] == 0 and record["epochs"] == 1
        assert record["minibatches"] == 2580 // 32 + 1
        assert record["train_s"] > 0 and record["us_per_minibatch"] > 0
        assert re.fullmatch("[0-9a-f]{64}", record["sha256"])
        assert record["ru_maxrss_mb"] >= record["setup_maxrss_mb"] > 0


def test_experiment_compare_writes_one_curve_per_policy(tmp_path):
    run_script(
        "experiment.py", "compare", "--seeds", "0", "--hidden", "6", "--epochs", "5",
        "--out-dir", tmp_path,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mean_curve_naive-magnitude.csv",
        "mean_curve_random.csv",
        "mean_curve_saliency-no-surgery.csv",
        "mean_curve_saliency-surgery.csv",
    ]


def test_experiment_cutoff_writes_trace_and_report(tmp_path):
    run_script(
        "experiment.py", "cutoff", "--seeds", "0", "--hidden", "6", "--epochs", "5",
        "--out-dir", tmp_path,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data_free_seed0.json", "trace_seed0.csv"]
    report = json.loads((tmp_path / "data_free_seed0.json").read_text())
    assert report["method"] == "data-free"
