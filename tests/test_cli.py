"""End-to-end checks of the command-line pipeline, run in process.

Every invocation goes through ``main`` with captured streams, so exit
codes and printed lines are asserted exactly as a shell user sees them.
"""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from neuronprune.cli import main
from neuronprune.cutoff import data_free_cutoff
from neuronprune.data import make_blobs
from neuronprune.model_io import import_trace, load_model, save_model
from neuronprune.network import Activation, FcLayer, Network, layer_sizes, param_count
from neuronprune.pruning import PolicyKind, PrunePolicy, prune_layer
from neuronprune.saliency import SimilarityMode
from neuronprune.training import TrainConfig, error_curve, evaluate, train

# One small, cleanly separable synthetic problem shared by every test.
DATA_ARGS = (
    "--synthetic",
    "--samples", "600",
    "--features", "8",
    "--classes", "2",
    "--separation", "6.0",
    "--label-noise", "0.0",
    "--data-seed", "7",
)
TRAIN_ARGS = ("--hidden", "10", "--epochs", "40", "--seed", "1")
# DATA_ARGS with 7 features, one fewer than a model trained on DATA_ARGS takes.
NARROW_DATA_ARGS = tuple("7" if arg == "8" else arg for arg in DATA_ARGS)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def usage_error(argv):
    # argparse usage failures raise SystemExit instead of returning.
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
    return excinfo.value.code


def cli_dataset():
    return make_blobs(
        n_samples=600,
        n_features=8,
        n_classes=2,
        separation=6.0,
        label_noise=0.0,
        seed=7,
    )


def stdout_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in output:\n{out}")


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.txt"
    code, _, err = run_cli(["train", *DATA_ARGS, *TRAIN_ARGS, "--out", str(path)])
    assert code == 0, err
    return path


class TestTrain:
    def test_reports_high_accuracy_on_separable_data(self, tmp_path):
        out_path = tmp_path / "m.txt"
        code, out, _ = run_cli(["train", *DATA_ARGS, *TRAIN_ARGS, "--out", str(out_path)])
        assert code == 0
        assert stdout_value(out, "wrote model") == str(out_path)
        assert float(stdout_value(out, "train accuracy")) >= 95.0
        assert float(stdout_value(out, "test accuracy")) >= 95.0
        assert layer_sizes(load_model(out_path)) == (8, 10, 2)

    def test_missing_out_is_a_usage_error(self):
        assert usage_error(["train", *DATA_ARGS]) == 2

    def test_requires_a_data_source(self, tmp_path):
        assert usage_error(["train", "--out", str(tmp_path / "m.txt")]) == 2

    def test_epochs_zero_saves_the_untrained_initialization(self, tmp_path):
        out_path = tmp_path / "init.txt"
        code, _, _ = run_cli(
            ["train", *DATA_ARGS, "--hidden", "10", "--epochs", "0",
             "--seed", "1", "--out", str(out_path)]
        )
        assert code == 0
        saved = load_model(out_path)
        expected = train(
            cli_dataset(),
            TrainConfig(
                hidden_units=10,
                activation=Activation.SIGMOID,
                learning_rate=0.5,
                epochs=0,
                batch_size=32,
                seed=1,
                weight_decay=1e-3,
            ),
        )
        for got, want in zip(saved.layers, expected.layers):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)
        assert all(not layer.bias.any() for layer in saved.layers)


class TestPrune:
    def test_empty_plan_round_trips_the_model_bytes(self, model_file, tmp_path):
        out_path = tmp_path / "copy.txt"
        code, out, _ = run_cli(
            ["prune", "--model", str(model_file), "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.read_bytes() == model_file.read_bytes()
        assert "compression: 0.00%" in out

    def test_compression_line_matches_the_saved_models(self, model_file, tmp_path):
        out_path = tmp_path / "pruned.txt"
        code, out, _ = run_cli(
            ["prune", "--model", str(model_file), "--out", str(out_path),
             "--layer", "0:5"]
        )
        assert code == 0
        before = param_count(load_model(model_file))
        after = param_count(load_model(out_path))
        assert f"({before - after} of {before} parameters removed)" in out
        percent = 100.0 * (before - after) / before
        assert f"compression: {percent:.2f}%" in out

    def test_trace_matches_the_library_policy_run(self, model_file, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            ["prune", "--model", str(model_file), "--out", str(tmp_path / "p.txt"),
             "--layer", "0:5", "--trace", str(trace_path)]
        )
        assert code == 0
        _, expected = prune_layer(
            load_model(model_file),
            0,
            5,
            PrunePolicy(kind=PolicyKind.SALIENCY_SURGERY),
            SimilarityMode.NORMALIZED_HEURISTIC,
        )
        got = import_trace(trace_path)
        assert [s.removed for s in got.steps] == [s.removed for s in expected.steps]
        assert [s.kept for s in got.steps] == [s.kept for s in expected.steps]
        assert [s.saliency for s in got.steps] == [s.saliency for s in expected.steps]

    def test_random_policy_is_reproducible_across_runs(self, model_file, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            model_out = tmp_path / f"{tag}.txt"
            trace_out = tmp_path / f"{tag}.csv"
            code, _, _ = run_cli(
                ["prune", "--model", str(model_file), "--out", str(model_out),
                 "--trace", str(trace_out), "--layer", "0:5",
                 "--policy", "random", "--seed", "3"]
            )
            assert code == 0
            outputs.append((model_out.read_bytes(), trace_out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_random_policy_requires_a_seed(self, model_file, tmp_path):
        assert usage_error(
            ["prune", "--model", str(model_file), "--out", str(tmp_path / "p.txt"),
             "--layer", "0:2", "--policy", "random"]
        ) == 2

    def test_seed_is_rejected_for_deterministic_policies(self, model_file, tmp_path):
        assert usage_error(
            ["prune", "--model", str(model_file), "--out", str(tmp_path / "p.txt"),
             "--layer", "0:2", "--seed", "3"]
        ) == 2

    def test_plan_entries_must_ascend(self, model_file, tmp_path):
        assert usage_error(
            ["prune", "--model", str(model_file), "--out", str(tmp_path / "p.txt"),
             "--layer", "0:2", "--layer", "0:1"]
        ) == 2

    def test_pruning_the_output_layer_is_a_runtime_failure(self, model_file, tmp_path):
        out_path = tmp_path / "p.txt"
        code, _, err = run_cli(
            ["prune", "--model", str(model_file), "--out", str(out_path),
             "--layer", "1:1"]
        )
        assert code == 1
        assert err.startswith("error:")
        assert not out_path.exists()

    def test_two_layer_plan_writes_one_trace_per_layer(self, tmp_path):
        rng = np.random.default_rng(2)
        sizes = (8, 6, 5, 2)
        acts = (Activation.RELU, Activation.SIGMOID, Activation.IDENTITY)
        net = Network(
            layers=tuple(
                FcLayer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out), act)
                for n_in, n_out, act in zip(sizes, sizes[1:], acts)
            ),
            input_dim=8,
        )
        model_path = tmp_path / "deep.txt"
        save_model(net, model_path)
        code, _, err = run_cli(
            ["prune", "--model", str(model_path), "--out", str(tmp_path / "p.txt"),
             "--layer", "0:2", "--layer", "1:3", "--trace", str(tmp_path / "t.csv")]
        )
        assert code == 0, err
        assert sorted(p.name for p in tmp_path.glob("t*.csv")) == ["t.layer0.csv", "t.layer1.csv"]
        assert len(import_trace(tmp_path / "t.layer0.csv").steps) == 2
        assert len(import_trace(tmp_path / "t.layer1.csv", layer_index=1).steps) == 3

    def test_input_model_is_never_modified(self, model_file, tmp_path):
        original = model_file.read_bytes()
        run_cli(
            ["prune", "--model", str(model_file), "--out", str(tmp_path / "p.txt"),
             "--layer", "0:7"]
        )
        assert model_file.read_bytes() == original


@pytest.fixture(scope="module")
def full_trace_file(model_file, tmp_path_factory):
    # A prune-to-one trace: 9 steps for the 10-unit hidden layer.
    path = tmp_path_factory.mktemp("cutoff") / "full.csv"
    code, _, err = run_cli(
        ["prune", "--model", str(model_file),
         "--out", str(path.with_suffix(".txt")),
         "--layer", "0:9", "--trace", str(path)]
    )
    assert code == 0, err
    return path


class TestCutoff:
    def test_data_free_output_matches_the_library(self, full_trace_file):
        code, out, _ = run_cli(["cutoff", "--trace", str(full_trace_file)])
        assert code == 0
        report = data_free_cutoff(import_trace(full_trace_file))
        assert stdout_value(out, "method") == "data-free"
        assert int(stdout_value(out, "predicted_count")) == report.predicted_count
        assert stdout_value(out, "cutoff_saliency") == f"{report.cutoff_saliency:.6g}"

    def test_json_report_round_trips(self, full_trace_file, tmp_path):
        json_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["cutoff", "--trace", str(full_trace_file), "--json", str(json_path)]
        )
        assert code == 0
        assert f"wrote report: {json_path}" in out
        payload = json.loads(json_path.read_text())
        report = data_free_cutoff(import_trace(full_trace_file))
        assert payload["method"] == "data-free"
        assert payload["predicted_count"] == report.predicted_count
        assert payload["cutoff_saliency"] == report.cutoff_saliency

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_json_report_carries_the_degenerate_warning(self, tmp_path):
        trace_path = tmp_path / "flat.csv"
        trace_path.write_text("step,kept,removed,saliency,test_error\n1,1,0,0.5,\n2,1,2,0.5,\n")
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["cutoff", "--trace", str(trace_path), "--json", str(report_path)]
        )
        assert code == 0
        warning = "saliency histogram is degenerate (all values identical); predicting 0"
        assert stdout_value(out, "warning") == warning
        assert stdout_value(out, "wrote report") == str(report_path)
        report = json.loads(report_path.read_text())
        assert report["method"] == "data-free"
        assert report["predicted_count"] == 0
        assert report["warning"] == warning
        assert report["evidence"]["degenerate"] is True

    def test_data_driven_requires_a_model(self, full_trace_file):
        assert usage_error(
            ["cutoff", "--trace", str(full_trace_file), "--method", "data-driven",
             "--synthetic"]
        ) == 2

    def test_data_driven_requires_a_dataset(self, full_trace_file, model_file):
        assert usage_error(
            ["cutoff", "--trace", str(full_trace_file), "--method", "data-driven",
             "--model", str(model_file)]
        ) == 2

    @pytest.mark.parametrize("layer_index", ["3", "-1"])
    def test_data_driven_rejects_a_layer_the_model_lacks(
        self, full_trace_file, model_file, layer_index
    ):
        code, _, err = run_cli(
            ["cutoff", "--trace", str(full_trace_file), "--method", "data-driven",
             "--layer-index", layer_index, "--model", str(model_file), *DATA_ARGS]
        )
        assert code == 1
        assert err.startswith("error:")
        assert "does not name a prunable layer" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_data_driven_reports_a_count_within_the_trace(
        self, full_trace_file, model_file
    ):
        code, out, _ = run_cli(
            ["cutoff", "--trace", str(full_trace_file), "--method", "data-driven",
             "--model", str(model_file), *DATA_ARGS, "--budget", "6"]
        )
        assert code == 0
        assert stdout_value(out, "method") == "data-driven"
        predicted = int(stdout_value(out, "predicted_count"))
        assert 0 <= predicted <= 9

    def test_data_driven_rejects_a_dataset_of_another_width(
        self, full_trace_file, model_file
    ):
        code, _, err = run_cli(
            ["cutoff", "--trace", str(full_trace_file), "--method", "data-driven",
             "--model", str(model_file), *NARROW_DATA_ARGS]
        )
        assert code == 1
        assert err.strip() == "error: batch must have shape (n, 8)"

    def test_unparsable_test_error_names_the_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,kept,removed,saliency,test_error\n1,1,0,0.5,abc\n")
        code, _, err = run_cli(["cutoff", "--trace", str(bad)])
        assert code == 1
        assert f"{bad}:2:" in err


    def test_a_bad_row_after_a_blank_line_names_its_own_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("step,kept,removed,saliency,test_error\n\n1,1,0,0.5,\n2,1,2,abc,\n")
        code, _, err = run_cli(["cutoff", "--trace", str(bad)])
        assert code == 1
        assert f"{bad}:4:" in err

    def test_a_non_ascii_byte_names_the_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"step,kept,removed,saliency,test_error\n1,1,0,0.5,\n2,1,2,0.\xc35,\n")
        code, _, err = run_cli(["cutoff", "--trace", str(bad)])
        assert code == 1
        assert err.strip() == f"error: {bad}:3: byte 0xc3 is not ascii text"


class TestEval:
    def test_matches_in_memory_evaluation(self, model_file):
        code, out, _ = run_cli(["eval", "--model", str(model_file), *DATA_ARGS])
        assert code == 0
        accuracy, error = evaluate(load_model(model_file), cli_dataset(), "test")
        assert stdout_value(out, "split") == "test"
        assert stdout_value(out, "accuracy") == f"{accuracy:.2f}"
        assert stdout_value(out, "error") == f"{error:.2f}"

    def test_split_flag_selects_the_split(self, model_file):
        code, out, _ = run_cli(
            ["eval", "--model", str(model_file), *DATA_ARGS, "--split", "val"]
        )
        assert code == 0
        accuracy, _ = evaluate(load_model(model_file), cli_dataset(), "val")
        assert stdout_value(out, "accuracy") == f"{accuracy:.2f}"

    def test_missing_model_file_is_a_runtime_failure(self, tmp_path):
        code, _, err = run_cli(
            ["eval", "--model", str(tmp_path / "absent.txt"), *DATA_ARGS]
        )
        assert code == 1
        assert err.startswith("error:")

    def test_unparsable_data_file_names_the_line(self, model_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3,4,5,6,7,8,0\n1,2,abc,4,5,6,7,8,1\n")
        code, _, err = run_cli(["eval", "--model", str(model_file), "--data", str(bad)])
        assert code == 1
        assert f"{bad}:2:" in err

    def test_a_non_ascii_byte_in_the_model_names_the_line(self, model_file, tmp_path):
        bad = tmp_path / "bad.txt"
        lines = model_file.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b" ", b" \xc3\xa9", 1)
        bad.write_bytes(b"\n".join(lines))
        code, _, err = run_cli(["eval", "--model", str(bad), *DATA_ARGS])
        assert code == 1
        assert err.strip() == f"error: {bad}:5: byte 0xc3 is not ascii text"

    def test_a_byte_that_is_not_utf8_in_the_data_names_the_line(self, model_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2,3,4,5,6,7,8,0\n1,2,3,4,5,6,7,8,1\n1,2,\xff,4,5,6,7,8,1\n")
        code, _, err = run_cli(["eval", "--model", str(model_file), "--data", str(bad)])
        assert code == 1
        assert err.strip() == f"error: {bad}:3: byte 0xff is not utf-8 text"

    @pytest.mark.parametrize("label", ["0.5", "-1"])
    def test_bad_label_names_the_line(self, model_file, tmp_path, label):
        bad = tmp_path / "lab.csv"
        bad.write_text(f"1,2,3,4,5,6,7,8,0\n\n1,2,3,4,5,6,7,8,{label}\n")
        code, _, err = run_cli(["eval", "--model", str(model_file), "--data", str(bad)])
        assert code == 1
        assert f"{bad}:3: label must be a nonnegative integer, found '{label}'" in err


class TestCompare:
    def test_emits_one_aligned_curve_per_policy(self, model_file, tmp_path):
        out_dir = tmp_path / "curves"
        started = time.perf_counter()
        code, out, err = run_cli(
            ["compare", "--model", str(model_file), *DATA_ARGS,
             "--seeds", "0,1", "--eval-every", "2", "--out-dir", str(out_dir)]
        )
        elapsed = time.perf_counter() - started
        assert code == 0, err
        assert elapsed < 60.0
        curves = {}
        for kind in PolicyKind:
            path = out_dir / f"curve_{kind.value}.csv"
            assert path.exists()
            assert f"{kind.value}: final error" in out
            lines = path.read_text().splitlines()
            assert lines[0] == "step,test_error"
            rows = [line.split(",") for line in lines[1:]]
            curves[kind] = ([int(r[0]) for r in rows], [float(r[1]) for r in rows])
        grids = {tuple(steps) for steps, _ in curves.values()}
        assert len(grids) == 1
        (steps, _), = [curves[PolicyKind.SALIENCY_SURGERY]]
        assert steps[0] == 0
        assert steps[-1] == 9
        assert all(b > a for a, b in zip(steps, steps[1:]))
        for _, errors in curves.values():
            assert all(0.0 <= e <= 100.0 for e in errors)

    def test_deterministic_curves_match_the_library(self, model_file, tmp_path):
        out_dir = tmp_path / "curves"
        code, _, _ = run_cli(
            ["compare", "--model", str(model_file), *DATA_ARGS,
             "--seeds", "0", "--eval-every", "3", "--out-dir", str(out_dir)]
        )
        assert code == 0
        expected = error_curve(
            load_model(model_file),
            0,
            cli_dataset(),
            PrunePolicy(kind=PolicyKind.NAIVE_MAGNITUDE),
            SimilarityMode.NORMALIZED_HEURISTIC,
            split="test",
            eval_every=3,
        )
        lines = (out_dir / "curve_naive-magnitude.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        got = [(int(r[0]), float(r[1])) for r in rows]
        assert got == [(step, err) for step, err in expected]

    def test_a_dataset_of_another_width_is_a_runtime_failure(self, model_file, tmp_path):
        out_dir = tmp_path / "curves"
        code, _, err = run_cli(
            ["compare", "--model", str(model_file), *NARROW_DATA_ARGS,
             "--seeds", "0", "--out-dir", str(out_dir)]
        )
        assert code == 1
        assert err.strip() == "error: batch must have shape (n, 8)"
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("layer_index", ["5", "1", "-1"])
    def test_a_layer_that_cannot_be_pruned_is_a_runtime_failure(
        self, model_file, tmp_path, layer_index
    ):
        code, _, err = run_cli(
            ["compare", "--model", str(model_file), *DATA_ARGS,
             "--layer-index", layer_index, "--out-dir", str(tmp_path / "curves")]
        )
        assert code == 1
        assert err.startswith("error:")
        assert "does not name a prunable layer" in err


@pytest.mark.parametrize("module", ["neuronprune", "neuronprune.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: neuronprune")
