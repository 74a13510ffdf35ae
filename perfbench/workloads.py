"""The three benchmark workloads: set-up, timed pipeline, and output checks.

Each workload is three functions. ``setup`` turns the seed into input
files, ``run`` is the timed pipeline and calls the library only through
the ``neuronprune`` package namespace (or ``neuronprune.cli.main``) so
that :mod:`tracing` can see every call, and ``verify`` checks every
output afterwards, outside the timed region. A failed check counts as a
failed operation. ``policy-compare``, whose prune is short, also has
``prune_again``: it repeats the prune stage of a finished repetition for
one more ``prune_s`` sample and checks that it gives the same outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import neuronprune as npr
import neuronprune.cli


@dataclass
class Checks:
    """Operation outcomes: one entry per checked output."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def to_network(dense: inputs.DenseNet) -> npr.Network:
    last = len(dense.weights) - 1
    layers = tuple(
        npr.FcLayer(w, b, npr.Activation.IDENTITY if k == last else npr.Activation.RELU)
        for k, (w, b) in enumerate(zip(dense.weights, dense.biases))
    )
    return npr.Network(layers, dense.weights[0].shape[1])


def same_network(a: npr.Network, b: npr.Network) -> bool:
    """Bit-for-bit equality of every weight, bias and activation."""
    return len(a.layers) == len(b.layers) and all(
        la.activation is lb.activation
        and np.array_equal(la.weights, lb.weights)
        and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers)
    )


def reference_logits(net: npr.Network, probes: np.ndarray) -> np.ndarray:
    """Forward pass written independently of the library's."""
    a = probes
    for layer in net.layers:
        a = a @ layer.weights.T + layer.bias
        if layer.activation is npr.Activation.RELU:
            a = np.maximum(a, 0.0)
        elif layer.activation is npr.Activation.SIGMOID:
            a = 1.0 / (1.0 + np.exp(-a))
    return a


def logit_mse(before: npr.Network, after: npr.Network, probes: np.ndarray) -> float:
    return float(np.mean((reference_logits(before, probes) - reference_logits(after, probes)) ** 2))


def compression_pct(before: npr.Network, after: npr.Network) -> float:
    total = npr.param_count(before)
    return 100.0 * (total - npr.param_count(after)) / total


def check_trace(checks, name, trace, n_original, expected_steps, full):
    checks.check(
        f"{name} shape",
        trace.n_original == n_original and len(trace) == expected_steps and trace.is_full == full,
        f"n_original={trace.n_original} steps={len(trace)} full={trace.is_full}",
    )


def check_digests(checks, workload, out_dir, names, references):
    """Compare trace files with the digests recorded for the default seed."""
    for name in names:
        key = f"{workload}/{name}"
        expected = references.get(key)
        actual = sha256(out_dir / name)
        checks.check(f"digest {key}", expected == actual, f"expected {expected}, got {actual}")


@dataclass
class Case:
    """What ``setup`` hands to ``run`` and ``verify``."""

    seed: int
    size: dict
    original: npr.Network | None  # None where the pipeline trains it
    probes: np.ndarray
    path: Path  # the input file the library reads


# --- wide-layer -------------------------------------------------------------


def setup_wide(seed: int, size: dict, workdir: Path) -> Case:
    rng = np.random.default_rng(seed)
    dense = inputs.near_twin_layer(
        rng, size["wide_in"], size["wide_width"], size["wide_protos"], size["wide_copies"]
    )
    probes = inputs.probe_inputs(rng, size["probes"], size["wide_in"])
    workdir.mkdir(parents=True)
    model = workdir / "wide.model"
    net = to_network(dense)
    npr.save_model(net, model)
    return Case(seed, size, net, probes, model)


def run_wide(case: Case, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True)
    net = npr.load_model(case.path)
    width = net.layers[0].n_out
    start = time.perf_counter()
    pruned, trace = npr.prune_layer(
        net, 0, width - 1, npr.PrunePolicy(npr.PolicyKind.SALIENCY_SURGERY)
    )
    prune_s = time.perf_counter() - start
    npr.export_trace(trace, out_dir / "trace.csv")
    imported = npr.import_trace(out_dir / "trace.csv")
    report = npr.data_free_cutoff(imported)
    final = npr.replay_trace(net, imported, report.predicted_count)
    npr.save_model(final, out_dir / "final.model")
    return {
        "times": {"prune_s": prune_s},
        "loaded": net,
        "pruned": pruned,
        "trace": trace,
        "count": report.predicted_count,
        "final": final,
    }


def verify_wide(case: Case, out: dict, out_dir: Path, checks: Checks, references) -> dict:
    net, trace = case.original, out["trace"]
    width = net.layers[0].n_out
    checks.check("load_model bit-exact", same_network(out["loaded"], net))
    check_trace(checks, "prune_layer trace", trace, width, width - 1, full=True)
    zeros = int(np.count_nonzero(trace.saliencies() == 0.0))
    checks.check(
        "exact copies merge at zero saliency",
        zeros == case.size["wide_copies"],
        f"{zeros} zero steps for {case.size['wide_copies']} copies",
    )
    replayed = npr.replay_trace(net, trace)
    checks.check("replay reproduces prune_layer", same_network(replayed, out["pruned"]))
    reread = npr.import_trace(out_dir / "trace.csv")
    checks.check(
        "trace reloads bit-exact",
        reread.steps == trace.steps and reread.n_original == trace.n_original,
    )
    count = out["count"]
    checks.check("data-free count in range", 1 <= count <= width - 1, f"count={count}")
    checks.check(
        "replay to cutoff",
        same_network(out["final"], npr.replay_trace(net, reread, count))
        and out["final"].layers[0].n_out == width - count,
    )
    checks.check(
        "saved model reloads bit-exact",
        same_network(npr.load_model(out_dir / "final.model"), out["final"]),
    )
    if references is not None:
        check_digests(checks, "wide-layer", out_dir, ["trace.csv"], references)
    return {
        "removed": count,
        "compression_pct": compression_pct(net, out["final"]),
        "logit_mse": logit_mse(net, out["final"], case.probes),
    }


# --- policy-compare ---------------------------------------------------------


def setup_policy(seed: int, size: dict, workdir: Path) -> Case:
    rng = np.random.default_rng(seed)
    centers = inputs.blob_centers(rng, size["blob_features"], size["blob_classes"])
    features, labels = inputs.blob_rows(rng, centers, size["blob_rows"])
    probes, _ = inputs.blob_rows(rng, centers, size["probes"])
    workdir.mkdir(parents=True)
    csv = workdir / "blobs.csv"
    inputs.write_blobs_csv(csv, features, labels)
    return Case(seed, size, None, probes, csv)


def cli(argv: list) -> tuple[int, str]:
    """Run one subcommand in-process; returns its exit code and stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = neuronprune.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors exit with code 2
            code = exc.code
    return code, buffer.getvalue()


def _stdout_value(text: str, key: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(f"{key}: "):
            return line.split(": ", 1)[1]
    return None


def run_policy(case: Case, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True)
    size, csv = case.size, case.path
    model, full = out_dir / "model.txt", out_dir / "full.csv"
    calls = {}
    times = {}

    def timed(key, argv):
        start = time.perf_counter()
        calls[key] = cli(argv)
        times[key] = time.perf_counter() - start
        return calls[key]

    timed("train", ["train", "--data", csv, "--out", model, "--hidden", size["hidden"],
                    "--epochs", size["epochs"], "--weight-decay", "5e-3", "--seed", case.seed])
    width = size["hidden"]
    timed("prune_full", ["prune", "--model", model, "--out", out_dir / "tiny.txt",
                         "--layer", f"0:{width - 1}", "--trace", full])
    _, text = timed("cutoff", ["cutoff", "--trace", full, "--method", "data-driven",
                               "--model", model, "--data", csv, "--budget", size["budget"],
                               "--json", out_dir / "cutoff.json"])
    count = int(_stdout_value(text, "predicted_count") or 0)
    timed("prune_cut", ["prune", "--model", model, "--out", out_dir / "final.txt",
                        "--layer", f"0:{count}", "--trace", out_dir / "partial.csv"])
    timed("eval", ["eval", "--model", out_dir / "final.txt", "--data", csv])
    timed("compare", ["compare", "--model", model, "--data", csv,
                      "--out-dir", out_dir / "curves"])
    return {
        "times": {
            "prune_s": times["prune_full"] + times["prune_cut"],
            "train_s": times["train"],
            "curves_s": times["compare"],
        },
        "calls": calls,
        "count": count,
    }


def prune_again_policy(case: Case, out: dict, out_dir: Path, checks: Checks) -> float:
    """Repeat both ``prune`` calls on the trained model into ``again/``."""
    again = out_dir / "again"
    again.mkdir(exist_ok=True)
    model, width, count = out_dir / "model.txt", case.size["hidden"], out["count"]
    start = time.perf_counter()
    codes = [
        cli(["prune", "--model", model, "--out", again / "tiny.txt",
             "--layer", f"0:{width - 1}", "--trace", again / "full.csv"])[0],
        cli(["prune", "--model", model, "--out", again / "final.txt",
             "--layer", f"0:{count}", "--trace", again / "partial.csv"])[0],
    ]
    prune_s = time.perf_counter() - start
    names = ["tiny.txt", "full.csv", "final.txt", "partial.csv"]
    checks.check(
        "repeated prune is identical",
        codes == [0, 0]
        and all((again / n).read_bytes() == (out_dir / n).read_bytes() for n in names),
        f"exit codes {codes}",
    )
    return prune_s


def verify_policy(case: Case, out: dict, out_dir: Path, checks: Checks, references) -> dict:
    for key, (code, _) in out["calls"].items():
        checks.check(f"cli {key} exit code", code == 0, f"exit {code}")
    model = npr.load_model(out_dir / "model.txt")
    size = case.size
    width = size["hidden"]
    checks.check(
        "trained model shape",
        npr.layer_sizes(model) == (size["blob_features"], width, size["blob_classes"]),
    )
    full = npr.import_trace(out_dir / "full.csv")
    check_trace(checks, "full trace", full, width, width - 1, full=True)
    checks.check(
        "replay reproduces prune",
        same_network(npr.replay_trace(model, full), npr.load_model(out_dir / "tiny.txt")),
    )
    count = out["count"]
    report = json.loads((out_dir / "cutoff.json").read_text())
    checks.check(
        "data-driven count",
        1 <= count <= width - 1
        and report["predicted_count"] == count
        and len(report["evidence"]["samples"]) <= size["budget"],
        f"count={count}",
    )
    partial = npr.import_trace(out_dir / "partial.csv", n_original=width)
    checks.check("cutoff prune is a prefix of the full trace", partial.steps == full.steps[:count])
    final = npr.load_model(out_dir / "final.txt")
    replayed = npr.replay_trace(model, full, count)
    checks.check("pruned model equals replay", same_network(final, replayed))
    ds = npr.load_csv(case.path)
    test_error = npr.evaluate(final, ds, "test")[1]
    printed = _stdout_value(out["calls"]["eval"][1], "error")
    expected = f"{test_error:.2f}"
    checks.check("eval error", printed == expected, f"printed {printed}, expected {expected}")
    baseline = npr.evaluate(model, ds, "test")[1]
    for kind in npr.PolicyKind:
        path = out_dir / "curves" / f"curve_{kind.value}.csv"
        rows = path.read_text().splitlines()[1:] if path.exists() else []
        points = [row.split(",") for row in rows]
        checks.check(
            f"curve {kind.value}",
            [int(s) for s, _ in points] == list(range(width))
            and float(points[0][1]) == baseline,
        )
    if references is not None:
        check_digests(checks, "policy-compare", out_dir, ["full.csv", "partial.csv"], references)
    return {
        "removed": count,
        "compression_pct": compression_pct(model, final),
        "logit_mse": logit_mse(model, final, case.probes),
        "test_error_pct": test_error,
    }


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    verify: object
    prune_again: object = None


WORKLOADS = {
    "wide-layer": Workload(setup_wide, run_wide, verify_wide),
    "policy-compare": Workload(setup_policy, run_policy, verify_policy, prune_again_policy),
}
