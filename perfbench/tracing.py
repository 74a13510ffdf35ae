"""Span recording around the library's module boundaries, from outside it.

No file of the library changes. :func:`instrument` swaps each public
function name for a timing wrapper wherever another module of the
package (or the package namespace the benchmark calls through) binds
it, plus a short list of boundaries that sit inside one module but carry
the numbers the benchmark reports (``pruning.prune_one``, the method
``SaliencyMatrix.argmin_live``, the oracle handed to
``data_driven_cutoff``, and so on). Everything is restored on exit.

Spans stay in memory as ``[name, start, end, parent]`` rows and are
written out once, at the end of a run. Work counts are computed from
argument and result shapes at the same boundaries, so they repeat
exactly from run to run.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("network", "saliency", "pruning", "cutoff", "training", "data", "model_io", "cli")

# Boundaries inside one module that the per-layer metrics need. Calls a
# module makes to its own helpers are otherwise left alone, so that, for
# example, the delete inside ``merge_neurons`` stays part of the merge.
INTRA_MODULE = (
    ("pruning", "prune_one"),
    ("pruning", "prune_layer"),
    ("training", "evaluate"),
    ("training", "trace_error_curve"),
)

# Per-layer metrics: unit, which direction is better, and the end-to-end
# metric each should move, on which workload. Every traced run reports all
# of them; a layer a workload never enters reports zeros.
WIDE, POLICY = "wide-layer", "policy-compare"
SURGERY = f"wall_s on {POLICY}; prune_s on {WIDE} (small share)"
LAYER_METRICS = {
    "saliency.build_s": ("s", "lower", f"prune_s on {WIDE}"),
    "saliency.build_calls": ("count", "lower", f"prune_s on {WIDE}"),
    "saliency.pairs_scored": ("count", "lower", f"prune_s on {WIDE}"),
    "saliency.matrix_bytes": ("bytes", "lower", f"peak_rss_mb on {WIDE}"),
    "saliency.argmin_s": ("s", "lower", f"prune_s on {WIDE}"),
    "saliency.argmin_calls": ("count", "lower", f"prune_s on {WIDE}"),
    "saliency.self_s": ("s", "lower", f"prune_s on {WIDE}; nothing on {POLICY}"),
    "pruning.prune_layer_s": ("s", "lower", f"prune_s on every workload"),
    "pruning.prune_one_calls": ("count", "lower", f"prune_s on {WIDE}"),
    "pruning.prune_one_self_s": ("s", "lower", f"prune_s on {WIDE}"),
    "pruning.replay_s": ("s", "lower", f"wall_s on {POLICY} (compare and cutoff)"),
    "pruning.replay_steps": ("count", "lower", f"wall_s on {POLICY}"),
    "pruning.removals": ("count", "lower", "nothing: fixed by the workload"),
    "pruning.self_s": ("s", "lower", f"prune_s on {WIDE}"),
    "network.merge_s": ("s", "lower", SURGERY),
    "network.merge_calls": ("count", "lower", SURGERY),
    "network.delete_s": ("s", "lower", f"wall_s on {POLICY}"),
    "network.delete_calls": ("count", "lower", f"wall_s on {POLICY}"),
    "network.bytes_copied": ("bytes", "lower", SURGERY),
    "network.forward_batch_s": ("s", "lower", f"wall_s on {POLICY}"),
    "network.forward_batch_calls": ("count", "lower", f"wall_s on {POLICY}"),
    "network.self_s": ("s", "lower", f"wall_s on {POLICY}; prune_s on {WIDE} (small share)"),
    "training.train_s": ("s", "lower", f"wall_s on {POLICY}"),
    "training.epochs": ("count", "lower", "nothing: fixed by the workload"),
    "training.evaluate_s": ("s", "lower", f"wall_s on {POLICY}"),
    "training.evaluate_calls": ("count", "lower", f"wall_s on {POLICY}"),
    "training.trace_error_curve_s": ("s", "lower", f"wall_s on {POLICY}"),
    "training.curve_points": ("count", "lower", "nothing: fixed by the workload"),
    "training.self_s": ("s", "lower", f"wall_s on {POLICY}"),
    "cutoff.data_free_s": ("s", "lower", f"wall_s on {WIDE} (small share)"),
    "cutoff.data_driven_s": ("s", "lower", f"wall_s on {POLICY}"),
    "cutoff.oracle_calls": ("count", "lower", f"wall_s on {POLICY}"),
    "cutoff.oracle_s": ("s", "lower", f"wall_s on {POLICY}"),
    "cutoff.oracle_useful_ratio": ("ratio", "higher", f"wall_s on {POLICY}"),
    "cutoff.self_s": ("s", "lower", f"wall_s on {POLICY}"),
    "model_io.load_model_s": ("s", "lower", f"wall_s on {WIDE} and {POLICY} (small share)"),
    "model_io.save_model_s": ("s", "lower", f"wall_s on {WIDE} (small share); setup_s everywhere"),
    "model_io.bytes_read": ("bytes", "lower", f"wall_s on {WIDE} and {POLICY}"),
    "model_io.bytes_written": ("bytes", "lower", f"wall_s on {WIDE} and {POLICY}"),
    "model_io.trace_io_s": ("s", "lower", f"wall_s on {WIDE} and {POLICY}"),
    "model_io.self_s": ("s", "lower", f"wall_s on {WIDE} and {POLICY} (small share)"),
    "data.load_csv_s": ("s", "lower", f"wall_s on {POLICY}"),
    "data.load_csv_calls": ("count", "lower", f"wall_s on {POLICY}"),
    "data.rows_loaded": ("count", "lower", f"wall_s on {POLICY}"),
    "data.make_blobs_s": ("s", "lower", "nothing: the workloads load CSV files"),
    "data.self_s": ("s", "lower", f"wall_s on {POLICY}"),
    "cli.train_s": ("s", "lower", f"wall_s on {POLICY}"),
    "cli.prune_s": ("s", "lower", f"prune_s on {POLICY}"),
    "cli.cutoff_s": ("s", "lower", f"wall_s on {POLICY}"),
    "cli.compare_s": ("s", "lower", f"wall_s on {POLICY}"),
    "cli.eval_s": ("s", "lower", f"wall_s on {POLICY}"),
    "cli.self_s": ("s", "lower", "nothing: argument parsing only"),
    "bench.trace_overhead_s": ("s", "lower", "nothing: traced runs only"),
}

# Counts derived from shapes rather than measured; labelled in the output.
COMPUTED = (
    "saliency.pairs_scored",
    "saliency.matrix_bytes",
    "network.bytes_copied",
    "cutoff.oracle_useful_ratio",
)


class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name, fn, /, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)


def _layer_pair_bytes(net, layer_index) -> int:
    """Bytes of the two layers a structural edit rewrites."""
    first, second = net.layers[layer_index], net.layers[layer_index + 1]
    return sum(int(a.nbytes) for a in (first.weights, first.bias, second.weights, second.bias))


def _hooks(tracer: Tracer):
    """Count updates keyed by span name: ``hook(bound_arguments, result)``."""
    c = tracer.counts

    def build(a, m):
        n = a["layer"].n_out
        c["saliency.pairs_scored"] += n * (n - 1) // 2
        c["saliency.matrix_bytes"] += sum(
            int(v.nbytes) for v in vars(m).values() if isinstance(v, np.ndarray)
        )

    def surgery(a, net):
        c["network.bytes_copied"] += _layer_pair_bytes(net, a["layer_index"])

    def replay(a, _):
        steps = len(a["trace"].steps) if a["count"] is None else a["count"]
        c["pruning.replay_steps"] += steps
        if tracer.inside("cutoff.oracle"):
            c["cutoff.oracle_replayed"] += steps

    def read(a, _):
        c["model_io.bytes_read"] += os.path.getsize(a["path"])

    def written(a, _):
        c["model_io.bytes_written"] += os.path.getsize(a["path"])

    def removals(_, result):
        c["pruning.removals"] += len(result[1])

    def epochs(a, _):
        c["training.epochs"] += a["cfg"].epochs

    def curve(_, result):
        c["training.curve_points"] += len(result)

    def rows(_, ds):
        c["data.rows_loaded"] += ds.n_samples

    return {
        "saliency.build_saliency_matrix": build,
        "network.merge_neurons": surgery,
        "network.delete_neuron": surgery,
        "pruning.replay_trace": replay,
        "pruning.prune_layer": removals,
        "model_io.load_model": read,
        "model_io.import_trace": read,
        "model_io.save_model": written,
        "model_io.export_trace": written,
        "model_io.export_curve": written,
        "model_io.export_report": written,
        "model_io.export_report_json": written,
        "training.train": epochs,
        "training.trace_error_curve": curve,
        "data.load_csv": rows,
    }


def _wrap(tracer: Tracer, name: str, fn, hook):
    signature = inspect.signature(fn) if hook else None

    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(bound.arguments, result)
        return result

    return wrapper


def _with_traced_oracle(tracer: Tracer, data_driven_cutoff):
    """``data_driven_cutoff`` with its error oracle recorded as ``cutoff.oracle``."""

    def wrapper(trace, error_oracle, *args, **kwargs):
        def oracle(step):
            deepest = tracer.counts["cutoff.oracle_deepest"]
            tracer.counts["cutoff.oracle_deepest"] = max(deepest, step)
            return tracer.call("cutoff.oracle", error_oracle, step)

        return data_driven_cutoff(trace, oracle, *args, **kwargs)

    return wrapper


def _wrap_cli_main(tracer: Tracer, main):
    def wrapper(argv=None):
        command = argv[0] if argv else "none"
        return tracer.call(f"cli.{command}", main, argv)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's module-boundary calls through ``tracer``."""
    package = importlib.import_module("neuronprune")
    modules = {name: importlib.import_module(f"neuronprune.{name}") for name in MODULES}
    hooks = _hooks(tracer)
    patches = []  # (owner, attribute, original)

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    intra = set(INTRA_MODULE)
    for owner_name, owner in [("neuronprune", package), *modules.items()]:
        for attr, value in list(vars(owner).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            package_name, _, home = value.__module__.partition(".")
            if package_name != "neuronprune" or home not in modules:
                continue
            if home == owner_name and (owner_name, attr) not in intra:
                continue
            name = f"{home}.{value.__name__}"
            if name == "cutoff.data_driven_cutoff":
                value = _with_traced_oracle(tracer, value)
            patch(owner, attr, _wrap(tracer, name, value, hooks.get(name)))
    matrix_cls = modules["saliency"].SaliencyMatrix
    argmin = matrix_cls.argmin_live
    patch(
        matrix_cls,
        "argmin_live",
        lambda self: tracer.call("saliency.argmin_live", argmin, self),
    )
    patch(modules["cli"], "main", _wrap_cli_main(tracer, modules["cli"].main))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _outermost(spans):
    """Indices of spans with no ancestor of the same name."""
    keep = []
    for index, (name, _, _, parent) in enumerate(spans):
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(index)
    return keep


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Fold spans and counts into the ``LAYER_METRICS`` values."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_module = defaultdict(float)
    self_by_name = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        own = (end - start) - child_time[index]
        self_by_module[name.split(".", 1)[0]] += own
        self_by_name[name] += own
    total = defaultdict(float)
    calls = defaultdict(int)
    for index in _outermost(spans):
        name, start, end, _ = spans[index]
        total[name] += end - start
    for name, *_ in spans:
        calls[name] += 1
    c = tracer.counts
    replayed = c["cutoff.oracle_replayed"]
    deepest = c["cutoff.oracle_deepest"]
    values = {
        "saliency.build_s": total["saliency.build_saliency_matrix"],
        "saliency.build_calls": calls["saliency.build_saliency_matrix"],
        "saliency.pairs_scored": c["saliency.pairs_scored"],
        "saliency.matrix_bytes": c["saliency.matrix_bytes"],
        "saliency.argmin_s": total["saliency.argmin_live"],
        "saliency.argmin_calls": calls["saliency.argmin_live"],
        "pruning.prune_layer_s": total["pruning.prune_layer"],
        "pruning.prune_one_calls": calls["pruning.prune_one"],
        "pruning.prune_one_self_s": self_by_name["pruning.prune_one"],
        "pruning.replay_s": total["pruning.replay_trace"],
        "pruning.replay_steps": c["pruning.replay_steps"],
        "pruning.removals": c["pruning.removals"],
        "network.merge_s": total["network.merge_neurons"],
        "network.merge_calls": calls["network.merge_neurons"],
        "network.delete_s": total["network.delete_neuron"],
        "network.delete_calls": calls["network.delete_neuron"],
        "network.bytes_copied": c["network.bytes_copied"],
        "network.forward_batch_s": total["network.forward_batch"],
        "network.forward_batch_calls": calls["network.forward_batch"],
        "training.train_s": total["training.train"],
        "training.epochs": c["training.epochs"],
        "training.evaluate_s": total["training.evaluate"],
        "training.evaluate_calls": calls["training.evaluate"],
        "training.trace_error_curve_s": total["training.trace_error_curve"],
        "training.curve_points": c["training.curve_points"],
        "cutoff.data_free_s": total["cutoff.data_free_cutoff"],
        "cutoff.data_driven_s": total["cutoff.data_driven_cutoff"],
        "cutoff.oracle_calls": calls["cutoff.oracle"],
        "cutoff.oracle_s": total["cutoff.oracle"],
        # Deepest step measured over steps replayed to measure it: 1.0 when
        # every replayed step was needed, lower when the oracle re-replays.
        "cutoff.oracle_useful_ratio": deepest / replayed if replayed else 0.0,
        "model_io.load_model_s": total["model_io.load_model"],
        "model_io.save_model_s": total["model_io.save_model"],
        "model_io.bytes_read": c["model_io.bytes_read"],
        "model_io.bytes_written": c["model_io.bytes_written"],
        "model_io.trace_io_s": total["model_io.export_trace"] + total["model_io.import_trace"],
        "data.load_csv_s": total["data.load_csv"],
        "data.load_csv_calls": calls["data.load_csv"],
        "data.rows_loaded": c["data.rows_loaded"],
        "data.make_blobs_s": total["data.make_blobs"],
        "cli.train_s": total["cli.train"],
        "cli.prune_s": total["cli.prune"],
        "cli.cutoff_s": total["cli.cutoff"],
        "cli.compare_s": total["cli.compare"],
        "cli.eval_s": total["cli.eval"],
        "bench.trace_overhead_s": overhead_s,
    }
    for module in MODULES:
        values[f"{module}.self_s"] = self_by_module[module]
    return values


def span_records(tracer: Tracer) -> list[dict]:
    """Spans as JSON-ready rows, times relative to the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    return [
        {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
        for name, start, end, parent in tracer.spans
    ]
