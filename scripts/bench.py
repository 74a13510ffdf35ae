#!/usr/bin/env python3
"""Time pruning, model I/O and training on seeded inputs, one fresh process per case.

Every case runs in its own process with one BLAS thread, so its timings
do not depend on the host's core count and its resident high-water mark
is its own. A case that overruns ``--timeout`` is killed and reported
with ``timed_out`` true and the ``ru_maxrss_mb`` it had reached, never
skipped; a case that crashes carries ``error``, the last line of its
stderr. Each case prints one JSON line holding its case keys, ``seed``,
``timed_out``, ``setup_maxrss_mb`` (the process's peak resident memory
once its inputs are built), ``ru_maxrss_mb`` (the same at the end), and
the fields of its subcommand:

* ``prune`` builds, per ``--shapes`` entry and mode, a near-twin ReLU
  layer (see :func:`near_twin_net`) and prunes it to one neuron with the
  saliency-surgery policy. ``prune_s`` is the wall time of
  ``prune_layer``, of which ``bound_build_s`` built the certified lower
  bounds; ``pairs_scored`` counts the pairs scored exactly, against
  ``all_pairs`` = n(n-1)/2, by wrapping the private pair scorer from
  here. Building the layer briefly holds two copies of its weights, so
  at fan-in 9216 the set-up can set the peak.
* ``model-io`` saves the same kind of network with ``save_model`` and
  loads it back with ``load_model``: ``save_s``, ``load_s``,
  ``file_bytes``, and ``bit_exact`` when every loaded weight and bias
  has the saved bit pattern. A version-2 file's size and cost do not
  depend on the weight values.
* ``train`` trains a ``57 -> width -> 4`` classifier on blobs data
  (4,300 rows, so a 2,580-row train split). ``train_s`` is the median
  wall time of ``train`` over ``--repeats`` runs, ``us_per_minibatch``
  that time per minibatch, and ``sha256`` a digest of the trained
  weights and biases as raw float64 bytes: equal digests from two source
  trees mean bit-identical models.

Examples, from the repository root:
    PYTHONPATH=src python3 scripts/bench.py prune --shapes 1024x256 2048x256
    PYTHONPATH=src python3 scripts/bench.py model-io --shapes 1024x256 4096x256
    PYTHONPATH=src python3 scripts/bench.py train --widths 64 256 --epochs 10
"""

import os

# before numpy is imported, so that BLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import neuronprune as npr
from neuronprune import saliency


def shape(text):
    width, fan_in = (int(v) for v in text.lower().split("x"))
    return width, fan_in


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    prune = commands.add_parser("prune", help="prune near-twin layers to one neuron")
    prune.add_argument("--modes", nargs="+", default=["raw", "heuristic"],
                       choices=["raw", "heuristic"])
    model_io = commands.add_parser("model-io", help="save and load near-twin networks")
    model_io.add_argument("--dir", default=None,
                          help="directory for the model files (default: the system temp dir)")
    train = commands.add_parser("train", help="train blobs classifiers")
    train.add_argument("--widths", type=int, nargs="+", default=[64, 256, 1024])
    train.add_argument("--activations", nargs="+", default=["sigmoid", "relu"],
                       choices=["sigmoid", "relu"])
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--repeats", type=int, default=5)
    for command, shapes in ((prune, [(w, f) for f in (256, 9216) for w in (1024, 2048, 4096)]),
                            (model_io, [(1024, 256), (4096, 256), (4096, 9216)])):
        command.add_argument("--shapes", type=shape, nargs="+", default=shapes,
                             metavar="WIDTHxFAN_IN", help="default: %(default)s")
    for command in (prune, model_io, train):
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--timeout", type=float, default=900.0, help="seconds per case")
        command.add_argument("--case", type=json.loads, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def maxrss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def near_twin_net(seed, width, fan_in, n_out=10, copies=16):
    """A ReLU layer of ``width`` rows feeding a ``n_out``-wide output layer.

    The rows are drawn tightly around ``ceil(width / 4)`` prototypes, in
    row chunks to bound memory, and up to ``copies`` of them are
    overwritten by an exact copy of a sibling.
    """
    rng = np.random.default_rng(seed)
    n_protos = -(-width // 4)
    protos = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(n_protos, fan_in))
    owner = rng.permutation(np.arange(width) // 4)
    w = protos[owner]
    for lo in range(0, width, 256):
        w[lo : lo + 256] += rng.normal(0.0, 1e-3 / np.sqrt(fan_in), size=w[lo : lo + 256].shape)
    b = rng.uniform(0.5, 1.5, size=n_protos)[owner] + rng.normal(0.0, 1e-3, size=width)
    # only prototypes with four rows, so that each has a sibling to copy
    for proto in rng.choice(width // 4, size=min(copies, width // 4), replace=False):
        source, target = np.flatnonzero(owner == proto)[:2]
        w[target], b[target] = w[source], b[source]
    return npr.Network(
        layers=(
            npr.FcLayer(w, b, npr.Activation.RELU),
            npr.FcLayer(
                rng.normal(0.0, 1.0 / np.sqrt(width), size=(n_out, width)),
                rng.normal(0.0, 0.1, size=n_out),
                npr.Activation.IDENTITY,
            ),
        ),
        input_dim=fan_in,
    )


def prune_case(args, width, fan_in, mode):
    net = near_twin_net(args.seed, width, fan_in)
    counts = {"pairs": 0, "bound_s": 0.0}
    scorer, bounds = saliency._pair_scorer, saliency._sim_sq_lower_bounds

    def counting_scorer(layer, cfg):
        score = scorer(layer, cfg)

        def counted(a, b):
            s = score(a, b)
            counts["pairs"] += s.size
            return s

        return counted

    def timed_bounds(layer, cfg):
        start = time.perf_counter()
        out = bounds(layer, cfg)
        counts["bound_s"] += time.perf_counter() - start
        return out

    saliency._pair_scorer = counting_scorer
    saliency._sim_sq_lower_bounds = timed_bounds
    cfg = npr.SimilarityConfig(mode=npr.SimilarityMode(mode))
    setup_maxrss = maxrss_mb()
    start = time.perf_counter()
    _, trace = npr.prune_layer(
        net, 0, width - 1, npr.PrunePolicy(npr.PolicyKind.SALIENCY_SURGERY), cfg
    )
    prune_s = time.perf_counter() - start
    assert trace.is_full
    return {
        "prune_s": round(prune_s, 4),
        "bound_build_s": round(counts["bound_s"], 4),
        "pairs_scored": counts["pairs"],
        "all_pairs": width * (width - 1) // 2,
        "setup_maxrss_mb": setup_maxrss,
        "ru_maxrss_mb": maxrss_mb(),
    }


def model_io_case(args, width, fan_in):
    net = near_twin_net(args.seed, width, fan_in)
    setup_maxrss = maxrss_mb()
    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        path = Path(tmp) / "net.model"
        start = time.perf_counter()
        npr.save_model(net, path)
        save_s = time.perf_counter() - start
        file_bytes = path.stat().st_size
        start = time.perf_counter()
        loaded = npr.load_model(path)
        load_s = time.perf_counter() - start
    # compared as bit patterns, without a bytes copy that would set the peak
    bit_exact = all(
        np.array_equal(x.view(np.uint64), y.view(np.uint64))
        for a, b in zip(net.layers, loaded.layers)
        for x, y in ((a.weights, b.weights), (a.bias, b.bias))
    )
    return {
        "save_s": round(save_s, 4),
        "load_s": round(load_s, 4),
        "file_bytes": file_bytes,
        "setup_maxrss_mb": setup_maxrss,
        "ru_maxrss_mb": maxrss_mb(),
        "bit_exact": bit_exact,
    }


def train_case(args, activation, width):
    ds = npr.make_blobs(n_samples=4300, n_features=57, n_classes=4, seed=args.seed)
    n_train = len(ds.split("train")[1])
    minibatches = args.epochs * math.ceil(n_train / args.batch_size)
    cfg = npr.TrainConfig(
        hidden_units=width,
        activation=npr.Activation(activation),
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    setup_maxrss = maxrss_mb()
    times, digests = [], set()
    for _ in range(args.repeats):
        start = time.perf_counter()
        net = npr.train(ds, cfg)
        times.append(time.perf_counter() - start)
        digest = hashlib.sha256()
        for layer in net.layers:
            digest.update(layer.weights.tobytes())
            digest.update(layer.bias.tobytes())
        digests.add(digest.hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"{activation} width {width}: repeated runs differ")
    train_s = statistics.median(times)
    return {
        "epochs": args.epochs,
        "minibatches": minibatches,
        "train_s": round(train_s, 4),
        "us_per_minibatch": round(1e6 * train_s / max(minibatches, 1), 1),
        "sha256": digests.pop(),
        "setup_maxrss_mb": setup_maxrss,
        "ru_maxrss_mb": maxrss_mb(),
    }


def cases(args):
    """The subcommand's cases in run order, each as the keyword arguments of its runner."""
    if args.command == "prune":
        return [dict(width=w, fan_in=f, mode=m) for w, f in args.shapes for m in args.modes]
    if args.command == "model-io":
        return [dict(width=w, fan_in=f) for w, f in args.shapes]
    return [dict(activation=a, width=w) for a in args.activations for w in args.widths]


RUNNERS = {"prune": prune_case, "model-io": model_io_case, "train": train_case}


def main(argv=None):
    argv = [str(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    args = parse_args(argv)
    if args.case is not None:
        print(json.dumps(RUNNERS[args.command](args, **args.case)))
        return
    for case in cases(args):
        record = {**case, "seed": args.seed}
        command = [sys.executable, __file__, *argv, "--case", json.dumps(case)]
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as child:
            try:
                stdout, stderr = child.communicate(timeout=args.timeout)
            except subprocess.TimeoutExpired:
                child.kill()
                # reaped here rather than by Popen, which would discard the child's usage
                usage = os.wait4(child.pid, 0)[2]
                record.update(timed_out=True, ru_maxrss_mb=round(usage.ru_maxrss / 1024, 1))
            else:
                if child.returncode == 0:
                    record.update(json.loads(stdout.splitlines()[-1]), timed_out=False)
                else:
                    record.update(timed_out=False, error=stderr.strip().splitlines()[-1:])
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
