#!/usr/bin/env python3
"""Time seeded SGD training on a blobs dataset, with one BLAS thread.

Each case trains a ``57 -> width -> 4`` classifier with ``train`` on the
same blobs data (4,300 rows, so a 2,580-row train split) and prints one
JSON line:

* ``train_s``: the median wall time of ``train`` over ``--repeats`` runs;
* ``us_per_minibatch``: that time divided by the number of minibatches;
* ``sha256``: of the trained weights and biases, layer by layer, as raw
  float64 bytes. Run the script against two source trees to compare both
  speed and bits: equal digests mean bit-identical models.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/bench_train.py --widths 64 256 --epochs 10
"""

import os

# before numpy is imported, so that BLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import statistics
import time

import neuronprune as npr


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", type=int, nargs="+", default=[64, 256, 1024])
    parser.add_argument("--activations", nargs="+", default=["sigmoid", "relu"],
                        choices=["sigmoid", "relu"])
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def weights_digest(net) -> str:
    digest = hashlib.sha256()
    for layer in net.layers:
        digest.update(layer.weights.tobytes())
        digest.update(layer.bias.tobytes())
    return digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    ds = npr.make_blobs(n_samples=4300, n_features=57, n_classes=4, seed=args.seed)
    n_train = len(ds.split("train")[1])
    minibatches = args.epochs * math.ceil(n_train / args.batch_size)
    for activation in args.activations:
        for width in args.widths:
            cfg = npr.TrainConfig(
                hidden_units=width,
                activation=npr.Activation(activation),
                epochs=args.epochs,
                batch_size=args.batch_size,
                seed=args.seed,
            )
            times, digests = [], set()
            for _ in range(args.repeats):
                start = time.perf_counter()
                net = npr.train(ds, cfg)
                times.append(time.perf_counter() - start)
                digests.add(weights_digest(net))
            if len(digests) != 1:
                raise SystemExit(f"{activation} width {width}: repeated runs differ")
            train_s = statistics.median(times)
            print(json.dumps({
                "activation": activation,
                "width": width,
                "epochs": args.epochs,
                "minibatches": minibatches,
                "train_s": round(train_s, 4),
                "us_per_minibatch": round(1e6 * train_s / max(minibatches, 1), 1),
                "sha256": digests.pop(),
            }), flush=True)


if __name__ == "__main__":
    main()
