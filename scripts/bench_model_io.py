#!/usr/bin/env python3
"""Time save_model and load_model on seeded dense networks, one subprocess per shape.

Each case builds a ReLU layer of ``width`` neurons over ``fan_in``
inputs feeding a 10-wide output layer, with normal weights, then saves
it with ``save_model`` and loads it back with ``load_model``. Every case
runs in a fresh process, so its resident high-water mark is its own. A
case that overruns ``--timeout`` is reported as timed out, never
skipped.

Each case prints one JSON line:

* ``save_s`` and ``load_s``: wall times of one save and one load;
* ``file_bytes``: size of the saved file;
* ``setup_maxrss_mb``: the process's peak resident memory after building
  the network, and ``ru_maxrss_mb`` the same after the load;
* ``bit_exact``: every loaded weight and bias has the saved bit pattern;
* ``timed_out``: true when the case was stopped at ``--timeout``.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/bench_model_io.py --shapes 1024x256 4096x256
"""

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import neuronprune as npr


def shape(text):
    width, fan_in = (int(v) for v in text.lower().split("x"))
    return width, fan_in


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", type=shape, nargs="+",
                        default=[(1024, 256), (4096, 256), (4096, 9216)],
                        help="WIDTHxFAN_IN of the hidden layer (default: 1024x256 4096x256 4096x9216)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=900.0, help="seconds per case")
    parser.add_argument("--dir", default=None,
                        help="directory for the model files (default: the system temp dir)")
    parser.add_argument("--case", type=shape, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def dense_net(seed, width, fan_in, n_out=10):
    rng = np.random.default_rng(seed)
    return npr.Network(
        layers=(
            npr.FcLayer(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(width, fan_in)),
                        rng.normal(0.0, 0.1, size=width), npr.Activation.RELU),
            npr.FcLayer(rng.normal(0.0, 1.0 / np.sqrt(width), size=(n_out, width)),
                        rng.normal(0.0, 0.1, size=n_out), npr.Activation.IDENTITY),
        ),
        input_dim=fan_in,
    )


def maxrss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_case(width, fan_in, seed, directory):
    """Save and load one network in this process and return its record."""
    net = dense_net(seed, width, fan_in)
    setup_maxrss = maxrss_mb()
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        path = Path(tmp) / "net.model"
        start = time.perf_counter()
        npr.save_model(net, path)
        save_s = time.perf_counter() - start
        file_bytes = path.stat().st_size
        start = time.perf_counter()
        loaded = npr.load_model(path)
        load_s = time.perf_counter() - start
    bit_exact = all(
        a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()
        for a, b in zip(net.layers, loaded.layers)
    )
    return {
        "save_s": round(save_s, 4),
        "load_s": round(load_s, 4),
        "file_bytes": file_bytes,
        "setup_maxrss_mb": setup_maxrss,
        "ru_maxrss_mb": maxrss_mb(),
        "bit_exact": bit_exact,
    }


def main(argv=None):
    args = parse_args(argv)
    if args.case:
        print(json.dumps(run_case(*args.case, args.seed, args.dir)))
        return
    for width, fan_in in args.shapes:
        record = {"width": width, "fan_in": fan_in, "seed": args.seed}
        command = [sys.executable, __file__, "--seed", str(args.seed),
                   "--case", f"{width}x{fan_in}"]
        if args.dir is not None:
            command += ["--dir", args.dir]
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=args.timeout, check=True)
            record.update(json.loads(done.stdout.splitlines()[-1]), timed_out=False)
        except subprocess.TimeoutExpired:
            record.update(timed_out=True)
        except subprocess.CalledProcessError as exc:
            record.update(timed_out=False, error=exc.stderr.strip().splitlines()[-1:])
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
