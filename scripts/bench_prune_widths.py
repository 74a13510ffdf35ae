#!/usr/bin/env python3
"""Time prune-to-one on seeded near-twin layers, one subprocess per case.

Each case builds a ReLU layer of ``width`` rows drawn tightly around
``width // 4`` prototypes, with 16 rows overwritten by exact copies of a
sibling, feeding a 10-wide output layer. It then prunes the layer to one
neuron with the saliency-surgery policy in the given similarity mode.
Every case runs in a fresh process, so its resident high-water mark is
its own. A case that overruns ``--timeout`` is reported as timed out,
never skipped.

Each case prints one JSON line:

* ``prune_s``: wall time of ``prune_layer``;
* ``bound_build_s``: of which, building the certified lower bounds;
* ``pairs_scored``: pairs scored exactly, against ``all_pairs`` =
  n(n-1)/2; counted by wrapping the private pair scorer from here;
* ``ru_maxrss_mb``: the process's peak resident memory, and
  ``setup_maxrss_mb`` the same just before pruning; building the layer
  briefly holds two copies of its weights, so at fan-in 9216 the set-up
  can set the peak;
* ``timed_out``: true when the case was stopped at ``--timeout``.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/bench_prune_widths.py --widths 1024 --fan-ins 256
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

import neuronprune as npr
from neuronprune import saliency


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", type=int, nargs="+", default=[1024, 2048, 4096])
    parser.add_argument("--fan-ins", type=int, nargs="+", default=[256, 9216])
    parser.add_argument("--modes", nargs="+", default=["raw", "heuristic"],
                        choices=["raw", "heuristic"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=900.0, help="seconds per case")
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument("--case", nargs=3, metavar=("WIDTH", "FAN_IN", "MODE"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def near_twin_net(seed, width, fan_in, n_out=10, copies=16):
    """Near-twin rows around ``width // 4`` prototypes, drawn in row chunks to bound memory."""
    rng = np.random.default_rng(seed)
    n_protos = width // 4
    protos = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(n_protos, fan_in))
    owner = rng.permutation(np.repeat(np.arange(n_protos), 4))
    w = protos[owner]
    for lo in range(0, width, 256):
        w[lo : lo + 256] += rng.normal(0.0, 1e-3 / np.sqrt(fan_in), size=w[lo : lo + 256].shape)
    b = rng.uniform(0.5, 1.5, size=n_protos)[owner] + rng.normal(0.0, 1e-3, size=width)
    for proto in rng.choice(n_protos, size=copies, replace=False):
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


def run_case(width, fan_in, mode, seed):
    """Prune one layer to one neuron in this process and return its record."""
    net = near_twin_net(seed, width, fan_in)
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
    setup_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
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
        "setup_maxrss_mb": round(setup_maxrss / 1024, 1),
        "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None):
    args = parse_args(argv)
    if args.case:
        width, fan_in, mode = int(args.case[0]), int(args.case[1]), args.case[2]
        print(json.dumps(run_case(width, fan_in, mode, args.seed)))
        return
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(args.blas_threads)
    for fan_in in args.fan_ins:
        for width in args.widths:
            for mode in args.modes:
                record = {"width": width, "fan_in": fan_in, "mode": mode, "seed": args.seed}
                command = [sys.executable, __file__, "--seed", str(args.seed),
                           "--case", str(width), str(fan_in), mode]
                try:
                    done = subprocess.run(command, env=env, capture_output=True, text=True,
                                          timeout=args.timeout, check=True)
                    record.update(json.loads(done.stdout.splitlines()[-1]), timed_out=False)
                except subprocess.TimeoutExpired:
                    record.update(timed_out=True)
                except subprocess.CalledProcessError as exc:
                    record.update(timed_out=False, error=exc.stderr.strip().splitlines()[-1:])
                print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
