#!/usr/bin/env python3
"""Run the paper's experiments on freshly trained classification fixtures.

Each seed gets a blobs dataset and a one-hidden-layer classifier trained
on it; both subcommands share the flags that build this fixture.

* ``compare`` prunes the hidden layer to a single neuron under every
  policy and reports mean test error at each removal count. The random
  baseline is averaged over three draws per seed to damp draw-to-draw
  noise. It writes one mean-curve CSV per policy and prints a checkpoint
  table.
* ``cutoff`` prunes the hidden layer to one neuron with the
  merge-similar-neurons policy, then lets both cutoff rules say how many
  of those removals are safe: the data-free rule reads only the saliency
  histogram, while the data-driven rule spends a small budget of error
  measurements. It prints each prediction next to the error increase
  actually measured at that removal count, and writes each seed's trace
  and data-free JSON report.

Examples, from the repository root:
    PYTHONPATH=src python3 scripts/experiment.py compare --out-dir results/comparison
    PYTHONPATH=src python3 scripts/experiment.py cutoff --seeds 0 1 2 --out-dir results/cutoff
"""

import argparse
import warnings
from pathlib import Path

import numpy as np

from neuronprune import (
    PolicyKind,
    PrunePolicy,
    TrainConfig,
    compare_policies,
    data_driven_cutoff,
    data_free_cutoff,
    export_curve,
    export_report_json,
    export_trace,
    make_blobs,
    prune_layer,
    replay_error_oracle,
    trace_error_curve,
    train,
)

RANDOM_DRAWS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    compare = commands.add_parser("compare", help="compare pruning policies")
    cutoff = commands.add_parser("cutoff", help="exercise both cutoff rules")
    cutoff.add_argument("--budget", type=int, default=12)
    cutoff.add_argument("--max-error-increase", type=float, default=1.0)
    for command, out_dir in ((compare, "results/comparison"), (cutoff, "results/cutoff")):
        command.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
        command.add_argument("--hidden", type=int, default=20)
        command.add_argument("--epochs", type=int, default=400)
        command.add_argument("--lr", type=float, default=0.5)
        command.add_argument("--weight-decay", type=float, default=5e-3)
        command.add_argument("--classes", type=int, default=4)
        command.add_argument("--separation", type=float, default=4.0)
        command.add_argument("--label-noise", type=float, default=0.02)
        command.add_argument("--out-dir", type=Path, default=Path(out_dir))
    return parser.parse_args(argv)


def fixture(seed, args):
    """The seed's blobs dataset and the classifier trained on it."""
    ds = make_blobs(
        n_classes=args.classes,
        separation=args.separation,
        label_noise=args.label_noise,
        seed=seed,
    )
    net = train(
        ds,
        TrainConfig(
            hidden_units=args.hidden,
            learning_rate=args.lr,
            epochs=args.epochs,
            weight_decay=args.weight_decay,
            seed=seed,
        ),
    )
    return ds, net


def compare(args):
    per_seed = []
    for seed in args.seeds:
        ds, net = fixture(seed, args)
        random_seeds = [seed + 100 * offset for offset in range(RANDOM_DRAWS)]
        _, curves = compare_policies(net, 0, ds, random_seeds)
        per_seed.append({kind: dict(curve) for kind, curve in curves.items()})
    steps = sorted(per_seed[0][PolicyKind.SALIENCY_SURGERY])
    checkpoints = [round(frac * args.hidden) for frac in (0.25, 0.5, 0.75)]

    print(f"mean test error over {len(args.seeds)} seeds")
    print(f"{'removed':>8} " + " ".join(f"{k.value:>20}" for k in PolicyKind))
    for kind in PolicyKind:
        mean = [
            float(np.mean([curves[kind][s] for curves in per_seed])) for s in steps
        ]
        export_curve(list(zip(steps, mean)), args.out_dir / f"mean_curve_{kind.value}.csv")
    for step in checkpoints:
        row = " ".join(
            f"{float(np.mean([c[kind][step] for c in per_seed])):>20.2f}"
            for kind in PolicyKind
        )
        print(f"{step:>8} {row}")
    print(f"wrote curves to {args.out_dir}")


def cutoff(args):
    print(f"{'seed':>4} {'free':>5} {'free +err':>9} {'driven':>7} {'driven +err':>11}")
    for seed in args.seeds:
        ds, net = fixture(seed, args)
        _, trace = prune_layer(
            net, 0, args.hidden - 1, PrunePolicy(PolicyKind.SALIENCY_SURGERY)
        )
        curve = dict(trace_error_curve(net, trace, ds))
        baseline = curve[0]

        free = data_free_cutoff(trace)
        export_trace(trace, args.out_dir / f"trace_seed{seed}.csv")
        export_report_json(free, args.out_dir / f"data_free_seed{seed}.json")

        oracle = replay_error_oracle(net, trace, ds, "val")
        with warnings.catch_warnings():
            # A small budget may end on a loose bracket; the count is still usable.
            warnings.simplefilter("ignore", RuntimeWarning)
            driven = data_driven_cutoff(
                trace,
                oracle,
                budget=args.budget,
                max_error_increase=args.max_error_increase,
            )

        print(
            f"{seed:>4} {free.predicted_count:>5} "
            f"{curve[free.predicted_count] - baseline:>+9.2f} "
            f"{driven.predicted_count:>7} "
            f"{curve[driven.predicted_count] - baseline:>+11.2f}"
        )
    print(f"wrote traces and reports to {args.out_dir}")


def main(argv=None) -> int:
    args = parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    {"compare": compare, "cutoff": cutoff}[args.command](args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
