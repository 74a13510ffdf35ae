#!/usr/bin/env python3
"""Exercise both cutoff rules on freshly trained fixtures.

Each seed gets a freshly trained classifier whose hidden layer is then
pruned to one neuron with the merge-similar-neurons policy. Both cutoff
rules then say how many of those removals are safe: the data-free rule
reads only the saliency histogram, while the data-driven rule spends a
small budget of error measurements. The script reports each prediction
next to the error increase actually measured at that removal count, and
writes the data-free report files.

Example:
    python3 scripts/run_cutoff_experiment.py --seeds 0 1 2 --out-dir results/cutoff
"""

import argparse
import warnings
from pathlib import Path

from neuronprune import (
    PolicyKind,
    PrunePolicy,
    TrainConfig,
    data_driven_cutoff,
    data_free_cutoff,
    export_report,
    export_trace,
    make_blobs,
    prune_layer,
    replay_error_oracle,
    trace_error_curve,
    train,
)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--hidden", type=int, default=20)
    parser.add_argument("--epochs", type=int, default=400)
    parser.add_argument("--lr", type=float, default=0.5)
    parser.add_argument("--weight-decay", type=float, default=5e-3)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--separation", type=float, default=4.0)
    parser.add_argument("--label-noise", type=float, default=0.02)
    parser.add_argument("--budget", type=int, default=12)
    parser.add_argument("--max-error-increase", type=float, default=1.0)
    parser.add_argument("--out-dir", type=Path, default=Path("results/cutoff"))
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    header = (
        f"{'seed':>4} {'free':>5} {'free +err':>9} {'driven':>7} {'driven +err':>11}"
    )
    print(header)
    for seed in args.seeds:
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
        _, trace = prune_layer(
            net, 0, args.hidden - 1, PrunePolicy(PolicyKind.SALIENCY_SURGERY)
        )
        curve = dict(trace_error_curve(net, trace, ds))
        baseline = curve[0]

        free = data_free_cutoff(trace)
        export_trace(trace, args.out_dir / f"trace_seed{seed}.csv")
        export_report(free, args.out_dir / f"data_free_seed{seed}.txt")

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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
