#!/usr/bin/env python3
"""Compare pruning policies on the synthetic classification fixture.

Trains a one-hidden-layer classifier per seed and prunes the hidden
layer to a single neuron under every policy, reporting mean test error
at each removal count. The random baseline is averaged over three draws
per seed to damp draw-to-draw noise. Writes one mean-curve CSV per
policy and prints a checkpoint table.

Example:
    python3 scripts/run_policy_comparison.py --out-dir results/comparison
"""

import argparse
from pathlib import Path

import numpy as np

from neuronprune import (
    PolicyKind,
    TrainConfig,
    compare_policies,
    export_curve,
    make_blobs,
    train,
)

RANDOM_DRAWS = 3


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
    parser.add_argument("--out-dir", type=Path, default=Path("results/comparison"))
    return parser.parse_args()


def seed_curves(seed: int, args) -> dict:
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
    random_seeds = [seed + 100 * offset for offset in range(RANDOM_DRAWS)]
    _, curves = compare_policies(net, 0, ds, random_seeds)
    return {kind: dict(curve) for kind, curve in curves.items()}


def main() -> int:
    args = parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    per_seed = [seed_curves(seed, args) for seed in args.seeds]
    steps = sorted(per_seed[0][PolicyKind.SALIENCY_SURGERY])
    checkpoints = [round(frac * args.hidden) for frac in (0.25, 0.5, 0.75)]

    print(f"mean test error over {len(args.seeds)} seeds")
    print(f"{'removed':>8} " + " ".join(f"{k.value:>20}" for k in PolicyKind))
    for kind in PolicyKind:
        mean = [
            float(np.mean([curves[kind][s] for curves in per_seed])) for s in steps
        ]
        path = args.out_dir / f"mean_curve_{kind.value}.csv"
        export_curve(list(zip(steps, mean)), path)
    for step in checkpoints:
        row = " ".join(
            f"{float(np.mean([c[kind][step] for c in per_seed])):>20.2f}"
            for kind in PolicyKind
        )
        print(f"{step:>8} {row}")
    print(f"wrote curves to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
