"""Command-line pipeline: train fixtures, prune, pick cutoffs, evaluate.

Subcommands::

    train    fit a one-hidden-layer classifier and save it
    prune    remove neurons per a layer plan and policy
    cutoff   recommend a removal count from a recorded trace
    eval     report accuracy/error of a saved model on a dataset
    compare  run all four policies and emit per-policy error curves

Exit codes: 0 on success, 1 on runtime failure (bad file contents,
dimension mismatches, divergence), 2 on usage errors. All randomness is
controlled by explicit seed flags; nothing reads the clock.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cutoff import data_driven_cutoff, data_free_cutoff
from .data import load_csv, make_blobs
from .model_io import (
    export_curve,
    export_report_json,
    export_trace,
    import_trace,
    load_model,
    save_model,
)
from .network import Activation, param_count
from .pruning import (
    PolicyKind,
    PrunePolicy,
    compression_percent,
    prune_network,
)
from .saliency import SimilarityMode
from .training import (
    TrainConfig,
    TrainingDiverged,
    compare_policies,
    evaluate,
    replay_error_oracle,
    train,
)

__all__ = ["main", "entry"]

_POLICY_CHOICES = [kind.value for kind in PolicyKind]


def _plan_entry(text: str) -> tuple[int, int]:
    try:
        idx_text, count_text = text.split(":")
        idx, count = int(idx_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LAYER:COUNT with two integers, got {text!r}"
        ) from None
    if idx < 0:
        raise argparse.ArgumentTypeError("layer index must be nonnegative")
    if count < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return idx, count


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError("need at least one seed")
    return seeds


def _add_data_args(parser: argparse.ArgumentParser, required: bool = True) -> None:
    source = parser.add_mutually_exclusive_group(required=required)
    source.add_argument("--data", metavar="CSV", help="dataset CSV (features..., label)")
    source.add_argument(
        "--synthetic", action="store_true", help="use the built-in Gaussian-cluster generator"
    )
    parser.add_argument("--has-header", action="store_true", help="skip one CSV header line")
    parser.add_argument(
        "--no-standardize",
        action="store_true",
        help="keep CSV features raw instead of train-split standardization",
    )
    parser.add_argument("--samples", type=int, default=4300, help="synthetic sample count")
    parser.add_argument("--features", type=int, default=57, help="synthetic feature count")
    parser.add_argument("--classes", type=int, default=2, help="synthetic class count")
    parser.add_argument(
        "--separation", type=float, default=4.0, help="synthetic between-center distance"
    )
    parser.add_argument(
        "--label-noise", type=float, default=0.02, help="synthetic label flip probability"
    )
    parser.add_argument("--data-seed", type=int, default=0, help="seed for data generation/split")


def _load_dataset(args):
    if args.data is not None:
        return load_csv(
            args.data,
            has_header=args.has_header,
            seed=args.data_seed,
            standardize=not args.no_standardize,
        )
    return make_blobs(
        n_samples=args.samples,
        n_features=args.features,
        n_classes=args.classes,
        separation=args.separation,
        label_noise=args.label_noise,
        seed=args.data_seed,
    )


def _add_similarity_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=["heuristic", "raw"],
        default="heuristic",
        help="weight-set similarity measure",
    )


def _policy_from_args(parser: argparse.ArgumentParser, args) -> PrunePolicy:
    kind = PolicyKind(args.policy)
    if kind is PolicyKind.RANDOM:
        if args.seed is None:
            parser.error("--policy random requires --seed")
        return PrunePolicy(kind=kind, seed=args.seed)
    if args.seed is not None:
        parser.error(f"--seed applies only to --policy random, not {kind.value}")
    return PrunePolicy(kind=kind)


def _cmd_train(args) -> int:
    ds = _load_dataset(args)
    cfg = TrainConfig(
        hidden_units=args.hidden,
        activation=Activation(args.activation),
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        weight_decay=args.weight_decay,
    )
    net = train(ds, cfg)
    save_model(net, args.out)
    train_acc, _ = evaluate(net, ds, "train")
    test_acc, _ = evaluate(net, ds, "test")
    print(f"wrote model: {args.out}")
    print(f"train accuracy: {train_acc:.2f}")
    print(f"test accuracy: {test_acc:.2f}")
    return 0


def _trace_path(base: Path, layer_index: int, multiple: bool) -> Path:
    if not multiple:
        return base
    return base.with_name(f"{base.stem}.layer{layer_index}{base.suffix}")


def _cmd_prune(parser: argparse.ArgumentParser, args) -> int:
    policy = _policy_from_args(parser, args)
    plan = args.layer or []
    net = load_model(args.model)
    before = param_count(net)
    pruned, traces = prune_network(net, plan, policy, SimilarityMode(args.mode))
    save_model(pruned, args.out)
    if args.trace is not None:
        base = Path(args.trace)
        for trace in traces:
            export_trace(trace, _trace_path(base, trace.layer_index, len(traces) > 1))
    removed = before - param_count(pruned)
    print(f"wrote model: {args.out}")
    print(
        f"compression: {compression_percent(removed, before):.2f}% "
        f"({removed} of {before} parameters removed)"
    )
    return 0


def _cmd_cutoff(parser: argparse.ArgumentParser, args) -> int:
    trace = import_trace(args.trace, layer_index=args.layer_index)
    if args.method == "data-free":
        report = data_free_cutoff(trace, n_bins=args.bins)
    else:
        if args.model is None:
            parser.error("--method data-driven requires --model")
        if args.data is None and not args.synthetic:
            parser.error("--method data-driven requires a dataset (--data or --synthetic)")
        net = load_model(args.model)
        ds = _load_dataset(args)
        oracle = replay_error_oracle(net, trace, ds, args.split)
        report = data_driven_cutoff(
            trace, oracle, budget=args.budget, max_error_increase=args.max_error_increase
        )
    print(f"method: {report.method.value}")
    print(f"predicted_count: {report.predicted_count}")
    print(f"cutoff_saliency: {report.cutoff_saliency:.6g}")
    if report.warning:
        print(f"warning: {report.warning}")
    if args.json is not None:
        export_report_json(report, args.json)
        print(f"wrote report: {args.json}")
    return 0


def _cmd_eval(args) -> int:
    net = load_model(args.model)
    ds = _load_dataset(args)
    accuracy, error = evaluate(net, ds, args.split)
    print(f"split: {args.split}")
    print(f"accuracy: {accuracy:.2f}")
    print(f"error: {error:.2f}")
    return 0


def _cmd_compare(args) -> int:
    net = load_model(args.model)
    ds = _load_dataset(args)
    mode = SimilarityMode(args.mode)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, curves = compare_policies(
        net, args.layer_index, ds, args.seeds, mode, args.split, args.eval_every
    )
    for kind, curve in curves.items():
        path = out_dir / f"curve_{kind.value}.csv"
        export_curve(curve, path)
        print(f"{kind.value}: final error {curve[-1][1]:.2f} -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neuronprune",
        description="Merge-similar-neurons pruning for dense feedforward networks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_train = sub.add_parser("train", help="train a fixture classifier")
    _add_data_args(p_train)
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--hidden", type=int, default=20, help="hidden layer width")
    p_train.add_argument(
        "--activation", choices=["sigmoid", "relu"], default="sigmoid", help="hidden activation"
    )
    p_train.add_argument("--lr", type=float, default=0.5, help="SGD learning rate")
    p_train.add_argument("--epochs", type=int, default=60, help="training epochs")
    p_train.add_argument("--batch-size", type=int, default=32, help="minibatch size")
    p_train.add_argument(
        "--weight-decay", type=float, default=1e-3, help="decay on weights (never biases)"
    )
    p_train.add_argument("--seed", type=int, default=0, help="training seed")

    p_prune = sub.add_parser("prune", help="prune a saved model")
    p_prune.add_argument("--model", required=True, help="model file to read")
    p_prune.add_argument("--out", required=True, help="pruned model file to write")
    p_prune.add_argument("--trace", help="trace CSV to write (per layer when several)")
    p_prune.add_argument(
        "--layer",
        action="append",
        type=_plan_entry,
        metavar="LAYER:COUNT",
        help="remove COUNT neurons from LAYER; repeatable, ascending",
    )
    p_prune.add_argument(
        "--policy", choices=_POLICY_CHOICES, default=PolicyKind.SALIENCY_SURGERY.value
    )
    p_prune.add_argument("--seed", type=int, help="seed (random policy only)")
    _add_similarity_args(p_prune)

    p_cutoff = sub.add_parser("cutoff", help="recommend a removal count from a trace")
    p_cutoff.add_argument("--trace", required=True, help="trace CSV from a full prune-to-one run")
    p_cutoff.add_argument("--method", choices=["data-free", "data-driven"], default="data-free")
    p_cutoff.add_argument("--layer-index", type=int, default=0, help="layer the trace describes")
    p_cutoff.add_argument("--bins", type=int, default=50, help="histogram bins (data-free)")
    p_cutoff.add_argument("--json", help="write the report as JSON")
    p_cutoff.add_argument("--model", help="model file (data-driven)")
    p_cutoff.add_argument("--budget", type=int, default=12, help="max oracle calls (data-driven)")
    p_cutoff.add_argument(
        "--max-error-increase",
        type=float,
        default=1.0,
        help="acceptable error rise in points (data-driven)",
    )
    p_cutoff.add_argument(
        "--split", choices=["train", "val", "test"], default="val", help="oracle split"
    )
    _add_data_args(p_cutoff, required=False)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    p_eval.add_argument("--model", required=True, help="model file to read")
    _add_data_args(p_eval)
    p_eval.add_argument("--split", choices=["train", "val", "test"], default="test")

    p_compare = sub.add_parser("compare", help="error curves for all four policies")
    p_compare.add_argument("--model", required=True, help="model file to read")
    _add_data_args(p_compare)
    p_compare.add_argument("--layer-index", type=int, default=0, help="layer to prune")
    p_compare.add_argument(
        "--seeds", type=_seed_list, default=(0, 1, 2, 3, 4), help="random-policy seeds (averaged)"
    )
    p_compare.add_argument("--eval-every", type=int, default=1, help="evaluate every k-th step")
    p_compare.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_compare.add_argument("--out-dir", required=True, help="directory for curve CSVs")
    _add_similarity_args(p_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "prune" and args.layer:
        indices = [idx for idx, _ in args.layer]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            parser.error("--layer entries must have strictly ascending layer indices")
    try:
        if args.subcommand == "train":
            return _cmd_train(args)
        if args.subcommand == "prune":
            return _cmd_prune(parser, args)
        if args.subcommand == "cutoff":
            return _cmd_cutoff(parser, args)
        if args.subcommand == "eval":
            return _cmd_eval(args)
        return _cmd_compare(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
