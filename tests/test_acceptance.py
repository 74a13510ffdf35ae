"""Acceptance gate: one test per release criterion.

Each test name carries its criterion number, so ``pytest -v`` prints one
pass/fail line per criterion; the body also prints the measured values.
The trained-fixture criteria (06-08) share the session-scoped
``acceptance_runs`` fixture: ten seeds of the four-class synthetic
problem with the random baseline averaged over three draws per seed.
"""

import time

import numpy as np
import pytest

from conftest import mean_curve, relu_rescaled
from neuronprune.cutoff import data_free_cutoff, histogram
from neuronprune.data import make_blobs
from neuronprune.model_io import export_trace, import_trace, load_model, save_model
from neuronprune.network import Activation, FcLayer, Network, forward_batch
from neuronprune.pruning import (
    PolicyKind,
    PrunePolicy,
    PruneStep,
    PruneTrace,
    compression_percent,
    neuron_removal_params,
    prune_layer,
    prune_one,
)
from neuronprune.saliency import (
    SimilarityMode,
    build_saliency_matrix,
    mean_outgoing_square,
    raw_difference,
    verify_bound,
)
from neuronprune.training import TrainConfig, trace_error_curve, train

SURGERY = PrunePolicy(kind=PolicyKind.SALIENCY_SURGERY)
RAW = SimilarityMode.RAW_DIFFERENCE

# Removal checkpoints on the 20-unit fixture: 25%, 50%, 75% of the layer.
CHECKPOINTS = (5, 10, 15)
FINAL_QUARTER = (15, 16, 17, 18, 19)


def duplicated_pairs_net(seed: int, activation: Activation) -> Network:
    """A 7-12-4 net whose hidden neurons form six exact duplicate pairs."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=(12, 7))
    b1 = rng.normal(size=12)
    w1[1::2] = w1[0::2]
    b1[1::2] = b1[0::2]
    return Network(
        layers=(
            FcLayer(w1, b1, activation),
            FcLayer(rng.normal(size=(4, 12)), rng.normal(size=4), Activation.IDENTITY),
        ),
        input_dim=7,
    )


def seeded_relu_net(seed: int) -> Network:
    rng = np.random.default_rng(seed)
    return Network(
        layers=(
            FcLayer(
                rng.normal(size=(8, 12)) / np.sqrt(12),
                rng.normal(0, 0.1, 8),
                Activation.RELU,
            ),
            FcLayer(
                rng.normal(size=(3, 8)) / np.sqrt(8),
                rng.normal(0, 0.1, 3),
                Activation.IDENTITY,
            ),
        ),
        input_dim=12,
    ), rng


def test_criterion_01_duplicate_merge_changes_no_output():
    started = time.perf_counter()
    worst = 0.0
    for seed, activation in ((0, Activation.SIGMOID), (1, Activation.SIGMOID), (2, Activation.RELU)):
        net = duplicated_pairs_net(seed, activation)
        pruned, trace = prune_layer(net, 0, 6, SURGERY)
        assert all(s.saliency == 0.0 for s in trace.steps)
        xs = np.random.default_rng(500 + seed).normal(size=(1000, 7))
        deviation = float(np.abs(forward_batch(net, xs) - forward_batch(pruned, xs)).max())
        worst = max(worst, deviation)
        assert deviation <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 01 duplicate-merge exactness: PASS "
          f"(max deviation {worst:.3e}, {elapsed * 1e3:.0f} ms)")


def test_criterion_02_activations_never_expand_differences():
    started = time.perf_counter()
    ratios = {}
    for activation in (Activation.RELU, Activation.SIGMOID):
        rng = np.random.default_rng(0)
        p = rng.uniform(-20.0, 20.0, 100_000)
        q = rng.uniform(-20.0, 20.0, 100_000)
        lhs = (activation.apply(p) - activation.apply(q)) ** 2
        rhs = (p - q) ** 2
        assert np.count_nonzero(lhs > rhs) == 0
        ratios[activation.value] = float((lhs[rhs > 0] / rhs[rhs > 0]).max())
        assert ratios[activation.value] <= 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 02 activation contraction: PASS "
          f"(0 violations in 2x100000 pairs, max ratios {ratios}, "
          f"{elapsed * 1e3:.0f} ms)")


def test_criterion_03_output_gap_bound_on_argmin_pairs():
    violations = 0
    largest_margin = 0.0
    for k in range(20):
        net, rng = seeded_relu_net(1000 + k)
        matrix = build_saliency_matrix(net.layers[0], net.layers[1], RAW)
        i, j = matrix.argmin_live()
        xs = rng.normal(size=(1000, 12))
        samples = verify_bound(net, 0, i, j, xs)
        layer = net.layers[0]
        a_sq = mean_outgoing_square(net.layers[1], j)
        eps = raw_difference(layer.weight_set(i), layer.weight_set(j))
        for s in samples:
            ceiling = a_sq * eps**2 * float(s.x @ s.x)
            if s.gap_sq > ceiling:
                violations += 1
            if ceiling > 0:
                largest_margin = max(largest_margin, s.gap_sq / ceiling)
    assert violations == 0
    print(f"criterion 03 output-gap bound: PASS "
          f"(0 violations in 20x1000 inputs, tightest gap/bound {largest_margin:.3f})")


def test_criterion_04_relu_rescale_preserves_outputs():
    worst = 0.0
    for k in range(5):
        net, rng = seeded_relu_net(40 + k)
        rescaled = relu_rescaled(net)
        xs = rng.normal(size=(1000, 12))
        deviation = float(np.abs(forward_batch(net, xs) - forward_batch(rescaled, xs)).max())
        worst = max(worst, deviation)
        assert deviation <= 1e-9
    print(f"criterion 04 relu rescale invariance: PASS (max deviation {worst:.3e})")


def test_criterion_05_incremental_matrix_matches_rebuild_every_step():
    rng = np.random.default_rng(7)
    net = Network(
        layers=(
            FcLayer(rng.normal(size=(30, 10)), rng.normal(0, 0.5, 30), Activation.SIGMOID),
            FcLayer(rng.normal(size=(4, 30)), rng.normal(0, 0.5, 4), Activation.IDENTITY),
        ),
        input_dim=10,
    )
    matrix = build_saliency_matrix(net.layers[0], net.layers[1])
    worst = 0.0
    steps = 0
    while matrix.n_live > 1:
        net, matrix, _ = prune_one(net, 0, matrix)
        steps += 1
        if matrix.n_live < 2:
            break  # a single survivor has no pairs left to rank
        fresh = build_saliency_matrix(net.layers[0], net.layers[1])
        live = matrix.values[np.ix_(matrix.live, matrix.live)]
        assert live.shape == fresh.values.shape
        denom = np.maximum(np.abs(fresh.values), 1.0)
        worst = max(worst, float((np.abs(live - fresh.values) / denom).max()))
        assert np.allclose(live, fresh.values, rtol=1e-12, atol=0.0)
    assert steps == 29
    print(f"criterion 05 incremental cost matrix: PASS "
          f"(29 steps, worst relative difference {worst:.3e})")


def test_criterion_06_policy_error_ordering(acceptance_runs):
    surgery = mean_curve(acceptance_runs, PolicyKind.SALIENCY_SURGERY)
    magnitude = mean_curve(acceptance_runs, PolicyKind.NAIVE_MAGNITUDE)
    random = mean_curve(acceptance_runs, PolicyKind.RANDOM)
    for step in CHECKPOINTS:
        assert surgery[step] <= magnitude[step], f"step {step}"
        assert magnitude[step] <= random[step], f"step {step}"
    baseline = float(np.mean([r.baseline_error for r in acceptance_runs]))
    half_gap = surgery[CHECKPOINTS[1]] - baseline
    assert abs(half_gap) <= 3.0
    margins = {
        step: (round(magnitude[step] - surgery[step], 2),
               round(random[step] - magnitude[step], 2))
        for step in CHECKPOINTS
    }
    print(f"criterion 06 policy ordering: PASS over {len(acceptance_runs)} seeds "
          f"(checkpoint margins magnitude-surgery, random-magnitude: {margins}; "
          f"50% removal within {half_gap:+.2f} points of baseline)")


def test_criterion_07_surgery_ablation_gap(acceptance_runs):
    surgery = mean_curve(acceptance_runs, PolicyKind.SALIENCY_SURGERY)
    ablated = mean_curve(acceptance_runs, PolicyKind.SALIENCY_NO_SURGERY)
    gap = float(np.mean([ablated[s] - surgery[s] for s in FINAL_QUARTER]))
    assert gap >= 5.0
    print(f"criterion 07 surgery ablation: PASS "
          f"(final-quarter gap {gap:.2f} points over {len(acceptance_runs)} seeds)")


def test_criterion_08_data_free_cutoff_stays_near_baseline(acceptance_runs):
    increases = []
    counts = []
    for run in acceptance_runs:
        report = data_free_cutoff(run.traces[PolicyKind.SALIENCY_SURGERY])
        counts.append(report.predicted_count)
        curve = run.curves[PolicyKind.SALIENCY_SURGERY]
        increases.append(curve[report.predicted_count] - run.baseline_error)
    assert max(increases) <= 3.0

    rng = np.random.default_rng(42)
    saliencies = np.concatenate([rng.normal(1.2, 0.05, 400), rng.uniform(2.0, 6.0, 100)])
    trace = PruneTrace(
        layer_index=0,
        n_original=len(saliencies) + 1,
        steps=tuple(
            PruneStep(step_number=k + 1, removed=k, saliency=float(s))
            for k, s in enumerate(saliencies)
        ),
    )
    h = histogram(trace)
    mode_center = float((h.bin_edges[h.mode_bin] + h.bin_edges[h.mode_bin + 1]) / 2)
    assert 1.1 <= mode_center <= 1.3
    print(f"criterion 08 data-free cutoff: PASS "
          f"(max error increase {max(increases):.2f} points, predictions {counts}; "
          f"mixture mode at {mode_center:.3f})")


@pytest.mark.xfail(
    strict=True,
    reason="the data-free cutoff overshoots on ReLU layers: the error rises "
    "11.28, 2.33, 4.30, 19.88 and 8.02 points on seeds 0-4",
)
def test_criterion_08_relu_data_free_cutoff_stays_near_baseline():
    increases = []
    for seed in range(5):
        ds = make_blobs(n_classes=4, separation=4.0, label_noise=0.02, seed=seed)
        cfg = TrainConfig(
            hidden_units=20, activation=Activation.RELU, epochs=200, weight_decay=5e-3, seed=seed
        )
        net = train(ds, cfg)
        _, trace = prune_layer(net, 0, 19, SURGERY)
        curve = dict(trace_error_curve(net, trace, ds))
        increases.append(curve[data_free_cutoff(trace).predicted_count] - curve[0])
    print(f"criterion 08 on relu: max error increase {max(increases):.2f} points "
          f"({', '.join(f'{e:.2f}' for e in increases)})")
    assert max(increases) <= 3.0


def test_criterion_09_compression_arithmetic():
    percent = compression_percent(9.3e6, 60.9e6)
    assert abs(percent - 15.28) <= 0.05
    structural = neuron_removal_params(700, fan_in=9216, fan_out=4096)
    assert structural == 700 * (9216 + 1 + 4096)
    assert structural == 9_319_100
    assert round(structural / 1e6, 1) == 9.3
    print(f"criterion 09 compression arithmetic: PASS "
          f"({percent:.4f}% vs 15.28, structural count {structural})")


def test_criterion_10_prune_to_one_completes_fast(tmp_path):
    rng = np.random.default_rng(11)
    net = Network(
        layers=(
            FcLayer(rng.normal(size=(20, 10)), rng.normal(0, 0.5, 20), Activation.SIGMOID),
            FcLayer(rng.normal(size=(4, 20)), rng.normal(0, 0.5, 4), Activation.IDENTITY),
        ),
        input_dim=10,
    )
    started = time.perf_counter()
    _, trace = prune_layer(net, 0, 19, SURGERY)
    export_trace(trace, tmp_path / "trace.csv")
    elapsed = time.perf_counter() - started
    assert trace.is_full
    assert len(trace) == 19
    assert elapsed < 1.0
    print(f"criterion 10 prune-to-one speed: PASS ({elapsed * 1e3:.1f} ms incl. export)")


def test_criterion_11_round_trip_io_is_exact(tmp_path):
    rng = np.random.default_rng(13)
    net = Network(
        layers=(
            FcLayer(rng.normal(size=(6, 5)), rng.normal(size=6), Activation.RELU),
            FcLayer(rng.normal(size=(4, 6)), rng.normal(size=4), Activation.SIGMOID),
            FcLayer(rng.normal(size=(3, 4)), rng.normal(size=3), Activation.IDENTITY),
        ),
        input_dim=5,
    )
    model_path = tmp_path / "model.txt"
    save_model(net, model_path)
    loaded = load_model(model_path)
    for got, want in zip(loaded.layers, net.layers):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)
        assert got.activation is want.activation

    saliencies = [np.pi, 0.1 + 0.2, 1.2345678901234567e-5, 3.0]
    trace = PruneTrace(
        layer_index=0,
        n_original=5,
        steps=tuple(
            PruneStep(step_number=k + 1, removed=k, saliency=s, kept=4)
            for k, s in enumerate(saliencies)
        ),
        test_errors=(10.5, 11.25, 12.0, 40.0),
    )
    trace_path = tmp_path / "trace.csv"
    export_trace(trace, trace_path)
    back = import_trace(trace_path)
    assert [s.saliency for s in back.steps] == saliencies
    assert back.test_errors == trace.test_errors
    print("criterion 11 round-trip io: PASS (weights bitwise, trace floats exact)")
