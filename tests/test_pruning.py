"""Removal loop, baseline policies, traces, and compression arithmetic."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neuronprune.saliency as saliency
from neuronprune import (
    Activation,
    FcLayer,
    Network,
    PolicyKind,
    PrunePolicy,
    PruneStep,
    PruneTrace,
    SimilarityMode,
    TrainConfig,
    build_saliency_matrix,
    compression_percent,
    forward_batch,
    layer_sizes,
    make_blobs,
    merge_neurons,
    neuron_removal_params,
    param_count,
    prune_layer,
    prune_network,
    prune_one,
    replay_trace,
    trace_error_curve,
    train,
    verify_bound,
)
from neuronprune.model_io import export_trace, import_trace, save_model
from neuronprune.network import _LayerEdit
from neuronprune.saliency import _cheapest, _column_minima
from conftest import awkward_layer, record_scored_pairs, widen

HEUR = SimilarityMode.NORMALIZED_HEURISTIC


def seeded_net(seed, d_in=6, hidden=8, d_out=3, activation=Activation.SIGMOID):
    rng = np.random.default_rng(seed)
    return Network(
        layers=(
            FcLayer(rng.normal(size=(hidden, d_in)), rng.normal(size=hidden), activation),
            FcLayer(rng.normal(size=(d_out, hidden)), rng.normal(size=d_out), Activation.IDENTITY),
        ),
        input_dim=d_in,
    )


def duplicate_pair_net(a1=0.3, a2=0.7):
    """Two hidden neurons with identical weight-sets and scalar outputs."""
    w1 = np.array([[1.0, -2.0], [1.0, -2.0]])
    b1 = np.array([0.5, 0.5])
    w2 = np.array([[a1, a2]])
    return Network(
        layers=(
            FcLayer(w1, b1, Activation.SIGMOID),
            FcLayer(w2, np.zeros(1), Activation.IDENTITY),
        ),
        input_dim=2,
    )


def tied_magnitude_net(seed, n, d, d_out, fortran):
    """Rows with exact and negated copies, zero rows and zeroed outgoing columns.

    Copies, with their outgoing columns copied alike, tie on the magnitude
    score; so do all neurons with a zero row or a zero outgoing column.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, d))
    a = rng.normal(size=(d_out, n))
    for r in range(1, n):
        source = int(rng.integers(r))
        kind = rng.integers(5)
        if kind == 0:
            w[r], a[:, r] = w[source], a[:, source]
        elif kind == 1:
            w[r], a[:, r] = -w[source], -a[:, source]
        elif kind == 2:
            a[:, r] = 0.0
        elif kind == 3:
            w[r] = 0.0
    order = "F" if fortran else "C"
    return Network(
        layers=(
            FcLayer(np.asarray(w, order=order), rng.normal(size=n), Activation.RELU),
            FcLayer(np.asarray(a, order=order), rng.normal(size=d_out), Activation.IDENTITY),
        ),
        input_dim=d,
    )


class TestStepAndTraceTypes:
    def test_step_rejects_kept_equal_removed(self):
        with pytest.raises(ValueError):
            PruneStep(removed=3, saliency=0.0, kept=3)

    def test_step_rejects_negative_kept(self):
        with pytest.raises(ValueError):
            PruneStep(removed=0, saliency=0.0, kept=-1)

    def test_step_rejects_negative_saliency(self):
        with pytest.raises(ValueError):
            PruneStep(removed=0, saliency=-1e-9)

    def test_step_fields_are_keyword_only(self):
        # A positional call written for an older field order fails instead of
        # binding its values to the wrong fields.
        with pytest.raises(TypeError):
            PruneStep(1, 3, 0.0)

    def test_trace_rejects_repeated_removal(self):
        steps = (
            PruneStep(removed=2, saliency=0.0),
            PruneStep(removed=2, saliency=0.0),
        )
        with pytest.raises(ValueError):
            PruneTrace(layer_index=0, n_original=5, steps=steps)

    def test_trace_rejects_kept_outside_the_layer(self):
        steps = (PruneStep(removed=0, saliency=0.0, kept=7),)
        with pytest.raises(ValueError, match="outside the original layer"):
            PruneTrace(layer_index=0, n_original=4, steps=steps)

    def test_trace_cannot_exceed_layer_capacity(self):
        steps = tuple(PruneStep(removed=k, saliency=0.0) for k in range(3))
        with pytest.raises(ValueError):
            PruneTrace(layer_index=0, n_original=3, steps=steps)

    def test_is_full_flag(self):
        steps = tuple(PruneStep(removed=k, saliency=0.0) for k in range(2))
        assert PruneTrace(layer_index=0, n_original=3, steps=steps).is_full
        assert not PruneTrace(layer_index=0, n_original=4, steps=steps).is_full

    def test_policy_seed_only_for_random(self):
        with pytest.raises(ValueError):
            PrunePolicy(PolicyKind.RANDOM)
        with pytest.raises(ValueError):
            PrunePolicy(PolicyKind.SALIENCY_SURGERY, seed=1)
        PrunePolicy(PolicyKind.RANDOM, seed=0)


class TestPruneOne:
    def test_duplicate_merge_sums_outgoing_coefficients(self):
        net = duplicate_pair_net(0.3, 0.7)
        m = build_saliency_matrix(net.layers[0], net.layers[1], HEUR)
        pruned, m2, step = prune_one(net, 0, m)
        assert pruned.layers[1].weights[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert step.saliency == 0.0
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(500, 2))
        gap = np.abs(forward_batch(pruned, xs) - forward_batch(net, xs))
        assert gap.max() <= 1e-12

    def test_zero_outgoing_neuron_goes_first(self):
        net = seeded_net(1, hidden=5)
        w2 = net.layers[1].weights.copy()
        w2[:, 3] = 0.0
        output = FcLayer(w2, net.layers[1].bias, Activation.IDENTITY)
        net = Network((net.layers[0], output), net.input_dim)
        m = build_saliency_matrix(net.layers[0], net.layers[1], HEUR)
        _, _, step = prune_one(net, 0, m)
        assert step.removed == 3
        assert step.saliency == 0.0

    def test_single_neuron_layer_rejected(self):
        net = seeded_net(2, hidden=2)
        m = build_saliency_matrix(net.layers[0], net.layers[1], HEUR)
        net2, m2, _ = prune_one(net, 0, m)
        with pytest.raises(ValueError):
            prune_one(net2, 0, m2)

    def test_incremental_matrix_matches_fresh_rebuild(self):
        net = seeded_net(3, hidden=20, d_in=7, d_out=4)
        m = build_saliency_matrix(net.layers[0], net.layers[1], HEUR)
        for _ in range(10):
            net, m, _ = prune_one(net, 0, m)
            fresh = build_saliency_matrix(net.layers[0], net.layers[1], HEUR)
            live = m.live
            kept_view = m.values[np.ix_(live, live)]
            off = ~np.eye(kept_view.shape[0], dtype=bool)
            denom = np.maximum(np.abs(fresh.values[off]), 1e-300)
            rel = np.abs(kept_view[off] - fresh.values[off]) / denom
            assert rel.max() <= 1e-12


class TestPruneLayer:
    def test_count_bounds_enforced(self):
        net = seeded_net(4, hidden=5)
        for bad in (0, 5, 6):
            with pytest.raises(ValueError):
                prune_layer(net, 0, bad, PrunePolicy(PolicyKind.SALIENCY_SURGERY))

    def test_all_duplicates_collapse_to_exact_sum(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=4)
        w1 = np.tile(row, (6, 1))
        b1 = np.full(6, 0.25)
        a = rng.normal(size=(2, 6))
        net = Network(
            layers=(
                FcLayer(w1, b1, Activation.SIGMOID),
                FcLayer(a, rng.normal(size=2), Activation.IDENTITY),
            ),
            input_dim=4,
        )
        pruned, trace = prune_layer(net, 0, 5, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        assert layer_sizes(pruned) == (4, 1, 2)
        np.testing.assert_allclose(
            pruned.layers[1].weights[:, 0], a.sum(axis=1), rtol=1e-12
        )
        xs = rng.normal(size=(300, 4))
        gap = np.abs(forward_batch(pruned, xs) - forward_batch(net, xs))
        assert gap.max() <= 1e-12
        assert all(s.saliency == 0.0 for s in trace.steps)

    def test_surgery_trace_records_every_step_in_order(self):
        net = seeded_net(6, hidden=9)
        _, trace = prune_layer(net, 0, 6, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        assert len(trace) == 6
        assert all(s.kept is not None for s in trace.steps)
        assert trace.n_original == 9

    def test_no_surgery_follows_same_selection_sequence(self):
        rng = np.random.default_rng(7)
        tied = Network(
            layers=(
                FcLayer(
                    np.repeat(rng.normal(size=(3, 6)), 4, axis=0),
                    np.repeat(rng.normal(size=3), 4),
                    Activation.SIGMOID,
                ),
                FcLayer(rng.normal(size=(3, 12)), rng.normal(size=3), Activation.IDENTITY),
            ),
            input_dim=6,
        )
        for net, count in ((seeded_net(7, hidden=10), 7), (tied, 11)):
            _, with_s = prune_layer(net, 0, count, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
            pruned, without = prune_layer(
                net, 0, count, PrunePolicy(PolicyKind.SALIENCY_NO_SURGERY)
            )
            assert [s.removed for s in without.steps] == [s.removed for s in with_s.steps]
            assert [s.saliency for s in without.steps] == [s.saliency for s in with_s.steps]
            assert all(s.kept is None for s in without.steps)
            stripped = PruneTrace(
                layer_index=0,
                n_original=with_s.n_original,
                steps=tuple(dataclasses.replace(s, kept=None) for s in with_s.steps),
            )
            replayed = replay_trace(net, stripped)
            for la, lb in zip(pruned.layers, replayed.layers):
                assert la.weights.tobytes() == lb.weights.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()

    def test_no_surgery_net_only_deletes(self):
        net = seeded_net(8, hidden=6)
        pruned, trace = prune_layer(net, 0, 3, PrunePolicy(PolicyKind.SALIENCY_NO_SURGERY))
        survivors = sorted(set(range(6)) - {s.removed for s in trace.steps})
        np.testing.assert_array_equal(
            pruned.layers[1].weights, net.layers[1].weights[:, survivors]
        )
        np.testing.assert_array_equal(
            pruned.layers[0].weights, net.layers[0].weights[survivors]
        )

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        d=st.integers(1, 20),
        d_out=st.integers(1, 12),
        fortran=st.booleans(),
        full=st.booleans(),
    )
    def test_magnitude_policy_matches_score_oracle(self, seed, n, d, d_out, fortran, full):
        net = tied_magnitude_net(seed, n, d, d_out, fortran)
        count = n - 1 if full else max(1, (n - 1) // 2)
        pruned, trace = prune_layer(net, 0, count, PrunePolicy(PolicyKind.NAIVE_MAGNITUDE))
        # The first minimum of scores taken afresh on the shrunk network at every step.
        alive = list(range(n))
        for step in trace.steps:
            layer, nxt = net.layers
            # Norms of C-ordered copies, as of a filtered copy of the layer.
            incoming = np.linalg.norm(np.ascontiguousarray(layer.weights), axis=1)
            outgoing = np.linalg.norm(np.ascontiguousarray(nxt.weights), axis=0)
            scores = incoming * outgoing
            k = int(np.argmin(scores))
            assert step == PruneStep(removed=alive.pop(k), saliency=float(scores[k]))
            net = replay_trace(net, PruneTrace(0, layer.n_out, (PruneStep(removed=k, saliency=0.0),)))
        assert len(trace) == count
        assert same_network(pruned, net)  # both C order, whatever the input's order

    @pytest.mark.parametrize("count", [1, 5])
    def test_nan_magnitude_score_raises_before_any_step(self, count):
        # Row 3's norm overflows to inf and its outgoing column is zero: inf * 0 is nan.
        # A sort puts the nan last, so even a first step that never reaches it must raise.
        rng = np.random.default_rng(12)
        w = rng.normal(size=(6, 3))
        w[3] = 1e200
        a = rng.normal(size=(2, 6))
        a[:, 3] = 0.0
        net = Network(
            layers=(
                FcLayer(w, np.zeros(6), Activation.RELU),
                FcLayer(a, np.zeros(2), Activation.IDENTITY),
            ),
            input_dim=3,
        )
        with pytest.raises(ValueError):
            prune_layer(net, 0, count, PrunePolicy(PolicyKind.NAIVE_MAGNITUDE))

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), full=st.booleans())
    def test_random_policy_matches_draw_oracle(self, seed, n, full):
        net = seeded_net(seed, hidden=n)
        count = n - 1 if full else max(1, (n - 1) // 2)
        pruned, trace = prune_layer(net, 0, count, PrunePolicy(PolicyKind.RANDOM, seed=seed))
        # One draw per step over the live neurons in ascending order.
        rng = np.random.default_rng(seed)
        live = np.ones(n, dtype=bool)
        for step in trace.steps:
            alive = np.flatnonzero(live)
            removed = int(alive[rng.integers(alive.size)])
            assert step == PruneStep(removed=removed, saliency=0.0)
            live[removed] = False
        assert len(trace) == count
        assert same_network(pruned, reference_replay(net, trace))

    def test_random_same_seed_reproduces_trace(self):
        net = seeded_net(10, hidden=8)
        _, a = prune_layer(net, 0, 5, PrunePolicy(PolicyKind.RANDOM, seed=3))
        _, b = prune_layer(net, 0, 5, PrunePolicy(PolicyKind.RANDOM, seed=3))
        assert a == b

    @given(st.sampled_from(list(PolicyKind)), st.integers(0, 50))
    @settings(max_examples=20)
    def test_every_policy_is_deterministic_and_well_formed(self, kind, seed):
        net = seeded_net(seed, hidden=6)
        policy = PrunePolicy(kind, seed=seed if kind is PolicyKind.RANDOM else None)
        out1, t1 = prune_layer(net, 0, 4, policy)
        out2, t2 = prune_layer(net, 0, 4, policy)
        assert t1 == t2
        for la, lb in zip(out1.layers, out2.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        assert len({s.removed for s in t1.steps}) == 4
        assert all(s.saliency >= 0.0 for s in t1.steps)
        assert out1.layers[0].n_out == 2

    def test_surgery_conserves_duplicate_group_outgoing_mass(self):
        rng = np.random.default_rng(11)
        row = rng.normal(size=3)
        w1 = rng.normal(size=(5, 3))
        b1 = rng.normal(size=5)
        for idx in (0, 2, 4):
            w1[idx] = row
            b1[idx] = 0.1
        a = rng.normal(size=(2, 5))
        net = Network(
            layers=(
                FcLayer(w1, b1, Activation.SIGMOID),
                FcLayer(a, np.zeros(2), Activation.IDENTITY),
            ),
            input_dim=3,
        )
        group = {0, 2, 4}
        before = a[:, sorted(group)].sum(axis=1)
        pruned, trace = prune_layer(net, 0, 2, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        assert {s.removed for s in trace.steps} < group
        survivors = sorted(set(range(5)) - {s.removed for s in trace.steps})
        cols = [survivors.index(g) for g in group - {s.removed for s in trace.steps}]
        after = pruned.layers[1].weights[:, cols].sum(axis=1)
        np.testing.assert_allclose(after, before, rtol=1e-12)


class TestPruneNetwork:
    def three_layer_net(self, seed):
        rng = np.random.default_rng(seed)
        return Network(
            layers=(
                FcLayer(rng.normal(size=(8, 5)), rng.normal(size=8), Activation.SIGMOID),
                FcLayer(rng.normal(size=(6, 8)), rng.normal(size=6), Activation.SIGMOID),
                FcLayer(rng.normal(size=(3, 6)), rng.normal(size=3), Activation.IDENTITY),
            ),
            input_dim=5,
        )

    def test_single_entry_plan_reduces_to_prune_layer(self):
        net = seeded_net(12, hidden=7)
        policy = PrunePolicy(PolicyKind.SALIENCY_SURGERY)
        direct, trace = prune_layer(net, 0, 3, policy)
        via_plan, traces = prune_network(net, [(0, 3)], policy)
        assert traces == (trace,)
        for la, lb in zip(direct.layers, via_plan.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_two_layer_plan_parameter_count_oracle(self):
        net = self.three_layer_net(13)
        p, q = 3, 2
        pruned, traces = prune_network(
            net, [(0, p), (1, q)], PrunePolicy(PolicyKind.SALIENCY_SURGERY)
        )
        assert layer_sizes(pruned) == (5, 8 - p, 6 - q, 3)
        h1, h2 = 8 - p, 6 - q
        want = h1 * 5 + h1 + h2 * h1 + h2 + 3 * h2 + 3
        assert param_count(pruned) == want
        assert [t.layer_index for t in traces] == [0, 1]

    def test_empty_plan_returns_net_unchanged(self):
        net = seeded_net(14)
        out, traces = prune_network(net, [], PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        assert traces == ()
        assert out is net

    def test_unsorted_plan_rejected(self):
        net = self.three_layer_net(15)
        with pytest.raises(ValueError):
            prune_network(net, [(1, 1), (0, 1)], PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        with pytest.raises(ValueError):
            prune_network(net, [(0, 1), (0, 1)], PrunePolicy(PolicyKind.SALIENCY_SURGERY))

    def test_output_layer_rejected(self):
        net = self.three_layer_net(16)
        with pytest.raises(ValueError):
            prune_network(net, [(2, 1)], PrunePolicy(PolicyKind.SALIENCY_SURGERY))


class TestReplayTrace:
    def test_replay_reproduces_surgery_pruning(self):
        net = seeded_net(17, hidden=9)
        pruned, trace = prune_layer(net, 0, 6, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        replayed = replay_trace(net, trace)
        for la, lb in zip(pruned.layers, replayed.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_replay_reproduces_deletion_only_policies(self):
        net = seeded_net(18, hidden=9)
        for kind, seed in (
            (PolicyKind.SALIENCY_NO_SURGERY, None),
            (PolicyKind.NAIVE_MAGNITUDE, None),
            (PolicyKind.RANDOM, 4),
        ):
            pruned, trace = prune_layer(net, 0, 5, PrunePolicy(kind, seed=seed))
            replayed = replay_trace(net, trace)
            for la, lb in zip(pruned.layers, replayed.layers):
                np.testing.assert_array_equal(la.weights, lb.weights)

    def test_partial_replay_stops_after_count(self):
        net = seeded_net(19, hidden=8)
        _, trace = prune_layer(net, 0, 6, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        partial = replay_trace(net, trace, count=2)
        assert partial.layers[0].n_out == 6
        assert replay_trace(net, trace, count=0) is net

    def test_replay_rejects_merge_into_removed_neuron(self):
        net = seeded_net(21, hidden=5)
        ds = make_blobs(n_samples=60, n_features=6, n_classes=3, seed=21)
        trace = PruneTrace(
            layer_index=0,
            n_original=5,
            steps=(
                PruneStep(removed=1, saliency=0.0, kept=0),
                PruneStep(removed=2, saliency=0.0, kept=1),
            ),
        )
        with pytest.raises(ValueError, match="already-removed neuron 1"):
            replay_trace(net, trace)
        with pytest.raises(ValueError, match="already-removed neuron 1"):
            trace_error_curve(net, trace, ds)

    def test_edits_of_fortran_ordered_layers_return_c_ordered_copies(self):
        c_net = seeded_net(22, hidden=6)
        layers = [
            FcLayer(np.asfortranarray(la.weights), la.bias, la.activation) for la in c_net.layers
        ]
        net = Network(tuple(layers), c_net.input_dim)
        first, second = net.layers
        w, b, a = np.array(first.weights), first.bias, np.array(second.weights)  # order kept
        assert w.flags.f_contiguous and not w.flags.c_contiguous
        folded = a.copy()
        folded[:, 1] += folded[:, 4]
        trace = PruneTrace(
            0, 6, (PruneStep(removed=4, saliency=0.0, kept=1), PruneStep(removed=0, saliency=0.0))
        )
        for edited, dropped, next_weights in (
            (replay_trace(net, PruneTrace(0, 6, (PruneStep(removed=4, saliency=0.0),))), [4], a),
            (merge_neurons(net, 0, kept=1, removed=4), [4], folded),
            (replay_trace(net, trace, 1), [4], folded),
            (replay_trace(net, trace), [0, 4], folded),
        ):
            got = (edited.layers[0].weights, edited.layers[0].bias, edited.layers[1].weights)
            want = (
                np.delete(w, dropped, axis=0),
                np.delete(b, dropped),
                np.delete(next_weights, dropped, axis=1),
            )
            for g, v in zip(got, want):
                assert np.array_equal(g, v)
                assert g.flags.c_contiguous and not g.flags.writeable
        # The input network is untouched, order included.
        assert np.array_equal(net.layers[0].weights, w) and np.array_equal(net.layers[1].weights, a)
        assert net.layers[0].weights.flags.f_contiguous and net.layers[1].weights.flags.f_contiguous

    def test_replay_rejects_width_mismatch(self):
        net = seeded_net(20, hidden=8)
        _, trace = prune_layer(net, 0, 3, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        smaller = replay_trace(net, PruneTrace(0, 8, (PruneStep(removed=0, saliency=0.0),)))
        with pytest.raises(ValueError):
            replay_trace(smaller, trace)


def same_network(a, b):
    """Bit-for-bit equality of every array, and the same memory order."""
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.activation is lb.activation
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert la.weights.flags.c_contiguous == lb.weights.flags.c_contiguous
    return True


def reference_prune(net, layer_index, count, mode):
    """The removal loop as a fold of the public reference step."""
    matrix = build_saliency_matrix(
        net.layers[layer_index], net.layers[layer_index + 1], mode, layer_index
    )
    steps = []
    for _ in range(count):
        net, matrix, step = prune_one(net, layer_index, matrix)
        steps.append(step)
    return net, tuple(steps)


def reference_replay(net, trace):
    """A trace applied one step at a time: a column add, then np.delete."""
    k = trace.layer_index
    w, b, a = net.layers[k].weights, net.layers[k].bias, net.layers[k + 1].weights.copy()
    alive = list(range(trace.n_original))
    for step in trace.steps:
        removed = alive.index(step.removed)
        if step.kept is not None:
            a[:, alive.index(step.kept)] += a[:, removed]
        w, b = np.delete(w, removed, axis=0), np.delete(b, removed)
        a = np.delete(a, removed, axis=1)
        alive.remove(step.removed)
    layers = list(net.layers)
    layers[k] = FcLayer(w, b, layers[k].activation)
    layers[k + 1] = FcLayer(a, layers[k + 1].bias, layers[k + 1].activation)
    return Network(tuple(layers), net.input_dim)


@np.errstate(over="ignore", invalid="ignore")  # as prune_layer: overflowing costs are inf
def reference_loop(net, layer_index, count, mode):
    """The removal loop on the full exact matrix, with cached column minima."""
    matrix = build_saliency_matrix(
        net.layers[layer_index], net.layers[layer_index + 1], mode, layer_index
    )
    sim_sq = matrix.sim_sq
    msq = matrix.mean_sq_out.copy()
    edit = _LayerEdit(net, layer_index)
    live = edit.live
    # Minima of the costs, not of sim_sq: factoring msq[c] out rounds differently, flipping ties.
    best_row, best = _column_minima(sim_sq, msq, live, np.arange(live.size))
    steps = []
    for _ in range(count):
        i, j = _cheapest(best_row, best, live)
        steps.append(PruneStep(removed=j, saliency=float(best[j]), kept=i))
        edit.remove(j, i)
        best[j] = np.inf
        column = edit.next_weights[:, i]
        msq[i] = np.mean(column * column)
        stale = live & (best_row == j)
        stale[i] = True
        columns = np.flatnonzero(stale)
        best_row[columns], best[columns] = _column_minima(sim_sq, msq, live, columns)
    return edit.network(), tuple(steps)


def assert_matches_reference_loop(net, mode, layer_index=0):
    """Prune to one neuron and compare with :func:`reference_loop` bit for bit."""
    count = net.layers[layer_index].n_out - 1
    pruned, trace = prune_layer(
        net, layer_index, count, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode
    )
    want_net, want_steps = reference_loop(net, layer_index, count, mode)
    assert trace.steps == want_steps
    assert same_network(pruned, want_net)
    return trace


def two_layer_net(w, b, n_out=3, seed=0):
    rng = np.random.default_rng(seed)
    return Network(
        layers=(
            FcLayer(w, b, Activation.RELU),
            FcLayer(rng.normal(size=(n_out, w.shape[0])), rng.normal(size=n_out), Activation.IDENTITY),
        ),
        input_dim=w.shape[1],
    )


def near_twin_net(seed, n_in, width, group=4, copies=8):
    """Rows drawn tightly around ``width // group`` prototypes, plus ``copies`` exact copies."""
    rng = np.random.default_rng(seed)
    n_protos = width // group
    protos = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_protos, n_in))
    owner = rng.permutation(np.repeat(np.arange(n_protos), group))
    w = protos[owner] + rng.normal(0.0, 1e-3 / np.sqrt(n_in), size=(width, n_in))
    b = rng.uniform(0.5, 1.5, size=n_protos)[owner] + rng.normal(0.0, 1e-3, size=width)
    for proto in rng.choice(n_protos, size=copies, replace=False):
        source, target = np.flatnonzero(owner == proto)[:2]
        w[target], b[target] = w[source], b[source]
    return two_layer_net(w, b, n_out=10, seed=seed)


def tied_net(activation=Activation.SIGMOID):
    """Four groups of four identical neurons plus two scaled copies."""
    rng = np.random.default_rng(41)
    w = np.repeat(rng.normal(size=(4, 5)), 4, axis=0)
    b = np.repeat(rng.normal(size=4), 4)
    w[[3, 9]] *= 0.5
    b[[3, 9]] *= 0.5
    return Network(
        layers=(
            FcLayer(w, b, activation),
            FcLayer(rng.normal(size=(3, 16)), rng.normal(size=3), Activation.IDENTITY),
        ),
        input_dim=5,
    )


def all_equal_net():
    return Network(
        layers=(
            FcLayer(np.full((9, 4), 0.5), np.full(9, -0.25), Activation.RELU),
            FcLayer(np.ones((2, 9)), np.zeros(2), Activation.IDENTITY),
        ),
        input_dim=4,
    )


def three_layer_net():
    rng = np.random.default_rng(43)
    return Network(
        layers=(
            FcLayer(rng.normal(size=(7, 4)), rng.normal(size=7), Activation.RELU),
            FcLayer(rng.normal(size=(11, 7)), rng.normal(size=11), Activation.SIGMOID),
            FcLayer(rng.normal(size=(3, 11)), rng.normal(size=3), Activation.IDENTITY),
        ),
        input_dim=4,
    )


LOOP_CASES = {
    "sigmoid": (seeded_net(33, hidden=15, activation=Activation.SIGMOID), 0),
    "relu": (seeded_net(34, hidden=15, activation=Activation.RELU), 0),
    "tied": (tied_net(), 0),
    "all-equal": (all_equal_net(), 0),
    "three-layer": (three_layer_net(), 1),
}


class TestFastLoopMatchesReference:
    @pytest.mark.parametrize("mode", list(SimilarityMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0], ids=["one", "half", "full"])
    def test_prune_layer_equals_iterated_prune_one(self, case, mode, share):
        net, layer_index = LOOP_CASES[case]
        width = net.layers[layer_index].n_out
        count = max(1, round(share * (width - 1)))
        pruned, trace = prune_layer(
            net, layer_index, count, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode
        )
        want_net, want_steps = reference_prune(net, layer_index, count, mode)
        assert trace.steps == want_steps
        assert same_network(pruned, want_net)

    @pytest.mark.parametrize("mode", list(SimilarityMode), ids=lambda m: m.value)
    def test_column_scans_in_many_blocks_change_nothing(self, mode, monkeypatch):
        net, layer_index = LOOP_CASES["tied"]
        policy = PrunePolicy(PolicyKind.SALIENCY_SURGERY)
        want_net, want_trace = prune_layer(net, layer_index, 15, policy, mode)
        # Three columns a block: the first scan of all 16 columns takes six.
        monkeypatch.setattr(saliency, "_BLOCK_BYTES", 3 * 8 * 16)
        pruned, trace = prune_layer(net, layer_index, 15, policy, mode)
        assert trace == want_trace
        assert same_network(pruned, want_net)
        assert reference_prune(net, layer_index, 15, mode)[1] == trace.steps

    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    @pytest.mark.parametrize(
        "kind, seed",
        [
            (PolicyKind.SALIENCY_SURGERY, None),
            (PolicyKind.SALIENCY_NO_SURGERY, None),
            (PolicyKind.NAIVE_MAGNITUDE, None),
            (PolicyKind.RANDOM, 5),
        ],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_replay_equals_reference_fold(self, case, kind, seed):
        net, layer_index = LOOP_CASES[case]
        width = net.layers[layer_index].n_out
        pruned, trace = prune_layer(net, layer_index, width - 1, PrunePolicy(kind, seed=seed))
        assert same_network(pruned, reference_replay(net, trace))
        assert same_network(replay_trace(net, trace), pruned)
        partial = dataclasses.replace(trace, steps=trace.steps[: width // 2])
        assert same_network(replay_trace(net, trace, width // 2), reference_replay(net, partial))


MODES = pytest.mark.parametrize("mode", list(SimilarityMode), ids=lambda m: m.value)


class TestCertifiedLoopMatchesReferenceLoop:
    """The loop settles column minima from lower bounds; the full matrix is the reference."""

    @MODES
    @pytest.mark.parametrize("case", sorted(LOOP_CASES))
    def test_loop_cases(self, mode, case):
        net, layer_index = LOOP_CASES[case]
        assert_matches_reference_loop(net, mode, layer_index)

    @MODES
    @pytest.mark.parametrize("seed", [0, 1])
    def test_1024_wide_near_twins(self, mode, seed):
        net = near_twin_net(seed, n_in=256, width=1024)
        trace = assert_matches_reference_loop(net, mode)
        assert np.count_nonzero(trace.saliencies() == 0.0) == 8

    @MODES
    # The bound build takes 2, 17 and 126 rows a block here; no width is a multiple.
    @pytest.mark.parametrize("width, group", [(9, 3), (129, 3), (1001, 7)])
    def test_widths_between_bound_blocks(self, mode, width, group):
        net = near_twin_net(width, n_in=24, width=width, group=group, copies=2)
        assert_matches_reference_loop(net, mode)

    def test_4096_wide_near_twins_raw(self):
        net = near_twin_net(2, n_in=64, width=4096, copies=16)
        assert_matches_reference_loop(net, SimilarityMode.RAW_DIFFERENCE)

    @MODES
    def test_trained_256_wide_relu_layer(self, mode):
        ds = make_blobs(n_samples=600, n_features=12, n_classes=3, seed=6)
        net = train(
            ds, TrainConfig(hidden_units=256, activation=Activation.RELU, epochs=20, seed=6)
        )
        assert_matches_reference_loop(net, mode)


def scaled_rows(seed, n, d, norm):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, d))
    return w * (norm / np.linalg.norm(w, axis=1))[:, None], rng.normal(size=n)


class TestGramCancellation:
    """Layers where the Gram form cancels worst; every trace must equal the reference."""

    @MODES
    @pytest.mark.parametrize("norm", [1e3, 1e-3])
    def test_exact_duplicates_at_extreme_norms(self, mode, norm):
        w, b = scaled_rows(50, 12, 9, norm)
        w[3] = w[2] * (1 + 1e-9)
        w[6:], b[6:] = w[:6], b[:6]
        trace = assert_matches_reference_loop(two_layer_net(w, b), mode)
        assert np.count_nonzero(trace.saliencies() == 0.0) >= 6

    @MODES
    def test_twins_one_ulp_apart(self, mode):
        w, b = scaled_rows(51, 10, 16, 1.0)
        for k in range(0, 10, 2):
            w[k + 1] = w[k]
            b[k + 1] = b[k]
            w[k + 1, k] = np.nextafter(w[k, k], np.inf)
        assert_matches_reference_loop(two_layer_net(w, b), mode)

    @MODES
    def test_positive_scale_copies(self, mode):
        w, b = scaled_rows(52, 5, 7, 1.0)
        scales = np.array([1.0, 0.5, 3.0, 1e-3, 7.0, 1.0 + 2**-40])
        w = np.concatenate([w * c for c in scales])
        b = np.concatenate([b * c for c in scales])
        assert_matches_reference_loop(two_layer_net(w, b), mode)

    @MODES
    def test_opposite_rows(self, mode):
        w, b = scaled_rows(53, 6, 5, 1.0)
        w = np.concatenate([w, -w, w[:2]])
        b = np.concatenate([b, b, b[:2]])
        assert_matches_reference_loop(two_layer_net(w, b), mode)

    @MODES
    def test_biases_summing_to_zero(self, mode):
        w, b = scaled_rows(54, 6, 5, 1.0)
        w = np.concatenate([w, w, w + 1e-7])
        b = np.concatenate([b, -b, b])
        assert_matches_reference_loop(two_layer_net(w, b), mode)

    def test_rows_whose_products_overflow(self):
        # Squared norms of 1e200-sized rows overflow; the heuristic's exact
        # weight term is then 0, and the bounds must not turn into nan.
        rng = np.random.default_rng(56)
        w = rng.normal(size=(8, 5)) * 1e200
        w[4:] = w[:4] * np.array([1.0, -1.0, 0.5, 1.0 + 2**-40])[:, None]
        net = two_layer_net(w, rng.normal(size=8))
        assert_matches_reference_loop(net, HEUR)

    @MODES
    def test_costs_that_all_overflow_still_prune_to_one(self, mode, tmp_path):
        # Raw distances between 1e160-sized rows square to inf; every column's
        # minimum is then inf, above the sentinel on the diagonal.
        rng = np.random.default_rng(57)
        net = two_layer_net(rng.normal(size=(4, 2)) * 1e160, rng.normal(size=4))
        trace = assert_matches_reference_loop(net, mode)
        assert reference_prune(net, 0, 3, mode)[1] == trace.steps
        pruned, _ = prune_layer(net, 0, 3, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode)
        assert same_network(replay_trace(net, trace), pruned)
        if mode is SimilarityMode.RAW_DIFFERENCE:
            assert np.isinf(trace.saliencies()).all()
        export_trace(trace, tmp_path / "trace.csv")
        assert import_trace(tmp_path / "trace.csv").steps == trace.steps

    @MODES
    def test_two_zero_rows_warn_once(self, mode):
        w, b = scaled_rows(55, 6, 5, 1.0)
        w[[1, 4]] = 0.0
        b[[1, 4]] = 0.0
        net = two_layer_net(w, b)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prune_layer(net, 0, 5, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == (1 if mode is SimilarityMode.NORMALIZED_HEURISTIC else 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert_matches_reference_loop(net, mode)


class TestExactScoring:
    @MODES
    @pytest.mark.parametrize("case", ["all-equal", "tied"])
    def test_no_pair_is_scored_twice(self, mode, case, monkeypatch):
        net, layer_index = LOOP_CASES[case]
        n = net.layers[layer_index].n_out
        scored = record_scored_pairs(monkeypatch)
        prune_layer(net, layer_index, n - 1, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode)
        # All-equal is the worst case: each removal takes the first live row,
        # which every column's minimum sat in, so every pair comes due once.
        assert scored
        assert len(set(scored)) == len(scored) <= n * (n - 1) // 2

    def test_near_twins_score_few_pairs(self, monkeypatch):
        net = near_twin_net(3, n_in=32, width=256)
        scored = record_scored_pairs(monkeypatch)
        prune_layer(net, 0, 255, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        assert len(set(scored)) == len(scored) < 4 * 256

    def test_recorded_rescans_take_the_one_pair_path(self, monkeypatch):
        # The recorder must not hide the scorer's scalar path from the tests.
        real, took = saliency._pair_scorer, []

        def watched(layer, mode):
            score, score_one = real(layer, mode)

            def one(a, r):
                took.append(True)
                return score_one(a, r)

            def batch(a, b):
                took.append(False)
                return score(a, b)

            return batch, one

        monkeypatch.setattr(saliency, "_pair_scorer", watched)
        scored = record_scored_pairs(monkeypatch)
        prune_layer(near_twin_net(3, n_in=32, width=128), 0, 127,
                    PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        assert scored and sum(took) > len(took) // 2

    def test_the_full_matrix_is_never_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("prune_layer built the full matrix")

        monkeypatch.setattr(saliency, "build_saliency_matrix", refuse)
        net, layer_index = LOOP_CASES["tied"]
        prune_layer(net, layer_index, 15, PrunePolicy(PolicyKind.SALIENCY_SURGERY))


class TestRescanMatchesReferenceLoop:
    """Per-column rescans against the full-matrix loop, on duplicate-heavy layers."""

    @MODES
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0], ids=["one", "half", "full"])
    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        d=st.integers(1, 12),
        log_scale=st.floats(-4.0, 4.0),
    )
    def test_prune_layer_equals_reference_loop(self, mode, share, seed, n, d, log_scale):
        net = two_layer_net(*awkward_layer(seed, n, d, log_scale), seed=seed % 1000)
        count = max(1, round(share * (n - 1)))
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore", RuntimeWarning)
            scored = record_scored_pairs(patch)
            pruned, trace = prune_layer(
                net, 0, count, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode
            )
            patch.undo()
            want_net, want_steps = reference_loop(net, 0, count, mode)
        assert trace.steps == want_steps
        assert same_network(pruned, want_net)
        assert len(set(scored)) == len(scored)
        assert all(a != b for a, b in scored)


class TestZeroOutgoingColumn:
    """A neuron with no outgoing weight costs 0 to remove, even at an inf distance."""

    @MODES
    def test_removed_first_at_no_cost_among_overflowing_rows(self, mode):
        rng = np.random.default_rng(44)
        w2 = rng.normal(size=(3, 8))
        w2[:, 5] = 0.0
        net = Network(
            layers=(
                FcLayer(rng.normal(size=(8, 5)) * 1e160, rng.normal(size=8) * 1e160, Activation.RELU),
                FcLayer(w2, rng.normal(size=3), Activation.IDENTITY),
            ),
            input_dim=5,
        )
        trace = assert_matches_reference_loop(net, mode)
        assert reference_prune(net, 0, 7, mode)[1] == trace.steps
        assert (trace.steps[0].removed, trace.steps[0].saliency) == (5, 0.0)


class TestOverflowWarnsNothing:
    """Products past the float range give inf costs, as documented, and no numpy warning."""

    @MODES
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_public_calls_raise_nothing_when_warnings_are_errors(self, mode, scale):
        rng = np.random.default_rng(58)
        net = two_layer_net(rng.normal(size=(6, 3)) * scale, rng.normal(size=6))
        xs = rng.normal(size=(4, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = prune_layer(net, 0, 5, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode)
            # build_saliency_matrix, then prune_one at every step
            _, want = reference_prune(net, 0, 5, mode)
            samples = verify_bound(net, 0, 0, 1, xs)
        assert trace.steps == want
        if mode is SimilarityMode.RAW_DIFFERENCE:  # the heuristic is scale-free
            assert np.isinf(trace.saliencies()).any()
        assert all(s.bound_value == np.inf and s.holds for s in samples)


class TestNet2NetRoundTrip:
    """A trained 32-unit net widened to 128 by exact copies: 96 removals are free."""

    @pytest.fixture(scope="class", params=[Activation.RELU, Activation.SIGMOID], ids=["relu", "sigmoid"])
    def narrow(self, request):
        ds = make_blobs(n_samples=600, n_features=12, n_classes=4, seed=9)
        net = train(ds, TrainConfig(hidden_units=32, activation=request.param, epochs=30, seed=9))
        return net, ds.features

    @MODES
    def test_prune_to_one_merges_the_copies_back_first(self, narrow, mode):
        net, x = narrow
        wide = widen(net, 128, seed=5)
        _, trace = prune_layer(wide, 0, 127, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode)
        saliencies = trace.saliencies()
        assert np.all(saliencies[:96] == 0.0)
        assert saliencies[96] > 0.0
        gap = forward_batch(replay_trace(wide, trace, 96), x) - forward_batch(net, x)
        assert np.max(np.abs(gap)) <= 1e-13


# Prunes the model file it is given to one neuron in each mode and prints
# one digest of every step's kept, removed and saliency bits.
PRUNE_DIGEST = """
import hashlib, sys
import neuronprune as npr
net = npr.load_model(sys.argv[1])
digest = hashlib.sha256()
for mode in npr.SimilarityMode:
    policy = npr.PrunePolicy(npr.PolicyKind.SALIENCY_SURGERY)
    _, trace = npr.prune_layer(net, 0, net.layers[0].n_out - 1, policy, mode)
    for step in trace.steps:
        digest.update(f"{step.kept} {step.removed} {step.saliency.hex()}\\n".encode())
print(digest.hexdigest())
"""


class TestBlasThreads:
    def test_thread_count_changes_no_trace(self, tmp_path):
        # The certified bounds come from a BLAS Gram product, whose blocking
        # and summation order change with the thread count; their margin
        # must cover that, so the exact scores and the trace stay the same.
        model = tmp_path / "near-twins.model"
        save_model(near_twin_net(5, n_in=1024, width=768, copies=1), model)
        src = Path(__file__).resolve().parents[1] / "src"
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(src)}
            env.update(dict.fromkeys(
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads
            ))
            done = subprocess.run(
                [sys.executable, "-c", PRUNE_DIGEST, str(model)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert len(digests[0]) == 65 and digests[0] == digests[1]


class TestCompressionArithmetic:
    def test_zero_removed_is_zero_percent(self):
        assert compression_percent(0, 123456) == 0.0

    def test_published_ratio_reproduced(self):
        assert compression_percent(9.3e6, 60.9e6) == pytest.approx(15.28, abs=0.05)

    def test_removal_parameter_count(self):
        assert neuron_removal_params(700, 9216, 4096) == 9_319_100
        assert neuron_removal_params(1, 3, 2) == 3 + 1 + 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            compression_percent(-1, 10)
        with pytest.raises(ValueError):
            compression_percent(11, 10)
        with pytest.raises(ValueError):
            compression_percent(0, 0)

    @given(st.integers(0, 10**9), st.integers(1, 10**9))
    def test_range_and_monotonicity(self, removed, total):
        removed = min(removed, total)
        pct = compression_percent(removed, total)
        assert 0.0 <= pct <= 100.0
        if removed < total:
            assert pct <= compression_percent(removed + 1, total)
