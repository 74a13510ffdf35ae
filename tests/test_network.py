"""Forward pass, structural edits, and rescaling of dense feedforward nets."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neuronprune import (
    Activation,
    FcLayer,
    Network,
    PruneStep,
    PruneTrace,
    WeightSet,
    forward_batch,
    layer_sizes,
    merge_neurons,
    param_count,
    replay_trace,
)
from neuronprune.network import _sigmoid
from conftest import relu_rescaled


def seeded_net(seed, d_in=5, hidden=7, d_out=3, activation=Activation.RELU):
    rng = np.random.default_rng(seed)
    return Network(
        layers=(
            FcLayer(rng.normal(size=(hidden, d_in)), rng.normal(size=hidden), activation),
            FcLayer(rng.normal(size=(d_out, hidden)), rng.normal(size=d_out), Activation.IDENTITY),
        ),
        input_dim=d_in,
    )


class TestActivations:
    def test_relu_clamps_negatives(self):
        z = np.array([-2.0, -0.0, 0.5, 3.0])
        np.testing.assert_array_equal(Activation.RELU.apply(z), [0.0, 0.0, 0.5, 3.0])

    def test_sigmoid_known_values(self):
        z = np.array([0.0, np.log(3.0)])
        np.testing.assert_allclose(Activation.SIGMOID.apply(z), [0.5, 0.75], atol=1e-15)

    def test_sigmoid_saturates_without_overflow(self):
        out = Activation.SIGMOID.apply(np.array([-500.0, 500.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-200)
        assert out[1] == pytest.approx(1.0, abs=1e-15)

    def test_identity_is_passthrough(self):
        z = np.array([-1.5, 2.5])
        np.testing.assert_array_equal(Activation.IDENTITY.apply(z), z)


def reference_sigmoid(z):
    """Sigmoid split on sign through two masks, so exp never overflows."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoidBits:
    EDGES = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
        np.inf, -np.inf, 1e-300, -1e-300, 0.5, -0.5, 36.7, -36.7, 37.5, -37.5,
        708.0, -708.0, 709.0, -709.0, 709.78, -709.78, 710.0, -710.0,
        744.0, -744.0, 745.0, -745.0, 745.13, -745.13, 746.0, -746.0, 1e308, -1e308,
    ]

    def test_edge_values_match_reference_bitwise(self):
        z = np.array(self.EDGES)
        got = _sigmoid(z)
        assert got.dtype == np.float64 and got.shape == z.shape
        assert got.tobytes() == reference_sigmoid(z).tobytes()

    @pytest.mark.parametrize("shape", [(0,), (), (1,), (257,), (9, 31), (4, 5, 6), (2580, 3)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    def test_random_arrays_match_reference_bitwise(self, shape, scale):
        rng = np.random.default_rng(len(shape) * 1000 + int(scale))
        z = rng.normal(scale=scale, size=shape)
        got = _sigmoid(z)
        assert got.shape == z.shape
        assert got.tobytes() == reference_sigmoid(z).tobytes()

    def test_non_contiguous_and_integer_inputs(self):
        z = np.random.default_rng(3).normal(scale=5.0, size=(40, 30))
        before = z.copy()
        assert _sigmoid(z[::3, ::2]).tobytes() == reference_sigmoid(z[::3, ::2]).tobytes()
        assert _sigmoid(z.T).tobytes() == reference_sigmoid(z.T).tobytes()
        assert _sigmoid([-3, 0, 3]).tobytes() == reference_sigmoid([-3, 0, 3]).tobytes()
        assert z.tobytes() == before.tobytes()  # the input is never written

    def test_nan_stays_nan(self):
        # the sign bit of a nan result may differ; callers reject non-finite input
        assert np.all(np.isnan(_sigmoid(np.array([np.nan, -np.nan, 1.0]))[:2]))

    def test_peak_memory_of_one_call(self):
        # the result, 1 + exp(-|z|) and the sign mask: 2.125x the input
        z = np.random.default_rng(4).normal(scale=4.0, size=(2580, 256))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = _sigmoid(z)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == z.shape
        assert peak < 2.25 * z.nbytes


class TestConstruction:
    def test_weight_set_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WeightSet(np.array([1.0, np.nan]), 0.0)

    def test_layer_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FcLayer(np.ones((3, 2)), np.zeros(4), Activation.RELU)

    def test_network_needs_two_layers(self):
        single = FcLayer(np.ones((2, 3)), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(ValueError):
            Network(layers=(single,), input_dim=3)

    def test_adjacent_widths_must_match(self):
        a = FcLayer(np.ones((4, 3)), np.zeros(4), Activation.RELU)
        b = FcLayer(np.ones((2, 5)), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(ValueError):
            Network(layers=(a, b), input_dim=3)

    def test_identity_forbidden_before_output(self):
        a = FcLayer(np.ones((4, 3)), np.zeros(4), Activation.IDENTITY)
        b = FcLayer(np.ones((2, 4)), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(ValueError):
            Network(layers=(a, b), input_dim=3)

    def test_input_dim_checked_against_first_layer(self):
        net = seeded_net(0)
        with pytest.raises(ValueError):
            Network(layers=net.layers, input_dim=net.input_dim + 1)

    def test_writable_inputs_and_views_are_copied(self):
        rng = np.random.default_rng(4)
        w, b = rng.normal(size=(3, 5)), rng.normal(size=3)
        base = rng.normal(size=(3, 8))
        view = base[:, :5]
        view.setflags(write=False)
        layers = [FcLayer(w, b, Activation.RELU), FcLayer(view, b, Activation.RELU)]
        expected = [(w.copy(), b.copy()), (view.copy(), b.copy())]
        w[0, 0] = base[0, 0] = b[0] = 99.0
        for layer, (w_then, b_then) in zip(layers, expected):
            assert not (layer.weights.flags.writeable or layer.bias.flags.writeable)
            np.testing.assert_array_equal(layer.weights, w_then)
            np.testing.assert_array_equal(layer.bias, b_then)

    def test_read_only_float64_owner_is_kept(self):
        w = np.full((3, 5), 0.5)
        w.setflags(write=False)
        assert FcLayer(w, np.zeros(3), Activation.RELU).weights is w
        narrow = w.astype(np.float32)
        narrow.setflags(write=False)
        kept = FcLayer(narrow, np.zeros(3), Activation.RELU).weights
        assert kept.dtype == np.float64 and kept is not narrow

    def test_output_dim(self):
        assert seeded_net(0, d_out=3).output_dim == 3


class TestForward:
    def test_matches_per_sample_loop_oracle(self):
        net = seeded_net(11)
        rng = np.random.default_rng(99)
        xs = rng.normal(size=(40, net.input_dim))
        batched = forward_batch(net, xs)
        for k, x in enumerate(xs):
            z = x
            for layer in net.layers:
                pre = layer.weights @ z + layer.bias
                z = layer.activation.apply(pre)
            # batched matmul may round differently at the last ulp
            np.testing.assert_allclose(batched[k], z, rtol=1e-12, atol=1e-12)

    def test_rejects_wrong_input_width(self):
        net = seeded_net(1)
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros((1, net.input_dim + 2)))


class TestStructureHelpers:
    def test_param_count_oracle(self):
        net = seeded_net(3, d_in=5, hidden=7, d_out=3)
        assert param_count(net) == 7 * 5 + 7 + 3 * 7 + 3

    def test_layer_sizes(self):
        net = seeded_net(3, d_in=5, hidden=7, d_out=3)
        assert layer_sizes(net) == (5, 7, 3)


class TestDeleteNeuron:
    def test_removes_row_and_column(self):
        net = seeded_net(4, hidden=6)
        smaller = replay_trace(net, PruneTrace(0, 6, (PruneStep(removed=2, saliency=0.0),)))
        assert layer_sizes(smaller) == (5, 5, 3)
        np.testing.assert_array_equal(
            smaller.layers[0].weights, np.delete(net.layers[0].weights, 2, axis=0)
        )
        np.testing.assert_array_equal(
            smaller.layers[1].weights, np.delete(net.layers[1].weights, 2, axis=1)
        )

    def test_rejects_out_of_range(self):
        net = seeded_net(5)
        n = net.layers[0].n_out
        with pytest.raises(ValueError, match="outside the original layer"):
            replay_trace(net, PruneTrace(0, n, (PruneStep(removed=n, saliency=0.0),)))

    def test_rejects_emptying_a_layer(self):
        net = seeded_net(5, hidden=1)
        with pytest.raises(ValueError, match="at least two neurons"):
            replay_trace(net, PruneTrace(0, 1, (PruneStep(removed=0, saliency=0.0),)))

    def test_rejects_output_layer(self):
        net = seeded_net(5)
        with pytest.raises(ValueError, match="output layer"):
            replay_trace(net, PruneTrace(1, net.output_dim, (PruneStep(removed=0, saliency=0.0),)))


class TestMergeNeurons:
    def test_outgoing_column_folded_into_survivor(self):
        net = seeded_net(6, hidden=5)
        merged = merge_neurons(net, 0, kept=1, removed=3)
        w2 = net.layers[1].weights
        expected_col = w2[:, 1] + w2[:, 3]
        np.testing.assert_array_equal(merged.layers[1].weights[:, 1], expected_col)
        assert merged.layers[0].n_out == 4

    def test_kept_must_differ_from_removed(self):
        with pytest.raises(ValueError):
            merge_neurons(seeded_net(6), 0, kept=2, removed=2)

    def test_exact_duplicates_preserve_function(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(4, 3))
        w1[2] = w1[0]
        b1 = rng.normal(size=4)
        b1[2] = b1[0]
        net = Network(
            layers=(
                FcLayer(w1, b1, Activation.SIGMOID),
                FcLayer(rng.normal(size=(2, 4)), rng.normal(size=2), Activation.IDENTITY),
            ),
            input_dim=3,
        )
        merged = merge_neurons(net, 0, kept=0, removed=2)
        xs = rng.normal(size=(200, 3))
        gap = np.abs(forward_batch(merged, xs) - forward_batch(net, xs))
        assert gap.max() <= 1e-12


class TestRescale:
    def test_incoming_rows_become_unit_norm(self):
        # Without this the function checks below would pass on a helper that rescales nothing.
        net = seeded_net(8, hidden=6)
        rows = relu_rescaled(net).layers[0].weights
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
        assert not np.allclose(np.linalg.norm(net.layers[0].weights, axis=1), 1.0)

    def test_forward_deviation_stays_tiny(self):
        rng = np.random.default_rng(88)
        for seed in range(5):
            net = seeded_net(200 + seed, d_in=6, hidden=9, d_out=4)
            rescaled = relu_rescaled(net)
            xs = rng.normal(size=(1000, 6))
            gap = np.abs(forward_batch(rescaled, xs) - forward_batch(net, xs))
            assert gap.max() <= 1e-9


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(0.1, 4.0))
def test_relu_positive_homogeneity(seed, alpha):
    """Scaling a ReLU neuron's inputs down and its outputs up cancels exactly
    in exact arithmetic, and to rounding error in floats."""
    rng = np.random.default_rng(seed)
    net = seeded_net(seed, d_in=4, hidden=5, d_out=2)
    w1 = net.layers[0].weights.copy()
    b1 = net.layers[0].bias.copy()
    w2 = net.layers[1].weights.copy()
    w1[0] /= alpha
    b1[0] /= alpha
    w2[:, 0] *= alpha
    scaled = Network(
        layers=(
            FcLayer(w1, b1, Activation.RELU),
            FcLayer(w2, net.layers[1].bias, Activation.IDENTITY),
        ),
        input_dim=4,
    )
    xs = rng.normal(size=(50, 4))
    gap = np.abs(forward_batch(scaled, xs) - forward_batch(net, xs))
    assert gap.max() <= 1e-9
