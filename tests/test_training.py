"""SGD fixture training, evaluation, and pruning error curves."""

import numpy as np
import pytest

import neuronprune as npr
from neuronprune import (
    Activation,
    Dataset,
    FcLayer,
    Network,
    PolicyKind,
    PrunePolicy,
    PruneStep,
    PruneTrace,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    forward_batch,
    make_blobs,
    merge_neurons,
    prune_layer,
    replay_trace,
    trace_error_curve,
    train,
)
from neuronprune.training import _init_params, _trace_logits
from conftest import mean_curve, relu_rescaled


def tiny_dataset(n=24, d=3, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.arange(n, dtype=np.int64) % n_classes
    idx = np.arange(n)
    return Dataset(x, y, idx[: n - 8], idx[n - 8 : n - 4], idx[n - 4 :])


class TestTrainConfig:
    def test_rejects_nonpositive_rate_and_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(hidden_units=0)

    def test_rejects_negative_epochs_but_allows_zero(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        TrainConfig(epochs=0)

    def test_rejects_negative_weight_decay(self):
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-4)

    def test_output_activation_not_trainable_choice(self):
        with pytest.raises(ValueError):
            TrainConfig(activation=Activation.IDENTITY)


class TestTrain:
    def test_same_seed_bitwise_identical(self):
        ds = make_blobs(n_samples=300, n_features=8, seed=1)
        cfg = TrainConfig(hidden_units=6, epochs=5, seed=7)
        a = train(ds, cfg)
        b = train(ds, cfg)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_zero_epochs_returns_initialization(self):
        ds = make_blobs(n_samples=200, n_features=5, seed=2)
        init = train(ds, TrainConfig(hidden_units=4, epochs=0, seed=3))
        np.testing.assert_array_equal(init.layers[0].bias, 0.0)
        np.testing.assert_array_equal(init.layers[1].bias, 0.0)
        trained = train(ds, TrainConfig(hidden_units=4, epochs=5, seed=3))
        assert not np.array_equal(init.layers[0].weights, trained.layers[0].weights)
        # the initial weights are untouched by a zero-epoch run
        again = train(ds, TrainConfig(hidden_units=4, epochs=0, seed=3))
        np.testing.assert_array_equal(init.layers[0].weights, again.layers[0].weights)

    def test_separable_blobs_reach_high_accuracy(self):
        ds = make_blobs(label_noise=0.0, seed=3)
        net = train(ds, TrainConfig(seed=3))
        acc, err = evaluate(net, ds)
        assert acc >= 95.0
        assert err == pytest.approx(100.0 - acc, abs=1e-12)

    def test_structure_matches_config(self):
        ds = make_blobs(n_samples=200, n_features=6, n_classes=3, seed=4)
        net = train(ds, TrainConfig(hidden_units=9, epochs=2, activation=Activation.RELU, seed=0))
        assert npr.layer_sizes(net) == (6, 9, 3)
        assert net.layers[0].activation is Activation.RELU
        assert net.layers[1].activation is Activation.IDENTITY

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_diagnostic(self):
        ds = make_blobs(n_samples=200, n_features=5, seed=5)
        with pytest.raises(TrainingDiverged):
            train(ds, TrainConfig(hidden_units=4, epochs=50, learning_rate=1e6, seed=0))

    def test_weight_decay_never_touches_biases(self):
        """One full-batch epoch from a shared init: the decay term changes the
        weight update but must leave the bias update untouched."""
        ds = tiny_dataset()
        base = dict(hidden_units=5, epochs=1, batch_size=64, learning_rate=0.1, seed=11)
        plain = train(ds, TrainConfig(weight_decay=0.0, **base))
        decayed = train(ds, TrainConfig(weight_decay=0.5, **base))
        for k in range(2):
            np.testing.assert_array_equal(plain.layers[k].bias, decayed.layers[k].bias)
            assert not np.array_equal(plain.layers[k].weights, decayed.layers[k].weights)

    def test_one_step_decay_arithmetic(self):
        # same gradients, so the runs differ by exactly lr * wd * w_init
        ds = tiny_dataset(seed=6)
        base = dict(hidden_units=5, epochs=1, batch_size=64, learning_rate=0.1, seed=11)
        init = train(ds, TrainConfig(epochs=0, hidden_units=5, seed=11))
        plain = train(ds, TrainConfig(weight_decay=0.0, **base))
        decayed = train(ds, TrainConfig(weight_decay=0.5, **base))
        for k in range(2):
            shift = plain.layers[k].weights - decayed.layers[k].weights
            np.testing.assert_allclose(
                shift, 0.1 * 0.5 * init.layers[k].weights, rtol=1e-12, atol=1e-15
            )


def _reference_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _reference_log_loss(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_norm - shifted[np.arange(len(labels)), labels]))


def reference_train(ds, cfg):
    """The plain SGD loop ``train`` must reproduce bit for bit.

    One minibatch at a time, indexed through its slice of the epoch's
    permutation, with a separate softmax and log-loss and out-of-place
    updates.
    """
    x_train, y_train = ds.split("train")
    rng = np.random.default_rng(cfg.seed)
    w1, b1, w2, b2 = _init_params(rng, ds.n_features, cfg.hidden_units, ds.n_classes)
    act = cfg.activation
    lr = cfg.learning_rate
    decay = cfg.weight_decay
    n = len(y_train)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            xb = x_train[batch]
            yb = y_train[batch]
            pre = xb @ w1.T + b1
            hid = act.apply(pre)
            logits = hid @ w2.T + b2
            epoch_loss += _reference_log_loss(logits, yb) * len(batch)
            grad_logits = _reference_softmax(logits)
            grad_logits[np.arange(len(batch)), yb] -= 1.0
            grad_logits /= len(batch)
            grad_w2 = grad_logits.T @ hid
            grad_b2 = grad_logits.sum(axis=0)
            grad_hid = grad_logits @ w2
            if act is Activation.SIGMOID:
                grad_pre = grad_hid * hid * (1.0 - hid)
            else:
                grad_pre = grad_hid * (pre > 0.0)
            grad_w1 = grad_pre.T @ xb
            grad_b1 = grad_pre.sum(axis=0)
            w1 -= lr * (grad_w1 + decay * w1)
            b1 -= lr * grad_b1
            w2 -= lr * (grad_w2 + decay * w2)
            b2 -= lr * grad_b2
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(
                f"mean loss became non-finite in epoch {epoch + 1} of {cfg.epochs}"
            )
    return (w1, b1), (w2, b2)


class TestTrainMatchesReference:
    # make_blobs(n_samples=300) has a 180-row train split
    @pytest.mark.parametrize("activation", [Activation.SIGMOID, Activation.RELU])
    @pytest.mark.parametrize("options", [
        dict(batch_size=7),
        dict(batch_size=32),
        dict(batch_size=180),
        dict(batch_size=500),
        dict(batch_size=32, epochs=0),
        dict(batch_size=13, weight_decay=0.0),
    ])
    def test_weights_and_biases_bitwise_equal(self, activation, options):
        ds = make_blobs(n_samples=300, n_features=8, n_classes=3, seed=31)
        assert len(ds.split("train")[1]) == 180
        # a learning rate that is not a power of two, so that reordering the
        # update's roundings would show
        base = dict(hidden_units=24, epochs=6, seed=5, learning_rate=0.3, activation=activation)
        cfg = TrainConfig(**{**base, **options})
        net = train(ds, cfg)
        for layer, (weights, bias) in zip(net.layers, reference_train(ds, cfg)):
            assert layer.weights.tobytes() == weights.tobytes()
            assert layer.bias.tobytes() == bias.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("activation", [Activation.SIGMOID, Activation.RELU])
    def test_divergence_fires_in_the_same_epoch(self, activation):
        ds = make_blobs(n_samples=200, n_features=5, seed=5)
        cfg = TrainConfig(
            hidden_units=4, epochs=50, learning_rate=1e6, activation=activation, seed=0
        )
        with pytest.raises(TrainingDiverged) as expected:
            reference_train(ds, cfg)
        with pytest.raises(TrainingDiverged) as got:
            train(ds, cfg)
        assert str(got.value) == str(expected.value)
        assert str(got.value).endswith(" of 50")


def constant_logit_net(d, n_classes):
    w1 = np.zeros((2, d))
    b1 = np.zeros(2)
    w2 = np.zeros((n_classes, 2))
    return Network(
        layers=(FcLayer(w1, b1, Activation.SIGMOID), FcLayer(w2, np.zeros(n_classes), Activation.IDENTITY)),
        input_dim=d,
    )


class TestEvaluate:
    def test_constant_prediction_on_balanced_data_is_half_right(self):
        ds = tiny_dataset(n=32, n_classes=2)
        acc, err = evaluate(constant_logit_net(3, 2), ds, split="test")
        assert acc == 50.0
        assert err == 50.0

    def test_logit_ties_break_toward_smallest_class(self):
        ds = tiny_dataset(n=16, n_classes=4)
        net = constant_logit_net(3, 4)
        xs, ys = ds.split("test")
        preds_all_zero = (ys == 0).mean() * 100.0
        acc, _ = evaluate(net, ds, split="test")
        assert acc == pytest.approx(preds_all_zero, abs=1e-12)

    def test_matches_per_sample_loop_oracle(self):
        ds = make_blobs(n_samples=200, n_features=7, n_classes=3, seed=8)
        net = train(ds, TrainConfig(hidden_units=6, epochs=3, seed=8))
        for split in ("train", "val", "test"):
            xs, ys = ds.split(split)
            hits = 0
            for x, y in zip(xs, ys):
                logits = x
                for layer in net.layers:
                    logits = layer.activation.apply(layer.weights @ logits + layer.bias)
                best = min(np.flatnonzero(logits == logits.max()))
                hits += int(best == y)
            acc, err = evaluate(net, ds, split=split)
            assert acc == pytest.approx(100.0 * hits / len(ys), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        ds = make_blobs(n_samples=100, n_features=5, seed=9)
        net = constant_logit_net(4, 2)
        with pytest.raises(ValueError):
            evaluate(net, ds)

    def test_label_without_an_output_rejected(self):
        ds = tiny_dataset(n=24, n_classes=4)  # every split holds labels 0 to 3
        assert evaluate(constant_logit_net(3, 4), ds) == (25.0, 75.0)
        message = r"^test split has label 3, but the network has only 3 outputs$"
        with pytest.raises(ValueError, match=message):
            evaluate(constant_logit_net(3, 3), ds)

    def test_duplicate_merge_preserves_accuracy(self):
        ds = make_blobs(n_samples=400, n_features=6, seed=10)
        net = train(ds, TrainConfig(hidden_units=5, epochs=10, seed=10))
        w1 = net.layers[0].weights.copy()
        b1 = net.layers[0].bias.copy()
        w1[3] = w1[1]
        b1[3] = b1[1]
        hidden = FcLayer(w1, b1, net.layers[0].activation)
        dup = Network((hidden, net.layers[1]), net.input_dim)
        merged = merge_neurons(dup, 0, kept=1, removed=3)
        assert evaluate(merged, ds) == evaluate(dup, ds)

    def test_invariant_under_relu_rescale(self):
        ds = make_blobs(n_samples=400, n_features=6, seed=12)
        net = train(ds, TrainConfig(hidden_units=7, epochs=10, activation=Activation.RELU, seed=12))
        rescaled = relu_rescaled(net)
        assert evaluate(rescaled, ds) == evaluate(net, ds)


class TestErrorCurves:
    def test_curve_starts_at_baseline_and_covers_every_step(self):
        ds = make_blobs(n_samples=400, n_features=6, seed=13)
        net = train(ds, TrainConfig(hidden_units=8, epochs=10, seed=13))
        _, trace = prune_layer(net, 0, 7, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        curve = trace_error_curve(net, trace, ds)
        steps = [s for s, _ in curve]
        assert steps == list(range(8))
        assert curve[0][1] == evaluate(net, ds)[1]

    def test_each_point_matches_replay_oracle(self):
        ds = make_blobs(n_samples=400, n_features=6, seed=14)
        net = train(ds, TrainConfig(hidden_units=8, epochs=10, seed=14))
        for kind, seed in ((PolicyKind.SALIENCY_SURGERY, None), (PolicyKind.RANDOM, 2)):
            _, trace = prune_layer(net, 0, 7, PrunePolicy(kind, seed=seed))
            oracle = npr.replay_error_oracle(net, trace, ds)
            val_oracle = npr.replay_error_oracle(net, trace, ds, "val")
            for step, err in trace_error_curve(net, trace, ds):
                assert err == evaluate(replay_trace(net, trace, step), ds)[1]
                assert oracle(step) == err
                assert val_oracle(step) == evaluate(replay_trace(net, trace, step), ds, "val")[1]

    def test_sparse_evaluation_keeps_endpoints(self):
        ds = make_blobs(n_samples=400, n_features=6, seed=15)
        net = train(ds, TrainConfig(hidden_units=8, epochs=5, seed=15))
        _, trace = prune_layer(net, 0, 7, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        curve = trace_error_curve(net, trace, ds, eval_every=3)
        steps = [s for s, _ in curve]
        assert steps == [0, 3, 6, 7]

    def test_all_duplicate_layer_curve_is_flat(self):
        rng = np.random.default_rng(16)
        row = rng.normal(size=6)
        w1 = np.tile(row, (5, 1))
        b1 = np.full(5, -0.2)
        net = Network(
            layers=(
                FcLayer(w1, b1, Activation.SIGMOID),
                FcLayer(rng.normal(size=(2, 5)), rng.normal(size=2), Activation.IDENTITY),
            ),
            input_dim=6,
        )
        ds = make_blobs(n_samples=300, n_features=6, seed=16)
        _, trace = prune_layer(net, 0, 4, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        curve = trace_error_curve(net, trace, ds)
        errors = {err for _, err in curve}
        assert len(errors) == 1

    def test_compare_policies_matches_error_curve_per_policy(self):
        ds = make_blobs(n_samples=400, n_features=6, n_classes=3, seed=20)
        net = train(ds, TrainConfig(hidden_units=7, epochs=5, seed=20))
        traces, curves = npr.compare_policies(net, 0, ds, (4, 9), eval_every=2)
        assert list(curves) == list(PolicyKind)
        assert list(traces) == list(PolicyKind)[:3]
        def curve(policy):
            return trace_error_curve(net, prune_layer(net, 0, 6, policy)[1], ds, eval_every=2)

        for kind in list(PolicyKind)[:3]:
            assert curves[kind] == curve(PrunePolicy(kind))
            assert traces[kind] == prune_layer(net, 0, 6, PrunePolicy(kind))[1]
        draws = [curve(PrunePolicy(PolicyKind.RANDOM, seed=s)) for s in (4, 9)]
        assert curves[PolicyKind.RANDOM] == [
            (step, (a + b) / 2) for (step, a), (_, b) in zip(*draws)
        ]

    def test_compare_policies_builds_only_the_surgery_network(self, monkeypatch):
        # The deletion policies need only their traces; the curves build no network.
        built, network = [], npr.network._LayerEdit.network

        def counted(state):
            built.append(state)
            return network(state)

        monkeypatch.setattr(npr.network._LayerEdit, "network", counted)
        ds = make_blobs(n_samples=300, n_features=6, seed=21)
        net = train(ds, TrainConfig(hidden_units=6, epochs=2, seed=21))
        npr.compare_policies(net, 0, ds, (1, 2, 3))
        assert len(built) == 1

    def test_curve_makes_the_checks_of_evaluate(self):
        ds = make_blobs(n_samples=300, n_features=6, seed=19)
        net = train(ds, TrainConfig(hidden_units=5, epochs=2, seed=19))
        _, trace = prune_layer(net, 0, 4, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        no_test = Dataset(
            ds.features, ds.labels, ds.train_idx, np.concatenate([ds.val_idx, ds.test_idx]), []
        )
        with pytest.raises(ValueError, match=r"^test split is empty$"):
            trace_error_curve(net, trace, no_test)
        five_features = make_blobs(n_samples=300, n_features=5, seed=19)
        with pytest.raises(ValueError, match=r"^batch must have shape \(n, 6\)$"):
            trace_error_curve(net, trace, five_features)

    def test_label_without_an_output_rejected(self):
        ds = tiny_dataset(n=24, n_classes=4)  # every split holds labels 0 to 3
        trace = PruneTrace(0, 2, (PruneStep(1, 1, 0.0),))
        curve = trace_error_curve(constant_logit_net(3, 4), trace, ds, "val")
        assert curve == [(0, 75.0), (1, 75.0)]
        message = r"^val split has label 3, but the network has only 3 outputs$"
        with pytest.raises(ValueError, match=message):
            trace_error_curve(constant_logit_net(3, 3), trace, ds, "val")

    def test_trace_from_wider_layer_rejected(self):
        ds = make_blobs(n_samples=300, n_features=6, seed=18)
        wide = train(ds, TrainConfig(hidden_units=9, epochs=2, seed=18))
        narrow = train(ds, TrainConfig(hidden_units=5, epochs=2, seed=18))
        _, trace = prune_layer(wide, 0, 4, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        with pytest.raises(ValueError):
            trace_error_curve(narrow, trace, ds)


def three_layer_net(seed, d=6, widths=(9, 7), n_classes=3):
    rng = np.random.default_rng(seed)
    sizes = (d, *widths, n_classes)
    acts = (Activation.RELU, Activation.SIGMOID, Activation.IDENTITY)
    layers = tuple(
        FcLayer(rng.normal(size=(n_out, n_in)), rng.normal(size=n_out), act)
        for n_in, n_out, act in zip(sizes, sizes[1:], acts)
    )
    return Network(layers=layers, input_dim=d)


def kernel_case(name):
    """(network, layer index, dataset) for one kernel test case."""
    ds = make_blobs(n_samples=300, n_features=6, n_classes=3, seed=21)
    if name == "three-layer-0":
        return three_layer_net(21), 0, ds
    if name == "three-layer-1":
        return three_layer_net(22), 1, ds
    act = Activation.SIGMOID if name == "sigmoid" else Activation.RELU
    return train(ds, TrainConfig(hidden_units=9, epochs=5, activation=act, seed=21)), 0, ds


def assert_kernel_matches_replay(net, trace, ds, eval_every):
    x, _ = ds.split("test")
    measured = []
    for step, logits in _trace_logits(net, trace, x, eval_every):
        expected = forward_batch(replay_trace(net, trace, step), x)
        assert np.max(np.abs(logits - expected)) <= 1e-12 * np.max(np.abs(expected))
        if step == 0:  # the unpruned baseline runs the forward pass's own operations
            assert np.array_equal(logits, expected)
        measured.append(step)
    assert measured[0] == 0
    curve = trace_error_curve(net, trace, ds, eval_every=eval_every)
    assert [step for step, _ in curve] == measured
    for step, err in curve:
        assert err == evaluate(replay_trace(net, trace, step), ds)[1]


class TestIncrementalCurveKernel:
    """The rank-one curve kernel against a full forward pass of each replay."""

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("case", ["sigmoid", "relu", "three-layer-0", "three-layer-1"])
    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_logits_and_errors_match_replay(self, kind, case, eval_every):
        net, layer_index, ds = kernel_case(case)
        policy = PrunePolicy(kind, seed=3 if kind is PolicyKind.RANDOM else None)
        count = net.layers[layer_index].n_out - 1
        _, trace = prune_layer(net, layer_index, count, policy)
        assert_kernel_matches_replay(net, trace, ds, eval_every)

    def test_long_trace_does_not_drift(self):
        rng = np.random.default_rng(23)
        width = 600
        net = Network(
            layers=(
                FcLayer(rng.normal(size=(width, 6)), rng.normal(size=width), Activation.RELU),
                FcLayer(rng.normal(size=(3, width)), rng.normal(size=3), Activation.IDENTITY),
            ),
            input_dim=6,
        )
        ds = make_blobs(n_samples=300, n_features=6, n_classes=3, seed=23)
        _, trace = prune_layer(net, 0, width - 1, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        assert len(trace) >= 512
        assert_kernel_matches_replay(net, trace, ds, eval_every=1)

    def test_builds_no_network(self, monkeypatch):
        net, _, ds = kernel_case("relu")
        _, trace = prune_layer(net, 0, 8, PrunePolicy(PolicyKind.SALIENCY_SURGERY))

        def refuse(self):
            raise AssertionError("the curve kernel built a Network")

        monkeypatch.setattr(Network, "__post_init__", refuse)
        assert len(trace_error_curve(net, trace, ds)) == 9


class TestTrainedFixtureBehavior:
    """Desk-scale policy comparisons on the shared two-class fixture."""

    def test_training_beats_majority_class(self, module_runs):
        for run in module_runs:
            xs, ys = run.dataset.split("train")
            majority = 100.0 * np.bincount(ys).max() / len(ys)
            acc, _ = evaluate(run.network, run.dataset, split="train")
            assert acc > majority

    def test_mean_ordering_at_half_removal(self, module_runs):
        surg = mean_curve(module_runs, PolicyKind.SALIENCY_SURGERY)
        mag = mean_curve(module_runs, PolicyKind.NAIVE_MAGNITUDE)
        rand = mean_curve(module_runs, PolicyKind.RANDOM)
        assert surg[10] <= mag[10] <= rand[10]

    def test_random_never_beats_surgery_at_decile_checkpoints(self, module_runs):
        surg = mean_curve(module_runs, PolicyKind.SALIENCY_SURGERY)
        rand = mean_curve(module_runs, PolicyKind.RANDOM)
        for step in range(2, 19, 2):
            assert rand[step] >= surg[step]

    def test_skipping_surgery_hurts_beyond_forty_percent(self, module_runs):
        surg = mean_curve(module_runs, PolicyKind.SALIENCY_SURGERY)
        plain = mean_curve(module_runs, PolicyKind.SALIENCY_NO_SURGERY)
        late = range(8, 20)
        assert np.mean([plain[s] - surg[s] for s in late]) > 0.0

    def test_no_surgery_curve_ends_strictly_higher(self, module_runs):
        surg = mean_curve(module_runs, PolicyKind.SALIENCY_SURGERY)
        plain = mean_curve(module_runs, PolicyKind.SALIENCY_NO_SURGERY)
        assert plain[19] > surg[19]
