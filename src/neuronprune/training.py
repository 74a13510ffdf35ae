"""Plain SGD training of one-hidden-layer classifiers, and evaluation.

Training is deliberately simple so runs are bit-reproducible: no
momentum, sequential minibatches from a seeded shuffle, and every random
draw (initialization, then one permutation per epoch) comes from a
single generator in a documented order. Each epoch gathers the train
split once in its permuted order and takes the minibatches as
consecutive slices of that copy, which are the same rows, in the same
order, as indexing each minibatch by its slice of the permutation.
Weight decay applies to weight matrices only; biases are updated from
their gradient alone.

The output layer is linear. Class predictions take the argmax of the
logits, with ties resolved toward the smallest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .network import (
    Activation,
    FcLayer,
    Network,
    _check_hidden_layer,
    _checked_batch,
    _LayerEdit,
    _run_layers,
    forward_batch,
)
from .pruning import PolicyKind, PrunePolicy, PruneTrace, _deletion_trace, prune_layer, replay_trace
from .saliency import SimilarityMode

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "train",
    "evaluate",
    "trace_error_curve",
    "replay_error_oracle",
    "compare_policies",
]


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; carries epoch context."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the fixture trainer.

    ``weight_decay`` is applied to the two weight matrices and never to
    the biases. ``epochs`` may be zero, in which case the seeded
    initialization is returned untouched.
    """

    hidden_units: int = 20
    activation: Activation = Activation.SIGMOID
    learning_rate: float = 0.5
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 1e-3

    def __post_init__(self):
        if self.hidden_units < 1:
            raise ValueError("need at least one hidden unit")
        if self.activation not in (Activation.SIGMOID, Activation.RELU):
            raise ValueError("hidden activation must be sigmoid or relu")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be nonnegative")


def _loss_and_softmax(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray):
    """Mean log-loss of ``labels`` and the softmax of ``logits``, from one ``exp``.

    ``rows`` is ``np.arange(len(labels))``. ``logits`` is overwritten with
    its row-max-shifted values; the returned softmax is a new array.
    """
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    norm = exp.sum(axis=1)
    loss = float(np.mean(np.log(norm) - logits[rows, labels]))
    exp /= norm[:, None]
    return loss, exp


def _init_params(rng, d: int, hidden: int, n_classes: int):
    # Draw order matters for reproducibility: hidden weights first, then
    # output weights, biases start at zero.
    w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(hidden, d))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(n_classes, hidden))
    return w1, np.zeros(hidden), w2, np.zeros(n_classes)


def train(ds: Dataset, cfg: TrainConfig) -> Network:
    """Fit a ``d -> hidden -> C`` classifier with seeded minibatch SGD.

    One generator seeded by ``cfg.seed`` supplies, in order: the two
    weight initializations, then one train-split permutation per epoch.
    Minibatches are consecutive slices of the split gathered in that
    permuted order. Raises
    :class:`TrainingDiverged` the first epoch the mean loss is not
    finite.
    """
    x_train, y_train = ds.split("train")
    n_classes = ds.n_classes
    if n_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(cfg.seed)
    w1, b1, w2, b2 = _init_params(rng, ds.n_features, cfg.hidden_units, n_classes)
    act = cfg.activation
    lr = cfg.learning_rate
    decay = cfg.weight_decay
    n = len(y_train)
    rows = np.arange(min(n, cfg.batch_size))
    step1, step2 = np.empty_like(w1), np.empty_like(w2)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        x_epoch = x_train[perm]
        y_epoch = y_train[perm]
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            xb = x_epoch[start : start + cfg.batch_size]
            yb = y_epoch[start : start + cfg.batch_size]
            size = len(yb)
            batch_rows = rows[:size]
            pre = xb @ w1.T
            pre += b1
            hid = act.apply(pre)
            logits = hid @ w2.T
            logits += b2
            loss, grad_logits = _loss_and_softmax(logits, yb, batch_rows)
            epoch_loss += loss * size
            grad_logits[batch_rows, yb] -= 1.0
            grad_logits /= size
            grad_w2 = grad_logits.T @ hid
            grad_b2 = grad_logits.sum(axis=0)
            grad_hid = grad_logits @ w2
            if act is Activation.SIGMOID:
                grad_hid *= hid
                grad_hid *= 1.0 - hid
            else:
                grad_hid *= pre > 0.0
            grad_w1 = grad_hid.T @ xb
            grad_b1 = grad_hid.sum(axis=0)
            for w, grad, step in ((w1, grad_w1, step1), (w2, grad_w2, step2)):
                np.multiply(w, decay, out=step)
                step += grad
                step *= lr
                w -= step
            b1 -= lr * grad_b1
            b2 -= lr * grad_b2
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(
                f"mean loss became non-finite in epoch {epoch + 1} of {cfg.epochs}"
            )
    return Network(
        layers=(
            FcLayer(weights=w1, bias=b1, activation=act),
            FcLayer(weights=w2, bias=b2, activation=Activation.IDENTITY),
        ),
        input_dim=ds.n_features,
    )


def _accuracy_and_error(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Accuracy and error of argmax predictions, in percent."""
    predictions = np.argmax(logits, axis=1)  # first maximum, so ties pick the smallest class
    accuracy = 100.0 * float(np.mean(predictions == labels))
    return accuracy, 100.0 - accuracy


def _checked_split(net: Network, ds: Dataset, split: str) -> tuple[np.ndarray, np.ndarray]:
    """One split's rows, checked as ``net``'s inputs, and its labels.

    Raises ValueError when a label names a class the network has no
    output for: argmax predictions could never match it, so an error
    measured on it would count the mismatch of the data, not the net.
    """
    x, y = ds.split(split)
    if y.max() >= net.output_dim:
        raise ValueError(
            f"{split} split has label {int(y.max())}, but the network has only"
            f" {net.output_dim} outputs"
        )
    return _checked_batch(net, x), y


def evaluate(net: Network, ds: Dataset, split: str = "test") -> tuple[float, float]:
    """Accuracy and error of argmax predictions on one split, in percent."""
    x, y = _checked_split(net, ds, split)
    return _accuracy_and_error(forward_batch(net, x), y)


def _trace_logits(net: Network, trace: PruneTrace, x: np.ndarray, eval_every: int):
    """Yield ``(step, logits)`` for step 0 and after each measured removal of ``trace``.

    A merge or a delete leaves the pruned layer's activations ``H``
    unchanged, so they and the next layer's pre-activations are computed
    once. With ``a`` the removed neuron's outgoing column, merging ``j``
    into ``i`` then adds ``outer(H[:, i] - H[:, j], a)`` to the
    pre-activations and deleting ``j`` subtracts ``outer(H[:, j], a)``.
    Only measured steps (0, every ``eval_every``-th and the last) run the
    layers downstream; step 0 runs the same operations as
    :func:`forward_batch`, so its logits equal that pass bit for bit.
    ``x`` is taken as valid; no ``Network`` is built.
    A yielded array can be the kernel's own buffer, which the next step
    updates in place.
    """
    edit = _LayerEdit.for_trace(net, trace)
    k = trace.layer_index
    nxt = net.layers[k + 1]
    hidden = _run_layers(net.layers[: k + 1], x)
    pre = hidden @ nxt.weights.T + nxt.bias
    yield 0, _run_layers(net.layers[k + 2 :], nxt.activation.apply(pre))
    total = len(trace.steps)
    for done, step in enumerate(trace.steps, start=1):
        edit.remove(step.removed, step.kept)
        # remove folded column j into column i but left column j as it was
        h = hidden[:, step.removed]
        if step.kept is not None:
            h = h - hidden[:, step.kept]
        pre -= np.multiply.outer(h, edit.next_weights[:, step.removed])
        if done % eval_every == 0 or done == total:
            yield done, _run_layers(net.layers[k + 2 :], nxt.activation.apply(pre))


def trace_error_curve(
    net: Network,
    trace: PruneTrace,
    ds: Dataset,
    split: str = "test",
    eval_every: int = 1,
) -> list[tuple[int, float]]:
    """Error after each recorded removal, from cached activations.

    Returns (step, error) pairs starting at step 0 (the unpruned
    baseline, equal to :func:`evaluate`). With ``eval_every`` > 1, only
    every k-th step is measured; the final step is always included. Later
    steps update the next layer's pre-activations by one rank-one term
    per removal (see ``_trace_logits``) instead of building a network.
    """
    if eval_every < 1:
        raise ValueError("eval_every must be at least 1")
    x, y = _checked_split(net, ds, split)
    return [
        (done, _accuracy_and_error(logits, y)[1])
        for done, logits in _trace_logits(net, trace, x, eval_every)
    ]


def replay_error_oracle(net: Network, trace: PruneTrace, ds: Dataset, split: str = "test"):
    """The error oracle for :func:`~neuronprune.cutoff.data_driven_cutoff`.

    Returns ``oracle(count)``: the error, in percent, of ``net`` after the
    first ``count`` removals of ``trace`` (:func:`replay_trace`), measured
    by :func:`evaluate` on ``split``. Each call replays from step 0.
    """

    def oracle(count: int) -> float:
        return evaluate(replay_trace(net, trace, count), ds, split)[1]

    return oracle


def compare_policies(
    net: Network,
    layer_index: int,
    ds: Dataset,
    random_seeds,
    mode: SimilarityMode = SimilarityMode.NORMALIZED_HEURISTIC,
    split: str = "test",
    eval_every: int = 1,
) -> tuple[dict, dict]:
    """:func:`trace_error_curve` of a prune to one neuron under each :class:`PolicyKind`.

    Returns ``(traces, curves)``; ``traces`` holds the three deterministic
    policies. No-surgery reuses the surgery trace with ``kept`` stripped,
    so the saliency loop runs once, and the deletion policies' traces are
    taken from their removal order alone, with no pruned network built.
    The random curve is the elementwise mean over ``random_seeds``, taken
    in seed order.
    """
    _check_hidden_layer(net, layer_index)
    seeds = tuple(random_seeds)
    if not seeds:
        raise ValueError("need at least one random seed")
    count = net.layers[layer_index].n_out - 1
    _, surgery = prune_layer(
        net, layer_index, count, PrunePolicy(PolicyKind.SALIENCY_SURGERY), mode
    )
    traces = {
        PolicyKind.SALIENCY_SURGERY: surgery,
        PolicyKind.SALIENCY_NO_SURGERY: surgery.without_surgery(),
        PolicyKind.NAIVE_MAGNITUDE: _deletion_trace(
            net, layer_index, count, PrunePolicy(PolicyKind.NAIVE_MAGNITUDE)
        ),
    }
    curves = {
        kind: trace_error_curve(net, trace, ds, split, eval_every)
        for kind, trace in traces.items()
    }
    draws = []
    for seed in seeds:
        trace = _deletion_trace(net, layer_index, count, PrunePolicy(PolicyKind.RANDOM, seed=seed))
        draws.append(trace_error_curve(net, trace, ds, split, eval_every))
    mean_errors = np.mean([[e for _, e in draw] for draw in draws], axis=0)
    curves[PolicyKind.RANDOM] = [
        (step, float(e)) for (step, _), e in zip(draws[0], mean_errors)
    ]
    return traces, curves
