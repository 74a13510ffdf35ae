"""Plain SGD training of one-hidden-layer classifiers, and evaluation.

Training is deliberately simple so runs are bit-reproducible: no
momentum, sequential minibatches from a seeded shuffle, and every random
draw (initialization, then one permutation per epoch) comes from a
single generator in a documented order. Weight decay applies to weight
matrices only; biases are updated from their gradient alone.

The output layer is linear. Class predictions take the argmax of the
logits, with ties resolved toward the smallest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .network import Activation, FcLayer, Network, _run_layers, forward_batch
from .pruning import (
    PolicyKind,
    PrunePolicy,
    PruneTrace,
    _check_prunable,
    _EditState,
    prune_layer,
)
from .saliency import SimilarityConfig

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "train",
    "evaluate",
    "error_curve",
    "trace_error_curve",
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _log_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_norm - shifted[np.arange(len(labels)), labels]))


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
    Minibatches are consecutive slices of that permutation. Raises
    :class:`TrainingDiverged` the first epoch the mean loss is not
    finite.
    """
    x_train, y_train = ds.split("train")
    if len(y_train) == 0:
        raise ValueError("train split is empty")
    n_classes = ds.n_classes
    if n_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(cfg.seed)
    w1, b1, w2, b2 = _init_params(rng, ds.n_features, cfg.hidden_units, n_classes)
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
            epoch_loss += _log_loss(logits, yb) * len(batch)
            grad_logits = _softmax(logits)
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


def evaluate(net: Network, ds: Dataset, split: str = "test") -> tuple[float, float]:
    """Accuracy and error of argmax predictions on one split, in percent."""
    x, y = ds.split(split)
    if len(y) == 0:
        raise ValueError(f"{split} split is empty")
    return _accuracy_and_error(forward_batch(net, x), y)


def _trace_logits(net: Network, trace: PruneTrace, x: np.ndarray, eval_every: int):
    """Yield ``(step, logits)`` after each measured removal of ``trace``.

    A merge or a delete leaves the pruned layer's activations ``H``
    unchanged, so they and the next layer's pre-activations are computed
    once. With ``a`` the removed neuron's outgoing column, merging ``j``
    into ``i`` then adds ``outer(H[:, i] - H[:, j], a)`` to the
    pre-activations and deleting ``j`` subtracts ``outer(H[:, j], a)``.
    Only measured steps (every ``eval_every``-th and the last) run the
    layers downstream. ``x`` is taken as valid; no ``Network`` is built.
    A yielded array can be the kernel's own buffer, which the next step
    updates in place.
    """
    state = _EditState.for_trace(net, trace)
    k = trace.layer_index
    nxt = net.layers[k + 1]
    hidden = _run_layers(net.layers[: k + 1], x)
    pre = hidden @ nxt.weights.T + nxt.bias
    total = len(trace.steps)
    for done, step in enumerate(trace.steps, start=1):
        state.apply(step)
        # apply folded column j into column i but left column j as it was
        h = hidden[:, step.removed]
        if step.kept is not None:
            h = h - hidden[:, step.kept]
        pre -= np.multiply.outer(h, state.next_weights[:, step.removed])
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
    baseline, from :func:`evaluate`). With ``eval_every`` > 1, only every
    k-th step is measured; the final step is always included. Later
    steps update the next layer's pre-activations by one rank-one term
    per removal (see ``_trace_logits``) instead of building a network.
    """
    if eval_every < 1:
        raise ValueError("eval_every must be at least 1")
    curve = [(0, evaluate(net, ds, split)[1])]
    x, y = ds.split(split)
    for done, logits in _trace_logits(net, trace, x, eval_every):
        curve.append((done, _accuracy_and_error(logits, y)[1]))
    return curve


def error_curve(
    net: Network,
    layer_index: int,
    ds: Dataset,
    policy: PrunePolicy,
    cfg: SimilarityConfig | None = None,
    split: str = "test",
    eval_every: int = 1,
) -> list[tuple[int, float]]:
    """Prune a layer down to one neuron, measuring error along the way.

    Runs the policy for its full course, then replays the recorded
    removals one at a time, evaluating on the requested split. Returns
    (step, error) pairs beginning with the unpruned baseline at step 0.
    """
    _check_prunable(net, layer_index)
    count = net.layers[layer_index].n_out - 1
    _, trace = prune_layer(net, layer_index, count, policy, cfg)
    return trace_error_curve(net, trace, ds, split, eval_every)


def compare_policies(
    net: Network,
    layer_index: int,
    ds: Dataset,
    random_seeds,
    cfg: SimilarityConfig | None = None,
    split: str = "test",
    eval_every: int = 1,
) -> tuple[dict, dict]:
    """:func:`error_curve` for all four policies, keyed by :class:`PolicyKind`.

    Returns ``(traces, curves)``; ``traces`` holds the three deterministic
    policies. No-surgery reuses the surgery trace with ``kept`` stripped,
    so the saliency loop runs once. The random curve is the elementwise
    mean over ``random_seeds``, taken in seed order.
    """
    _check_prunable(net, layer_index)
    seeds = tuple(random_seeds)
    if not seeds:
        raise ValueError("need at least one random seed")
    count = net.layers[layer_index].n_out - 1
    _, surgery = prune_layer(
        net, layer_index, count, PrunePolicy(PolicyKind.SALIENCY_SURGERY), cfg
    )
    _, magnitude = prune_layer(
        net, layer_index, count, PrunePolicy(PolicyKind.NAIVE_MAGNITUDE), cfg
    )
    traces = {
        PolicyKind.SALIENCY_SURGERY: surgery,
        PolicyKind.SALIENCY_NO_SURGERY: surgery.without_surgery(),
        PolicyKind.NAIVE_MAGNITUDE: magnitude,
    }
    curves = {
        kind: trace_error_curve(net, trace, ds, split, eval_every)
        for kind, trace in traces.items()
    }
    draws = [
        error_curve(
            net, layer_index, ds, PrunePolicy(PolicyKind.RANDOM, seed=seed), cfg, split, eval_every
        )
        for seed in seeds
    ]
    mean_errors = np.mean([[e for _, e in draw] for draw in draws], axis=0)
    curves[PolicyKind.RANDOM] = [
        (step, float(e)) for (step, _), e in zip(draws[0], mean_errors)
    ]
    return traces, curves
