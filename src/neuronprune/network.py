"""Dense feedforward networks and the structural edits pruning needs.

Networks are immutable: constructors copy their arrays and mark them
read-only, and every operation returns a fresh ``Network``. A float64
array that is already read-only and owns its data is kept without a
copy, so its owner must not make it writable again. Values can
therefore be shared freely across threads without synchronization.

Conventions used throughout the package:

* ``weights`` matrices have one row per neuron (``n_out`` rows of
  ``n_in`` incoming weights each).
* Column ``j`` of the *next* layer's matrix holds neuron ``j``'s outgoing
  coefficients.
* The output layer emits logits; ``Activation.IDENTITY`` is allowed there
  and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Activation",
    "WeightSet",
    "FcLayer",
    "Network",
    "RescaleResult",
    "forward",
    "forward_batch",
    "rescale_relu_layer",
    "delete_neuron",
    "merge_neurons",
    "param_count",
    "layer_sizes",
]


class Activation(Enum):
    """Per-layer nonlinearity.

    RELU and SIGMOID are monotonically increasing with derivative at most
    one, which is what the pruning error analysis relies on. IDENTITY is
    reserved for the output layer so the network emits raw logits.
    """

    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"

    def apply(self, z: np.ndarray) -> np.ndarray:
        if self is Activation.RELU:
            return np.maximum(z, 0.0)
        if self is Activation.SIGMOID:
            return _sigmoid(z)
        return np.asarray(z, dtype=np.float64)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e = exp(-|z|) never overflows and is bit for bit the exp of each sign
    # branch: 1/(1+exp(-z)) where z >= 0 and exp(z)/(1+exp(z)) elsewhere.
    # Built in place, so only e, 1 + e and the sign mask are ever allocated.
    # e lies in [0, 1], so its maximum with the mask (as 0 or 1) is the
    # numerator of each branch; a nan e stays nan.
    z = np.asarray(z, dtype=np.float64)
    e = np.empty_like(z)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, z >= 0, out=e)
    e /= d
    return e


def _frozen_array(values) -> np.ndarray:
    """A read-only float64 array of ``values``: the array itself if it is one that owns its data."""
    if type(values) is np.ndarray and values.dtype == np.float64:
        if values.flags.owndata and not values.flags.writeable:
            return values
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WeightSet:
    """One neuron's incoming weights plus its bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.ndim != 1:
            raise ValueError("weight-set weights must be a 1-d vector")
        b = float(self.bias)
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise ValueError("weight-set entries must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class FcLayer:
    """A dense layer: ``weights`` has one row per neuron."""

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self):
        w = _frozen_array(self.weights)
        b = _frozen_array(self.bias)
        if w.ndim != 2:
            raise ValueError("layer weights must be a 2-d matrix")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ValueError("bias length must equal the number of neurons")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        if not isinstance(self.activation, Activation):
            raise TypeError("activation must be an Activation member")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    def weight_set(self, k: int) -> WeightSet:
        """Neuron ``k``'s incoming weights and bias as one value."""
        if not 0 <= k < self.n_out:
            raise ValueError(f"neuron index {k} out of range for layer of {self.n_out}")
        return WeightSet(self.weights[k], float(self.bias[k]))


@dataclass(frozen=True)
class Network:
    """An ordered stack of dense layers applied to ``input_dim`` features."""

    layers: tuple[FcLayer, ...]
    input_dim: int

    def __post_init__(self):
        layers = tuple(self.layers)
        if len(layers) < 2:
            raise ValueError("a network needs at least one hidden layer and an output layer")
        if layers[0].n_in != self.input_dim:
            raise ValueError(
                f"first layer expects {layers[0].n_in} inputs, network declares {self.input_dim}"
            )
        for k in range(len(layers) - 1):
            if layers[k].n_out != layers[k + 1].n_in:
                raise ValueError(
                    f"layer {k} produces {layers[k].n_out} values but layer {k + 1} "
                    f"expects {layers[k + 1].n_in}"
                )
            if layers[k].activation is Activation.IDENTITY:
                raise ValueError("identity activation is only allowed on the output layer")
        object.__setattr__(self, "layers", layers)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].n_out

    def replace_layer(self, index: int, layer: FcLayer) -> "Network":
        new_layers = list(self.layers)
        new_layers[index] = layer
        return Network(tuple(new_layers), self.input_dim)

    def replace_adjacent(self, index: int, layer: FcLayer, next_layer: FcLayer) -> "Network":
        """Swap layers ``index`` and ``index + 1`` together.

        Structural edits change a layer's width and its successor's fan-in
        at the same time; replacing them one at a time would leave a
        transiently inconsistent network, which validation rejects.
        """
        new_layers = list(self.layers)
        new_layers[index] = layer
        new_layers[index + 1] = next_layer
        return Network(tuple(new_layers), self.input_dim)


def forward(net: Network, x) -> np.ndarray:
    """Evaluate the network on a single input vector.

    Each layer computes ``activation(W @ a + b)``; the final layer's
    activations are returned. Deterministic for fixed inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.input_dim:
        raise ValueError(f"input must be a vector of length {net.input_dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input values must be finite")
    a = x
    for layer in net.layers:
        a = layer.activation.apply(layer.weights @ a + layer.bias)
    return a


def forward_batch(net: Network, X) -> np.ndarray:
    """Evaluate the network on a batch of rows; returns one output row per input."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"batch must have shape (n, {net.input_dim})")
    if not np.all(np.isfinite(X)):
        raise ValueError("input values must be finite")
    return _run_layers(net.layers, X)


def _run_layers(layers, A: np.ndarray) -> np.ndarray:
    """Apply ``layers`` in order to the rows of ``A``, without validation.

    The one batch layer stack: :func:`forward_batch` runs it on the whole
    network, while the incremental error curve and the removal bound run
    it on a prefix or a tail of the layers.
    """
    for layer in layers:
        A = layer.activation.apply(A @ layer.weights.T + layer.bias)
    return A


@dataclass(frozen=True)
class RescaleResult:
    """Outcome of a homogeneity rescale.

    ``scales`` holds the factor applied to each neuron (1.0 where nothing
    was applied). ``skipped`` lists zero-norm rows that were left alone:
    the rescale is undefined there, and such a neuron computes a constant,
    which makes it a prime removal candidate for the pruner.
    """

    network: Network
    scales: np.ndarray
    skipped: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "scales", _frozen_array(self.scales))


def rescale_relu_layer(net: Network, layer_index: int) -> RescaleResult:
    """Scale each weight row of a ReLU layer to unit norm, preserving the function.

    ReLU is positively homogeneous (``max(0, a*x) == a*max(0, x)`` for
    ``a > 0``), so dividing a neuron's entire pre-activation (weights and
    bias) by the row norm and multiplying that norm into the neuron's
    outgoing column leaves the network function unchanged.
    """
    if not 0 <= layer_index < len(net.layers) - 1:
        raise ValueError("can only rescale a layer that feeds another layer")
    layer = net.layers[layer_index]
    if layer.activation is not Activation.RELU:
        raise ValueError("homogeneity rescaling is only valid for relu layers")
    norms = np.linalg.norm(layer.weights, axis=1)
    skipped = tuple(int(i) for i in np.flatnonzero(norms == 0.0))
    scales = np.where(norms == 0.0, 1.0, norms)
    new_layer = FcLayer(layer.weights / scales[:, None], layer.bias / scales, layer.activation)
    nxt = net.layers[layer_index + 1]
    new_next = FcLayer(nxt.weights * scales[None, :], nxt.bias, nxt.activation)
    rescaled = net.replace_adjacent(layer_index, new_layer, new_next)
    return RescaleResult(network=rescaled, scales=scales, skipped=skipped)


def delete_neuron(net: Network, layer_index: int, j: int) -> Network:
    """Remove neuron ``j`` from a hidden layer.

    Drops row ``j`` and bias ``j`` from the layer and column ``j`` from the
    next layer, so all dimensions stay consistent.
    """
    if not 0 <= layer_index < len(net.layers) - 1:
        raise ValueError("neurons can only be deleted from hidden layers")
    layer = net.layers[layer_index]
    if not 0 <= j < layer.n_out:
        raise ValueError(f"neuron index {j} out of range for layer of {layer.n_out}")
    if layer.n_out < 2:
        raise ValueError("cannot delete the last neuron of a layer")
    new_layer = FcLayer(
        np.delete(layer.weights, j, axis=0), np.delete(layer.bias, j), layer.activation
    )
    nxt = net.layers[layer_index + 1]
    new_next = FcLayer(np.delete(nxt.weights, j, axis=1), nxt.bias, nxt.activation)
    return net.replace_adjacent(layer_index, new_layer, new_next)


def merge_neurons(net: Network, layer_index: int, kept: int, removed: int) -> Network:
    """Fold neuron ``removed`` into neuron ``kept`` and delete it.

    The surgery step: the removed neuron's outgoing column is added onto
    the kept neuron's column before the structural delete, so when the two
    weight-sets are equal the network function is preserved exactly.
    """
    if kept == removed:
        raise ValueError("kept and removed neuron must differ")
    if not 0 <= layer_index < len(net.layers) - 1:
        raise ValueError("neurons can only be merged in hidden layers")
    layer = net.layers[layer_index]
    for idx in (kept, removed):
        if not 0 <= idx < layer.n_out:
            raise ValueError(f"neuron index {idx} out of range for layer of {layer.n_out}")
    nxt = net.layers[layer_index + 1]
    W2 = nxt.weights.copy()
    W2[:, kept] += W2[:, removed]
    patched = net.replace_layer(layer_index + 1, FcLayer(W2, nxt.bias, nxt.activation))
    return delete_neuron(patched, layer_index, removed)


def param_count(net: Network) -> int:
    """Total number of weights and biases."""
    return sum(layer.weights.size + layer.bias.size for layer in net.layers)


def layer_sizes(net: Network) -> tuple[int, ...]:
    """Dimensions as (input_dim, layer widths...)."""
    return (net.input_dim,) + tuple(layer.n_out for layer in net.layers)
