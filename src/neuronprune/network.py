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

The one forward pass, ``_run_layers``, takes a batch of rows checked by
``_checked_batch``: :func:`forward_batch` runs it on the whole network,
the error curve and the removal bound on a prefix or a tail of it.

Every neuron removal goes through one edit, ``_LayerEdit``: it records
removals from one hidden layer on a live mask (by original index) and one
copy of the next layer's weights, whose columns receive the merges, and
builds the pruned ``Network`` once, on demand. :func:`merge_neurons` is a
single removal on it; the pruning loop, trace replay and the incremental
error curve apply many removals to one edit, and the error curve builds
no network at all: it reads the removed neuron's outgoing column from the
edit and updates cached next-layer pre-activations by a rank-one term.
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
    "forward_batch",
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
        _check_neuron(self, k)
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


def forward_batch(net: Network, X) -> np.ndarray:
    """Evaluate the network on a batch of rows; returns one output row per input."""
    return _run_layers(net.layers, _checked_batch(net, X))


def _checked_batch(net: Network, X) -> np.ndarray:
    """``X`` as a float64 batch of ``net``'s input rows; raises ValueError on any other."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.input_dim:
        raise ValueError(f"batch must have shape (n, {net.input_dim})")
    if not np.all(np.isfinite(X)):
        raise ValueError("input values must be finite")
    return X


def _run_layers(layers, A: np.ndarray) -> np.ndarray:
    """The forward pass: apply ``layers`` in order to the rows of ``A``, without validation."""
    for layer in layers:
        A = layer.activation.apply(A @ layer.weights.T + layer.bias)
    return A


def _check_hidden_layer(net: Network, layer_index: int) -> None:
    if not 0 <= layer_index < len(net.layers) - 1:
        raise ValueError(
            f"layer_index {layer_index} does not name a prunable layer; the "
            f"output layer (index {len(net.layers) - 1}) cannot be pruned"
        )


def _check_neuron(layer: FcLayer, k: int) -> None:
    if not 0 <= k < layer.n_out:
        raise ValueError(f"neuron index {k} out of range for layer of {layer.n_out}")


class _LayerEdit:
    """Removals from one hidden layer, applied in place and built on demand.

    Holds the live mask (by original index) and one copy of the next
    layer's weights, whose columns receive the merges; incoming weights
    never change, so they are only filtered when a network is built.
    """

    def __init__(self, net: Network, layer_index: int):
        _check_hidden_layer(net, layer_index)
        self.net = net
        self.layer_index = layer_index
        self.live = np.ones(net.layers[layer_index].n_out, dtype=bool)
        self.next_weights = net.layers[layer_index + 1].weights.copy()

    @classmethod
    def for_trace(cls, net: Network, trace) -> "_LayerEdit":
        """An edit of the layer a ``PruneTrace`` was recorded on."""
        edit = cls(net, trace.layer_index)
        if edit.live.size != trace.n_original:
            raise ValueError("trace was recorded for a layer of a different width")
        return edit

    def remove(self, removed: int, kept: int | None = None) -> None:
        """Delete neuron ``removed``, first folding its outgoing column into ``kept``'s."""
        if kept is not None:
            if not self.live[kept]:
                raise ValueError(f"trace merges into already-removed neuron {kept}")
            self.next_weights[:, kept] += self.next_weights[:, removed]
        self.live[removed] = False

    def network(self) -> Network:
        if self.live.all():
            return self.net
        layer = self.net.layers[self.layer_index]
        nxt = self.net.layers[self.layer_index + 1]
        live = self.live
        weights = layer.weights[live]
        # compress returns C order; indexing the columns with a mask would
        # return a Fortran-ordered matrix.
        next_weights = self.next_weights.compress(live, axis=1)
        # Both are fresh matrices: read-only, FcLayer keeps them without a copy.
        weights.setflags(write=False)
        next_weights.setflags(write=False)
        return self.net.replace_adjacent(
            self.layer_index,
            FcLayer(weights, layer.bias[live], layer.activation),
            FcLayer(next_weights, nxt.bias, nxt.activation),
        )


def merge_neurons(net: Network, layer_index: int, kept: int, removed: int) -> Network:
    """Fold neuron ``removed`` into neuron ``kept`` and delete it.

    The surgery step: the removed neuron's outgoing column is added onto
    the kept neuron's column before the structural delete, so when the two
    weight-sets are equal the network function is preserved exactly.
    """
    if kept == removed:
        raise ValueError("kept and removed neuron must differ")
    edit = _LayerEdit(net, layer_index)
    for k in (kept, removed):
        _check_neuron(net.layers[layer_index], k)
    edit.remove(removed, kept)
    return edit.network()


def param_count(net: Network) -> int:
    """Total number of weights and biases."""
    return sum(layer.weights.size + layer.bias.size for layer in net.layers)


def layer_sizes(net: Network) -> tuple[int, ...]:
    """Dimensions as (input_dim, layer widths...)."""
    return (net.input_dim,) + tuple(layer.n_out for layer in net.layers)
