"""Iterative neuron removal: pick the cheapest pair, merge, repeat.

Each step removes the neuron ``j`` whose removal cost ``values[i, j]`` is
the smallest live off-diagonal entry, folding its outgoing coefficients
into neuron ``i``. :func:`prune_one` is the reference step on an
immutable :class:`SaliencyMatrix` and ``Network``. The loop behind
:func:`prune_layer` makes the same choices, through the same cost and
tie-break helpers, in O(n^2) total work, from state private to one call:

* one Gram product gives a certified lower bound on every squared
  similarity, and a pair is scored exactly only when its bound could
  still beat a column's cheapest exact cost; an exact score replaces the
  bound for good, since incoming weights never change. Every choice and
  every recorded cost is therefore exact, as if from the full matrix;
* a merge changes only the kept neuron's outgoing factor, so only its
  column of costs moves;
* each column caches its exact minimum and the row that holds it, so a
  step takes the first column with the smallest cached minimum and
  rescans, one at a time from one row of costs, only the kept neuron's
  column and the columns whose minimum sat in the removed row. The first
  scan runs the same rescan, after scoring every column's cheapest bound
  in one batch, on the columns that batch leaves unsettled;
* removals are recorded on a live mask and one copy of the next layer's
  weights, and the pruned ``Network`` is materialized once, at the end.
  :func:`replay_trace` replays a trace on the same state.
  ``training.trace_error_curve`` applies each step to it too, but builds
  no network: it reads the removed neuron's outgoing column from the
  state and updates cached next-layer pre-activations by a rank-one term.

Baseline policies for comparison runs:

* ``SALIENCY_NO_SURGERY`` takes the surgery trace with ``kept`` stripped
  and replays it on the input network as plain deletions, so any error
  gap between the two is attributable to the coefficient fold alone.
* ``NAIVE_MAGNITUDE`` removes the neuron with the smallest product of
  incoming-weight norm and outgoing-column norm, no surgery. A deletion
  changes no other neuron's weights, so no score ever changes: one
  stable sort of the first scores gives the whole removal order, ties
  going to the smaller index.
* ``RANDOM`` removes uniformly at random under an explicit seed, one
  draw from the live neurons per step.

Each deletion-only policy yields a trace of plain deletions, and its
pruned network is built from that trace by :func:`replay_trace`.

All traces record neuron indices in the layer's original numbering, so a
trace stays meaningful after the layer has physically shrunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .network import FcLayer, Network, merge_neurons
from .saliency import SaliencyMatrix, SimilarityMode, mean_outgoing_square
from .saliency import _cheapest, _cost_columns, _CertifiedCosts, _mean_outgoing_squares

__all__ = [
    "PolicyKind",
    "PrunePolicy",
    "PruneStep",
    "PruneTrace",
    "prune_one",
    "prune_layer",
    "prune_network",
    "replay_trace",
    "compression_percent",
    "neuron_removal_params",
]


class PolicyKind(Enum):
    SALIENCY_SURGERY = "saliency-surgery"
    SALIENCY_NO_SURGERY = "saliency-no-surgery"
    NAIVE_MAGNITUDE = "naive-magnitude"
    RANDOM = "random"


@dataclass(frozen=True)
class PrunePolicy:
    """Which removal rule to run; a seed is required exactly for RANDOM."""

    kind: PolicyKind
    seed: int | None = None

    def __post_init__(self):
        if self.kind is PolicyKind.RANDOM:
            if self.seed is None:
                raise ValueError("the random policy needs an explicit seed")
        elif self.seed is not None:
            raise ValueError(f"policy {self.kind.value} does not take a seed")


@dataclass(frozen=True)
class PruneStep:
    """One removal, in the layer's original numbering.

    ``kept`` is the neuron that received the removed neuron's outgoing
    coefficients; it is ``None`` whenever no surgery was performed, so a
    trace can be replayed mechanically (merge when present, plain delete
    otherwise). ``saliency`` holds the policy's own score: the matrix
    entry for the saliency policies (inf when every cost left overflows),
    the magnitude product for NAIVE_MAGNITUDE, and 0.0 for RANDOM.
    """

    step_number: int
    removed: int
    saliency: float
    kept: int | None = None

    def __post_init__(self):
        if self.step_number < 1:
            raise ValueError("step numbers start at 1")
        if self.removed < 0 or (self.kept is not None and self.kept < 0):
            raise ValueError("removed and kept indices must be nonnegative")
        if self.kept is not None and self.kept == self.removed:
            raise ValueError("kept and removed neuron must differ")
        if not self.saliency >= 0.0:
            raise ValueError("saliency must be nonnegative")


@dataclass(frozen=True)
class PruneTrace:
    """Ordered removal record for one layer.

    ``n_original`` is the layer width before the first removal; with it,
    a consumer can tell whether the trace covers the full spectrum down
    to a single surviving neuron. ``test_errors``, when present, holds
    one measured error per step.
    """

    layer_index: int
    n_original: int
    steps: tuple[PruneStep, ...]
    test_errors: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.n_original < 2:
            raise ValueError("a prunable layer has at least two neurons")
        if len(self.steps) > self.n_original - 1:
            raise ValueError("cannot remove more neurons than the layer can spare")
        removed = [s.removed for s in self.steps]
        if len(set(removed)) != len(removed):
            raise ValueError("removed indices must be distinct")
        if any(max(s.removed, s.kept or 0) >= self.n_original for s in self.steps):
            raise ValueError("removed or kept index outside the original layer")
        numbers = [s.step_number for s in self.steps]
        if any(b <= a for a, b in zip(numbers, numbers[1:])):
            raise ValueError("step numbers must be strictly increasing")
        if self.test_errors is not None:
            object.__setattr__(self, "test_errors", tuple(float(e) for e in self.test_errors))
            if len(self.test_errors) != len(self.steps):
                raise ValueError("need exactly one test error per step")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def is_full(self) -> bool:
        """True when the trace pruned all the way down to one neuron."""
        return len(self.steps) == self.n_original - 1

    def saliencies(self) -> np.ndarray:
        return np.array([s.saliency for s in self.steps], dtype=np.float64)

    def without_surgery(self) -> "PruneTrace":
        """The same removals as plain deletions: the SALIENCY_NO_SURGERY ablation."""
        steps = tuple(replace(s, kept=None) for s in self.steps)
        return replace(self, steps=steps, test_errors=None)

    def with_test_errors(self, errors) -> "PruneTrace":
        return PruneTrace(
            layer_index=self.layer_index,
            n_original=self.n_original,
            steps=self.steps,
            test_errors=tuple(float(e) for e in errors),
        )


def prune_one(
    net: Network, layer_index: int, matrix: SaliencyMatrix
) -> tuple[Network, SaliencyMatrix, PruneStep]:
    """Remove the cheapest neuron with surgery; the new matrix shares ``sim_sq``.

    Picks the smallest live off-diagonal entry (kept, removed), folds the
    removed neuron's outgoing column into the kept one and deletes it; of
    the matrix, only the live mask and the kept neuron's factor change.
    """
    if matrix.layer_index != layer_index:
        raise ValueError("matrix was built for a different layer")
    if matrix.n_live < 2:
        raise ValueError("cannot prune a single-neuron layer")
    if matrix.n_live != net.layers[layer_index].n_out:
        raise ValueError("matrix live count does not match the layer width")
    i, j = matrix.argmin_live()
    costs = _cost_columns(matrix.sim_sq, matrix.mean_sq_out, matrix.live, np.array([j]))
    step = PruneStep(
        step_number=matrix.n_original - matrix.n_live + 1,
        removed=j,
        saliency=float(costs[0, i]),
        kept=i,
    )
    new_net = merge_neurons(
        net, layer_index, matrix.physical_index(i), matrix.physical_index(j)
    )
    live = matrix.live.copy()
    live[j] = False
    msq = matrix.mean_sq_out.copy()
    kept_physical = int(np.count_nonzero(live[:i]))
    msq[i] = mean_outgoing_square(new_net.layers[layer_index + 1], kept_physical)
    return new_net, replace(matrix, live=live, mean_sq_out=msq), step


def _check_prunable(net: Network, layer_index: int) -> None:
    if not 0 <= layer_index < len(net.layers) - 1:
        raise ValueError(
            f"layer_index {layer_index} does not name a prunable layer; the "
            f"output layer (index {len(net.layers) - 1}) cannot be pruned"
        )


class _EditState:
    """Removals from one layer, applied in place and materialized on demand.

    Holds the live mask (by original index) and one copy of the next
    layer's weights, whose columns receive the merges; incoming weights
    never change, so they are only filtered when a network is built.
    """

    def __init__(self, net: Network, layer_index: int):
        _check_prunable(net, layer_index)
        self.net = net
        self.layer_index = layer_index
        self.live = np.ones(net.layers[layer_index].n_out, dtype=bool)
        self.next_weights = net.layers[layer_index + 1].weights.copy()

    @classmethod
    def for_trace(cls, net: Network, trace: PruneTrace) -> "_EditState":
        state = cls(net, trace.layer_index)
        if state.live.size != trace.n_original:
            raise ValueError("trace was recorded for a layer of a different width")
        return state

    def apply(self, step: PruneStep) -> None:
        """Merge ``removed`` into ``kept``, or plainly delete it when ``kept`` is None."""
        if not self.live[step.removed]:
            raise ValueError(f"trace removes neuron {step.removed} twice")
        if step.kept is not None:
            if not self.live[step.kept]:
                raise ValueError(f"trace merges into already-removed neuron {step.kept}")
            self.next_weights[:, step.kept] += self.next_weights[:, step.removed]
        self.live[step.removed] = False

    def network(self) -> Network:
        if self.live.all():
            return self.net
        layer = self.net.layers[self.layer_index]
        nxt = self.net.layers[self.layer_index + 1]
        live = self.live
        weights = layer.weights[live]
        # compress keeps C order, as the per-step deletes did; indexing the
        # columns with a mask would return a Fortran-ordered matrix.
        next_weights = self.next_weights.compress(live, axis=1)
        # Both are fresh matrices: read-only, FcLayer keeps them without a copy.
        weights.setflags(write=False)
        next_weights.setflags(write=False)
        return self.net.replace_adjacent(
            self.layer_index,
            FcLayer(weights, layer.bias[live], layer.activation),
            FcLayer(next_weights, nxt.bias, nxt.activation),
        )


def _run_saliency(
    net: Network, layer_index: int, count: int, mode: SimilarityMode
) -> tuple[Network, list[PruneStep]]:
    """:func:`prune_one` ``count`` times over, with cached exact column minima."""
    costs = _CertifiedCosts(net.layers[layer_index], mode)
    msq = _mean_outgoing_squares(net.layers[layer_index + 1])
    state = _EditState(net, layer_index)
    live, weights = state.live, state.next_weights
    # Minima of the costs, not of sim_sq: factoring msq[c] out rounds differently, flipping ties.
    best_row, best = costs.column_minima(msq, live)
    steps = []
    for step_number in range(1, count + 1):
        i, j = _cheapest(best_row, best, live)
        step = PruneStep(step_number=step_number, removed=j, saliency=float(best[j]), kept=i)
        steps.append(step)
        state.apply(step)
        best[j], best_row[j] = np.inf, -1  # no later removal makes a dead column stale
        column = weights[:, i]
        msq[i] = np.add.reduce(column * column) / column.size  # np.mean's sum and divide
        # The kept column's factor moved; other columns lose a minimum held in row j.
        stale = (best_row == j).nonzero()[0]
        for c in (i, *stale[stale != i].tolist()):
            best_row[c], best[c] = costs.column_minimum(msq, live, c)
    return state.network(), steps


def _deletion_steps(
    net: Network, layer_index: int, count: int, policy: PrunePolicy
) -> list[PruneStep]:
    """The first ``count`` plain deletions of NAIVE_MAGNITUDE or RANDOM, in order."""
    if policy.kind is PolicyKind.NAIVE_MAGNITUDE:
        # A deletion changes no other neuron's weights, so every score stays as
        # it starts. C order, as in a filtered copy: a row's or column's norm
        # then sums in the same order whichever other neurons are live.
        incoming = np.ascontiguousarray(net.layers[layer_index].weights)
        outgoing = np.ascontiguousarray(net.layers[layer_index + 1].weights)
        scores = np.linalg.norm(incoming, axis=1) * np.linalg.norm(outgoing, axis=0)
        if np.isnan(scores).any():  # an inf incoming norm times a zero outgoing column
            raise ValueError("a magnitude score is nan")
        order = np.argsort(scores, kind="stable")[:count]  # ties go to the smallest index
        return [
            PruneStep(step_number=k + 1, removed=int(j), saliency=float(scores[j]))
            for k, j in enumerate(order)
        ]
    rng = np.random.default_rng(policy.seed)
    alive = list(range(net.layers[layer_index].n_out))
    return [
        PruneStep(step_number=k + 1, removed=alive.pop(rng.integers(len(alive))), saliency=0.0)
        for k in range(count)
    ]


def prune_layer(
    net: Network,
    layer_index: int,
    count: int,
    policy: PrunePolicy,
    mode: SimilarityMode = SimilarityMode.NORMALIZED_HEURISTIC,
) -> tuple[Network, PruneTrace]:
    """Remove ``count`` neurons from one layer under the given policy."""
    _check_prunable(net, layer_index)
    n_out = net.layers[layer_index].n_out
    if not 1 <= count <= n_out - 1:
        raise ValueError(
            f"count must be in [1, {n_out - 1}] for a {n_out}-neuron layer, got {count}"
        )
    if policy.kind in (PolicyKind.SALIENCY_SURGERY, PolicyKind.SALIENCY_NO_SURGERY):
        pruned, steps = _run_saliency(net, layer_index, count, mode)
    else:
        steps = _deletion_steps(net, layer_index, count, policy)
    trace = PruneTrace(layer_index=layer_index, n_original=n_out, steps=tuple(steps))
    if policy.kind is PolicyKind.SALIENCY_SURGERY:
        return pruned, trace
    if policy.kind is PolicyKind.SALIENCY_NO_SURGERY:
        trace = trace.without_surgery()
    return replay_trace(net, trace), trace


def prune_network(
    net: Network,
    plan,
    policy: PrunePolicy,
    mode: SimilarityMode = SimilarityMode.NORMALIZED_HEURISTIC,
) -> tuple[Network, tuple[PruneTrace, ...]]:
    """Prune several layers front to back.

    The plan is a sequence of (layer_index, count) pairs sorted strictly
    ascending by layer index. Order matters: removing neurons from layer
    k rewrites the incoming weight-sets of layer k+1, so each layer's
    cost matrix is built only when its turn comes.
    """
    plan = [(int(layer_index), int(count)) for layer_index, count in plan]
    indices = [layer_index for layer_index, _ in plan]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError("plan must list layer indices in strictly ascending order")
    traces = []
    for layer_index, count in plan:
        net, trace = prune_layer(net, layer_index, count, policy, mode)
        traces.append(trace)
    return net, tuple(traces)


def replay_trace(net: Network, trace: PruneTrace, count: int | None = None) -> Network:
    """Re-apply the first ``count`` removals of a recorded trace.

    Steps with a ``kept`` partner are merged, the rest plainly deleted,
    so a replayed prefix reproduces the pruned network exactly without
    rebuilding any cost matrix. The removals are applied to one edit
    state and the network is built once, at the end.
    """
    if count is None:
        count = len(trace.steps)
    if not 0 <= count <= len(trace.steps):
        raise ValueError(f"count must be in [0, {len(trace.steps)}]")
    state = _EditState.for_trace(net, trace)
    for step in trace.steps[:count]:
        state.apply(step)
    return state.network()


def compression_percent(removed_params: float, total_params: float) -> float:
    """Share of parameters removed, in percent."""
    if total_params <= 0:
        raise ValueError("total parameter count must be positive")
    if not 0 <= removed_params <= total_params:
        raise ValueError("removed parameters must lie in [0, total]")
    return 100.0 * removed_params / total_params


def neuron_removal_params(count: int, fan_in: int, fan_out: int) -> int:
    """Parameters freed by deleting ``count`` neurons of a dense layer.

    Each neuron owns ``fan_in`` incoming weights, one bias, and
    ``fan_out`` outgoing weights in the next layer's matrix.
    """
    if count < 0 or fan_in < 0 or fan_out < 0:
        raise ValueError("counts must be nonnegative")
    return count * (fan_in + 1 + fan_out)
