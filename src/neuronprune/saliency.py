"""Weight-set similarity and the pairwise removal costs.

The cost of removing neuron ``j`` in favor of keeping neuron ``i`` is

    values[i, j] = mean_outgoing_square(j) * similarity(i, j)**2

where ``mean_outgoing_square(j)`` averages the squared outgoing weights of
``j`` over all next-layer neurons, and ``similarity`` measures how far
apart the two incoming weight-sets are. Low values mean the pair is safe
to merge. Note the asymmetry: ``j`` is the candidate for removal, ``i``
receives the surgery, and only ``j``'s outgoing weights enter the product.

Two similarity measures are provided:

* ``RAW_DIFFERENCE``: the plain Euclidean distance between the two
  weight-sets, bias included. This is the measure the removal-error bound
  is proved for; see :func:`verify_bound`.
* ``NORMALIZED_HEURISTIC``: distance of the unit-normalized non-bias
  weights divided by the magnitude of their sum, plus a matching relative
  bias term. Biases are trained without weight decay and tend to dwarf the
  weights, and two weight rows that differ only by a positive scale
  compute near-identical features; both effects make the raw distance a
  poor ranking. This measure is the default for pruning.

One private scorer gives the exact similarity of any set of pairs, with
the same operations as the scalar functions :func:`raw_difference`,
:func:`heuristic_similarity` and :func:`similarity`, bit for bit.
:func:`build_saliency_matrix` runs it on every pair and is the public
exact reference. The loop behind ``pruning.prune_layer`` runs it only on
the pairs that certified lower bounds from one Gram product cannot rule
out. The bounds are symmetric in the pair, so only the product's upper
triangle is computed, and it is mirrored below the diagonal.
``_CertifiedCosts`` settles every column's exact minimum in blocks
once, then rescans one stale column at a time. The matrix stores no
costs: private helpers shared with :mod:`.pruning` derive them and break
ties. A column's minimum is always taken over live rows other than its
own, so a column whose costs all overflow to inf keeps an inf minimum
in a live row instead of falling back to the sentinel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import (
    Activation,
    FcLayer,
    Network,
    WeightSet,
    _run_layers,
    forward,
    merge_neurons,
)

__all__ = [
    "SimilarityMode",
    "SimilarityConfig",
    "SaliencyMatrix",
    "ContractionReport",
    "BoundSample",
    "DIAGONAL_SENTINEL",
    "raw_difference",
    "heuristic_similarity",
    "similarity",
    "mean_outgoing_square",
    "build_saliency_matrix",
    "verify_contraction",
    "verify_bound",
]

# Largest finite double, not +inf, so minimum scans stay total-order safe.
DIAGONAL_SENTINEL = float(np.finfo(np.float64).max)


class SimilarityMode(Enum):
    RAW_DIFFERENCE = "raw"
    NORMALIZED_HEURISTIC = "heuristic"


@dataclass(frozen=True)
class SimilarityConfig:
    """How weight-set similarity is measured.

    ``denominator_guard`` floors the heuristic's denominators so opposite
    weight rows (or biases summing to zero) yield a large finite value
    instead of a division error.
    """

    mode: SimilarityMode = SimilarityMode.NORMALIZED_HEURISTIC
    denominator_guard: float = 1e-12

    def __post_init__(self):
        if not self.denominator_guard > 0:
            raise ValueError("denominator_guard must be positive")


def raw_difference(wi: WeightSet, wj: WeightSet) -> float:
    """Euclidean distance between two weight-sets, bias included."""
    if len(wi) != len(wj):
        raise ValueError("weight-sets must have equal length")
    d = wi.weights - wj.weights
    return float(np.sqrt(np.dot(d, d) + (wi.bias - wj.bias) ** 2))


def heuristic_similarity(wi: WeightSet, wj: WeightSet, cfg: SimilarityConfig) -> float:
    """Scale-insensitive similarity with sensible-sized weight and bias terms.

    The non-bias weights are normalized to unit length before being
    compared, so rows differing only by a positive scale contribute
    nothing to the first term; the denominators keep the weight and bias
    contributions on comparable footing.
    """
    if len(wi) != len(wj):
        raise ValueError("weight-sets must have equal length")
    guard = cfg.denominator_guard
    ni = float(np.linalg.norm(wi.weights))
    nj = float(np.linalg.norm(wj.weights))
    if ni == 0.0 and nj == 0.0 and wi.bias == 0.0 and wj.bias == 0.0:
        warnings.warn(
            "both weight-sets are all-zero; treating them as maximally similar",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    unit_i = wi.weights / max(ni, guard)
    unit_j = wj.weights / max(nj, guard)
    weight_term = float(np.linalg.norm(unit_i - unit_j)) / max(
        float(np.linalg.norm(wi.weights + wj.weights)), guard
    )
    bias_term = abs(wi.bias - wj.bias) / max(abs(wi.bias + wj.bias), guard)
    return weight_term + bias_term


def similarity(wi: WeightSet, wj: WeightSet, cfg: SimilarityConfig) -> float:
    if cfg.mode is SimilarityMode.RAW_DIFFERENCE:
        return raw_difference(wi, wj)
    return heuristic_similarity(wi, wj, cfg)


def mean_outgoing_square(next_layer: FcLayer, j: int) -> float:
    """Mean over next-layer neurons of the squared outgoing weight of neuron ``j``."""
    if not 0 <= j < next_layer.n_in:
        raise ValueError(f"column {j} out of range for layer with {next_layer.n_in} inputs")
    col = next_layer.weights[:, j]
    return float(np.mean(col * col))


@dataclass(frozen=True)
class SaliencyMatrix:
    """Pairwise removal costs over a layer, in the layer's original numbering.

    ``live`` masks the surviving neurons. ``sim_sq`` caches the squared
    similarities, which depend only on incoming weights and therefore stay
    valid across surgery; ``mean_sq_out`` holds the per-neuron outgoing
    factor, the only part a merge changes. A read-only float64 ``sim_sq``
    owning its data, as the build and :func:`prune_one` pass, is shared
    as it is; any other is copied and checked to be symmetric.
    """

    live: np.ndarray
    layer_index: int
    sim_sq: np.ndarray
    mean_sq_out: np.ndarray

    def __post_init__(self):
        live = np.array(self.live, dtype=bool)
        sim_sq = np.asarray(self.sim_sq)
        shared = sim_sq.dtype == np.float64 and sim_sq.flags.owndata and not sim_sq.flags.writeable
        if not shared:
            sim_sq = np.array(sim_sq, dtype=np.float64)
        msq = np.array(self.mean_sq_out, dtype=np.float64)
        n = sim_sq.shape[0]
        if sim_sq.shape != (n, n):
            raise ValueError("sim_sq must be a square matrix")
        if not (shared or np.array_equal(sim_sq, sim_sq.T)):
            raise ValueError("sim_sq must be symmetric")
        if live.shape != (n,) or msq.shape != (n,):
            raise ValueError("live mask and outgoing factors must match the matrix size")
        for arr in (live, sim_sq, msq):
            arr.setflags(write=False)
        object.__setattr__(self, "live", live)
        object.__setattr__(self, "sim_sq", sim_sq)
        object.__setattr__(self, "mean_sq_out", msq)

    @property
    def values(self) -> np.ndarray:
        """Costs ``sim_sq[i, j] * mean_sq_out[j]`` of live ``i != j``, else the sentinel."""
        costs = _cost_columns(self.sim_sq, self.mean_sq_out, self.live, np.arange(self.n_original))
        costs[~self.live] = DIAGONAL_SENTINEL
        costs.setflags(write=False)
        return costs.T

    @property
    def n_original(self) -> int:
        return self.sim_sq.shape[0]

    @property
    def n_live(self) -> int:
        return int(np.count_nonzero(self.live))

    def physical_index(self, original: int) -> int:
        """Position of a live neuron in the physically shrunken layer."""
        if not 0 <= original < self.n_original:
            raise ValueError(
                f"neuron index {original} out of range for a layer of {self.n_original}"
            )
        if not self.live[original]:
            raise ValueError(f"neuron {original} is no longer live")
        return int(np.count_nonzero(self.live[:original]))

    def argmin_live(self) -> tuple[int, int]:
        """Smallest live off-diagonal entry as (kept, removed) original indices.

        Ties are broken by the smallest removed index, then the smallest
        kept index, so repeated scans are fully deterministic.
        """
        columns = np.flatnonzero(self.live)
        if columns.size < 2:
            raise ValueError("need at least two live neurons")
        rows, mins = _column_minima(self.sim_sq, self.mean_sq_out, self.live, columns)
        kept, k = _cheapest(rows, mins)
        return kept, int(columns[k])


def build_saliency_matrix(
    layer: FcLayer,
    next_layer: FcLayer,
    cfg: SimilarityConfig,
    layer_index: int = 0,
) -> SaliencyMatrix:
    """Compute removal costs for every ordered pair of neurons in ``layer``.

    Row ``i`` is scored against rows ``i+1..n-1`` a block at a time, with
    direct differences. The ``|a|^2 + |b|^2 - 2a.b`` identity loses
    precision on exactly the near-duplicate pairs the argmin picks, so it
    is used only as a certified lower bound that picks which pairs to
    score (:func:`_sim_sq_lower_bounds`), never as an answer.
    """
    if layer.n_out < 2:
        raise ValueError("need at least two neurons to rank pairs")
    if next_layer.n_in != layer.n_out:
        raise ValueError("next layer does not consume this layer's outputs")
    n = layer.n_out
    score = _pair_scorer(layer, cfg)
    block = max(1, _BLOCK_BYTES // (8 * max(1, layer.n_in)))
    sim_sq = np.zeros((n, n))
    for i in range(n - 1):
        for lo in range(i + 1, n, block):
            hi = min(lo + block, n)
            s = score(i, slice(lo, hi))
            sim_sq[i, lo:hi] = sim_sq[lo:hi, i] = s * s
    sim_sq.setflags(write=False)  # so the matrix shares it
    return SaliencyMatrix(
        live=np.ones(n, dtype=bool),
        layer_index=layer_index,
        sim_sq=sim_sq,
        mean_sq_out=_mean_outgoing_squares(next_layer),
    )


# Rows per block keep one (rows x n_in) temporary near 4 MB at any fan-in.
_BLOCK_BYTES = 4 << 20


def _cost_columns(sim_sq, msq, live, columns) -> np.ndarray:
    """Row ``k``: cost column ``columns[k]``, with dead rows and the diagonal at the sentinel."""
    # Column c of sim_sq is read as row c, since the build makes it exactly symmetric.
    costs = np.where(live, sim_sq[columns] * msq[columns, None], DIAGONAL_SENTINEL)
    costs[np.arange(columns.size), columns] = DIAGONAL_SENTINEL
    return costs


def _mean_outgoing_squares(next_layer: FcLayer) -> np.ndarray:
    """:func:`mean_outgoing_square` of every neuron, bit for bit, in one call."""
    # Each contiguous row of the transpose is summed pairwise, as the one
    # contiguous column copy mean_outgoing_square squares and sums.
    t = np.ascontiguousarray(next_layer.weights.T)
    return np.mean(t * t, axis=1)


def _first_live_row(costs, live, column) -> int:
    """First row of the smallest cost among live rows other than ``column``, else ``column``.

    That is ``costs.argmin()``, unless every live cost is at least the
    sentinel held by dead rows and the diagonal, as when all overflow to inf.
    """
    row = int(costs.argmin())
    if row != column and live[row]:
        return row
    rows = np.flatnonzero(live)
    rows = rows[rows != column]
    return int(rows[np.argmin(costs[rows])]) if rows.size else int(column)


def _live_rows(costs, live, columns) -> np.ndarray:
    """:func:`_first_live_row` of each row ``k`` of ``costs``, for column ``columns[k]``."""
    rows = costs.argmin(axis=1)
    for k in np.flatnonzero(~live[rows] | (rows == columns)):
        rows[k] = _first_live_row(costs[k], live, columns[k])
    return rows


def _column_minima(sim_sq, msq, live, columns) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the first live row holding its smallest cost, and that cost, in blocks."""
    block = max(1, _BLOCK_BYTES // (8 * live.size))
    if columns.size > block:
        parts = [_column_minima(sim_sq, msq, live, columns[lo : lo + block])
                 for lo in range(0, columns.size, block)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    costs = _cost_columns(sim_sq, msq, live, columns)
    rows = _live_rows(costs, live, columns)
    return rows, costs[np.arange(columns.size), rows]


def _cheapest(rows, mins, live=None) -> tuple[int, int]:
    """First smallest ``mins[k]`` as ``(rows[k], k)``: ties go to the least removed, then kept.

    With ``live``, only live ``k`` count; dead entries must hold inf, so
    they come first only when every live minimum is inf as well.
    """
    k = int(mins.argmin())
    if live is not None and not live[k]:
        k = int(np.flatnonzero(live)[0])
    return int(rows[k]), k


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    # A stacked matmul takes one BLAS dot per row, the call np.linalg.norm
    # makes on one vector, so the results match it bit for bit; einsum and
    # (rows * rows).sum(1) accumulate in another order.
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _one_pair(a, rows) -> bool:
    """Whether ``score(a, rows)`` asks for one pair: a scalar row and a one-element array."""
    return isinstance(rows, np.ndarray) and rows.shape == (1,) and np.ndim(a) == 0


def _pair_scorer(layer: FcLayer, cfg: SimilarityConfig):
    """``score(a, b)``: :func:`similarity` of rows ``a`` and ``b``, pair by pair.

    ``a`` and ``b`` are row indices, index arrays or slices that broadcast
    together. Each pair takes one BLAS dot per difference, so a score does
    not depend on which other pairs share the call. A scalar ``a`` with a
    one-element index array, as a one-column rescan asks for, takes the
    same dots and the same rounding steps on scalars, without the batch's
    dozen array calls.
    """
    w, b = layer.weights, layer.bias
    if cfg.mode is SimilarityMode.RAW_DIFFERENCE:

        def raw(a, rows):
            if _one_pair(a, rows):
                r = rows[0]
                diff = w[a] - w[r]
                return np.array([math.sqrt(np.dot(diff, diff) + np.float_power(b[a] - b[r], 2.0))])
            db = b[a] - b[rows]
            # Python's float ** is libm pow, which differs from db * db in
            # the last bit on some inputs; float_power calls the same pow.
            bias_sq = np.float_power(db, np.full_like(db, 2.0))
            return np.sqrt(_squared_norms(w[a] - w[rows]) + bias_sq)

        return raw
    guard = cfg.denominator_guard
    norms = np.sqrt(_squared_norms(w))
    units = w / np.maximum(norms, guard)[:, None]
    zero = (norms == 0.0) & (b == 0.0)
    if np.count_nonzero(zero) >= 2:
        warnings.warn(
            "both weight-sets are all-zero; treating them as maximally similar",
            RuntimeWarning,
            stacklevel=3,
        )

    def heuristic(a, rows):
        if _one_pair(a, rows):
            r = rows[0]
            if zero[a] and zero[r]:
                return np.zeros(1)
            du, total = units[a] - units[r], w[a] + w[r]
            # max() keeps a nan first argument, as np.maximum does.
            weight_term = math.sqrt(np.dot(du, du)) / max(math.sqrt(np.dot(total, total)), guard)
            bias_term = abs(b[a] - b[r]) / max(abs(b[a] + b[r]), guard)
            return np.array([weight_term + bias_term])
        weight_term = np.sqrt(_squared_norms(units[a] - units[rows])) / np.maximum(
            np.sqrt(_squared_norms(w[a] + w[rows])), guard
        )
        bias_term = np.abs(b[a] - b[rows]) / np.maximum(np.abs(b[a] + b[rows]), guard)
        s = weight_term + bias_term
        s[zero[a] & zero[rows]] = 0.0
        return s

    return heuristic


def _sim_sq_lower_bounds(layer: FcLayer, cfg: SimilarityConfig) -> np.ndarray:
    """Row ``c``: a certified lower bound on every ``sim_sq[c, r]``, from BLAS products.

    Each squared distance comes from the Gram form ``|a|^2 + |b|^2 - 2a.b``
    of one ``W[lo:hi] @ W[lo:].T`` block, less a margin of ``(4d + 64) u
    (|a| + |b|)^2`` (``u`` the unit roundoff, ``d`` the fan-in). Rounding
    bounds for inner products (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 3.1) make that cover the Gram form's error and
    the direct scorer's own under any summation order, blocking, FMA use
    or thread count; a small absolute term covers underflow. The rest of
    the scorer's arithmetic (sqrt, guard, divide, bias term, square) is
    then repeated on the bounds, and each of those operations is monotone,
    so no entry exceeds what :func:`build_saliency_matrix` stores; a last
    ``1 - 8 eps`` factor absorbs any last-bit difference in ``pow``.
    The heuristic's unit rows are bounded from the same product, scaled
    by the reciprocal norms, with the units' own rounding in the margin.

    Only the upper triangle is computed: each row block meets the columns
    from its own first row on, and its entries are mirrored below the
    diagonal. The exact scorer and the margin are both symmetric in the
    pair, so a mirrored entry bounds its own pair too, and the result is
    exactly symmetric.
    """
    w, b = layer.weights, layer.bias
    n, d = w.shape
    eps = np.finfo(np.float64).eps
    tol = (2 * d + 32) * eps
    floor = (d + 16) * np.finfo(np.float64).tiny
    nsq = _squared_norms(w)
    norms = np.sqrt(nsq)
    heuristic = cfg.mode is SimilarityMode.NORMALIZED_HEURISTIC
    if heuristic:
        guard = cfg.denominator_guard
        scale = 1.0 / np.maximum(norms, guard)
        unit_sq = nsq * scale * scale
        # Unit rows have norm at most 1 (times 1 + O(d u)), so (|a| + |b|)^2 <= 4.
        unit_margin = 4 * tol + floor * scale.max() * scale.max()
    # At most n/8 rows, so the blocks' squares cover little of the lower triangle.
    block = max(1, min(_BLOCK_BYTES // (8 * n), -(-n // 8)))
    bounds = np.empty((n, n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        gram = w[lo:hi] @ w[lo:].T
        margin = np.add.outer(norms[lo:hi], norms[lo:])
        np.square(margin, out=margin)
        margin *= tol
        margin += floor
        if heuristic:
            # Upper bound on |a + b|^2, the heuristic's denominator.
            den = np.add.outer(nsq[lo:hi], nsq[lo:])
            den += gram
            den += gram
            den += margin
            np.sqrt(den, out=den)
            np.maximum(den, guard, out=den)
            # Lower bound on |unit_a - unit_b|^2, reusing the product's storage.
            gram *= scale[lo:hi, None]
            gram *= -2.0 * scale[lo:]
            gram += unit_sq[lo:hi, None]
            gram += unit_sq[lo:]
            gram -= unit_margin
            np.fmax(gram, 0.0, out=gram)
            np.sqrt(gram, out=gram)
            gram /= den
            # Rows past ~1e154 overflow the products and leave nan; 0 still bounds.
            np.fmax(gram, 0.0, out=gram)
            # The bias term is elementwise, so it is computed exactly.
            np.add.outer(b[lo:hi], b[lo:], out=den)
            np.abs(den, out=den)
            np.maximum(den, guard, out=den)
            np.subtract.outer(b[lo:hi], b[lo:], out=margin)
            np.abs(margin, out=margin)
            margin /= den
            gram += margin
        else:
            gram *= -2.0
            gram += nsq[lo:hi, None]
            gram += nsq[lo:]
            gram -= margin
            np.fmax(gram, 0.0, out=gram)
            np.subtract.outer(b[lo:hi], b[lo:], out=margin)
            np.float_power(margin, 2.0, out=margin)
            gram += margin
            np.sqrt(gram, out=gram)
        upper = bounds[lo:hi, lo:]
        np.square(gram, out=upper)
        upper *= 1.0 - 8 * eps
        bounds[hi:, lo:hi] = upper[:, hi - lo :].T
        square = upper[:, : hi - lo]
        below = np.tril_indices(hi - lo, -1)
        square[below] = square.T[below]
    return bounds


class _CertifiedCosts:
    """Column minima of the removal costs, settled on exact scores only.

    ``sim_sq`` starts as :func:`_sim_sq_lower_bounds`, and ``exact`` marks
    the entries that hold :func:`build_saliency_matrix`'s value instead. A
    column whose cheapest entry is a bound scores that row exactly, then
    every live row whose lower-bound cost is smaller than the exact one,
    or equal at a smaller index. Any other row's exact cost is at least
    its bound, so the first minimum is the one the full matrix gives.
    Dead rows and the diagonal are never scored. Each scored pair is
    written to both halves and never scored again.

    :meth:`column_minima` scans many columns at once, for the first scan
    of a layer; :meth:`column_minimum` rescans the one column a removal
    leaves stale.
    """

    def __init__(self, layer: FcLayer, cfg: SimilarityConfig):
        self.score = _pair_scorer(layer, cfg)
        self.sim_sq = _sim_sq_lower_bounds(layer, cfg)
        self.exact = np.zeros(self.sim_sq.shape, dtype=bool)
        np.fill_diagonal(self.exact, True)  # the diagonal never enters a cost
        self.pair_block = max(1, _BLOCK_BYTES // (8 * layer.n_in))

    def column_minima(self, msq, live, columns) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_column_minima` of the exact costs, in bounded blocks."""
        n = live.size
        block = max(1, _BLOCK_BYTES // (8 * n))
        if columns.size > block:
            parts = [self.column_minima(msq, live, columns[lo : lo + block])
                     for lo in range(0, columns.size, block)]
            return tuple(np.concatenate(part) for part in zip(*parts))
        costs = _cost_columns(self.sim_sq, msq, live, columns)
        rows = _live_rows(costs, live, columns)
        # A column with no other live row keeps its own diagonal, marked
        # exact, and settles nothing.
        k = np.flatnonzero(~self.exact[columns, rows])
        if k.size:
            cols, first = columns[k], rows[k]
            self._score(cols, first)
            least = self.sim_sq[cols, first] * msq[cols]
            costs[k, first] = least
            sub = costs[k]
            window = (sub < least[:, None]) | (
                (sub == least[:, None]) & (np.arange(n) < first[:, None])
            )
            # Not masked by ``exact``: a pair scored above for another column
            # still holds its bound in ``costs``, and is refreshed here.
            window &= live
            window[np.arange(k.size), cols] = False
            at, other = np.nonzero(window)
            if at.size:
                self._score(cols[at], other)
                costs[k[at], other] = self.sim_sq[cols[at], other] * msq[cols[at]]
            rows = _live_rows(costs, live, columns)
        return rows, costs[np.arange(columns.size), rows]

    def column_minimum(self, msq, live, column: int) -> tuple[int, float]:
        """:meth:`column_minima` of one column, from one row of costs and its argmin."""
        factor = msq[column]
        costs = np.where(live, self.sim_sq[column] * factor, DIAGONAL_SENTINEL)
        costs[column] = DIAGONAL_SENTINEL
        row = _first_live_row(costs, live, column)
        if not self.exact[column, row]:
            # One pair, written in place: the scorer is symmetric bit for bit,
            # since swapping a pair negates each difference and keeps each sum.
            s = self.score(column, np.array([row]))[0]
            self.sim_sq[column, row] = self.sim_sq[row, column] = s * s
            self.exact[column, row] = self.exact[row, column] = True
            least = costs[row] = self.sim_sq[column, row] * factor
            due = (costs <= least).nonzero()[0]
            if due.size > 1:  # other rows may hold a smaller bound, or exact cost
                due = due[((due < row) | (costs[due] < least)) & live[due]]
                self._score(np.full(due.size, column), due)
                costs[due] = self.sim_sq[column, due] * factor
                row = _first_live_row(costs, live, column)
        return row, float(costs[row])

    def _score(self, cols, rows) -> None:
        """Write the exact ``sim_sq`` of the pairs ``(cols, rows)`` not scored yet."""
        n = self.exact.shape[0]
        todo = ~self.exact[cols, rows]
        if not todo.any():
            return
        pairs = np.minimum(cols[todo], rows[todo]) * n + np.maximum(cols[todo], rows[todo])
        if pairs.size > 1:
            pairs = np.unique(pairs)  # a pair can be due from both of its columns
        lo, hi = np.divmod(pairs, n)
        for start in range(0, pairs.size, self.pair_block):
            a, b = lo[start : start + self.pair_block], hi[start : start + self.pair_block]
            s = self.score(a, b)
            self.sim_sq[a, b] = self.sim_sq[b, a] = s * s
        self.exact[lo, hi] = self.exact[hi, lo] = True


@dataclass(frozen=True)
class ContractionReport:
    """Sampled check that an activation never expands squared differences."""

    activation: Activation
    n_samples: int
    violations: int
    max_squared_ratio: float


def verify_contraction(
    activation: Activation,
    n_samples: int,
    sample_range: float,
    seed: int = 0,
) -> ContractionReport:
    """Sample pairs (p, q) and count violations of (h(p)-h(q))^2 <= (p-q)^2.

    Holds for any monotonically increasing activation with derivative at
    most one, so the count must come back zero for ReLU and sigmoid.
    """
    if activation not in (Activation.RELU, Activation.SIGMOID):
        raise ValueError("contraction check applies to relu and sigmoid only")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    p = rng.uniform(-sample_range, sample_range, n_samples)
    q = rng.uniform(-sample_range, sample_range, n_samples)
    lhs = (activation.apply(p) - activation.apply(q)) ** 2
    rhs = (p - q) ** 2
    violations = int(np.count_nonzero(lhs > rhs))
    positive = rhs > 0
    ratio = float((lhs[positive] / rhs[positive]).max()) if positive.any() else 0.0
    return ContractionReport(
        activation=activation,
        n_samples=n_samples,
        violations=violations,
        max_squared_ratio=ratio,
    )


@dataclass(frozen=True)
class BoundSample:
    """One input's removal gap against its analytic ceiling.

    ``bound_value`` is ``mean_outgoing_square(j) * raw_difference(i, j)**2
    * (|x|^2 + 1)``; the +1 is the constant coordinate that absorbs the
    bias, matching the raw difference which includes the bias term.
    ``gap_sq`` averages the squared output change over all output neurons.
    """

    x: np.ndarray
    z_full: np.ndarray
    z_pruned: np.ndarray
    gap_sq: float
    bound_value: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "z_full", np.asarray(self.z_full, dtype=np.float64))
        object.__setattr__(self, "z_pruned", np.asarray(self.z_pruned, dtype=np.float64))

    @property
    def holds(self) -> bool:
        # The slack covers the zero-bound corner: merging exact duplicates
        # computes (a_i + a_j) h(..) in one step where the original summed two
        # products, so the gap can be a few ulps above an exactly-zero bound.
        return self.gap_sq <= self.bound_value + 1e-24


def verify_bound(
    net: Network,
    layer_index: int,
    i: int,
    j: int,
    xs,
    cfg: SimilarityConfig | None = None,
) -> list[BoundSample]:
    """Check the removal-error ceiling for merging neuron ``j`` into ``i``.

    For each input, compares the mean squared output gap between the
    network and its merged counterpart against the product of ``j``'s mean
    squared outgoing weight, the squared raw weight-set difference, and
    the squared absorbed input norm. The ceiling is only valid for the raw
    difference, and only where the merged layer feeds the output directly.
    """
    if cfg is None:
        cfg = SimilarityConfig(mode=SimilarityMode.RAW_DIFFERENCE)
    if cfg.mode is not SimilarityMode.RAW_DIFFERENCE:
        raise ValueError("the removal bound is only established for the raw difference")
    if layer_index != len(net.layers) - 2:
        raise ValueError("the bound applies to the layer feeding the output directly")
    layer = net.layers[layer_index]
    if layer.activation not in (Activation.RELU, Activation.SIGMOID):
        raise ValueError("the bound needs a relu or sigmoid layer")
    if i == j:
        raise ValueError("kept and removed neuron must differ")
    eps = raw_difference(layer.weight_set(i), layer.weight_set(j))
    a_sq = mean_outgoing_square(net.layers[layer_index + 1], j)
    pruned = merge_neurons(net, layer_index, i, j)
    samples = []
    for x in xs:
        x = np.asarray(x, dtype=np.float64)
        z_full = forward(net, x)
        z_pruned = forward(pruned, x)
        gap_sq = float(np.mean((z_full - z_pruned) ** 2))
        # The ceiling is stated in terms of the merged layer's own input,
        # which for deeper nets is the activation of the previous layer.
        layer_input = _run_layers(net.layers[:layer_index], x[None, :])[0]
        bound = a_sq * eps * eps * (float(np.dot(layer_input, layer_input)) + 1.0)
        samples.append(
            BoundSample(x=x, z_full=z_full, z_pruned=z_pruned, gap_sq=gap_sq, bound_value=bound)
        )
    return samples
