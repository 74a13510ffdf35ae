"""Weight-set similarity and the pairwise removal costs.

The cost of removing neuron ``j`` in favor of keeping neuron ``i`` is

    values[i, j] = mean_outgoing_square(j) * s(i, j)**2

where ``mean_outgoing_square(j)`` averages the squared outgoing weights of
``j`` over all next-layer neurons, and the similarity ``s`` measures how far
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

One private scorer gives the exact similarity of a batch of pairs, or of
one pair on scalars, with the same operations as the scalar functions
:func:`raw_difference` and :func:`heuristic_similarity`, bit for bit. Its
formula scores an all-zero pair 0 unaided, and it squares the raw bias
difference by a multiply, as the certified bounds do.
:func:`build_saliency_matrix` runs it on every pair and is the public
exact reference. The loop behind ``pruning.prune_layer`` runs it only on
the pairs that certified lower bounds from one Gram product cannot rule
out. The bounds are symmetric in the pair, so only the product's upper
triangle is computed, and it is mirrored below the diagonal.
``_CertifiedCosts`` settles each column's exact minimum with one
column-scan routine, in the first scan and in every rescan. The matrix
stores no costs: private helpers shared with :mod:`.pruning` derive them
and break ties. A column's minimum is always taken over live rows other
than its own, so a column whose costs all overflow to inf keeps an inf
minimum in a live row instead of falling back to the sentinel. Such
overflow is expected, so :func:`build_saliency_matrix` and
:func:`verify_bound` print no numpy warning for it. :func:`verify_bound`
checks one batch of inputs through the one forward pass.
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
    _checked_batch,
    _frozen_array,
    _run_layers,
    merge_neurons,
)

__all__ = [
    "SimilarityMode",
    "SaliencyMatrix",
    "ContractionReport",
    "BoundSample",
    "DIAGONAL_SENTINEL",
    "raw_difference",
    "heuristic_similarity",
    "mean_outgoing_square",
    "build_saliency_matrix",
    "verify_contraction",
    "verify_bound",
]

# Largest finite double, not +inf, so minimum scans stay total-order safe.
DIAGONAL_SENTINEL = float(np.finfo(np.float64).max)

# Floor of the heuristic's denominators, so opposite weight rows (or biases
# summing to zero) yield a large finite value instead of a division error.
_DENOMINATOR_FLOOR = 1e-12


class SimilarityMode(Enum):
    RAW_DIFFERENCE = "raw"
    NORMALIZED_HEURISTIC = "heuristic"


@np.errstate(over="ignore", invalid="ignore")  # overflowing rows give inf, as in the build
def raw_difference(wi: WeightSet, wj: WeightSet) -> float:
    """Euclidean distance between two weight-sets, bias included."""
    if len(wi) != len(wj):
        raise ValueError("weight-sets must have equal length")
    d, db = wi.weights - wj.weights, wi.bias - wj.bias
    return float(np.sqrt(np.dot(d, d) + db * db))


@np.errstate(over="ignore", invalid="ignore")  # overflowing rows give inf, as in the build
def heuristic_similarity(wi: WeightSet, wj: WeightSet) -> float:
    """Scale-insensitive similarity with sensible-sized weight and bias terms.

    The non-bias weights are normalized to unit length before being
    compared, so rows differing only by a positive scale contribute
    nothing to the first term; the denominators keep the weight and bias
    contributions on comparable footing.
    """
    if len(wi) != len(wj):
        raise ValueError("weight-sets must have equal length")
    guard = _DENOMINATOR_FLOOR
    ni = float(np.linalg.norm(wi.weights))
    nj = float(np.linalg.norm(wj.weights))
    if ni == 0.0 and nj == 0.0 and wi.bias == 0.0 and wj.bias == 0.0:
        warnings.warn(
            "both weight-sets are all-zero; treating them as maximally similar",
            RuntimeWarning,
            stacklevel=2,
        )
    unit_i = wi.weights / max(ni, guard)
    unit_j = wj.weights / max(nj, guard)
    weight_term = float(np.linalg.norm(unit_i - unit_j)) / max(
        float(np.linalg.norm(wi.weights + wj.weights)), guard
    )
    bias_term = abs(wi.bias - wj.bias) / max(abs(wi.bias + wj.bias), guard)
    return weight_term + bias_term


@np.errstate(over="ignore", invalid="ignore")  # overflowing rows give inf, as in the build
def mean_outgoing_square(next_layer: FcLayer, j: int) -> float:
    """Mean over next-layer neurons of the squared outgoing weight of neuron ``j``."""
    if not 0 <= j < next_layer.n_in:
        raise ValueError(f"column {j} out of range for layer with {next_layer.n_in} inputs")
    return float(_mean_squares(next_layer.weights[:, j]))


def _mean_squares(a: np.ndarray) -> np.ndarray:
    """``np.mean`` of the squares along the last axis: the one outgoing-factor formula.

    :func:`mean_outgoing_square`, the build and the removal loop all take
    it, so their factors agree bit for bit.
    """
    return np.add.reduce(a * a, axis=-1) / a.shape[-1]


@dataclass(frozen=True)
class SaliencyMatrix:
    """Pairwise removal costs over a layer, in the layer's original numbering.

    ``live`` masks the surviving neurons. ``sim_sq`` caches the squared
    similarities, which depend only on incoming weights and therefore stay
    valid across surgery; ``mean_sq_out`` holds the per-neuron outgoing
    factor, the only part a merge changes. Both are frozen by the rule of
    the network's arrays: a read-only float64 array owning its data, as
    the build and :func:`prune_one` pass for ``sim_sq``, is shared as it
    is; any other is copied, and a copied ``sim_sq`` is checked to be
    symmetric.
    """

    live: np.ndarray
    layer_index: int
    sim_sq: np.ndarray
    mean_sq_out: np.ndarray

    def __post_init__(self):
        live = np.array(self.live, dtype=bool)
        live.setflags(write=False)
        sim_sq, msq = _frozen_array(self.sim_sq), _frozen_array(self.mean_sq_out)
        n = sim_sq.shape[0]
        if sim_sq.shape != (n, n):
            raise ValueError("sim_sq must be a square matrix")
        if sim_sq is not self.sim_sq and not np.array_equal(sim_sq, sim_sq.T):
            raise ValueError("sim_sq must be symmetric")
        if live.shape != (n,) or msq.shape != (n,):
            raise ValueError("live mask and outgoing factors must match the matrix size")
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


@np.errstate(over="ignore", invalid="ignore")  # overflowing costs are inf by design
def build_saliency_matrix(
    layer: FcLayer,
    next_layer: FcLayer,
    mode: SimilarityMode = SimilarityMode.NORMALIZED_HEURISTIC,
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
    score = _pair_scorer(layer, mode)[0]
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


def _cost_columns(sim_sq, msq, live, columns, out=None) -> np.ndarray:
    """Row ``k``: cost column ``columns[k]``, with dead rows and the diagonal at the sentinel.

    Column c of sim_sq is read as row c, since the build makes it exactly
    symmetric. The costs go to ``out`` when it is given. A column whose
    outgoing factor is 0 costs 0 in every row: removing a neuron with no
    outgoing weight changes nothing, even at an inf distance.
    """
    # The columns are valid indices; "clip" lets take write straight into
    # out, where the default "raise" fills a temporary copy first.
    costs = np.take(sim_sq, columns, axis=0, out=out, mode="clip")
    factors = msq[columns]
    costs *= factors[:, None]
    costs[factors == 0.0] = 0.0  # not 0 * inf = nan
    if not live.all():
        costs[:, ~live] = DIAGONAL_SENTINEL
    costs[np.arange(columns.size), columns] = DIAGONAL_SENTINEL
    return costs


def _mean_outgoing_squares(next_layer: FcLayer) -> np.ndarray:
    """:func:`mean_outgoing_square` of every neuron, bit for bit, in one call."""
    # Contiguous rows of the transpose, as the column copy mean_outgoing_square squares.
    return _mean_squares(np.ascontiguousarray(next_layer.weights.T))


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


def _column_minima(sim_sq, msq, live, columns, runner_up=None) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the first live row holding its smallest cost, and that cost.

    The columns are scanned in blocks of about ``_BLOCK_BYTES``, all
    written to one buffer. ``runner_up``, a pair of arrays, receives each
    column's first row of its smallest cost elsewhere, dead rows and the
    diagonal included at the sentinel, and that cost.
    """
    block = max(1, _BLOCK_BYTES // (8 * live.size))
    rows = np.empty(columns.size, dtype=np.intp)
    mins = np.empty(columns.size)
    buffer = np.empty((min(block, columns.size), live.size))
    for lo in range(0, columns.size, block):
        part = columns[lo : lo + block]
        hi, k = lo + part.size, np.arange(part.size)
        costs = _cost_columns(sim_sq, msq, live, part, buffer[: part.size])
        rows[lo:hi] = found = _live_rows(costs, live, part)
        mins[lo:hi] = costs[k, found]
        if runner_up is not None:
            costs[k, found] = np.inf
            runner_up[0][lo:hi] = second = costs.argmin(axis=1)
            runner_up[1][lo:hi] = costs[k, second]
    return rows, mins


def _cheapest(rows, mins, live=None) -> tuple[int, int]:
    """First smallest ``mins[k]`` as ``(rows[k], k)``: ties go to the least removed, then kept.

    With ``live``, only live ``k`` count; dead entries must hold inf, so
    they come first only when every live minimum is inf as well.
    """
    k = int(mins.argmin())
    if live is not None and not live[k]:
        k = int(live.argmax())
    return int(rows[k]), k


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    # A stacked matmul takes one BLAS dot per row, the call np.linalg.norm
    # makes on one vector, so the results match it bit for bit; einsum and
    # (rows * rows).sum(1) accumulate in another order.
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _pair_scorer(layer: FcLayer, mode: SimilarityMode):
    """``(score, score_one)``: the similarity of rows of ``layer`` in ``mode``, pair by pair.

    ``score(a, rows)`` takes row indices, index arrays or slices that
    broadcast together and returns an array. ``score_one(a, r)`` takes two
    row indices and returns a float, with the same dots and the same
    rounding steps on Python floats, without the batch's dozen array calls;
    a one-column rescan asks for it. Each pair takes one BLAS dot per
    difference, so a score does not depend on which other pairs share the
    call.
    """
    w, b = layer.weights, layer.bias
    bias = b.tolist()
    if mode is SimilarityMode.RAW_DIFFERENCE:

        def raw(a, rows):
            db = b[a] - b[rows]
            return np.sqrt(_squared_norms(w[a] - w[rows]) + db * db)

        def raw_one(a, r) -> float:
            diff, db = w[a] - w[r], bias[a] - bias[r]
            return math.sqrt(float(np.dot(diff, diff)) + db * db)

        return raw, raw_one
    guard = _DENOMINATOR_FLOOR
    norms = np.sqrt(_squared_norms(w))
    # One divisor per row, not an n x d copy of the unit rows: dividing only
    # the rows a call touches rounds each element exactly as that copy did.
    den = np.maximum(norms, guard)
    if np.count_nonzero((norms == 0.0) & (b == 0.0)) >= 2:
        warnings.warn(
            "both weight-sets are all-zero; treating them as maximally similar",
            RuntimeWarning,
            stacklevel=3,
        )
    divisor = den.tolist()

    def heuristic(a, rows):
        du = w[a] / den[a, None] - w[rows] / den[rows, None]
        weight_term = np.sqrt(_squared_norms(du)) / np.maximum(
            np.sqrt(_squared_norms(w[a] + w[rows])), guard
        )
        return weight_term + np.abs(b[a] - b[rows]) / np.maximum(np.abs(b[a] + b[rows]), guard)

    def heuristic_one(a, r) -> float:
        wa, wr = w[a], w[r]
        du, total = wa / divisor[a] - wr / divisor[r], wa + wr
        # max() keeps a nan first argument, as np.maximum does.
        weight_term = math.sqrt(np.dot(du, du)) / max(math.sqrt(np.dot(total, total)), guard)
        ba, br = bias[a], bias[r]
        return weight_term + abs(ba - br) / max(abs(ba + br), guard)

    return heuristic, heuristic_one


def _sim_sq_lower_bounds(layer: FcLayer, mode: SimilarityMode) -> np.ndarray:
    """Row ``c``: a certified lower bound on every ``sim_sq[c, r]``, from BLAS products.

    Each squared distance comes from the Gram form ``|a|^2 + |b|^2 - 2a.b``
    of one ``W[lo:hi] @ W[lo:].T`` block, less a margin of ``(4d + 64) u
    (|a| + |b|)^2`` (``u`` the unit roundoff, ``d`` the fan-in). Rounding
    bounds for inner products (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 3.1) make that cover the Gram form's error and
    the direct scorer's own under any summation order, blocking, FMA use
    or thread count; a small absolute term covers underflow. Since
    ``(|a| + |b|)^2 <= 2 (|a|^2 + |b|^2)``, the wider margin ``(8d + 128) u
    (|a|^2 + |b|^2)`` is taken instead, folded into the squared norms, so
    it costs no pass over a block. The rest of the scorer's arithmetic
    (sqrt, guard, divide, bias term, square, the raw bias difference's
    square included) is then repeated on the bounds with the same
    operations, and each of them is monotone, so no entry exceeds what
    :func:`build_saliency_matrix` stores. The heuristic's unit rows are
    bounded from the same product, scaled by the reciprocal norms, with
    the units' own rounding in the margin.

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
    heuristic = mode is SimilarityMode.NORMALIZED_HEURISTIC
    if heuristic:
        guard = _DENOMINATOR_FLOOR
        scale = 1.0 / np.maximum(np.sqrt(nsq), guard)
        unit_sq = nsq * scale * scale
        # Unit rows have norm at most 1 (times 1 + O(d u)), so (|a| + |b|)^2 <= 4.
        unit_low = unit_sq - (4 * tol + floor * scale.max() * scale.max())
        nsq_high = nsq * (1 + 2 * tol) + floor
    else:
        nsq_low = nsq * (1 - 2 * tol) - floor
    # Up to n/8 rows, so the blocks' squares cover little of the lower triangle,
    # but at least 64: on a narrow layer each block costs more than its square.
    block = max(1, min(_BLOCK_BYTES // (8 * n), max(64, -(-n // 8))))
    below = np.tri(block, k=-1, dtype=bool)
    bounds = np.empty((n, n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        gram = w[lo:hi] @ w[lo:].T
        bias = np.subtract(b[lo:hi, None], b[lo:])
        if heuristic:
            # Upper bound on |a + b|^2, the heuristic's denominator.
            den = np.add(nsq_high[lo:hi, None], nsq_high[lo:])
            den += gram
            den += gram
            np.sqrt(den, out=den)
            np.maximum(den, guard, out=den)
            # Lower bound on |unit_a - unit_b|^2, reusing the product's storage.
            gram *= scale[lo:hi, None]
            gram *= -2.0 * scale[lo:]
            gram += unit_low[lo:hi, None]
            gram += unit_sq[lo:]
            np.fmax(gram, 0.0, out=gram)
            np.sqrt(gram, out=gram)
            gram /= den
            # Rows past ~1e154 overflow the products and leave nan; 0 still bounds.
            np.fmax(gram, 0.0, out=gram)
            # The bias term is elementwise, so it is computed exactly.
            np.add(b[lo:hi, None], b[lo:], out=den)
            np.abs(den, out=den)
            np.maximum(den, guard, out=den)
            np.abs(bias, out=bias)
            bias /= den
            gram += bias
        else:
            gram *= -2.0
            gram += nsq_low[lo:hi, None]
            gram += nsq_low[lo:]
            np.fmax(gram, 0.0, out=gram)
            np.square(bias, out=bias)
            gram += bias
            np.sqrt(gram, out=gram)
        upper = bounds[lo:hi, lo:]
        np.square(gram, out=upper)
        bounds[hi:, lo:hi] = upper[:, hi - lo :].T
        square = upper[:, : hi - lo]
        np.copyto(square, square.T, where=below[: hi - lo, : hi - lo])
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

    :meth:`column_minimum` settles one column. Its costs go to one row
    buffer that every call reuses, so a rescan allocates no n-row; dead
    rows are masked from the ``live`` it is handed. :meth:`column_minima`,
    the first scan of a layer, takes each column's minimum and runner-up
    over the bounds in one :func:`_column_minima` pass, which reads them
    in contiguous row blocks into one block buffer. It scores every
    column's minimum in one batch and calls :meth:`column_minimum` only on
    the columns whose exact cost the runner-up may beat.
    """

    def __init__(self, layer: FcLayer, mode: SimilarityMode):
        self.score, self.score_one = _pair_scorer(layer, mode)
        self.sim_sq = _sim_sq_lower_bounds(layer, mode)
        self.exact = np.zeros(self.sim_sq.shape, dtype=bool)
        np.fill_diagonal(self.exact, True)  # the diagonal never enters a cost
        self.row_costs = np.empty(layer.n_out)  # every rescan's costs, in turn
        self.pair_block = max(1, _BLOCK_BYTES // (8 * layer.n_in))

    def column_minima(self, msq, live) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_column_minima` of every column's exact costs.

        Each column's first minimum over the bounds is scored in one batch.
        No bound exceeds its exact value, so a column is settled when that
        exact cost is below the runner-up the same scan found, or equal to
        it with the runner-up in a later row; only the rest, and the columns
        whose factor is 0, go to :meth:`column_minimum`.
        """
        columns = np.arange(live.size)
        next_rows, next_mins = np.empty(live.size, dtype=np.intp), np.empty(live.size)
        rows = _column_minima(self.sim_sq, msq, live, columns, (next_rows, next_mins))[0]
        self._score(columns, rows)
        mins = self.sim_sq[columns, rows] * msq
        beaten = (next_mins < mins) | ((next_mins == mins) & (next_rows < rows))
        # A column with no other live row holds its own, at the sentinel.
        for c in np.flatnonzero(beaten | (rows == columns) | (msq == 0.0)).tolist():
            rows[c], mins[c] = self.column_minimum(msq, live, c)
        return rows, mins

    def column_minimum(self, msq, live, column: int) -> tuple[int, float]:
        """:func:`_column_minima` of one column's exact costs, from one row of costs."""
        factor = msq[column]
        if factor == 0.0:  # every live row costs 0, as in _cost_columns: take the first
            rows = np.flatnonzero(live)[:2]
            rows = rows[rows != column]
            return (int(rows[0]), 0.0) if rows.size else (column, DIAGONAL_SENTINEL)
        costs = np.multiply(self.sim_sq[column], factor, out=self.row_costs)
        np.putmask(costs, ~live, DIAGONAL_SENTINEL)
        costs[column] = DIAGONAL_SENTINEL
        row = _first_live_row(costs, live, column)
        if not self.exact[column, row]:
            # One pair, written in place: the scorer is symmetric bit for bit,
            # since swapping a pair negates each difference and keeps each sum.
            s = self.score_one(column, row)
            self.sim_sq[column, row] = self.sim_sq[row, column] = s * s
            self.exact[column, row] = self.exact[row, column] = True
            least = costs[row] = self.sim_sq[column, row] * factor
            if costs.argmin() != row:  # other rows may hold a smaller bound, or exact cost
                due = (costs <= least).nonzero()[0]
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
        if pairs.size > 1:  # a pair can be due from both of its columns
            # np.unique's result, without the numpy.ma import its first call costs
            pairs.sort()
            pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]
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


@np.errstate(over="ignore", invalid="ignore")  # overflowing gaps and bounds are inf by design
def verify_bound(
    net: Network,
    layer_index: int,
    i: int,
    j: int,
    xs,
) -> list[BoundSample]:
    """Check the removal-error ceiling for merging neuron ``j`` into ``i``.

    For each row of the batch ``xs``, compares the mean squared output gap
    between the network and its merged counterpart against the product of
    ``j``'s mean squared outgoing weight, the squared raw weight-set
    difference, and the squared absorbed input norm. The ceiling is only
    valid for the raw difference, and only where the merged layer feeds
    the output directly. The whole batch takes three passes: the layers
    before the merged one, then the network's tail and the merged tail,
    both from that prefix's output.
    """
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
    xs = _checked_batch(net, xs)
    # The ceiling is stated in terms of the merged layer's own input,
    # which for deeper nets is the activation of the previous layer.
    layer_input = _run_layers(net.layers[:layer_index], xs)
    z_full = _run_layers(net.layers[layer_index:], layer_input)
    z_pruned = _run_layers(pruned.layers[layer_index:], layer_input)
    gap_sq = _mean_squares(z_full - z_pruned)
    bound = a_sq * eps * eps * (_squared_norms(layer_input) + 1.0)
    return [
        BoundSample(x=x, z_full=zf, z_pruned=zp, gap_sq=g, bound_value=v)
        for x, zf, zp, g, v in zip(xs, z_full, z_pruned, gap_sq.tolist(), bound.tolist())
    ]
