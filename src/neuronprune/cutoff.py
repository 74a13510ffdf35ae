"""Deciding how many neurons to remove.

Two rules, both reading a full removal trace (one that pruned the layer
all the way down to a single neuron, so the entire cost spectrum is on
record):

* Data-free: histogram the recorded saliencies. Cheap removals pile up
  in a tall narrow peak and expensive ones stretch into a sparse tail,
  so the center of the most populated bin separates the two regimes.
  The rule removes the steps at or below that value and never needs a
  single evaluation pass.
* Data-driven: measure the post-pruning error at a handful of step
  counts and return the deepest measured step that stays within a given
  error increase over the unpruned baseline. Measurement positions are
  spaced inversely to the local slope of the saliency trace: flat
  stretches are sampled sparsely, the steep tail densely, and whatever
  budget remains is spent bisecting the boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pruning import PruneTrace

__all__ = [
    "SaliencyHistogram",
    "CutoffMethod",
    "CutoffReport",
    "histogram",
    "data_free_cutoff",
    "data_driven_cutoff",
]

# Equal-width bins of the data-free rule's histogram.
_DATA_FREE_BINS = 50


class CutoffMethod(Enum):
    DATA_FREE = "data-free"
    DATA_DRIVEN = "data-driven"


@dataclass(frozen=True)
class SaliencyHistogram:
    """Equal-width histogram of a trace's saliencies.

    ``mode_bin`` is the most populated bin, smallest index on ties.
    ``degenerate`` marks an all-identical trace, where the bin structure
    carries no information.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    mode_bin: int
    degenerate: bool

    def __post_init__(self):
        edges = np.array(self.bin_edges, dtype=np.float64)
        counts = np.array(self.counts, dtype=np.int64)
        if edges.ndim != 1 or counts.ndim != 1 or len(edges) != len(counts) + 1:
            raise ValueError("need one more bin edge than bin count")
        if np.any(np.diff(edges) < 0):
            raise ValueError("bin edges must be sorted")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if not 0 <= self.mode_bin < len(counts):
            raise ValueError("mode_bin out of range")
        if counts[self.mode_bin] != counts.max() or np.argmax(counts) != self.mode_bin:
            raise ValueError("mode_bin must be the first bin of maximal count")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def mode_value(self) -> float:
        """Center of the most populated bin."""
        return float(0.5 * (self.bin_edges[self.mode_bin] + self.bin_edges[self.mode_bin + 1]))


@dataclass(frozen=True)
class CutoffReport:
    """A removal-count recommendation and the evidence behind it.

    ``evidence`` is the histogram for the data-free rule and the tuple of
    measured (step, error) pairs for the data-driven rule. ``warning`` is
    set when the rule had to fall back to a cautious answer.
    """

    predicted_count: int
    cutoff_saliency: float
    method: CutoffMethod
    evidence: object
    warning: str | None = None

    def __post_init__(self):
        if self.predicted_count < 0:
            raise ValueError("predicted_count must be nonnegative")


def histogram(trace: PruneTrace) -> SaliencyHistogram:
    """Bin the trace's finite saliencies into 50 equal-width bins over [min, max].

    The rightmost bin includes its upper edge. Inf saliencies (merges
    whose cost overflowed) fall outside every bin. An all-identical
    trace still produces a histogram (numpy widens the degenerate range
    by one unit) but is flagged so callers can refuse to read meaning
    into it.
    """
    if len(trace) == 0:
        raise ValueError("cannot histogram an empty trace")
    values = trace.saliencies()
    values = values[np.isfinite(values)]
    if len(values) == 0:
        raise ValueError("cannot histogram a trace with no finite saliency")
    degenerate = bool(values.min() == values.max())
    counts, edges = np.histogram(values, bins=_DATA_FREE_BINS)
    return SaliencyHistogram(
        bin_edges=edges,
        counts=counts,
        mode_bin=int(np.argmax(counts)),
        degenerate=degenerate,
    )


def data_free_cutoff(trace: PruneTrace) -> CutoffReport:
    """Recommend a removal count from the saliency histogram alone.

    The cutoff is the center of the 50-bin histogram's mode bin; the
    prediction is the number of steps with saliency <= cutoff, so an inf
    step never counts.
    Counting sub-cutoff steps, rather than taking the index of the last
    one, keeps the rule stable when the trace is locally non-monotone.
    Requires a full trace: a partial one would hide part of the spectrum
    and skew the mode. A degenerate histogram predicts zero removals,
    erring toward accuracy.
    """
    if not trace.is_full:
        raise ValueError("the data-free rule needs a trace pruned down to one neuron")
    hist = histogram(trace)
    cutoff = hist.mode_value
    if hist.degenerate:
        predicted = 0
        warning = "saliency histogram is degenerate (all values identical); predicting 0"
        warnings.warn(warning, RuntimeWarning, stacklevel=2)
    else:
        predicted = int(np.count_nonzero(trace.saliencies() <= cutoff))
        warning = None
    return CutoffReport(
        predicted_count=predicted,
        cutoff_saliency=cutoff,
        method=CutoffMethod.DATA_FREE,
        evidence=hist,
        warning=warning,
    )


def _slope_mass(saliencies: np.ndarray) -> np.ndarray:
    """Cumulative absolute slope of the trace, normalized to end at 1.

    Slopes come from centered differences over a 5-step window, clamped
    at the ends. A window that reaches an inf saliency counts as steep
    as the steepest finite one (or 1 when none is), so the mass stays
    finite. A tiny uniform floor keeps the mass strictly increasing even
    on perfectly flat stretches.
    """
    n = len(saliencies)
    t = np.arange(n)
    lo, hi = np.maximum(t - 2, 0), np.minimum(t + 2, n - 1)
    with np.errstate(invalid="ignore"):  # inf - inf, and 0 / 0 on a one-step trace
        slopes = np.where(hi > lo, (saliencies[hi] - saliencies[lo]) / (hi - lo), 0.0)
    weights = np.abs(slopes)
    steep = ~np.isfinite(weights)
    if steep.any():
        finite_max = weights[~steep].max(initial=0.0)
        weights[steep] = finite_max if finite_max > 0 else 1.0
    floor = weights.max() * 1e-6 if weights.max() > 0 else 1.0
    weights = weights + floor
    mass = np.cumsum(weights)
    return mass / mass[-1]


def data_driven_cutoff(
    trace: PruneTrace,
    error_oracle,
    budget: int,
    max_error_increase: float,
) -> CutoffReport:
    """Recommend a removal count by measuring the error at sampled steps.

    ``error_oracle(step)`` must return the evaluation error after the
    first ``step`` removals of the trace; step 0 is the unpruned
    baseline. At most ``budget`` oracle calls are made: one for the
    baseline, roughly three fifths of the rest on a slope-guided sweep
    (always including the final step), and the remainder on bisecting
    between the deepest acceptable and the shallowest unacceptable
    sample. Returns the deepest measured step whose error stays within
    ``max_error_increase`` of baseline; if the budget runs out before
    the boundary is pinned to adjacent steps, the report carries a
    warning and the cautious answer stands.
    """
    if budget < 3:
        raise ValueError("need a budget of at least 3 oracle calls")
    if max_error_increase < 0:
        raise ValueError("max_error_increase must be nonnegative")
    if not trace.is_full:
        raise ValueError("the data-driven rule needs a trace pruned down to one neuron")
    total = len(trace)
    measured: dict[int, float] = {}  # one oracle call per entry

    def measure(step: int) -> float:
        if step not in measured:
            measured[step] = float(error_oracle(step))
        return measured[step]

    baseline = measure(0)
    threshold = baseline + max_error_increase

    mass = _slope_mass(trace.saliencies())
    n_sweep = max(2, ((budget - 1) * 3) // 5)
    n_sweep = min(n_sweep, budget - 1, total)
    levels = np.linspace(0.0, 1.0, n_sweep + 1)[1:]
    sweep_steps = sorted({int(np.searchsorted(mass, level) + 1) for level in levels} | {total})
    for step in sweep_steps:
        if len(measured) >= budget:
            break
        measure(step)

    ok_steps = [s for s, e in measured.items() if e <= threshold]
    best_ok = max(ok_steps)  # step 0 always qualifies
    higher_bad = [s for s, e in measured.items() if s > best_ok and e > threshold]
    first_bad = min(higher_bad) if higher_bad else None

    while first_bad is not None and first_bad - best_ok > 1 and len(measured) < budget:
        mid = (best_ok + first_bad) // 2
        if measure(mid) <= threshold:
            best_ok = mid
        else:
            first_bad = mid

    warning = None
    if first_bad is not None and first_bad - best_ok > 1:
        warning = (
            f"oracle budget of {budget} exhausted with the boundary only bracketed "
            f"to ({best_ok}, {first_bad}); returning the cautious end"
        )
        warnings.warn(warning, RuntimeWarning, stacklevel=2)

    samples = tuple(sorted(measured.items()))
    cutoff_saliency = (
        trace.steps[best_ok - 1].saliency if best_ok >= 1 else 0.0
    )
    return CutoffReport(
        predicted_count=best_ok,
        cutoff_saliency=cutoff_saliency,
        method=CutoffMethod.DATA_DRIVEN,
        evidence=samples,
        warning=warning,
    )
