"""Histogram-mode and error-sampling rules for choosing the removal count."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuronprune import (
    Activation,
    CutoffMethod,
    FcLayer,
    Network,
    PolicyKind,
    PrunePolicy,
    PruneStep,
    PruneTrace,
    CutoffReport,
    data_driven_cutoff,
    data_free_cutoff,
    export_report_json,
    export_trace,
    histogram,
    import_trace,
    prune_layer,
    SimilarityMode,
)
from neuronprune.cutoff import _slope_mass


def trace_of(saliencies, full=True):
    """Wrap a saliency sequence in a trace; ``full`` makes it a prune-to-one run."""
    saliencies = np.asarray(saliencies, dtype=np.float64)
    n = len(saliencies)
    steps = tuple(
        PruneStep(step_number=k + 1, removed=k, saliency=float(s))
        for k, s in enumerate(saliencies)
    )
    return PruneTrace(layer_index=0, n_original=n + 1 if full else n + 2, steps=steps)


class TestHistogram:
    def test_hand_counted_two_bins(self):
        h = histogram(trace_of([0.0, 0.0, 0.0, 1.0]), 2)
        np.testing.assert_array_equal(h.counts, [3, 1])
        assert h.mode_bin == 0
        assert not h.degenerate

    def test_empty_trace_rejected(self):
        empty = PruneTrace(layer_index=0, n_original=3, steps=())
        with pytest.raises(ValueError):
            histogram(empty, 10)

    def test_needs_at_least_two_bins(self):
        with pytest.raises(ValueError):
            histogram(trace_of([0.0, 1.0]), 1)

    def test_counts_sum_to_trace_length(self):
        rng = np.random.default_rng(0)
        tr = trace_of(rng.exponential(size=64))
        h = histogram(tr, 12)
        assert h.counts.sum() == len(tr)

    def test_identical_values_flagged_degenerate(self):
        h = histogram(trace_of([0.5, 0.5, 0.5]), 4)
        assert h.degenerate
        assert h.counts.sum() == 3

    def test_mode_is_first_maximal_bin(self):
        # two bins tie at 2; the earlier one must win
        h = histogram(trace_of([0.1, 0.1, 0.9, 0.9]), 2)
        assert h.mode_bin == 0

    def test_concentrated_mass_plus_spread_tail(self):
        """A tight cluster near 1.2 with a thin tail out to 6 puts the mode
        bin's representative value inside [1.1, 1.3]."""
        rng = np.random.default_rng(42)
        values = np.concatenate(
            [rng.normal(1.2, 0.05, size=400), rng.uniform(2.0, 6.0, size=100)]
        )
        h = histogram(trace_of(values), 50)
        assert 1.1 <= h.mode_value <= 1.3


class TestDataFree:
    def test_requires_full_trace(self):
        with pytest.raises(ValueError):
            data_free_cutoff(trace_of([0.1, 0.2, 0.3], full=False))

    @pytest.mark.xfail(
        strict=True,
        raises=pytest.fail.Exception,
        reason="a trace CSV does not record the layer width, so import_trace infers it",
    )
    def test_reimported_partial_trace_is_refused(self, tmp_path):
        # Neurons 0-5 of a 20-wide layer are near-copies and the rest are far
        # apart, so 5 steps only merge among 0-5. Re-imported without its
        # width, the trace reads as a full prune-to-one of a 6-wide layer.
        rng = np.random.default_rng(3)
        w = rng.normal(size=(20, 8)) * 10.0
        w[:6] = w[0] + 1e-3 * rng.normal(size=(6, 8))
        b = rng.normal(size=20)
        b[:6] = b[0]
        net = Network(
            layers=(
                FcLayer(w, b, Activation.SIGMOID),
                FcLayer(rng.normal(size=(3, 20)), rng.normal(size=3), Activation.IDENTITY),
            ),
            input_dim=8,
        )
        _, trace = prune_layer(net, 0, 5, PrunePolicy(PolicyKind.SALIENCY_SURGERY))
        assert all(s.removed < 6 and s.kept < 6 for s in trace.steps)
        path = tmp_path / "partial.csv"
        export_trace(trace, path)
        with pytest.raises(ValueError):
            data_free_cutoff(import_trace(path))

    def test_all_zero_saliencies_predict_nothing_with_warning(self):
        tr = trace_of([0.0] * 6)
        with pytest.warns(RuntimeWarning):
            rep = data_free_cutoff(tr)
        assert rep.predicted_count == 0
        assert rep.warning is not None
        assert rep.method is CutoffMethod.DATA_FREE

    def test_counts_steps_at_or_below_mode_center(self):
        # 6 small saliencies clustered at 0.1, 3 large at 5.0; the mode bin
        # covers the cluster, so all 6 small steps fall under the cutoff.
        tr = trace_of([0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 5.0, 5.0, 5.0])
        rep = data_free_cutoff(tr, n_bins=10)
        assert rep.predicted_count == 6
        assert rep.evidence.mode_bin == 0

    @given(st.sampled_from([2.0, 3.0, 0.5, 7.5]))
    def test_invariant_under_uniform_scaling(self, scale):
        rng = np.random.default_rng(7)
        base = np.concatenate([rng.normal(1.0, 0.1, 30), rng.uniform(4, 9, 10)])
        a = data_free_cutoff(trace_of(base), n_bins=20)
        b = data_free_cutoff(trace_of(scale * base), n_bins=20)
        assert a.predicted_count == b.predicted_count

    def test_prediction_never_exceeds_trace_length(self):
        rng = np.random.default_rng(11)
        tr = trace_of(rng.normal(1.0, 0.01, 40))
        rep = data_free_cutoff(tr, n_bins=5)
        assert rep.predicted_count <= len(tr)


def ramp_curve(flat_until, baseline=10.0, slope=0.5):
    def oracle(step):
        if step <= flat_until:
            return baseline
        return baseline + slope * (step - flat_until)

    return oracle


def ramp_saliencies(n, flat_until):
    s = np.full(n, 1e-3)
    tail = np.arange(flat_until, n) - flat_until
    s[flat_until:] = 1e-3 * np.exp(0.08 * tail)
    return s


class TestDataDriven:
    def test_constant_oracle_keeps_everything(self):
        tr = trace_of(np.linspace(0.01, 1.0, 30))
        rep = data_driven_cutoff(tr, lambda s: 12.5, budget=8, max_error_increase=1.0)
        assert rep.predicted_count == len(tr)
        assert rep.warning is None
        assert rep.method is CutoffMethod.DATA_DRIVEN

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_flat_then_ramp_found_within_five_steps(self):
        n, flat = 500, 400
        oracle = ramp_curve(flat)
        true_cross = max(s for s in range(n + 1) if oracle(s) <= oracle(0) + 2.0)
        rep = data_driven_cutoff(
            trace_of(ramp_saliencies(n, flat)), oracle, budget=12, max_error_increase=2.0
        )
        assert abs(rep.predicted_count - true_cross) <= 5

    def test_budget_floor(self):
        tr = trace_of(np.linspace(0.01, 1.0, 10))
        with pytest.raises(ValueError):
            data_driven_cutoff(tr, lambda s: 0.0, budget=2, max_error_increase=1.0)

    def test_requires_full_trace(self):
        tr = trace_of(np.linspace(0.01, 1.0, 10), full=False)
        with pytest.raises(ValueError):
            data_driven_cutoff(tr, lambda s: 0.0, budget=5, max_error_increase=1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(st.integers(3, 14))
    @settings(max_examples=12)
    def test_oracle_call_count_respects_budget(self, budget):
        calls = []
        oracle = ramp_curve(40)

        def counting(step):
            calls.append(step)
            return oracle(step)

        tr = trace_of(ramp_saliencies(60, 40))
        data_driven_cutoff(tr, counting, budget=budget, max_error_increase=2.0)
        assert len(calls) <= budget

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_threshold_monotonicity(self):
        tr = trace_of(ramp_saliencies(120, 80))
        oracle = ramp_curve(80)
        preds = [
            data_driven_cutoff(tr, oracle, budget=14, max_error_increase=t).predicted_count
            for t in (0.5, 1.0, 2.0, 5.0)
        ]
        assert preds == sorted(preds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_evidence_holds_measured_points(self):
        tr = trace_of(ramp_saliencies(60, 40))
        oracle = ramp_curve(40)
        rep = data_driven_cutoff(tr, oracle, budget=10, max_error_increase=1.0)
        assert len(rep.evidence) <= 10
        for step, err in rep.evidence:
            assert err == oracle(step)
        steps = [s for s, _ in rep.evidence]
        assert steps == sorted(steps)

    def test_exhausted_budget_warns_when_bracket_is_loose(self):
        # 3 calls on a 500-step trace cannot bisect down to adjacent steps
        tr = trace_of(ramp_saliencies(500, 100))
        oracle = ramp_curve(100)
        with pytest.warns(RuntimeWarning):
            rep = data_driven_cutoff(tr, oracle, budget=3, max_error_increase=1.0)
        assert rep.warning is not None
        assert rep.predicted_count <= 500


def overflowing_trace():
    """Raw-mode prune-to-one of a 6x2 ReLU layer whose first three rows are
    scaled by 1e160: the last merges' costs overflow to inf."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(6, 2))
    w[:3] *= 1e160
    net = Network(
        layers=(
            FcLayer(w, rng.normal(size=6), Activation.RELU),
            FcLayer(rng.normal(size=(3, 6)), rng.normal(size=3), Activation.IDENTITY),
        ),
        input_dim=2,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        _, trace = prune_layer(
            net, 0, 5, PrunePolicy(PolicyKind.SALIENCY_SURGERY), SimilarityMode.RAW_DIFFERENCE
        )
    return trace


def reference_slope_mass(saliencies):
    """``_slope_mass`` as a per-step loop; every trace, inf tails too, must match it."""
    n = len(saliencies)
    slopes = np.empty(n)
    with np.errstate(invalid="ignore"):  # inf - inf
        for t in range(n):
            lo = max(t - 2, 0)
            hi = min(t + 2, n - 1)
            slopes[t] = (saliencies[hi] - saliencies[lo]) / (hi - lo) if hi > lo else 0.0
    weights = np.abs(slopes)
    steep = ~np.isfinite(weights)
    if steep.any():
        finite_max = weights[~steep].max(initial=0.0)
        weights[steep] = finite_max if finite_max > 0 else 1.0
    floor = weights.max() * 1e-6 if weights.max() > 0 else 1.0
    weights = weights + floor
    mass = np.cumsum(weights)
    return mass / mass[-1]


class TestInfSaliencies:
    def test_overflowing_layer_records_inf_steps(self):
        sal = overflowing_trace().saliencies()
        assert np.isfinite(sal[:2]).all() and np.isinf(sal[2:]).all()

    def test_data_free_bins_only_finite_saliencies(self):
        trace = overflowing_trace()
        finite = trace.saliencies()[:2]
        h = histogram(trace, 4)
        assert h.counts.sum() == 2
        np.testing.assert_array_equal(h.bin_edges, np.histogram(finite, bins=4)[1])
        rep = data_free_cutoff(trace, n_bins=4)
        assert np.isfinite(rep.cutoff_saliency)
        assert rep.predicted_count == np.count_nonzero(finite <= rep.cutoff_saliency)
        assert rep.predicted_count <= 2  # an inf step never counts

    def test_trace_without_finite_saliency_is_refused(self):
        trace = trace_of([np.inf, np.inf, np.inf])
        for rule in (lambda: histogram(trace, 4), lambda: data_free_cutoff(trace)):
            with pytest.raises(ValueError, match="no finite saliency"):
                rule()

    @pytest.mark.parametrize("saliencies", [
        "overflowing",
        [np.inf, np.inf, np.inf, np.inf],
        [0.1] * 10 + [np.inf] * 3,
        [0.0, 0.5, 1.0, 3.0] + [np.inf] * 6,
    ])
    def test_slope_mass_stays_finite_and_ends_at_one(self, saliencies):
        if saliencies == "overflowing":
            saliencies = overflowing_trace().saliencies()
        mass = _slope_mass(np.asarray(saliencies, dtype=np.float64))
        assert np.isfinite(mass).all()
        assert (np.diff(mass) >= 0).all()
        assert mass[-1] == 1.0

    @given(st.lists(st.floats(0.0, 1e12), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_slope_mass_unchanged_on_finite_traces(self, saliencies):
        values = np.asarray(saliencies, dtype=np.float64)
        assert _slope_mass(values).tobytes() == reference_slope_mass(values).tobytes()

    @given(st.lists(st.floats(0.0, 1e300), max_size=40), st.integers(1, 5))
    @settings(max_examples=60)
    def test_slope_mass_unchanged_on_inf_tails(self, saliencies, n_inf):
        values = np.asarray(saliencies + [np.inf] * n_inf, dtype=np.float64)
        assert _slope_mass(values).tobytes() == reference_slope_mass(values).tobytes()

    def test_data_driven_sweeps_an_inf_trace(self):
        calls = []

        def oracle(step):
            calls.append(step)
            return 1.0 + step

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = data_driven_cutoff(overflowing_trace(), oracle, budget=5, max_error_increase=2.5)
        assert rep.predicted_count == 2
        assert rep.warning is None
        # every slope window reaches an inf step, so the sweep is spaced evenly
        assert calls == [0, 3, 5, 1, 2]

    def test_json_report_of_an_inf_cutoff_is_strict_json(self, tmp_path):
        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        accepted = data_driven_cutoff(
            overflowing_trace(), lambda step: 1.0, budget=5, max_error_increase=2.5
        )
        assert accepted.cutoff_saliency == math.inf
        reports = [
            accepted,
            CutoffReport(5, math.inf, CutoffMethod.DATA_DRIVEN, [(5, 1.0), (6, -math.inf)]),
            CutoffReport(5, math.nan, CutoffMethod.DATA_DRIVEN, [(5, math.nan)]),
        ]
        for k, rep in enumerate(reports):
            path = tmp_path / f"rep{k}.json"
            export_report_json(rep, path)
            payload = json.loads(path.read_text(), parse_constant=refuse)
            assert payload["cutoff_saliency"] == format(rep.cutoff_saliency)
            errors = [e for _, e in payload["evidence"]["samples"]]
            assert errors == [e if math.isfinite(e) else format(e) for _, e in rep.evidence]


SPAM_CSV = __import__("pathlib").Path(__file__).resolve().parent.parent / "data" / "spambase.csv"


@pytest.mark.skipif(not SPAM_CSV.exists(), reason="spam CSV not present locally")
def test_spam_prediction_lands_near_observed_error_rise():
    """On the 57-feature spam data, the histogram-mode prediction should sit
    within 20% of the step where measured test error first rises one point."""
    import neuronprune as npr

    ds = npr.load_csv(SPAM_CSV, seed=0)
    net = npr.train(ds, npr.TrainConfig(learning_rate=0.5, epochs=300, weight_decay=5e-3, seed=0))
    _, tr = npr.prune_layer(net, 0, 19, npr.PrunePolicy(npr.PolicyKind.SALIENCY_SURGERY))
    curve = dict(npr.trace_error_curve(net, tr, ds))
    rep = npr.data_free_cutoff(tr)
    baseline = curve[0]
    rise = next((s for s in sorted(curve) if curve[s] > baseline + 1.0), len(tr))
    assert 0.8 * rise <= rep.predicted_count <= 1.2 * rise
