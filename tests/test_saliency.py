"""Pair similarity, the removal-cost matrix, and its two numerical checks."""

import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import neuronprune.saliency as saliency
from neuronprune import (
    DIAGONAL_SENTINEL,
    Activation,
    FcLayer,
    Network,
    PolicyKind,
    PrunePolicy,
    SimilarityConfig,
    SimilarityMode,
    WeightSet,
    build_saliency_matrix,
    forward,
    mean_outgoing_square,
    merge_neurons,
    prune_layer,
    prune_one,
    raw_difference,
    heuristic_similarity,
    similarity,
    verify_bound,
    verify_contraction,
)

from neuronprune.saliency import _mean_outgoing_squares, _sim_sq_lower_bounds
from conftest import awkward_layer

RAW = SimilarityConfig(mode=SimilarityMode.RAW_DIFFERENCE)
HEUR = SimilarityConfig()

finite_vec = arrays(
    np.float64,
    st.integers(2, 6),
    elements=st.floats(-50.0, 50.0, allow_nan=False),
)


def seeded_pair_layer(seed, n=6, d=4, k=3):
    rng = np.random.default_rng(seed)
    layer = FcLayer(rng.normal(size=(n, d)), rng.normal(size=n), Activation.SIGMOID)
    nxt = FcLayer(rng.normal(size=(k, n)), rng.normal(size=k), Activation.IDENTITY)
    return layer, nxt


class TestRawDifference:
    def test_identical_sets_give_zero(self):
        ws = WeightSet(np.array([1.5, -2.0]), 0.25)
        assert raw_difference(ws, ws) == 0.0

    def test_orthonormal_pair(self):
        a = WeightSet(np.array([1.0, 0.0]), 0.0)
        b = WeightSet(np.array([0.0, 1.0]), 0.0)
        assert raw_difference(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_bias_participates(self):
        a = WeightSet(np.array([1.0, 0.0]), 1.0)
        b = WeightSet(np.array([1.0, 0.0]), -1.0)
        assert raw_difference(a, b) == pytest.approx(2.0, abs=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            raw_difference(WeightSet(np.ones(2), 0.0), WeightSet(np.ones(3), 0.0))

    @given(finite_vec, st.floats(-10, 10), st.floats(-10, 10))
    def test_matches_loop_oracle(self, w, bi, bj):
        rng = np.random.default_rng(int(abs(w).sum() * 1e3) % 2**31)
        wj = rng.normal(size=w.shape)
        total = sum((float(a) - float(b)) ** 2 for a, b in zip(w, wj))
        total += (bi - bj) ** 2
        got = raw_difference(WeightSet(w, bi), WeightSet(wj, bj))
        assert got == pytest.approx(np.sqrt(total), rel=1e-14, abs=1e-14)


class TestHeuristicSimilarity:
    def test_identical_nonzero_sets_give_zero(self):
        ws = WeightSet(np.array([0.5, 2.0, -1.0]), 0.75)
        assert heuristic_similarity(ws, ws, HEUR) == 0.0

    def test_scaled_copy_leaves_only_bias_term(self):
        # A 0.9-scaled copy points the same direction, so the direction term
        # vanishes and only |0.1 b| / |1.9 b| survives.
        w = np.array([2.0, -1.0, 0.5])
        b = 0.8
        got = heuristic_similarity(WeightSet(w, b), WeightSet(0.9 * w, 0.9 * b), HEUR)
        assert got == pytest.approx(0.1 / 1.9, rel=1e-12)
        assert got == pytest.approx(0.0526, abs=5e-4)

    def test_opposed_pair_is_large_but_finite(self):
        a = WeightSet(np.array([1.0, 0.0]), 0.5)
        b = WeightSet(np.array([-1.0, 0.0]), -0.5)
        got = heuristic_similarity(a, b, HEUR)
        assert np.isfinite(got)
        assert got > 1e11

    def test_all_zero_pair_warns_and_returns_zero(self):
        z = WeightSet(np.zeros(3), 0.0)
        with pytest.warns(RuntimeWarning):
            assert heuristic_similarity(z, z, HEUR) == 0.0

    @given(finite_vec, st.floats(-5, 5), st.floats(-5, 5))
    def test_symmetric_in_its_arguments(self, w, bi, bj):
        rng = np.random.default_rng(17)
        wj = rng.normal(size=w.shape)
        a, b = WeightSet(w, bi), WeightSet(wj, bj)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert heuristic_similarity(a, b, HEUR) == heuristic_similarity(b, a, HEUR)

    def test_guard_must_be_positive(self):
        with pytest.raises(ValueError):
            SimilarityConfig(denominator_guard=0.0)

    def test_dispatcher_selects_mode(self):
        a = WeightSet(np.array([1.0, 0.0]), 0.0)
        b = WeightSet(np.array([0.0, 1.0]), 0.0)
        assert similarity(a, b, RAW) == raw_difference(a, b)
        assert similarity(a, b, HEUR) == heuristic_similarity(a, b, HEUR)


class TestMeanOutgoingSquare:
    def test_single_output(self):
        nxt = FcLayer(np.array([[2.0]]), np.zeros(1), Activation.IDENTITY)
        assert mean_outgoing_square(nxt, 0) == 4.0

    def test_sign_symmetric_column(self):
        nxt = FcLayer(np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.zeros(4), Activation.IDENTITY)
        assert mean_outgoing_square(nxt, 0) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        nxt = FcLayer(rng.normal(size=(7, 3)), rng.normal(size=7), Activation.IDENTITY)
        for j in range(3):
            want = sum(float(nxt.weights[k, j]) ** 2 for k in range(7)) / 7
            assert mean_outgoing_square(nxt, j) == pytest.approx(want, rel=1e-14)

    def test_out_of_range_rejected(self):
        nxt = FcLayer(np.ones((2, 3)), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(ValueError):
            mean_outgoing_square(nxt, 3)

    # Heights on both sides of the pairwise sum's 8-wide unroll and 128-wide blocks.
    @pytest.mark.parametrize("height", [1, 7, 8, 9, 127, 128, 129, 1000])
    def test_every_column_in_one_call_matches_bit_for_bit(self, height):
        rng = np.random.default_rng(height)
        weights = rng.normal(size=(height, 37)) * 10.0 ** rng.uniform(-3, 3, size=37)
        nxt = FcLayer(weights, np.zeros(height), Activation.IDENTITY)
        want = np.array([mean_outgoing_square(nxt, j) for j in range(37)])
        assert _mean_outgoing_squares(nxt).tobytes() == want.tobytes()


class TestSaliencyMatrix:
    def test_duplicate_neurons_cost_nothing_either_way(self):
        layer, nxt = seeded_pair_layer(0, n=4)
        w = layer.weights.copy()
        b = layer.bias.copy()
        w[2] = w[0]
        b[2] = b[0]
        m = build_saliency_matrix(FcLayer(w, b, layer.activation), nxt, HEUR)
        assert m.values[0, 2] == 0.0
        assert m.values[2, 0] == 0.0

    def test_zero_outgoing_column_zeroes_its_removal_costs(self):
        layer, nxt = seeded_pair_layer(1, n=5)
        w2 = nxt.weights.copy()
        w2[:, 3] = 0.0
        m = build_saliency_matrix(layer, FcLayer(w2, nxt.bias, nxt.activation), HEUR)
        col = np.delete(m.values[:, 3], 3)
        np.testing.assert_array_equal(col, 0.0)

    def test_every_entry_matches_double_loop_oracle(self):
        layer, nxt = seeded_pair_layer(2, n=6)
        for cfg in (RAW, HEUR):
            m = build_saliency_matrix(layer, nxt, cfg)
            for i in range(6):
                for j in range(6):
                    if i == j:
                        assert m.values[i, j] == DIAGONAL_SENTINEL
                        continue
                    sim = similarity(layer.weight_set(i), layer.weight_set(j), cfg)
                    want = mean_outgoing_square(nxt, j) * sim**2
                    assert m.values[i, j] == pytest.approx(want, rel=1e-12, abs=1e-300)

    @staticmethod
    def assert_sim_sq_equals_scalar_reference(layer, nxt, cfg):
        sets = [layer.weight_set(k) for k in range(layer.n_out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            m = build_saliency_matrix(layer, nxt, cfg)
            for i, si in enumerate(sets):
                for j, sj in enumerate(sets):
                    s = 0.0 if i == j else similarity(si, sj, cfg)
                    # The build squares by multiplication, as s ** 2 (libm
                    # pow) can differ from s * s in the last bit.
                    assert m.sim_sq[i, j] == s * s, (i, j)

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    @pytest.mark.parametrize("d", [4, 60_000], ids=["narrow", "blocked"])
    def test_sim_sq_equals_scalar_reference_bit_for_bit(self, cfg, d):
        # 60k inputs make the build score each row in several blocks.
        layer, nxt = seeded_pair_layer(11, n=12, d=d)
        w = layer.weights.copy()
        b = layer.bias.copy()
        w[7], b[7] = w[2], b[2]
        w[9], b[9] = 0.9 * w[4], 0.9 * b[4]
        self.assert_sim_sq_equals_scalar_reference(FcLayer(w, b, layer.activation), nxt, cfg)

    def test_raw_bias_term_squares_like_the_scalar_reference(self):
        # Each of these differences squares to a different double under
        # d ** 2 (libm pow, the scalar reference) than under d * d.
        b = np.array([0.0, 2.759, 4.536, 7.964, 9.072, 12.457])
        diffs = [bi - bj for bi in b for bj in b]
        assert any(d**2 != d * d for d in diffs)
        layer, nxt = seeded_pair_layer(12, n=b.size)
        self.assert_sim_sq_equals_scalar_reference(
            FcLayer(layer.weights, b, layer.activation), nxt, RAW
        )

    def test_all_zero_pair_warns_and_costs_nothing(self):
        layer, nxt = seeded_pair_layer(13, n=6)
        w = layer.weights.copy()
        b = layer.bias.copy()
        w[[1, 4]] = 0.0
        b[[1, 4]] = 0.0
        zeroed = FcLayer(w, b, layer.activation)
        with pytest.warns(RuntimeWarning):
            m = build_saliency_matrix(zeroed, nxt, HEUR)
        assert m.sim_sq[1, 4] == m.sim_sq[4, 1] == 0.0
        self.assert_sim_sq_equals_scalar_reference(zeroed, nxt, HEUR)

    def test_live_entries_nonnegative(self):
        layer, nxt = seeded_pair_layer(3, n=8)
        m = build_saliency_matrix(layer, nxt, HEUR)
        off = ~np.eye(8, dtype=bool)
        assert np.all(m.values[off] >= 0.0)

    def test_single_neuron_layer_rejected(self):
        layer = FcLayer(np.ones((1, 3)), np.zeros(1), Activation.RELU)
        nxt = FcLayer(np.ones((2, 1)), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(ValueError):
            build_saliency_matrix(layer, nxt, HEUR)

    def test_permuting_neurons_permutes_the_matrix(self):
        layer, nxt = seeded_pair_layer(4, n=6)
        m = build_saliency_matrix(layer, nxt, HEUR)
        perm = np.array([3, 0, 5, 1, 4, 2])
        permuted_layer = FcLayer(layer.weights[perm], layer.bias[perm], layer.activation)
        permuted_next = FcLayer(nxt.weights[:, perm], nxt.bias, nxt.activation)
        mp = build_saliency_matrix(permuted_layer, permuted_next, HEUR)
        # entry for (new position of i, new position of j) equals the old entry
        inv = np.argsort(perm)
        np.testing.assert_array_equal(mp.values, m.values[np.ix_(perm, perm)])
        assert mp.values[inv[0], inv[1]] == m.values[0, 1]

    def test_argmin_prefers_smallest_removed_then_kept(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.zeros(4)
        layer = FcLayer(w, b, Activation.RELU)
        nxt = FcLayer(np.ones((1, 4)), np.zeros(1), Activation.IDENTITY)
        m = build_saliency_matrix(layer, nxt, HEUR)
        # pairs (0,2), (2,0), (1,3), (3,1) all cost exactly zero
        kept, removed = m.argmin_live()
        assert (kept, removed) == (2, 0)

    def test_physical_index_tracks_live_mask(self):
        layer, nxt = seeded_pair_layer(5, n=5)
        m = build_saliency_matrix(layer, nxt, HEUR)
        live = m.live.copy()
        live[1] = False
        m2 = type(m)(
            live=live,
            layer_index=m.layer_index,
            sim_sq=m.sim_sq,
            mean_sq_out=m.mean_sq_out,
        )
        assert m2.physical_index(0) == 0
        assert m2.physical_index(2) == 1
        assert m2.physical_index(4) == 3
        with pytest.raises(ValueError):
            m2.physical_index(1)

    @pytest.mark.parametrize("original", [-1, 4])
    def test_physical_index_rejects_indices_outside_the_layer(self, original):
        layer, nxt = seeded_pair_layer(5, n=4)
        m = build_saliency_matrix(layer, nxt, HEUR)
        with pytest.raises(ValueError, match="out of range"):
            m.physical_index(original)


def net_of(layer, nxt):
    return Network(layers=(layer, nxt), input_dim=layer.n_in)


def all_equal_layer(seed):
    layer, nxt = seeded_pair_layer(seed, n=7)
    w = np.repeat(layer.weights[:1], 7, axis=0)
    b = np.full(7, layer.bias[0])
    return FcLayer(w, b, layer.activation), nxt


def duplicate_heavy_layer(seed):
    # Three groups of copies; the next layer repeats columns too, so whole
    # blocks of costs tie exactly.
    layer, nxt = seeded_pair_layer(seed, n=10)
    groups = np.array([0, 1, 0, 2, 1, 0, 2, 2, 1, 0])
    w, b = layer.weights[groups], layer.bias[groups]
    a = nxt.weights[:, [0, 1, 0, 0, 2, 1, 0, 3, 1, 2]]
    return FcLayer(w, b, layer.activation), FcLayer(a, nxt.bias, nxt.activation)


def brute_force_argmin(m):
    """Masked minimum of ``values``, then smallest removed, then smallest kept."""
    n = m.n_original
    mask = np.outer(m.live, m.live) & ~np.eye(n, dtype=bool)
    values = m.values
    lowest = values[mask].min()
    removed, kept = min((j, i) for i, j in zip(*np.nonzero(mask & (values == lowest))))
    return int(kept), int(removed)


def prune_one_chain(layer, nxt, cfg):
    """The matrix before every step of a prune-to-one by ``prune_one``."""
    net = net_of(layer, nxt)
    m = build_saliency_matrix(layer, nxt, cfg)
    chain = [m]
    while m.n_live > 2:
        net, m, _ = prune_one(net, 0, m)
        chain.append(m)
    return chain


class TestDerivedCosts:
    CASES = {
        "all-equal": all_equal_layer,
        "duplicate-heavy": duplicate_heavy_layer,
        "seeded": seeded_pair_layer,
    }

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_argmin_live_equals_brute_force_tie_rule(self, case, cfg):
        for m in prune_one_chain(*self.CASES[case](21), cfg):
            assert m.argmin_live() == brute_force_argmin(m)

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_values_are_the_product_or_the_sentinel(self, case, cfg):
        for m in prune_one_chain(*self.CASES[case](22), cfg):
            n = m.n_original
            values = m.values
            assert values.shape == (n, n)
            assert not values.flags.writeable
            for i in range(n):
                for j in range(n):
                    if m.live[i] and m.live[j] and i != j:
                        assert values[i, j] == m.sim_sq[i, j] * m.mean_sq_out[j]
                    else:
                        assert values[i, j] == DIAGONAL_SENTINEL


def checked_lower_bounds(w, b, cfg):
    """The certified bounds of a layer, after checking them against the exact build."""
    layer = FcLayer(w, b, Activation.RELU)
    nxt = FcLayer(np.ones((1, len(b))), np.zeros(1), Activation.IDENTITY)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        exact = build_saliency_matrix(layer, nxt, cfg).sim_sq
    bounds = _sim_sq_lower_bounds(layer, cfg)
    off = ~np.eye(len(b), dtype=bool)
    assert np.all(bounds[off] <= exact[off])
    return bounds, exact


def near_twin_rows(seed, n, d, log_scale):
    """Rows 1e-6 from ``n // 4`` prototypes scaled by ``10**log_scale``.

    Every fifth row is an exact copy of the row before it.
    """
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(max(1, n // 4), d)) * 10.0**log_scale
    owner = rng.integers(len(protos), size=n)
    w = protos[owner] + rng.normal(scale=1e-6, size=(n, d))
    b = rng.uniform(0.5, 1.5, size=len(protos))[owner] + rng.normal(scale=1e-6, size=n)
    w[1::5], b[1::5] = w[0:-1:5], b[0:-1:5]
    return w, b


class TestCertifiedLowerBounds:
    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    @pytest.mark.parametrize("rows", [awkward_layer, near_twin_rows], ids=["awkward", "near-twin"])
    # Up to 8 rows a block holds one row; 9, 129 and 1000 rows take blocks of 2, 17 and 125.
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 129, 1000])
    def test_exactly_symmetric_and_never_above_the_exact_entry(self, cfg, rows, n):
        w, b = rows(n, n, 6, 0.0)
        if n == 1:
            bounds = _sim_sq_lower_bounds(FcLayer(w, b, Activation.RELU), cfg)
        else:
            bounds, _ = checked_lower_bounds(w, b, cfg)
        assert bounds.shape == (n, n)
        assert np.array_equal(bounds, bounds.T)

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 9),
        d=st.integers(1, 40),
        log_scale=st.floats(-6.0, 6.0),
    )
    def test_never_above_the_exact_entry(self, cfg, seed, n, d, log_scale):
        checked_lower_bounds(*awkward_layer(seed, n, d, log_scale), cfg)

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    @given(
        w=arrays(np.float64, (5, 3), elements=st.floats(-1e3, 1e3, allow_nan=False)),
        b=arrays(np.float64, 5, elements=st.floats(-1e3, 1e3, allow_nan=False)),
    )
    def test_never_above_the_exact_entry_on_arbitrary_rows(self, cfg, w, b):
        checked_lower_bounds(w, b, cfg)

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    @pytest.mark.parametrize("log_scale", [-300, -160, 160, 200, 300])
    def test_never_above_the_exact_entry_where_products_leave_the_range(self, cfg, log_scale):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            bounds, _ = checked_lower_bounds(*awkward_layer(3, 8, 5, log_scale), cfg)
        assert not np.isnan(bounds).any()

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    def test_tight_away_from_duplicates(self, cfg):
        rng = np.random.default_rng(26)
        w = rng.normal(size=(40, 300))
        bounds, exact = checked_lower_bounds(w, rng.normal(size=40), cfg)
        off = ~np.eye(40, dtype=bool)
        assert np.all(bounds[off] >= exact[off] * (1 - 1e-9))

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    def test_blocked_build_still_bounds(self, cfg, monkeypatch):
        monkeypatch.setattr(saliency, "_BLOCK_BYTES", 3 * 8 * 9)
        checked_lower_bounds(*awkward_layer(27, 9, 5, 0.0), cfg)

    def test_prune_loop_peak_holds_one_matrix_and_a_mask(self, monkeypatch):
        n = 512
        layer, nxt = seeded_pair_layer(28, n=n, d=16)
        net = net_of(layer, nxt)
        monkeypatch.setattr(saliency, "_BLOCK_BYTES", 1 << 16)
        policy = PrunePolicy(PolicyKind.SALIENCY_SURGERY)
        prune_layer(net_of(*seeded_pair_layer(28)), 0, 5, policy)  # one-time imports
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            prune_layer(net, 0, n - 1, policy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 1.125 * n * n * 8 + 8 * saliency._BLOCK_BYTES + 64 * n


class TestOnePairScorer:
    """A scalar row against a one-element index array skips the batch, bit for bit."""

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 9),
        d=st.integers(1, 40),
        log_scale=st.floats(-6.0, 6.0),
        zeros=st.booleans(),
        huge=st.booleans(),
    )
    def test_one_pair_equals_the_batch(self, cfg, seed, n, d, log_scale, zeros, huge):
        w, b = awkward_layer(seed, n, d, log_scale)
        if zeros:
            w[:2], b[:2] = 0.0, 0.0
        if huge:
            w[-2:] *= 1e160
            b[-2:] *= 1e160
        self.assert_one_pair_equals_the_batch(w, b, cfg)

    @pytest.mark.parametrize("cfg", [RAW, HEUR], ids=["raw", "heuristic"])
    def test_one_pair_equals_the_batch_on_many_pairs(self, cfg):
        # Some of these bias differences square differently under pow and
        # under a multiply, and the weight term keeps that last bit.
        rng = np.random.default_rng(52)
        b = rng.normal(size=200) * 10.0 ** rng.uniform(-3, 3, 200)
        self.assert_one_pair_equals_the_batch(rng.normal(size=(200, 1)), b, cfg)

    @staticmethod
    def assert_one_pair_equals_the_batch(w, b, cfg):
        n = len(b)
        rows = np.arange(n)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            score = saliency._pair_scorer(FcLayer(w, b, Activation.RELU), cfg)
            for a in range(n):
                batch = score(np.full(n, a), rows)
                for r in range(n):
                    one = score(a, np.array([r]))
                    assert one.shape == (1,) and one.tobytes() == batch[r : r + 1].tobytes()


class TestCertifiedColumnMinima:
    """Hand-set lower bounds, still below the exact entries, steer one column's scan.

    Column 0's exact squared similarities to rows 1, 2, 3 are 9, 4 and 41.
    """

    def costs_with_bounds(self, bounds):
        w = np.array([[1.0, 0.0], [1.0, 3.0], [1.0, 2.0], [5.0, 5.0]])
        layer = FcLayer(w, np.zeros(4), Activation.RELU)
        nxt = FcLayer(np.ones((1, 4)), np.zeros(1), Activation.IDENTITY)
        exact = build_saliency_matrix(layer, nxt, RAW).sim_sq
        costs = saliency._CertifiedCosts(layer, RAW)
        for (i, j), value in bounds.items():
            assert value <= exact[i, j]
            costs.sim_sq[i, j] = costs.sim_sq[j, i] = value
        return costs, exact

    @staticmethod
    def minima(costs, msq, live, cols):
        return costs.column_minima(msq, live, cols)

    def scan(self, costs, exact, live=(True, True, True, True), factor=0.75, cols=(0,)):
        live, msq, cols = np.array(live), np.full(4, factor), np.array(cols)
        scored, score = [], costs.score

        def recording(a, b):
            a, b = np.broadcast_arrays(a, b)
            scored.extend(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
            return score(a, b)

        costs.score = recording
        got = self.minima(costs, msq, live, cols)
        want = saliency._column_minima(exact, msq, live, cols)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        # Dead rows and the diagonal are never scored, and no pair is scored twice.
        assert all(a != b and live[a] and live[b] for a, b in scored)
        assert len(set(scored)) == len(scored)
        return got[0].tolist()

    def test_a_loose_bound_does_not_hide_the_minimum(self):
        costs, exact = self.costs_with_bounds({(0, 3): 0.0})
        assert self.scan(costs, exact) == [2]

    def test_an_equal_bound_at_a_smaller_index_is_scored(self):
        # Row 2's exact cost, 4 * 0.75, equals row 1's bounded cost.
        costs, exact = self.costs_with_bounds({(0, 1): 4.0, (0, 2): 0.0})
        assert self.scan(costs, exact) == [2]
        assert costs.exact[0, 1]

    def test_a_pair_scored_for_another_column_is_refreshed(self):
        # Column 2 scores (0, 2) first; column 0 then finds its bound stale.
        costs, exact = self.costs_with_bounds({(0, 3): 0.0, (0, 2): 0.5})
        assert self.scan(costs, exact, cols=(0, 2)) == [2, 1]

    def test_an_exact_entry_below_a_newly_scored_one_wins(self):
        # An earlier scan scored (0, 2); row 1's loose bound is picked and scored first.
        costs, exact = self.costs_with_bounds({(0, 1): 0.0})
        costs.sim_sq[0, 2] = costs.sim_sq[2, 0] = exact[0, 2]
        costs.exact[0, 2] = costs.exact[2, 0] = True
        assert self.scan(costs, exact) == [2]
        assert not costs.exact[0, 3]

    def test_dead_rows_are_never_scored(self):
        costs, exact = self.costs_with_bounds({(0, 1): 0.0})
        assert self.scan(costs, exact, live=(True, False, True, True)) == [2]
        assert not costs.exact[0, 1]

    def test_dead_rows_are_never_scored_when_live_costs_overflow(self):
        # Every live cost is inf, above the sentinel of the diagonal and the
        # dead row; the first live row still wins.
        costs, exact = self.costs_with_bounds({(0, 3): 0.0})
        with np.errstate(over="ignore"):
            assert self.scan(costs, exact, live=(True, False, True, True), factor=1e308) == [2]
        assert not costs.exact[0, 1]

    def test_bounds_that_all_overflow_score_only_the_first_live_row(self):
        costs, exact = self.costs_with_bounds({})
        with np.errstate(over="ignore"):
            assert self.scan(costs, exact, live=(True, False, True, True), factor=1e308) == [2]
        assert costs.exact[0, 2]
        assert not costs.exact[0, 1] and not costs.exact[0, 3]

    def test_a_column_with_no_other_live_row_scores_nothing(self):
        costs, exact = self.costs_with_bounds({})
        assert self.scan(costs, exact, live=(True, False, False, False)) == [0]
        assert not costs.exact[0, 1:].any()


class TestCertifiedColumnMinimum(TestCertifiedColumnMinima):
    """The same cases, each column rescanned on its own."""

    @staticmethod
    def minima(costs, msq, live, cols):
        found = [costs.column_minimum(msq, live, int(c)) for c in cols]
        return np.array([row for row, _ in found]), np.array([cost for _, cost in found])


class TestStorage:
    def test_build_peak_holds_one_matrix(self):
        n = 512
        layer, nxt = seeded_pair_layer(23, n=n, d=16)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            m = build_saliency_matrix(layer, nxt, HEUR)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.sim_sq.shape == (n, n)
        assert peak - base < 1.5 * n * n * 8

    def test_prune_one_shares_sim_sq_with_its_input(self):
        layer, nxt = seeded_pair_layer(24, n=6)
        m = build_saliency_matrix(layer, nxt, HEUR)
        _, m2, _ = prune_one(net_of(layer, nxt), 0, m)
        assert np.shares_memory(m2.sim_sq, m.sim_sq)

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_later_writes_to_the_input_do_not_reach_the_matrix(self, read_only_view):
        layer, nxt = seeded_pair_layer(25, n=6)
        m = build_saliency_matrix(layer, nxt, HEUR)
        source = np.array(m.sim_sq)
        given_sim_sq = source
        if read_only_view:
            given_sim_sq = source.view()
            given_sim_sq.setflags(write=False)
        m2 = type(m)(
            live=m.live,
            layer_index=m.layer_index,
            sim_sq=given_sim_sq,
            mean_sq_out=m.mean_sq_out,
        )
        before = m2.values.copy()
        source[:] = 7.0
        np.testing.assert_array_equal(m2.sim_sq, m.sim_sq)
        np.testing.assert_array_equal(m2.values, before)


    def test_an_asymmetric_sim_sq_is_rejected(self):
        layer, nxt = seeded_pair_layer(26, n=4)
        m = build_saliency_matrix(layer, nxt, HEUR)
        sim_sq = np.array(m.sim_sq)
        sim_sq[0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            type(m)(
                live=m.live,
                layer_index=m.layer_index,
                sim_sq=sim_sq,
                mean_sq_out=m.mean_sq_out,
            )


class TestContraction:
    def test_relu_hand_check(self):
        assert (max(3.0, 0.0) - max(-2.0, 0.0)) ** 2 <= (3.0 - (-2.0)) ** 2
        rep = verify_contraction(Activation.RELU, 100, 5.0, seed=3)
        assert rep.violations == 0

    def test_equal_points_are_the_boundary_case(self):
        rep = verify_contraction(Activation.SIGMOID, 1, 0.0, seed=0)
        assert rep.violations == 0

    def test_large_sample_zero_violations_both_activations(self):
        t0 = time.perf_counter()
        for act in (Activation.RELU, Activation.SIGMOID):
            rep = verify_contraction(act, 10**5, 20.0, seed=42)
            assert rep.n_samples == 10**5
            assert rep.violations == 0
            assert rep.max_squared_ratio <= 1.0 + 1e-12
        assert time.perf_counter() - t0 < 1.0

    def test_identity_activation_rejected(self):
        with pytest.raises(ValueError):
            verify_contraction(Activation.IDENTITY, 10, 1.0)


class TestOutputGapBound:
    def seeded_net(self, seed):
        rng = np.random.default_rng(seed)
        return Network(
            layers=(
                FcLayer(rng.normal(size=(8, 10)) / np.sqrt(10), rng.normal(0, 0.1, 8), Activation.RELU),
                FcLayer(rng.normal(size=(3, 8)) / np.sqrt(8), rng.normal(0, 0.1, 3), Activation.IDENTITY),
            ),
            input_dim=10,
        )

    def test_duplicate_pair_has_zero_gap_and_zero_cost_term(self):
        rng = np.random.default_rng(6)
        w1 = rng.normal(size=(4, 3))
        b1 = rng.normal(size=4)
        w1[1] = w1[0]
        b1[1] = b1[0]
        net = Network(
            layers=(
                FcLayer(w1, b1, Activation.RELU),
                FcLayer(rng.normal(size=(2, 4)), rng.normal(size=2), Activation.IDENTITY),
            ),
            input_dim=3,
        )
        samples = verify_bound(net, 0, 0, 1, rng.normal(size=(50, 3)))
        for s in samples:
            assert s.gap_sq <= 1e-28
            assert s.holds

    def test_zero_input_zero_bias_gap_is_zero(self):
        rng = np.random.default_rng(8)
        net = Network(
            layers=(
                FcLayer(rng.normal(size=(4, 3)), np.zeros(4), Activation.RELU),
                FcLayer(rng.normal(size=(2, 4)), np.zeros(2), Activation.IDENTITY),
            ),
            input_dim=3,
        )
        (s,) = verify_bound(net, 0, 0, 1, np.zeros((1, 3)))
        assert s.gap_sq == 0.0
        assert s.holds

    def test_seeded_nets_never_violate(self):
        rng = np.random.default_rng(123)
        for seed in range(5):
            net = self.seeded_net(seed)
            m = build_saliency_matrix(net.layers[0], net.layers[1], RAW)
            i, j = m.argmin_live()
            samples = verify_bound(net, 0, i, j, rng.normal(size=(1000, 10)))
            assert all(s.holds for s in samples)

    def test_gap_matches_direct_forward_difference(self):
        net = self.seeded_net(77)
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(10, 10))
        samples = verify_bound(net, 0, 2, 5, xs)
        merged = merge_neurons(net, 0, kept=2, removed=5)
        for s, x in zip(samples, xs):
            want = float(np.mean((forward(net, x) - forward(merged, x)) ** 2))
            assert s.gap_sq == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_deeper_layer_bound_uses_its_own_input(self):
        rng = np.random.default_rng(41)
        first = FcLayer(rng.normal(size=(6, 10)) / np.sqrt(10), rng.normal(0, 0.1, 6), Activation.RELU)
        inner, out = self.seeded_net(41).layers
        inner = FcLayer(inner.weights[:, :6], inner.bias, inner.activation)
        net = Network(layers=(first, inner, out), input_dim=10)
        xs = rng.normal(size=(20, 10))
        samples = verify_bound(net, 1, 2, 5, xs)
        eps = raw_difference(inner.weight_set(2), inner.weight_set(5))
        a_sq = mean_outgoing_square(out, 5)
        for s, x in zip(samples, xs):
            h = np.maximum(first.weights @ x + first.bias, 0.0)
            assert s.bound_value == pytest.approx(a_sq * eps * eps * (h @ h + 1.0), rel=1e-12)
            assert s.holds

    def test_heuristic_mode_rejected(self):
        net = self.seeded_net(0)
        with pytest.raises(ValueError):
            verify_bound(net, 0, 0, 1, np.zeros((1, 10)), cfg=HEUR)

    def test_inequality_chain_holds_samplewise(self):
        """The squared output gap factors through the inner-product form
        before the norm-product form; both directions must hold."""
        rng = np.random.default_rng(31)
        for seed in range(3):
            net = self.seeded_net(200 + seed)
            layer, nxt = net.layers
            i, j = 1, 4
            eps_vec = np.concatenate(
                [
                    layer.weights[i] - layer.weights[j],
                    [layer.bias[i] - layer.bias[j]],
                ]
            )
            a_sq = mean_outgoing_square(nxt, j)
            for x in rng.normal(size=(200, 10)):
                xb = np.concatenate([x, [1.0]])
                samples = verify_bound(net, 0, i, j, x[None, :])
                mid = a_sq * float(eps_vec @ xb) ** 2
                outer = a_sq * float(eps_vec @ eps_vec) * float(xb @ xb)
                assert samples[0].gap_sq <= mid + 1e-12 * max(mid, 1.0)
                assert mid <= outer + 1e-12 * max(outer, 1.0)


def test_sentinel_is_finite_maximum():
    assert DIAGONAL_SENTINEL == np.finfo(np.float64).max
    assert np.isfinite(DIAGONAL_SENTINEL)
