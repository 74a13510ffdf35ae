"""Text serialization of networks, traces, curves, and cutoff reports."""

import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuronprune import (
    Activation,
    CutoffMethod,
    FcLayer,
    ModelFormatError,
    ModelVersionError,
    Network,
    PruneStep,
    PruneTrace,
    data_driven_cutoff,
    data_free_cutoff,
    export_curve,
    export_report_json,
    export_trace,
    forward_batch,
    import_trace,
    load_model,
    save_model,
)
import neuronprune.data

from conftest import mutate

GOLDEN_221 = """\
neuronprune-model 1
layers 2
layer 0 relu 2 2
0.5 -0.25
1.5 2
bias 0.125 -1
layer 1 identity 2 1
3 -0.5
bias 0.75
"""

# GOLDEN_221 in format version 2: each value's big-endian float64 bits in hex.
GOLDEN_221_V2 = """\
neuronprune-model 2
layers 2
layer 0 relu 2 2
3fe0000000000000 bfd0000000000000
3ff8000000000000 4000000000000000
bias 3fc0000000000000 bff0000000000000
layer 1 identity 2 1
4008000000000000 bfe0000000000000
bias 3fe8000000000000
"""


def random_net(seed, sizes=(4, 6, 3), activation=Activation.SIGMOID):
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(sizes) - 1):
        act = Activation.IDENTITY if k == len(sizes) - 2 else activation
        layers.append(
            FcLayer(
                rng.normal(size=(sizes[k + 1], sizes[k])),
                rng.normal(size=sizes[k + 1]),
                act,
            )
        )
    return Network(layers=tuple(layers), input_dim=sizes[0])


def sample_trace():
    steps = (
        PruneStep(step_number=1, removed=4, saliency=1.25e-3, kept=2),
        PruneStep(step_number=2, removed=0, saliency=np.pi),
        PruneStep(step_number=3, removed=1, saliency=0.1 + 0.2, kept=3),
    )
    return PruneTrace(layer_index=0, n_original=6, steps=steps)


class TestModelRoundTrip:
    @pytest.mark.parametrize("seed,sizes,act", [
        (0, (4, 6, 3), Activation.SIGMOID),
        (1, (2, 9, 2), Activation.RELU),
        (2, (5, 7, 4, 3), Activation.SIGMOID),
    ])
    def test_weights_come_back_bitwise(self, tmp_path, seed, sizes, act):
        net = random_net(seed, sizes, act)
        p = tmp_path / "net.model"
        save_model(net, p)
        loaded = load_model(p)
        assert loaded.input_dim == net.input_dim
        assert len(loaded.layers) == len(net.layers)
        for la, lb in zip(net.layers, loaded.layers):
            assert la.activation is lb.activation
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_forward_outputs_identical_after_round_trip(self, tmp_path):
        net = random_net(3)
        p = tmp_path / "net.model"
        save_model(net, p)
        loaded = load_model(p)
        rng = np.random.default_rng(30)
        xs = rng.normal(size=(100, net.input_dim))
        np.testing.assert_array_equal(forward_batch(loaded, xs), forward_batch(net, xs))

    def test_save_again_is_byte_stable(self, tmp_path):
        net = random_net(4)
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        save_model(net, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestStreamingLoad:
    def test_peak_memory_stays_near_the_file_size(self, tmp_path):
        # Lines are read one at a time; holding the decoded text or a list of
        # all lines would take the peak to about twice the file size.
        p = tmp_path / "wide.model"
        save_model(random_net(6, (256, 2048, 3), Activation.RELU), p)
        tracemalloc.start()
        try:
            load_model(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * p.stat().st_size

    def test_each_layer_is_held_once(self, tmp_path):
        # Rows are decoded straight into the matrix the layer keeps; stacking
        # a list of parsed rows afterwards would hold every weight twice.
        net = random_net(6, (256, 2048, 3), Activation.RELU)
        p = tmp_path / "wide.model"
        save_model(net, p)
        tracemalloc.start()
        try:
            load_model(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * sum(layer.weights.nbytes for layer in net.layers)

    @pytest.mark.parametrize("damage", [None, "layer 1 identity 2 1"])
    def test_file_is_closed_when_the_load_returns_or_raises(self, tmp_path, monkeypatch, damage):
        p = tmp_path / "net.model"
        text = GOLDEN_221_V2 + "\n\n"
        p.write_text(text if damage is None else text.replace(damage, "bias"))
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(neuronprune.data, "open", recording_open, raising=False)
        if damage is None:
            assert load_model(p).input_dim == 2
        else:
            with pytest.raises(ModelFormatError):
                load_model(p)
        assert len(opened) == 1 and opened[0].closed


def _reference_lines(net, version, fmt):
    lines = [f"neuronprune-model {version}", f"layers {len(net.layers)}"]
    for index, layer in enumerate(net.layers):
        lines.append(f"layer {index} {layer.activation.value} {layer.n_in} {layer.n_out}")
        for row in layer.weights:
            lines.append(" ".join(fmt(v) for v in row))
        lines.append("bias " + " ".join(fmt(v) for v in layer.bias))
    return "\n".join(lines) + "\n"


def reference_save(net, path):
    """A format-version-1 writer: one ``format(v, ".17g")`` per value."""
    text = _reference_lines(net, 1, lambda v: format(float(v), ".17g"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def reference_save_v2(net, path):
    """The writer ``save_model`` must match byte for byte: one
    ``struct.pack(">d", v).hex()`` per value, lines joined once at the end."""
    text = _reference_lines(net, 2, lambda v: struct.pack(">d", float(v)).hex())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


class TestWriterBytes:
    SPECIAL = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.1125369292536007e-308,
        1e16, -1e16, 1.2345678901234567e16, 9007199254740993.0, 1e-16, 0.1, 1 / 3,
        1e308, -1.7976931348623157e308, 123456789.0, 1.5, -2.0,
    ]

    @pytest.mark.parametrize("seed,sizes", [
        (0, (4, 6, 3)), (1, (1, 1, 2)), (2, (5, 7, 4, 3)), (3, (37, 19, 5)),
    ])
    def test_matches_reference_writer(self, tmp_path, seed, sizes):
        net = random_net(seed, sizes)
        rng = np.random.default_rng(seed)
        layers = []
        for layer in net.layers:
            w = layer.weights * 10.0 ** rng.integers(-320, 300, size=layer.weights.shape)
            b = layer.bias * 10.0 ** rng.integers(-320, 300, size=layer.bias.shape)
            specials = rng.choice(self.SPECIAL, size=w.size)
            mask = rng.random(w.shape) < 0.3
            w[mask] = specials.reshape(w.shape)[mask]
            b[: len(self.SPECIAL)] = self.SPECIAL[: len(b)]
            layers.append(FcLayer(w, b, layer.activation))
        net = Network(layers=tuple(layers), input_dim=net.input_dim)
        ours, theirs = tmp_path / "ours.model", tmp_path / "ref.model"
        save_model(net, ours)
        reference_save_v2(net, theirs)
        assert ours.read_bytes() == theirs.read_bytes()
        v1 = tmp_path / "v1.model"
        reference_save(net, v1)
        for path in (ours, v1):
            loaded = load_model(path)
            for la, lb in zip(net.layers, loaded.layers):
                assert la.weights.tobytes() == lb.weights.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()


class TestGoldenFile:
    def test_save_reproduces_golden_bytes(self, tmp_path):
        # a version-1 file is rewritten as version 2; version 2 reproduces itself
        for golden in (GOLDEN_221, GOLDEN_221_V2):
            src, out = tmp_path / "golden.model", tmp_path / "again.model"
            src.write_text(golden)
            save_model(load_model(src), out)
            assert out.read_bytes() == GOLDEN_221_V2.encode("ascii")

    def test_both_versions_load_to_the_same_network(self, tmp_path):
        v1, v2 = tmp_path / "v1.model", tmp_path / "v2.model"
        v1.write_text(GOLDEN_221)
        v2.write_text(GOLDEN_221_V2)
        a, b = load_model(v1), load_model(v2)
        for la, lb in zip(a.layers, b.layers):
            assert la.activation is lb.activation
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.bias.tobytes() == lb.bias.tobytes()

    def test_minimal_model_loads_to_documented_layout(self, tmp_path):
        p = tmp_path / "tiny.model"
        p.write_text(GOLDEN_221)
        net = load_model(p)
        assert net.input_dim == 2
        first, out = net.layers
        assert first.activation is Activation.RELU
        # one text row per neuron, entries are that neuron's incoming weights
        np.testing.assert_array_equal(first.weights, [[0.5, -0.25], [1.5, 2.0]])
        np.testing.assert_array_equal(first.bias, [0.125, -1.0])
        np.testing.assert_array_equal(out.weights, [[3.0, -0.5]])
        np.testing.assert_array_equal(out.bias, [0.75])
        x = np.array([1.0, 2.0])
        hid = np.maximum(first.weights @ x + first.bias, 0.0)
        np.testing.assert_array_equal(forward_batch(net, x[None])[0], out.weights @ hid + out.bias)


class TestModelErrors:
    def test_truncated_file_is_a_parse_error(self, tmp_path):
        net = random_net(5)
        p = tmp_path / "full.model"
        reference_save(net, p)
        text = p.read_text()
        # version 1: cuts at token or line boundaries; a cut inside a number's
        # digits is indistinguishable from a shorter decimal literal
        cuts = (len(text) // 3, len(text) // 2, text.rfind(" "), text.rstrip().rfind("\n"))
        for cut in cuts:
            q = tmp_path / "cut.model"
            q.write_text(text[:cut])
            with pytest.raises(ModelFormatError):
                load_model(q)
        # version 2: every value has a fixed width, so a cut at any byte that
        # drops more than the final newline is caught
        save_model(random_net(5, (3, 2, 2), Activation.RELU), p)
        text = p.read_text()
        for cut in range(len(text.rstrip())):
            q = tmp_path / "cut.model"
            q.write_text(text[:cut])
            with pytest.raises(ModelFormatError, match=re.escape(f"{q}:")):
                load_model(q)
        q = tmp_path / "empty.model"
        q.write_text("")
        with pytest.raises(ModelFormatError):
            load_model(q)

    @pytest.mark.parametrize("n_out", [10**11, 10**18])
    def test_layer_too_large_to_hold_is_a_parse_error(self, tmp_path, n_out):
        # The reader allocates each layer's matrix from its header; a width no
        # file could back must still end in a path:line error, not a crash.
        p = tmp_path / "huge.model"
        p.write_text(GOLDEN_221_V2.replace("layer 0 relu 2 2", f"layer 0 relu 2 {n_out}"))
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(p))}:\\d+: "):
            load_model(p)

    def test_version_bump_is_a_distinct_error(self, tmp_path):
        p = tmp_path / "v9.model"
        p.write_text(GOLDEN_221.replace("neuronprune-model 1", "neuronprune-model 9"))
        with pytest.raises(ModelVersionError):
            load_model(p)
        assert issubclass(ModelVersionError, ModelFormatError)

    def test_version_error_names_both_readable_versions(self, tmp_path):
        for version, golden in ((1, GOLDEN_221), (2, GOLDEN_221_V2)):
            p = tmp_path / f"v{version}.model"
            p.write_text(golden)
            assert load_model(p).input_dim == 2
        p = tmp_path / "v9.model"
        p.write_text(GOLDEN_221_V2.replace("neuronprune-model 2", "neuronprune-model 9"))
        message = f"{p}:1: format version 9 unsupported (this reader handles 1 and 2)"
        with pytest.raises(ModelVersionError, match=re.escape(message)):
            load_model(p)

    @pytest.mark.parametrize("row,reason", [
        ("3fe0000000000000 bfd000000000000g", "not 16-digit hexadecimal"),
        ("3fe0000000000000 bfd0000000000000 0", "expected 2 values of 16 hex digits"),
        ("3fe000000000000 0bfd0000000000000", "expected 2 values of 16 hex digits"),
        ("3fe0000000000000  fd0000000000000", "not 16-digit hexadecimal"),
        ("3fe00000000000 0 bfd0000000000000", "not 16-digit hexadecimal"),
        ("3fe000000000000\t0 bfd0000000000000", "expected 2 values of 16 hex digits"),
        ("3fe00000000000\t\t bfd0000000000000", "not 16-digit hexadecimal"),
        ("0.5 -0.25", "expected 2 values of 16 hex digits"),
    ])
    def test_bad_hex_row_names_its_line(self, tmp_path, row, reason):
        p = tmp_path / "hex.model"
        p.write_text(GOLDEN_221_V2.replace("3fe0000000000000 bfd0000000000000", row))
        with pytest.raises(ModelFormatError, match=re.escape(f"{p}:4: weight row 0: {reason}")):
            load_model(p)

    def test_unknown_magic_rejected(self, tmp_path):
        p = tmp_path / "alien.model"
        p.write_text(GOLDEN_221.replace("neuronprune-model", "other-format"))
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_row_count_mismatch_rejected(self, tmp_path):
        broken = GOLDEN_221.replace("layer 0 relu 2 2", "layer 0 relu 2 3")
        p = tmp_path / "rows.model"
        p.write_text(broken)
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_inconsistent_widths_rejected(self, tmp_path):
        broken = GOLDEN_221.replace("layer 1 identity 2 1", "layer 1 identity 3 1").replace(
            "3 -0.5", "3 -0.5 1"
        )
        p = tmp_path / "widths.model"
        p.write_text(broken)
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_trailing_content_rejected(self, tmp_path):
        p = tmp_path / "extra.model"
        p.write_text(GOLDEN_221 + "leftover 1 2 3\n")
        with pytest.raises(ModelFormatError):
            load_model(p)

    def test_errors_carry_file_and_line_context(self, tmp_path):
        p = tmp_path / "ctx.model"
        p.write_text(GOLDEN_221.replace("bias 0.75", "bias"))
        with pytest.raises(ModelFormatError) as exc:
            load_model(p)
        assert "ctx.model" in str(exc.value)
        assert ":" in str(exc.value)


def random_trace(seed):
    """A valid trace of 1 to n - 1 steps on a layer of 3 to 7; some steps delete, some errors."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    order = rng.permutation(n)
    count = int(rng.integers(1, n))
    steps = []
    for k in range(count):
        survivors = order[k + 1 :]
        kept = None if rng.random() < 0.2 else int(rng.choice(survivors))
        saliency = float(rng.exponential() * 10.0 ** rng.integers(-8, 8))
        if rng.random() < 0.1:
            saliency = math.inf
        steps.append(
            PruneStep(step_number=k + 1, removed=int(order[k]), saliency=saliency, kept=kept)
        )
    errors = tuple(rng.uniform(0, 100, count)) if rng.random() < 0.5 else None
    return PruneTrace(layer_index=0, n_original=n, steps=tuple(steps), test_errors=errors)


class TestReaderFuzz:
    @given(
        st.sampled_from([1, 2]),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 3), min_size=3, max_size=4),
        st.sampled_from(["truncate", "flip", "drop", "duplicate"]),
        st.integers(0, 10**6),
        st.integers(1, 255),
    )
    @settings(max_examples=400)
    def test_damaged_file_loads_or_names_its_path(
        self, tmp_path_factory, version, seed, sizes, kind, at, flip
    ):
        path = tmp_path_factory.mktemp("fuzz") / "damaged.model"
        (save_model if version == 2 else reference_save)(random_net(seed, tuple(sizes)), path)
        path.write_bytes(mutate(path.read_bytes(), kind, at, flip))
        try:
            load_model(path)
        except ModelFormatError as exc:
            assert str(exc).startswith(f"{path}:")

    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["truncate", "flip", "drop", "duplicate"]),
        st.integers(0, 10**6),
        st.integers(1, 255),
    )
    @settings(max_examples=400)
    def test_damaged_trace_imports_or_names_its_path(
        self, tmp_path_factory, seed, width_known, kind, at, flip
    ):
        path = tmp_path_factory.mktemp("fuzz") / "damaged.csv"
        trace = random_trace(seed)
        export_trace(trace, path)
        path.write_bytes(mutate(path.read_bytes(), kind, at, flip))
        try:
            import_trace(path, n_original=trace.n_original if width_known else None)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")


class TestTraceCsv:
    def test_empty_trace_is_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        export_trace(PruneTrace(layer_index=0, n_original=4, steps=()), p)
        assert p.read_text() == "step,kept,removed,saliency,test_error\n"

    def test_three_steps_make_four_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        export_trace(sample_trace(), p)
        lines = p.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "step,kept,removed,saliency,test_error"
        # a deletion-only step leaves the kept column blank
        assert lines[2].startswith("2,,0,")

    def test_saliencies_survive_round_trip_exactly(self, tmp_path):
        p = tmp_path / "t.csv"
        tr = sample_trace()
        export_trace(tr, p)
        back = import_trace(p, n_original=6)
        assert back == tr

    def test_test_errors_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        tr = sample_trace().with_test_errors((3.25, 4.5, 11.0))
        export_trace(tr, p)
        back = import_trace(p, n_original=6)
        assert back == tr
        assert back.test_errors == (3.25, 4.5, 11.0)

    def test_import_infers_minimal_layer_width(self, tmp_path):
        p = tmp_path / "t.csv"
        # indices force a wider layer than step count alone would suggest
        export_trace(sample_trace(), p)
        back = import_trace(p)
        assert back.n_original == 5
        q = tmp_path / "compact.csv"
        compact = PruneTrace(
            layer_index=0,
            n_original=3,
            steps=(
                PruneStep(step_number=1, removed=1, saliency=0.5, kept=0),
                PruneStep(step_number=2, removed=0, saliency=0.7, kept=2),
            ),
        )
        export_trace(compact, q)
        assert import_trace(q).n_original == 3

    def test_import_of_header_only_file_gives_empty_trace(self, tmp_path):
        p = tmp_path / "empty.csv"
        export_trace(PruneTrace(layer_index=0, n_original=4, steps=()), p)
        back = import_trace(p)
        assert back.steps == ()
        assert len(back) == 0

    def test_import_rejects_foreign_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("step,removed,saliency\n1,0,0.5\n")
        with pytest.raises(ValueError):
            import_trace(p)

    def test_import_rejects_negative_kept_with_its_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("step,kept,removed,saliency,test_error\n1,-1,0,0.5,\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}:2:")):
            import_trace(p, n_original=4)

    @pytest.mark.parametrize("lines, problem", [
        (["1,2,4,0.5,", "1,2,4,0.5,"], "removed indices must be distinct"),
        (["2,2,4,0.5,", "1,2,0,0.6,"], "step numbers must be strictly increasing"),
    ])
    def test_import_names_its_path_when_steps_disagree(self, tmp_path, lines, problem):
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(["step,kept,removed,saliency,test_error", *lines]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {problem}$"):
            import_trace(p)

    def test_import_rejects_partial_error_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "step,kept,removed,saliency,test_error\n1,2,4,0.5,3.0\n2,,0,0.6,\n"
        )
        with pytest.raises(ValueError):
            import_trace(p)


class TestCurveCsv:
    def test_curve_rows(self, tmp_path):
        p = tmp_path / "curve.csv"
        export_curve([(0, 4.5), (1, 4.75), (2, 6.0)], p)
        lines = p.read_text().splitlines()
        assert lines[0] == "step,test_error"
        assert lines[1] == "0,4.5"
        assert len(lines) == 4


def small_full_trace():
    sal = [0.1, 0.1, 0.1, 0.1, 2.0, 3.0]
    steps = tuple(
        PruneStep(step_number=k + 1, removed=k, saliency=s) for k, s in enumerate(sal)
    )
    return PruneTrace(layer_index=0, n_original=7, steps=steps)


def write_and_read_json(report, tmp_path):
    p = tmp_path / "rep.json"
    export_report_json(report, p)
    return json.loads(p.read_text())


class TestReports:
    def test_json_report_matches_fields(self, tmp_path):
        rep = data_free_cutoff(small_full_trace(), n_bins=5)
        payload = write_and_read_json(rep, tmp_path)
        assert payload["method"] == CutoffMethod.DATA_FREE.value
        assert payload["predicted_count"] == rep.predicted_count
        assert payload["cutoff_saliency"] == rep.cutoff_saliency
        assert payload["warning"] is None
        assert payload["evidence"] == {
            "kind": "histogram",
            "bin_edges": rep.evidence.bin_edges.tolist(),
            "counts": rep.evidence.counts.tolist(),
            "mode_bin": rep.evidence.mode_bin,
            "degenerate": False,
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sampled_report_lists_its_samples(self, tmp_path):
        rep = data_driven_cutoff(
            small_full_trace(), lambda s: 5.0 + (0.0 if s < 5 else 9.0), budget=5,
            max_error_increase=1.0,
        )
        payload = write_and_read_json(rep, tmp_path)
        assert payload["method"] == CutoffMethod.DATA_DRIVEN.value
        assert payload["predicted_count"] == rep.predicted_count
        assert payload["evidence"]["kind"] == "error-samples"
        assert payload["evidence"]["samples"] == [[s, e] for s, e in rep.evidence]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rule", ["data-free", "data-driven"])
    def test_json_report_keys_are_fixed(self, tmp_path, rule):
        trace = small_full_trace()
        if rule == "data-free":
            rep = data_free_cutoff(trace, n_bins=5)
        else:
            rep = data_driven_cutoff(trace, lambda s: float(s), budget=3, max_error_increase=1.0)
        payload = write_and_read_json(rep, tmp_path)
        assert set(payload) == {
            "method", "predicted_count", "cutoff_saliency", "warning", "evidence"
        }
