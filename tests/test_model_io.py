"""Text serialization of networks, traces, curves, and cutoff reports."""

import json
import re

import numpy as np
import pytest

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
    export_report,
    export_report_json,
    export_trace,
    forward_batch,
    import_trace,
    load_model,
    save_model,
)

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


class TestGoldenFile:
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
        save_model(net, p)
        text = p.read_text()
        # cuts at token or line boundaries; a cut inside a number's digits is
        # indistinguishable from a shorter literal in a plain text format
        cuts = (len(text) // 3, len(text) // 2, text.rfind(" "), text.rstrip().rfind("\n"))
        for cut in cuts:
            q = tmp_path / "cut.model"
            q.write_text(text[:cut])
            with pytest.raises(ModelFormatError):
                load_model(q)
        q = tmp_path / "empty.model"
        q.write_text("")
        with pytest.raises(ModelFormatError):
            load_model(q)

    def test_version_bump_is_a_distinct_error(self, tmp_path):
        p = tmp_path / "v9.model"
        p.write_text(GOLDEN_221.replace("neuronprune-model 1", "neuronprune-model 9"))
        with pytest.raises(ModelVersionError):
            load_model(p)
        assert issubclass(ModelVersionError, ModelFormatError)

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


class TestReports:
    def test_histogram_report_text(self, tmp_path):
        rep = data_free_cutoff(small_full_trace(), n_bins=5)
        p = tmp_path / "rep.txt"
        export_report(rep, p)
        text = p.read_text()
        assert "method: data-free" in text
        assert f"predicted_count: {rep.predicted_count}" in text
        assert "bin_edges:" in text
        assert "mode_bin:" in text

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sampled_report_text(self, tmp_path):
        rep = data_driven_cutoff(
            small_full_trace(), lambda s: 5.0 + (0.0 if s < 5 else 9.0), budget=5,
            max_error_increase=1.0,
        )
        p = tmp_path / "rep.txt"
        export_report(rep, p)
        text = p.read_text()
        assert "method: data-driven" in text
        assert "sample:" in text

    def test_json_report_matches_fields(self, tmp_path):
        rep = data_free_cutoff(small_full_trace(), n_bins=5)
        p = tmp_path / "rep.json"
        export_report_json(rep, p)
        payload = json.loads(p.read_text())
        assert payload["method"] == CutoffMethod.DATA_FREE.value
        assert payload["predicted_count"] == rep.predicted_count
        assert payload["cutoff_saliency"] == rep.cutoff_saliency
        assert payload["warning"] is None
