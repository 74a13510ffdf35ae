"""Text serialization of networks, traces, curves, and cutoff reports."""

import hashlib
import json
import math
import os
import re
import struct
import threading
import tracemalloc
from unittest import mock

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
    PolicyKind,
    PrunePolicy,
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
    prune_layer,
    save_model,
)
import neuronprune.data
import neuronprune.model_io as model_io

from conftest import mutate

# A 2-2-1 network in format version 2: each value's big-endian float64 bits in hex.
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

# sha256 of the prune-to-one traces of random_net(0, (16, 64, 3)).
PINNED_TRACE_SHA256 = {
    PolicyKind.SALIENCY_SURGERY: "bcef28d2d26768299586562c9f6c4ee703d4f01f043bc1fda5195e22dadbf8d6",
    PolicyKind.SALIENCY_NO_SURGERY: "3578b360e3dc3acdb4485612f296f0525546c3e08195a29e37b47248a9869c05",
}


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
        PruneStep(removed=4, saliency=1.25e-3, kept=2),
        PruneStep(removed=0, saliency=np.pi),
        PruneStep(removed=1, saliency=0.1 + 0.2, kept=3),
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
        p.write_text(GOLDEN_221_V2 if damage is None else GOLDEN_221_V2.replace(damage, "bias"))
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


def read_through_fifo(tmp_path, data: bytes, read):
    """``read`` of a FIFO that a second thread fills with ``data``: a file with no size that cannot seek."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            try:
                fh.write(data)
            except BrokenPipeError:  # the reader stopped at a bad line
                pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestPipeInput:
    def test_a_model_loads_bit_exact_through_a_pipe(self, tmp_path):
        # Wider than a pipe's buffer and than one block of rows.
        net = random_net(7, (300, 1000, 3), Activation.RELU)
        p = tmp_path / "net.model"
        save_model(net, p)
        loaded = read_through_fifo(tmp_path, p.read_bytes(), load_model)
        for la, lb in zip(net.layers, loaded.layers, strict=True):
            assert la.activation is lb.activation
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    @pytest.mark.parametrize("n_in,n_out", [(2, 10**18), (10**10, 10**10)])
    def test_a_layer_too_large_to_hold_fails_at_its_header(self, tmp_path, n_in, n_out):
        # A pipe's size is unknown, so the allocation itself refuses the layer.
        text = GOLDEN_221_V2.replace("layer 0 relu 2 2", f"layer 0 relu {n_in} {n_out}")
        message = f"pipe:3: a layer of {n_out}x{n_in} weights does not fit in memory"
        with pytest.raises(ModelFormatError, match=f"{re.escape(message)}$"):
            read_through_fifo(tmp_path, text.encode(), load_model)

    def test_a_file_that_ends_in_the_rows_names_its_last_line(self, tmp_path):
        text = GOLDEN_221_V2[: GOLDEN_221_V2.index("3ff80000") + 8]
        with pytest.raises(ModelFormatError, match=r"pipe:5: file ended while reading weight row 1$"):
            read_through_fifo(tmp_path, text.encode(), load_model)

    def test_a_trace_imports_through_a_pipe(self, tmp_path):
        p = tmp_path / "t.csv"
        export_trace(sample_trace(), p)
        back = read_through_fifo(tmp_path, p.read_bytes(), lambda q: import_trace(q, n_original=6))
        assert back == sample_trace()


def reference_save_v2(net, path):
    """The writer ``save_model`` must match byte for byte: one
    ``struct.pack(">d", v).hex()`` per value, lines joined once at the end."""
    lines = ["neuronprune-model 2", f"layers {len(net.layers)}"]
    for index, layer in enumerate(net.layers):
        lines.append(f"layer {index} {layer.activation.value} {layer.n_in} {layer.n_out}")
        for row in layer.weights:
            lines.append(" ".join(struct.pack(">d", float(v)).hex() for v in row))
        lines.append("bias " + " ".join(struct.pack(">d", float(v)).hex() for v in layer.bias))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


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
        loaded = load_model(ours)
        for la, lb in zip(net.layers, loaded.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.bias.tobytes() == lb.bias.tobytes()


class TestGoldenFile:
    def test_save_reproduces_golden_bytes(self, tmp_path):
        src, out = tmp_path / "golden.model", tmp_path / "again.model"
        src.write_text(GOLDEN_221_V2)
        save_model(load_model(src), out)
        assert out.read_bytes() == GOLDEN_221_V2.encode("ascii")

    def test_minimal_model_loads_to_documented_layout(self, tmp_path):
        p = tmp_path / "tiny.model"
        p.write_text(GOLDEN_221_V2)
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
        # Every value has a fixed width, so a cut at any byte that drops
        # more than the final newline is caught.
        p = tmp_path / "full.model"
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

    @pytest.mark.parametrize("n_in,n_out", [
        (2, 10**11), (2, 10**18), (10**9, 1), (1, 10**9), (10**5, 10**5),
    ])
    def test_layer_too_large_to_hold_is_a_parse_error(self, tmp_path, n_in, n_out):
        # The reader allocates each layer's matrix from its header; a size no
        # file could back fails at that header, whatever memory the host has.
        p = tmp_path / "huge.model"
        p.write_text(GOLDEN_221_V2.replace("layer 0 relu 2 2", f"layer 0 relu {n_in} {n_out}"))
        need = 17 * n_in * n_out
        message = f"{p}:3: {n_out} rows of {n_in} values need {need} bytes; 184 are left"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            load_model(p)

    @pytest.mark.parametrize("end,left", [
        ("bfd0000000000000\n", 34),  # after row 0
        ("3ff80000", 42),  # inside a value of row 1
        ("4000000000000000", 67),  # before row 1's newline
    ])
    def test_a_file_that_ends_in_the_rows_fails_at_their_header(self, tmp_path, end, left):
        p = tmp_path / "cut.model"
        p.write_text(GOLDEN_221_V2[: GOLDEN_221_V2.index(end) + len(end)])
        message = f"{p}:3: 2 rows of 2 values need 68 bytes; {left} are left"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            load_model(p)

    def test_version_bump_is_a_distinct_error(self, tmp_path):
        p = tmp_path / "v9.model"
        p.write_text(GOLDEN_221_V2.replace("neuronprune-model 2", "neuronprune-model 9"))
        with pytest.raises(ModelVersionError):
            load_model(p)
        assert issubclass(ModelVersionError, ModelFormatError)

    @pytest.mark.parametrize("version", [1, 9])
    def test_version_error_names_the_readable_version(self, tmp_path, version):
        # Version 1, decimal values in the same layout, is refused at its header.
        p = tmp_path / f"v{version}.model"
        p.write_text("neuronprune-model %d\nlayers 2\nlayer 0 relu 2 2\n0.5 -0.25\n" % version)
        message = f"{p}:1: format version {version} unsupported (this reader handles 2)"
        with pytest.raises(ModelVersionError, match=f"^{re.escape(message)}$"):
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
        p.write_text(GOLDEN_221_V2.replace("neuronprune-model", "other-format"))
        message = f"{p}:1: not a neuronprune-model file"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            load_model(p)

    def test_row_count_mismatch_rejected(self, tmp_path):
        broken = GOLDEN_221_V2.replace("layer 0 relu 2 2", "layer 0 relu 2 3")
        p = tmp_path / "rows.model"
        p.write_text(broken)
        message = f"{p}:6: weight row 2: expected 2 values of 16 hex digits"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}"):
            load_model(p)

    def test_inconsistent_widths_rejected(self, tmp_path):
        broken = GOLDEN_221_V2.replace("layer 1 identity 2 1", "layer 1 identity 3 1").replace(
            "4008000000000000 bfe0000000000000", "4008000000000000 bfe0000000000000 0" + "0" * 15
        )
        p = tmp_path / "widths.model"
        p.write_text(broken)
        with pytest.raises(ModelFormatError, match=f"^{re.escape(f'{p}: inconsistent layers: ')}"):
            load_model(p)

    def test_trailing_content_rejected(self, tmp_path):
        p = tmp_path / "extra.model"
        p.write_text(GOLDEN_221_V2 + "leftover 1 2 3\n")
        message = f"{p}:10: unexpected content after the last layer"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
            load_model(p)

    def test_trailing_content_names_its_own_line(self, tmp_path):
        # A blank line after the last bias line is content too; it is line 10, not 9.
        p = tmp_path / "extra.model"
        p.write_text(GOLDEN_221_V2 + "\n")
        message = f"^{re.escape(str(p))}:10: unexpected content after the last layer$"
        with pytest.raises(ModelFormatError, match=message):
            load_model(p)

    @pytest.mark.parametrize("old,new,line,what", [
        ("layers 2", "layers +2", 2, "layer count: expected an integer, found '+2'"),
        ("layer 0 relu", "layer 0_0 relu", 3, "layer index: expected an integer, found '0_0'"),
        ("relu 2 2", "relu 02 2", 3, "n_in: expected an integer, found '02'"),
        ("model 2\n", "model 2\r\n", 1, "format version: expected an integer, found '2\\r'"),
    ], ids=["plus-sign", "underscore", "leading-zero", "carriage-return"])
    def test_header_integers_are_written_as_save_model_writes_them(
        self, tmp_path, old, new, line, what
    ):
        p = tmp_path / "ints.model"
        p.write_bytes(GOLDEN_221_V2.replace(old, new, 1).encode())
        with pytest.raises(ModelFormatError, match=f"^{re.escape(f'{p}:{line}: {what}')}$"):
            load_model(p)

    def test_errors_carry_file_and_line_context(self, tmp_path):
        p = tmp_path / "ctx.model"
        p.write_text(GOLDEN_221_V2.replace("bias 3fe8000000000000", "bias"))
        message = f"{p}:9: bias: expected 1 values of 16 hex digits"
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}"):
            load_model(p)


def random_trace(seed):
    """A valid trace of 1 to n - 1 steps on a layer of 3 to 7; some steps delete."""
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
        steps.append(PruneStep(removed=int(order[k]), saliency=saliency, kept=kept))
    return PruneTrace(layer_index=0, n_original=n, steps=tuple(steps))


class TestReaderFuzz:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 3), min_size=3, max_size=4),
        st.sampled_from(["truncate", "flip", "drop", "duplicate"]),
        st.integers(0, 10**6),
        st.integers(1, 255),
    )
    @settings(max_examples=400)
    def test_damaged_file_loads_or_names_its_path(
        self, tmp_path_factory, seed, sizes, kind, at, flip
    ):
        path = tmp_path_factory.mktemp("fuzz") / "damaged.model"
        save_model(random_net(seed, tuple(sizes)), path)
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


def relayout(text: bytes, kind: str, at: int) -> bytes:
    """``text`` in a layout ``save_model`` never writes; ``at``, reduced, picks the line."""
    if kind == "crlf":
        return text.replace(b"\n", b"\r\n")
    lines = text.splitlines(keepends=True)
    if kind == "blank":  # after the last line too
        lines.insert(at % (len(lines) + 1), b"\n")
    elif kind == "trailing spaces":
        at %= len(lines)
        lines[at] = lines[at].rstrip(b"\n") + b"  \n"
    elif kind == "tab":  # in place of the first space of a line that has one
        spaced = [k for k, line in enumerate(lines) if b" " in line]
        at = spaced[at % len(spaced)]
        lines[at] = lines[at].replace(b" ", b"\t", 1)
    else:  # uppercase hex digits on every weight row
        lines = [line.upper() if re.fullmatch(rb"[0-9a-f ]+\n", line) else line for line in lines]
    return b"".join(lines)


def first_changed_line(old: bytes, new: bytes) -> int:
    """The number of the first line of ``new`` that ``old`` does not have."""
    old_lines = old.splitlines(keepends=True)
    pairs = zip(old_lines, new.splitlines(keepends=True))
    return 1 + next((k for k, (a, b) in enumerate(pairs) if a != b), len(old_lines))


def recorded_blocks():
    """Patch ``next_rows`` to record the row count of each block it is asked for."""
    calls = []
    real = model_io._LineReader.next_rows

    def recording(self, count, width, first):
        calls.append(count)
        return real(self, count, width, first)

    return calls, mock.patch.object(model_io._LineReader, "next_rows", recording)


class TestBlockDecoding:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 7), min_size=3, max_size=4),
        st.sampled_from(["crlf", "blank", "trailing spaces", "tab", "upper"]),
        st.integers(0, 10**6),
        st.integers(1, 300),
    )
    @settings(max_examples=400)
    def test_another_layout_fails_at_the_first_line_it_changes(
        self, tmp_path_factory, seed, sizes, kind, at, block_bytes
    ):
        path = tmp_path_factory.mktemp("blocks") / "model.model"
        net = random_net(seed, tuple(sizes))
        with mock.patch.object(model_io, "_BLOCK_BYTES", block_bytes):  # several blocks a layer
            save_model(net, path)
            text = path.read_bytes()
            path.write_bytes(relayout(text, kind, at))
            if kind == "upper":  # fromhex takes uppercase digits
                loaded = load_model(path)
                for la, lb in zip(net.layers, loaded.layers):
                    assert la.weights.tobytes() == lb.weights.tobytes()
                    assert la.bias.tobytes() == lb.bias.tobytes()
            else:
                line = first_changed_line(text, path.read_bytes())
                with pytest.raises(ModelFormatError, match=f"^{re.escape(f'{path}:{line}: ')}"):
                    load_model(path)

    # 4 rows of 3 values a block: rows 0-3, 4-7 and 8-9 of layer 0 are on lines 4-13
    SMALL_BLOCKS = 17 * 3 * 4

    def test_a_last_block_shorter_than_the_rest_decodes_at_once(self, tmp_path):
        net = random_net(7, (3, 10, 2))
        p = tmp_path / "net.model"
        calls, recording = recorded_blocks()
        with mock.patch.object(model_io, "_BLOCK_BYTES", self.SMALL_BLOCKS), recording:
            save_model(net, p)
            loaded = load_model(p)
        # layer 1's rows of 10 values are longer than a block, so each is one
        assert calls == [4, 4, 2, 1, 1]
        for la, lb in zip(net.layers, loaded.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()

    def test_a_row_longer_than_a_block_is_a_block_of_its_own(self, tmp_path):
        width = model_io._BLOCK_BYTES // 17 + 1
        net = random_net(8, (width, 3, 2))
        p = tmp_path / "wide.model"
        save_model(net, p)
        calls, recording = recorded_blocks()
        with recording:
            loaded = load_model(p)
        assert calls == [1, 1, 1, 2]
        assert loaded.layers[0].weights.tobytes() == net.layers[0].weights.tobytes()

    @pytest.mark.parametrize("row,byte,problem", [
        (4, b"g", "weight row 4: not 16-digit hexadecimal values"),  # first in its block
        (5, b"g", "weight row 5: not 16-digit hexadecimal values"),  # in the middle
        (7, b"g", "weight row 7: not 16-digit hexadecimal values"),  # last
        (6, b"\xc3", "byte 0xc3 is not ascii text"),
    ])
    def test_a_bad_row_names_its_own_line(self, tmp_path, row, byte, problem):
        p = tmp_path / "net.model"
        with mock.patch.object(model_io, "_BLOCK_BYTES", self.SMALL_BLOCKS):
            save_model(random_net(7, (3, 10, 2)), p)
            lines = p.read_bytes().splitlines(keepends=True)
            lines[3 + row] = lines[3 + row][:20] + byte + lines[3 + row][21:]
            p.write_bytes(b"".join(lines))
            message = f"{p}:{4 + row}: {problem}"
            with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
                load_model(p)


# More digits than int() converts by default.
LONG_INT = "1" * 5000


def int_refusal(digits: str) -> str:
    """The message ``int()`` refuses ``digits`` with."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("int() converted more digits than its default limit")


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
                PruneStep(removed=1, saliency=0.5, kept=0),
                PruneStep(removed=0, saliency=0.7, kept=2),
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

    def test_import_names_its_path_when_steps_disagree(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("step,kept,removed,saliency,test_error\n1,2,4,0.5,\n2,2,4,0.5,\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: removed indices must be distinct$"):
            import_trace(p)

    @pytest.mark.parametrize("policy", [PolicyKind.SALIENCY_SURGERY, PolicyKind.SALIENCY_NO_SURGERY])
    def test_export_writes_the_pinned_bytes(self, tmp_path, policy):
        # Pinned digests: the layout export_trace writes must not drift.
        _, trace = prune_layer(random_net(0, (16, 64, 3)), 0, 63, PrunePolicy(policy))
        p = tmp_path / "t.csv"
        export_trace(trace, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == PINNED_TRACE_SHA256[policy]
        assert import_trace(p) == trace

    @pytest.mark.parametrize("text, line", [
        ("1,2,4,0.5,3.25\n", 2),  # a filled test_error
        ("1,2,4,0.5,\n\n2,,0,0.25,\n", 3),  # a blank line
        ("1,2,4,0.5,\n2,,0,0.25,\n\n", 4),  # a blank line after the last row
        ("1,2,4,0.5,\r\n", 2),
        ("1,2,4,0.5\x0b,\n", 2),
        ("1,2,4\x1c,0.5,\n", 2),
        ("1,2,4,0.5,\n2,,0,1_0,\n", 3),
        ("1,02,4,0.5,\n", 2),
        ("1,2,-4,0.5,\n", 2),
        ("1,2,4,Infinity,\n", 2),
    ])
    def test_another_layout_fails_at_its_line(self, tmp_path, text, line):
        p = tmp_path / "bad.csv"
        p.write_bytes(f"step,kept,removed,saliency,test_error\n{text}".encode())
        problem = "expected step,kept,removed,saliency and an empty test_error"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}:{line}: {problem}')}$"):
            import_trace(p)

    @pytest.mark.parametrize("text, line, problem", [
        ("1,2,4,0.5,\n3,,0,0.25,\n4,3,1,2.5,\n", 3, "step 3 is not the row's position 2"),
        ("1,2,4,0.5,\n2,,0,0.25\u2028,\n", 3, "byte 0xe2 is not ascii text"),
        ("1,2,4,0.5,\n2,,0,nan,\n", 3, "saliency must be nonnegative"),
        (f"1,{LONG_INT},4,0.5,\n", 2, int_refusal(LONG_INT)),
        (f"1,2,{LONG_INT},0.5,\n", 2, int_refusal(LONG_INT)),
    ], ids=["gapped-step", "line-separator", "nan", "long-kept", "long-removed"])
    def test_a_bad_row_names_its_problem(self, tmp_path, text, line, problem):
        p = tmp_path / "bad.csv"
        p.write_bytes(f"step,kept,removed,saliency,test_error\n{text}".encode())
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}:{line}: {problem}')}$"):
            import_trace(p)

    @pytest.mark.parametrize("text, problem", [
        ("", "file ended while reading the header"),
        ("\nstep,kept,removed,saliency,test_error\n", f"expected header {model_io.TRACE_HEADER!r}"),
        ("step,kept,removed,saliency,test_error\r\n", f"expected header {model_io.TRACE_HEADER!r}"),
    ], ids=["empty", "blank-line", "crlf"])
    def test_a_missing_header_fails_at_line_one(self, tmp_path, text, problem):
        p = tmp_path / "bad.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}:1: {problem}')}$"):
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
    steps = tuple(PruneStep(removed=k, saliency=s) for k, s in enumerate(sal))
    return PruneTrace(layer_index=0, n_original=7, steps=steps)


def write_and_read_json(report, tmp_path):
    p = tmp_path / "rep.json"
    export_report_json(report, p)
    return json.loads(p.read_text())


class TestReports:
    def test_json_report_matches_fields(self, tmp_path):
        rep = data_free_cutoff(small_full_trace())
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

    @pytest.mark.parametrize("rule", ["data-free", "data-driven"])
    def test_json_report_keys_are_fixed(self, tmp_path, rule):
        trace = small_full_trace()
        if rule == "data-free":
            rep = data_free_cutoff(trace)
        else:
            rep = data_driven_cutoff(trace, lambda s: float(s), budget=3, max_error_increase=1.0)
        payload = write_and_read_json(rep, tmp_path)
        assert set(payload) == {
            "method", "predicted_count", "cutoff_saliency", "warning", "evidence"
        }
