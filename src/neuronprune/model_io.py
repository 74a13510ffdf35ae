"""Text serialization for networks, traces, error curves and cutoff reports.

Everything is line-oriented ASCII, so files stay diffable and golden
examples can live in the test suite and the format documentation.

Model files (format version 2) write each weight as the 16 lowercase hex
digits of its IEEE-754 big-endian bit pattern, so a save/load round trip
is bit-exact by construction, a cut inside a value is detectable, and
reading a value costs a hex decode instead of a decimal parse. Layout::

    neuronprune-model 2
    layers <L>
    layer <index> <activation> <n_in> <n_out>
    <n_out lines of n_in values, one line per neuron>
    bias <n_out values>
    ... repeated per layer ...

The reader takes the layout :func:`save_model` writes and no other: each
line ends at ``\\n`` (the file's last may lack it), tokens and values are
separated by single spaces, and integers are written as ``str`` writes
them; only hex digits may also be uppercase. Any other layout, such as
``\\r\\n`` endings, blank lines, spaces after a line or tabs, fails at
``path:line`` of the first line it changes. Only version 2 is read: a
file of any other version, the decimal version 1 included, fails at its
header line with :class:`ModelVersionError`. Weight rows are written,
and read back, a block of rows at a time; a block that does not decode
is read again row by row, only to name its first bad line.

Traces and curves stay decimal: floats are printed at 17 significant
digits, enough to reproduce any double exactly on reload. Cutoff
reports are JSON, whose floats reload exactly too.
The trace CSV header is exactly ``step,kept,removed,saliency,test_error``;
row k's ``step`` is k, ``kept`` is empty for steps without surgery and
``test_error`` is always empty. The trace reader takes that layout and
no other, each line ending at ``\\n``, and fails at ``path:line`` otherwise.
"""

from __future__ import annotations

import binascii
import json
import math
import os
import re
import stat

import numpy as np

from .cutoff import CutoffReport, SaliencyHistogram
from .data import _open_binary
from .network import Activation, FcLayer, Network
from .pruning import PruneStep, PruneTrace

__all__ = [
    "ModelFormatError",
    "ModelVersionError",
    "MODEL_MAGIC",
    "MODEL_VERSION",
    "TRACE_HEADER",
    "CURVE_HEADER",
    "save_model",
    "load_model",
    "export_trace",
    "import_trace",
    "export_curve",
    "export_report_json",
]

MODEL_MAGIC = "neuronprune-model"
MODEL_VERSION = 2
TRACE_HEADER = "step,kept,removed,saliency,test_error"
CURVE_HEADER = "step,test_error"
# A trace row as export_trace writes it: integers as str writes them, kept
# empty without surgery, the saliency as _fmt writes it, test_error empty.
_TRACE_ROW = re.compile(r"([0-9]+),(0|[1-9][0-9]*|),(0|[1-9][0-9]*),([0-9a-z.+-]+),")


class ModelFormatError(ValueError):
    """Malformed model or trace file; the message carries path and line number."""


class ModelVersionError(ModelFormatError):
    """Model file declares a version this reader does not support."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# Text a block of weight rows may span, unless one row is longer; each
# block is written with one hex encode and read with one hex decode.
_BLOCK_BYTES = 1 << 18


def _rows_per_block(width: int) -> int:
    return max(1, _BLOCK_BYTES // (17 * width))


def _hex_rows(rows: np.ndarray) -> bytearray:
    """One line per row: each value's big-endian float64 bits as 16 hex digits, spaces between."""
    text = bytearray(binascii.hexlify(rows.astype(">f8").tobytes(), b" ", 8))
    text += b"\n"
    line = 17 * rows.shape[1]
    text[line - 1 :: line] = b"\n" * rows.shape[0]
    return text


def save_model(net: Network, path) -> None:
    """Write ``net`` as a version-2 model file, one block of rows at a time."""
    with open(path, "wb") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION}\nlayers {len(net.layers)}\n".encode())
        for index, layer in enumerate(net.layers):
            header = f"layer {index} {layer.activation.value} {layer.n_in} {layer.n_out}\n"
            fh.write(header.encode())
            step = _rows_per_block(layer.n_in)
            for lo in range(0, layer.n_out, step):
                fh.write(_hex_rows(layer.weights[lo : lo + step]))
            fh.write(b"bias " + _hex_rows(layer.bias[None]))


class _LineReader:
    """A file's lines, each ending at ``\\n``, numbered from 1.

    :meth:`next_line` takes one line, :meth:`lines` the rest and
    :meth:`next_rows` a block of weight rows; ``pos`` numbers the last
    line any took. :meth:`fail` raises :class:`ModelFormatError` at ``path:pos``.
    """

    def __init__(self, path, fh):
        self.path = path
        self.fh = fh
        self.pos = 0

    def _text(self, line: bytes) -> str:
        try:
            return line.decode("ascii")
        except UnicodeDecodeError as exc:
            self.fail(f"byte 0x{line[exc.start]:02x} is not ascii text")

    def next_line(self, expect: str) -> str:
        """The next line without its ``\\n``; the file's last line may lack one."""
        line = self.fh.readline()
        if not line:
            self.pos = max(self.pos, 1)  # an empty file ends in line 1
            self.fail(f"file ended while reading {expect}")
        self.pos += 1
        return self._text(line.removesuffix(b"\n"))

    def lines(self):
        """Each line left, as :meth:`next_line` gives it, up to the end of the file."""
        for line in self.fh:
            self.pos += 1
            yield self._text(line.removesuffix(b"\n"))

    def next_rows(self, count: int, width: int, first: int) -> np.ndarray:
        """Weight rows ``first`` to ``first + count - 1``, of ``width`` values, decoded at once.

        Each value is 16 hex digits and a space or, at a row's end, a
        ``\\n``. The separators are compared here and the digits by the
        decoded length: fromhex skips whitespace, which leaves fewer bytes.
        """
        size = 17 * width * count
        try:
            text = self.fh.read(size)
        except MemoryError:  # a width no file could back, declared by the layer header
            self.fail(f"a row of {width} values does not fit in memory")
        if len(text) == size and text[16::17] == (b" " * (width - 1) + b"\n") * count:
            try:
                values = bytes.fromhex(text.decode("ascii"))
            except ValueError:  # a byte that is not ascii, or not a hex digit
                values = b""
            if len(values) == 8 * width * count:
                self.pos += count
                return np.frombuffer(values, dtype=">f8").reshape(count, width)
        # Some line is not a row: read to the end of the line the block ended
        # in, and fail at the first bad one.
        lines = (text + self.fh.readline()).split(b"\n")
        tail = lines.pop()  # the file's last line when it lacks its \n
        for k, line in enumerate(lines[:count]):
            self.pos += 1
            _parse_hex(self, self._text(line), width, f"weight row {first + k}")
        self.pos += bool(tail)
        self.fail(f"file ended while reading weight row {first + len(lines)}")

    def fail(self, message: str):
        raise ModelFormatError(f"{self.path}:{self.pos}: {message}")


def _parse_hex(reader: _LineReader, line: str, count: int, what: str) -> np.ndarray:
    if len(line) != 17 * count - 1 or line[16::17] != " " * (count - 1):
        reader.fail(f"{what}: expected {count} values of 16 hex digits, single spaces between")
    try:
        raw = bytes.fromhex(line)
    except ValueError:
        raw = b""
    # fromhex also skips whitespace inside a digit group, which leaves fewer bytes
    if len(raw) != 8 * count:
        reader.fail(f"{what}: not 16-digit hexadecimal values")
    return np.frombuffer(raw, dtype=">f8")


def _parse_int(reader: _LineReader, token: str, what: str) -> int:
    """``token`` as an integer, if it is written as ``str`` writes that integer."""
    try:
        value = int(token)
    except ValueError:
        pass
    else:
        if str(value) == token:
            return value
    reader.fail(f"{what}: expected an integer, found {token!r}")


def load_model(path) -> Network:
    """Parse a model file, validating structure before building anything."""
    with _open_binary(path) as fh:
        layers = _read_layers(_LineReader(path, fh))
    try:
        return Network(layers=tuple(layers), input_dim=layers[0].n_in)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: inconsistent layers: {exc}") from exc


def _read_layers(reader: _LineReader) -> list[FcLayer]:
    """The layers of a model file, each checked on its own, up to the end of the file."""
    magic = reader.next_line("file magic").split(" ")
    if len(magic) != 2 or magic[0] != MODEL_MAGIC:
        reader.fail(f"not a {MODEL_MAGIC} file")
    version = _parse_int(reader, magic[1], "format version")
    if version != MODEL_VERSION:
        raise ModelVersionError(
            f"{reader.path}:{reader.pos}: format version {version} unsupported"
            f" (this reader handles {MODEL_VERSION})"
        )
    header = reader.next_line("layer count").split(" ")
    if len(header) != 2 or header[0] != "layers":
        reader.fail("expected 'layers <count>'")
    n_layers = _parse_int(reader, header[1], "layer count")
    if n_layers < 2:
        reader.fail("a network has at least two layers")
    tags = {a.value: a for a in Activation}
    layers = []
    for index in range(n_layers):
        parts = reader.next_line(f"layer {index} header").split(" ")
        if len(parts) != 5 or parts[0] != "layer":
            reader.fail("expected 'layer <index> <activation> <n_in> <n_out>'")
        declared = _parse_int(reader, parts[1], "layer index")
        if declared != index:
            reader.fail(f"layer index {declared} out of order (expected {index})")
        if parts[2] not in tags:
            reader.fail(f"unknown activation {parts[2]!r}")
        n_in = _parse_int(reader, parts[3], "n_in")
        n_out = _parse_int(reader, parts[4], "n_out")
        if n_in < 1 or n_out < 1:
            reader.fail("layer dimensions must be positive")
        info, need = os.fstat(reader.fh.fileno()), 17 * n_in * n_out
        # only a regular file knows the bytes left; a pipe cannot even tell()
        if stat.S_ISREG(info.st_mode) and need > (left := info.st_size - reader.fh.tell()):
            reader.fail(f"{n_out} rows of {n_in} values need {need} bytes; {left} are left")
        try:
            weights = np.empty((n_out, n_in))
        except (MemoryError, ValueError):  # a pipe's size is unknown; ValueError: too many bytes
            reader.fail(f"a layer of {n_out}x{n_in} weights does not fit in memory")
        step = _rows_per_block(n_in)
        for lo in range(0, n_out, step):
            hi = min(lo + step, n_out)
            weights[lo:hi] = reader.next_rows(hi - lo, n_in, lo)
        weights.setflags(write=False)  # so FcLayer keeps this one copy
        tag, _, values = reader.next_line("bias line").partition(" ")
        if tag != "bias":
            reader.fail("expected a 'bias' line after the weight rows")
        bias = _parse_hex(reader, values, n_out, "bias")
        try:
            layers.append(FcLayer(weights=weights, bias=bias, activation=tags[parts[2]]))
        except ValueError as exc:
            reader.fail(str(exc))
    if reader.fh.readline():
        reader.pos += 1
        reader.fail("unexpected content after the last layer")
    return layers


def export_trace(trace: PruneTrace, path) -> None:
    lines = [TRACE_HEADER]
    for number, step in enumerate(trace.steps, start=1):
        kept = "" if step.kept is None else str(step.kept)
        lines.append(f"{number},{kept},{step.removed},{_fmt(step.saliency)},")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def import_trace(path, layer_index: int = 0, n_original: int | None = None) -> PruneTrace:
    """Read a trace CSV back; the inverse of :func:`export_trace`.

    The CSV does not carry the layer index or the original layer width,
    so they are parameters. ``n_original`` defaults to the smallest width
    consistent with the file: one more than the number of steps, or one
    more than the largest neuron index mentioned, whichever is larger.
    For full prune-to-one traces that default is the true width. Only the
    layout :func:`export_trace` writes is read; any other fails at ``path:line``.
    """
    steps = []
    with _open_binary(path) as fh:
        reader = _LineReader(path, fh)
        if reader.next_line("the header") != TRACE_HEADER:
            reader.fail(f"expected header {TRACE_HEADER!r}")
        for number, line in enumerate(reader.lines(), start=1):
            row = _TRACE_ROW.fullmatch(line)
            if row is None:
                reader.fail("expected step,kept,removed,saliency and an empty test_error")
            if row[1] != str(number):
                reader.fail(f"step {row[1]} is not the row's position {number}")
            try:
                kept = int(row[2]) if row[2] else None
                steps.append(PruneStep(removed=int(row[3]), saliency=float(row[4]), kept=kept))
            except ValueError as exc:  # a field that does not convert, or a step PruneStep refuses
                reader.fail(str(exc))
    if n_original is None:
        n_original = 1 + max([1, len(steps)] + [max(s.removed, s.kept or 0) for s in steps])
    try:
        return PruneTrace(layer_index=layer_index, n_original=n_original, steps=tuple(steps))
    except ValueError as exc:  # steps that are fine alone but not together
        raise ValueError(f"{path}: {exc}") from None


def export_curve(curve, path) -> None:
    """Write (step, error) pairs as a two-column CSV."""
    lines = [CURVE_HEADER]
    for step, error in curve:
        lines.append(f"{int(step)},{_fmt(error)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_float(value: float):
    """``value`` as a JSON number, or as the string ``"inf"``, ``"-inf"`` or ``"nan"``."""
    value = float(value)
    return value if math.isfinite(value) else _fmt(value)


def export_report_json(report: CutoffReport, path) -> None:
    """Write a cutoff report as strict JSON (RFC 8259)."""
    evidence = report.evidence
    if isinstance(evidence, SaliencyHistogram):
        evidence = {
            "kind": "histogram",
            "bin_edges": [_json_float(v) for v in evidence.bin_edges],
            "counts": [int(c) for c in evidence.counts],
            "mode_bin": evidence.mode_bin,
            "degenerate": evidence.degenerate,
        }
    else:
        evidence = {
            "kind": "error-samples",
            "samples": [[int(s), _json_float(e)] for s, e in evidence],
        }
    payload = {
        "method": report.method.value,
        "predicted_count": report.predicted_count,
        "cutoff_saliency": _json_float(report.cutoff_saliency),
        "warning": report.warning,
        "evidence": evidence,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
