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

Values on a line are separated by single spaces. Only version 2 is read:
a file of any other version, the decimal version 1 included, fails at its
header line with :class:`ModelVersionError`. Weight rows are written, and
read back, a block of rows at a time; rows not exactly as
:func:`save_model` writes them are read one line at a time, so they load,
or fail at ``path:line``, as they always did.

Traces and curves stay decimal: floats are printed at 17 significant
digits, enough to reproduce any double exactly on reload. Cutoff
reports are JSON, whose floats reload exactly too.
The trace CSV header is exactly ``step,kept,removed,saliency,test_error``;
``kept`` is empty for steps without surgery and ``test_error`` is empty
when it was not measured.
"""

from __future__ import annotations

import binascii
import io
import json
import math
from collections import deque

import numpy as np

from .cutoff import CutoffReport, SaliencyHistogram
from .data import _chunk_lines, _numbered_lines, _open_binary
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


class ModelFormatError(ValueError):
    """Malformed model file; the message carries path and line number."""


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
    """A model file's ``(number, line)`` pairs, numbered as :func:`_numbered_lines` does.

    :meth:`next_line` takes the next non-blank line, stripped, and
    :meth:`next_rows` a block of weight rows at once; ``pos`` numbers the
    last line either took.
    """

    def __init__(self, path, fh):
        self.path = path
        self.fh = fh
        self.pos = 0
        self.taken = 0  # lines handed out so far
        self.split = deque()  # lines of the last raw line read, not yet handed out
        self.given_back = io.BytesIO()  # the text of a block that did not decode, to read again

    def _raw_line(self) -> bytes:
        """The next line as bytes, up to and with its b"\\n" (the file's last may have none)."""
        line = self.given_back.readline()
        if not line.endswith(b"\n"):  # a block that did not decode may end inside a line
            line += self.fh.readline()
        return line

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, str]:
        while not self.split:
            chunk = self._raw_line()
            if not chunk:
                raise StopIteration
            self.split.extend(_chunk_lines(self.path, chunk, self.taken, error=ModelFormatError))
        self.taken += 1
        return self.taken, self.split.popleft()

    def next_line(self, expect: str) -> str:
        for self.pos, line in self:
            line = line.strip()
            if line:
                return line
        raise ModelFormatError(f"{self.path}:{self.pos}: file ended while reading {expect}")

    def next_rows(self, count: int, width: int) -> np.ndarray | None:
        """The next ``count`` lines as rows of ``width`` values, decoded at once.

        Only lines exactly as :func:`save_model` writes them decode here;
        for any others this returns None and leaves them to :meth:`next_line`.
        """
        if self.split:
            return None
        # Each value is 16 hex digits and a space or, at a row's end, a newline.
        # The separators are compared here and the digits by the decoded length:
        # fromhex skips whitespace, which leaves fewer bytes.
        # Any text given back is read by now: rows are at least as long as it.
        size = 17 * width * count
        text = self.fh.read(size)
        values = b""
        separators = (b" " * (width - 1) + b"\n") * count
        if len(text) == size and text[16::17] == separators:
            try:
                values = bytes.fromhex(text.decode("ascii"))
            except ValueError:  # a byte that is not ascii, or not a hex digit
                pass
        if len(values) != 8 * width * count:
            self.given_back = io.BytesIO(text)
            return None
        self.taken += count
        self.pos = self.taken
        return np.frombuffer(values, dtype=">f8").reshape(count, width)

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
    try:
        return int(token)
    except ValueError:
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
    magic = reader.next_line("file magic").split()
    if len(magic) != 2 or magic[0] != MODEL_MAGIC:
        reader.fail(f"not a {MODEL_MAGIC} file")
    version = _parse_int(reader, magic[1], "format version")
    if version != MODEL_VERSION:
        raise ModelVersionError(
            f"{reader.path}:{reader.pos}: format version {version} unsupported"
            f" (this reader handles {MODEL_VERSION})"
        )
    header = reader.next_line("layer count").split()
    if len(header) != 2 or header[0] != "layers":
        reader.fail("expected 'layers <count>'")
    n_layers = _parse_int(reader, header[1], "layer count")
    if n_layers < 2:
        reader.fail("a network has at least two layers")
    tags = {a.value: a for a in Activation}
    layers = []
    for index in range(n_layers):
        parts = reader.next_line(f"layer {index} header").split()
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
        try:
            weights = np.empty((n_out, n_in))
        except (MemoryError, ValueError):  # ValueError: more bytes than an array can index
            reader.fail(f"a layer of {n_out}x{n_in} weights does not fit in memory")
        step = _rows_per_block(n_in)
        for lo in range(0, n_out, step):
            hi = min(lo + step, n_out)
            rows = reader.next_rows(hi - lo, n_in)
            if rows is not None:
                weights[lo:hi] = rows
                continue
            for k in range(lo, hi):
                what = f"weight row {k}"
                weights[k] = _parse_hex(reader, reader.next_line(what), n_in, what)
        weights.setflags(write=False)  # so FcLayer keeps this one copy
        bias_line = reader.next_line("bias line")
        if not bias_line.startswith("bias"):
            reader.fail("expected a 'bias' line after the weight rows")
        bias = _parse_hex(reader, bias_line[4:].strip(), n_out, "bias")
        try:
            layers.append(FcLayer(weights=weights, bias=bias, activation=tags[parts[2]]))
        except ValueError as exc:
            reader.fail(str(exc))
    for reader.pos, line in reader:
        if line.strip():
            reader.fail("unexpected content after the last layer")
    return layers


def export_trace(trace: PruneTrace, path) -> None:
    lines = [TRACE_HEADER]
    for k, step in enumerate(trace.steps):
        kept = "" if step.kept is None else str(step.kept)
        err = "" if trace.test_errors is None else _fmt(trace.test_errors[k])
        lines.append(f"{step.step_number},{kept},{step.removed},{_fmt(step.saliency)},{err}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def import_trace(path, layer_index: int = 0, n_original: int | None = None) -> PruneTrace:
    """Read a trace CSV back; the inverse of :func:`export_trace`.

    The CSV does not carry the layer index or the original layer width,
    so they are parameters. ``n_original`` defaults to the smallest width
    consistent with the file: one more than the number of steps, or one
    more than the largest neuron index mentioned, whichever is larger.
    For full prune-to-one traces that default is the true width.
    """
    lines = [(n, l) for n, l in _numbered_lines(path) if l.strip()]
    if not lines or lines[0][1] != TRACE_HEADER:
        raise ValueError(f"{path}:{lines[0][0] if lines else 1}: expected header {TRACE_HEADER!r}")
    steps = []
    errors = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 comma-separated fields")
        try:
            steps.append(
                PruneStep(
                    step_number=int(parts[0]),
                    kept=None if parts[1] == "" else int(parts[1]),
                    removed=int(parts[2]),
                    saliency=float(parts[3]),
                )
            )
            errors.append(None if parts[4] == "" else float(parts[4]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    have_errors = [e for e in errors if e is not None]
    if have_errors and len(have_errors) != len(errors):
        raise ValueError(f"{path}: test_error must be filled for all steps or none")
    if n_original is None:
        largest = max(
            (max(s.removed, -1 if s.kept is None else s.kept) for s in steps),
            default=0,
        )
        n_original = max(len(steps) + 1, largest + 1, 2)
    try:
        return PruneTrace(
            layer_index=layer_index,
            n_original=n_original,
            steps=tuple(steps),
            test_errors=tuple(have_errors) if have_errors else None,
        )
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
