"""Text serialization for networks, traces, reports, and error curves.

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

Values on a line are separated by single spaces. Version 1 files, the
same layout with decimal values, still load; only version 2 is written.

Traces, curves and reports stay decimal: floats are printed at 17
significant digits, enough to reproduce any double exactly on reload.
The trace CSV header is exactly ``step,kept,removed,saliency,test_error``;
``kept`` is empty for steps without surgery and ``test_error`` is empty
when it was not measured.
"""

from __future__ import annotations

import json

import numpy as np

from .cutoff import CutoffMethod, CutoffReport, SaliencyHistogram
from .data import _read_text
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
    "export_report",
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


def _hex_row(values: np.ndarray) -> str:
    """Each value's big-endian float64 bits as 16 hex digits, single spaces between."""
    return values.astype(">f8").tobytes().hex(" ", 8)


def save_model(net: Network, path) -> None:
    """Write ``net`` as a version-2 model file, one row at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION}\nlayers {len(net.layers)}\n")
        for index, layer in enumerate(net.layers):
            fh.write(f"layer {index} {layer.activation.value} {layer.n_in} {layer.n_out}\n")
            for row in layer.weights:
                fh.write(_hex_row(row) + "\n")
            fh.write("bias " + _hex_row(layer.bias) + "\n")


class _LineReader:
    def __init__(self, path, lines):
        self.path = path
        self.lines = lines
        self.pos = 0

    def next_line(self, expect: str) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        raise ModelFormatError(f"{self.path}:{self.pos}: file ended while reading {expect}")

    def fail(self, message: str):
        raise ModelFormatError(f"{self.path}:{self.pos}: {message}")


def _parse_floats(reader: _LineReader, line: str, count: int, what: str) -> np.ndarray:
    parts = line.split()
    if len(parts) != count:
        reader.fail(f"{what}: expected {count} values, found {len(parts)}")
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        reader.fail(f"{what}: not a decimal number")


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


# Row parser per readable format version.
_ROW_PARSERS = {1: _parse_floats, 2: _parse_hex}


def _parse_int(reader: _LineReader, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        reader.fail(f"{what}: expected an integer, found {token!r}")


def load_model(path) -> Network:
    """Parse a model file, validating structure before building anything."""
    reader = _LineReader(path, _read_text(path, "ascii", ModelFormatError).splitlines())
    magic = reader.next_line("file magic").split()
    if len(magic) != 2 or magic[0] != MODEL_MAGIC:
        reader.fail(f"not a {MODEL_MAGIC} file")
    version = _parse_int(reader, magic[1], "format version")
    parse_row = _ROW_PARSERS.get(version)
    if parse_row is None:
        readable = " and ".join(str(v) for v in _ROW_PARSERS)
        raise ModelVersionError(
            f"{path}:{reader.pos}: format version {version} unsupported"
            f" (this reader handles {readable})"
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
        rows = [
            parse_row(reader, reader.next_line(f"weight row {k}"), n_in, f"weight row {k}")
            for k in range(n_out)
        ]
        bias_line = reader.next_line("bias line")
        if not bias_line.startswith("bias"):
            reader.fail("expected a 'bias' line after the weight rows")
        bias = parse_row(reader, bias_line[4:].strip(), n_out, "bias")
        try:
            # FcLayer stacks the rows into one native float64 matrix itself
            layers.append(FcLayer(weights=rows, bias=bias, activation=tags[parts[2]]))
        except ValueError as exc:
            reader.fail(str(exc))
    if reader.pos < len(reader.lines) and any(l.strip() for l in reader.lines[reader.pos :]):
        reader.fail("unexpected content after the last layer")
    try:
        return Network(layers=tuple(layers), input_dim=layers[0].n_in)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: inconsistent layers: {exc}") from exc


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
    lines = [(n, l) for n, l in enumerate(_read_text(path).splitlines(), start=1) if l.strip()]
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
    return PruneTrace(
        layer_index=layer_index,
        n_original=n_original,
        steps=tuple(steps),
        test_errors=tuple(have_errors) if have_errors else None,
    )


def export_curve(curve, path) -> None:
    """Write (step, error) pairs as a two-column CSV."""
    lines = [CURVE_HEADER]
    for step, error in curve:
        lines.append(f"{int(step)},{_fmt(error)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _report_payload(report: CutoffReport) -> dict:
    payload = {
        "method": report.method.value,
        "predicted_count": report.predicted_count,
        "cutoff_saliency": report.cutoff_saliency,
        "fraction": report.fraction,
        "warning": report.warning,
    }
    if isinstance(report.evidence, SaliencyHistogram):
        payload["evidence"] = {
            "kind": "histogram",
            "bin_edges": [float(v) for v in report.evidence.bin_edges],
            "counts": [int(c) for c in report.evidence.counts],
            "mode_bin": report.evidence.mode_bin,
            "degenerate": report.evidence.degenerate,
        }
    else:
        payload["evidence"] = {
            "kind": "error-samples",
            "samples": [[int(s), float(e)] for s, e in report.evidence],
        }
    return payload


def export_report(report: CutoffReport, path) -> None:
    """Human-readable key-value summary of a cutoff recommendation."""
    lines = [
        f"method: {report.method.value}",
        f"predicted_count: {report.predicted_count}",
        f"cutoff_saliency: {_fmt(report.cutoff_saliency)}",
        f"fraction: {_fmt(report.fraction)}",
    ]
    if report.warning:
        lines.append(f"warning: {report.warning}")
    if isinstance(report.evidence, SaliencyHistogram):
        hist = report.evidence
        lines.append("evidence: histogram")
        lines.append("bin_edges: " + " ".join(_fmt(v) for v in hist.bin_edges))
        lines.append("counts: " + " ".join(str(int(c)) for c in hist.counts))
        lines.append(f"mode_bin: {hist.mode_bin}")
        lines.append(f"degenerate: {str(hist.degenerate).lower()}")
    else:
        lines.append("evidence: error-samples")
        for step, error in report.evidence:
            lines.append(f"sample: {int(step)} {_fmt(error)}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def export_report_json(report: CutoffReport, path) -> None:
    """Machine-readable twin of :func:`export_report`."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(_report_payload(report), fh, indent=2)
        fh.write("\n")
