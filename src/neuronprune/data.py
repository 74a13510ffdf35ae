"""Desk-scale classification datasets: a synthetic generator and CSV ingestion.

The synthetic fixture draws Gaussian clusters around mutually orthogonal
class centers, flips a small fraction of labels for realism, and splits
60/20/20 into train/validation/test by a seeded permutation. Scale
defaults mirror a small tabular benchmark: a few thousand samples, a few
dozen features, two classes.

The buffered file opening of every reader here and in ``model_io`` lives
here too.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "make_blobs", "load_csv"]

_SPLITS = ("train", "val", "test")
# Train and validation shares of every split; test takes the rest.
_TRAIN_SHARE, _VAL_SHARE = 0.6, 0.2


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, integer labels, and a disjoint covering split."""

    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        features = np.array(self.features, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        if features.ndim != 2 or labels.ndim != 1 or len(features) != len(labels):
            raise ValueError("need an N x d feature matrix and N labels")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite (no missing values)")
        if labels.min(initial=0) < 0:
            raise ValueError("labels must be nonnegative class indices")
        splits = []
        for name in ("train_idx", "val_idx", "test_idx"):
            idx = np.array(getattr(self, name), dtype=np.int64)
            if idx.ndim != 1:
                raise ValueError(f"{name} must be a flat index array")
            splits.append(idx)
        # Sorted, a repeat sits next to its copy: np.unique's first call imports numpy.ma.
        joined = np.sort(np.concatenate(splits))
        if len(joined) != len(labels) or (joined[1:] == joined[:-1]).any():
            raise ValueError("splits must be disjoint and cover every sample")
        if joined.min(initial=0) < 0 or joined.max(initial=-1) >= len(labels):
            raise ValueError("split indices out of range")
        features.setflags(write=False)
        labels.setflags(write=False)
        for arr in splits:
            arr.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "train_idx", splits[0])
        object.__setattr__(self, "val_idx", splits[1])
        object.__setattr__(self, "test_idx", splits[2])

    @property
    def n_samples(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in _SPLITS:
            raise ValueError(f"unknown split {name!r}; expected one of {_SPLITS}")
        idx = getattr(self, f"{name}_idx")
        if len(idx) == 0:
            raise ValueError(f"{name} split is empty")
        return self.features[idx], self.labels[idx]


def _split_indices(n: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    n_train = int(_TRAIN_SHARE * n)
    n_val = int(_VAL_SHARE * n)
    if n_train == 0 or n_val == 0 or n_train + n_val >= n:
        raise ValueError("dataset too small for the requested split")
    return (
        np.sort(perm[:n_train]),
        np.sort(perm[n_train : n_train + n_val]),
        np.sort(perm[n_train + n_val :]),
    )


def make_blobs(
    n_samples: int = 4300,
    n_features: int = 57,
    n_classes: int = 2,
    separation: float = 4.0,
    label_noise: float = 0.02,
    seed: int = 0,
) -> Dataset:
    """Gaussian clusters around orthogonal centers, with optional label flips.

    Centers sit at radius ``separation / sqrt(2)`` along orthonormal
    directions, so every pair of centers is exactly ``separation`` apart
    in units of the within-cluster noise (which has unit variance).
    ``label_noise`` is the probability a label is replaced by a uniformly
    chosen different class.
    """
    if n_classes < 2 or n_classes > n_features:
        raise ValueError("need 2 <= n_classes <= n_features for orthogonal centers")
    if not 0.0 <= label_noise < 1.0:
        raise ValueError("label_noise must lie in [0, 1)")
    if separation <= 0:
        raise ValueError("separation must be positive")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(n_features, n_classes)))
    centers = basis.T * (separation / np.sqrt(2.0))
    labels = rng.integers(0, n_classes, n_samples)
    features = centers[labels] + rng.normal(size=(n_samples, n_features))
    observed = labels.copy()
    flip = rng.random(n_samples) < label_noise
    offsets = rng.integers(1, n_classes, n_samples)
    observed[flip] = (labels[flip] + offsets[flip]) % n_classes
    train_idx, val_idx, test_idx = _split_indices(n_samples, rng)
    return Dataset(
        features=features,
        labels=observed,
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
    )


# Read buffer of every model, trace and CSV reader here; a reader that
# takes a line at a time would make a read call every 8 KB by default.
_READ_BUFFER = 1 << 16


def _open_binary(path):
    """``path`` opened to read bytes, through the buffer every reader here shares."""
    return open(path, "rb", buffering=_READ_BUFFER)


def _numbered_lines(path):
    """``(line_number, line)`` for each line of a UTF-8 CSV, read one line at a time.

    Lines end where :func:`_loadtxt_lines` ends them and are numbered
    from 1 as it numbers them on the whole text: each chunk read ends at
    a ``\\n`` byte, which no other UTF-8 character contains and which
    ends any ``\\r\\n``, so no character or line end spans two chunks.
    A byte that is not UTF-8 raises ValueError at ``path:line``.
    """
    line_number = 0
    with _open_binary(path) as fh:
        for chunk in fh:
            try:
                lines = _loadtxt_lines(chunk.decode("utf-8"))
            except UnicodeDecodeError as exc:
                # the bad byte's line is the last one of the text before it plus one character
                line_number += len(_loadtxt_lines(chunk[: exc.start].decode("utf-8") + "?"))
                raise ValueError(
                    f"{path}:{line_number}: byte 0x{chunk[exc.start]:02x} is not utf-8 text"
                ) from None
            for line in lines:
                line_number += 1
                yield line_number, line


def _loadtxt_lines(text: str) -> list[str]:
    """``text`` split where ``np.loadtxt`` ends a line: at ``\\n``, ``\\r\\n`` or ``\\r`` only."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _rows(path, has_header: bool):
    """``(line_number, text)`` of each line ``np.loadtxt`` reads as a row.

    Line 1 is skipped under ``has_header``, ``#`` comments are cut, and
    lines left empty are skipped.
    """
    for line_number, line in _numbered_lines(path):
        text = line.split("#", 1)[0]
        if text and not (has_header and line_number == 1):
            yield line_number, text


def _bad_row(path, has_header: bool) -> str | None:
    """``path:line: problem`` for the first row ``load_csv`` refuses, or None.

    Rows are taken as :func:`_rows` gives them, less those of only
    whitespace, and fields split at commas.
    """
    width = None
    for line_number, text in _rows(path, has_header):
        text = text.strip()
        if not text:
            continue
        fields = text.split(",")
        if width is None:
            width = len(fields)
        if len(fields) != width:
            return f"{path}:{line_number}: expected {width} columns, found {len(fields)}"
        for column, field in enumerate(fields, start=1):
            try:
                value = float(field.replace("_", "x"))  # np.loadtxt takes no digit separators
            except ValueError:
                return f"{path}:{line_number}: column {column} is not a number: {field!r}"
            if column < width and not math.isfinite(value):
                return f"{path}:{line_number}: features must be finite (no missing values)"
        if not (value.is_integer() and 0 <= value < 2**63):
            label = field.strip()
            return f"{path}:{line_number}: label must be a nonnegative integer, found {label!r}"
    return None


def load_csv(
    path,
    has_header: bool = False,
    seed: int = 0,
    standardize: bool = True,
) -> Dataset:
    """Load a UTF-8, samples-by-rows CSV: feature columns first, integer label last.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``. Blank lines and ``#``
    comments are skipped, and a file with no other row fails as ``path:
    no data rows``. A row with the wrong column count, a cell that is not
    a number, a feature that is not finite, a label that is no
    nonnegative integer or a byte that is not UTF-8 fails as
    ``path:line: problem``.

    Splits are assigned by a seeded permutation. When ``standardize`` is
    set, features are shifted and scaled to zero mean and unit variance
    using statistics of the train split only, so no information leaks
    from validation or test rows into preprocessing.
    """
    with closing(_rows(path, has_header)) as rows:
        if next(rows, None) is None:  # np.loadtxt would warn, then return no rows
            raise ValueError(f"{path}: no data rows")
    try:
        raw = np.loadtxt(
            path, delimiter=",", skiprows=1 if has_header else 0, ndmin=2, encoding="utf-8"
        )
        labels = raw[:, -1]
        if raw.shape[1] < 2 or not (
            np.isfinite(raw[:, :-1]).all()
            and ((labels >= 0) & (labels < 2**63) & (labels == np.floor(labels))).all()
        ):
            raise ValueError("need rows of finite features and a nonnegative integer label")
    except ValueError as exc:  # a UnicodeDecodeError is a ValueError too
        raise ValueError(_bad_row(path, has_header) or f"{path}: {exc}") from None
    features, labels = raw[:, :-1], labels.astype(np.int64)
    rng = np.random.default_rng(seed)
    try:
        train_idx, val_idx, test_idx = _split_indices(len(labels), rng)
        if standardize:
            with np.errstate(over="raise"):
                mean = features[train_idx].mean(axis=0)
                std = features[train_idx].std(axis=0)
                features = (features - mean) / np.maximum(std, 1e-12)
        return Dataset(
            features=features,
            labels=labels,
            train_idx=train_idx,
            val_idx=val_idx,
            test_idx=test_idx,
        )
    except (ValueError, FloatingPointError) as exc:  # too few rows, or features too large to scale
        raise ValueError(f"{path}: {exc}") from None
