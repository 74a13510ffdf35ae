"""Desk-scale classification datasets: a synthetic generator and CSV ingestion.

The synthetic fixture draws Gaussian clusters around mutually orthogonal
class centers, flips a small fraction of labels for realism, and splits
into train/validation/test by a seeded permutation. Scale defaults mirror
a small tabular benchmark: a few thousand samples, a few dozen features,
two classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "make_blobs", "load_csv"]

_SPLITS = ("train", "val", "test")


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
        joined = np.concatenate(splits)
        if len(joined) != len(labels) or len(np.unique(joined)) != len(labels):
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
        return self.features[idx], self.labels[idx]


def _split_indices(n: int, fractions, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError("need three positive split fractions")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    perm = rng.permutation(n)
    n_train = int(fractions[0] * n)
    n_val = int(fractions[1] * n)
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
    fractions=(0.6, 0.2, 0.2),
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
    train_idx, val_idx, test_idx = _split_indices(n_samples, fractions, rng)
    return Dataset(
        features=features,
        labels=observed,
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
    )


def _numbered_lines(path, encoding: str = "ascii", error=ValueError):
    """``(line_number, line)`` for each line of ``path``, read one line at a time.

    Lines are split and numbered from 1 as ``str.splitlines`` does on the
    whole text: each chunk read ends at a ``\\n`` byte, which no other
    ASCII or UTF-8 character contains and which ends any ``\\r\\n``, so no
    character or separator spans two chunks. A byte ``encoding`` cannot
    decode raises ``error`` at ``path:line``.
    """
    line_number = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            try:
                lines = chunk.decode(encoding).splitlines()
            except UnicodeDecodeError as exc:
                # the bad byte's line is the last one of the text before it plus one character
                before = chunk[: exc.start].decode(encoding)
                line_number += len((before + "?").splitlines())
                raise error(
                    f"{path}:{line_number}: byte 0x{chunk[exc.start]:02x} is not {encoding} text"
                ) from None
            for line in lines:
                line_number += 1
                yield line_number, line


def _data_rows(path, has_header: bool):
    """``(line_number, fields)`` for each row ``np.loadtxt`` reads, in order.

    Lines count from 1 and include the header. Blank lines and ``#``
    comments are skipped, as ``np.loadtxt`` skips them.
    """
    with open(path) as fh:
        for line_number, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if (has_header and line_number == 1) or not text:
                continue
            yield line_number, text.split(",")


def _first_bad_line(path, has_header: bool) -> str | None:
    """``path:line: problem`` for the first row ``np.loadtxt`` cannot read, or None."""
    width = None
    for line_number, fields in _data_rows(path, has_header):
        if width is None:
            width = len(fields)
        if len(fields) != width:
            return f"{path}:{line_number}: expected {width} columns, found {len(fields)}"
        for column, field in enumerate(fields, start=1):
            try:
                float(field)
            except ValueError:
                return f"{path}:{line_number}: column {column} is not a number: {field!r}"
    return None


def _bad_label_line(path, has_header: bool, row: int) -> str | None:
    """``path:line: problem`` for data row ``row`` (from 0), whose label is no class index."""
    for k, (line_number, fields) in enumerate(_data_rows(path, has_header)):
        if k == row:
            label = fields[-1].strip()
            return f"{path}:{line_number}: label must be a nonnegative integer, found {label!r}"
    return None


def load_csv(
    path,
    has_header: bool = False,
    seed: int = 0,
    fractions=(0.6, 0.2, 0.2),
    standardize: bool = True,
) -> Dataset:
    """Load a samples-by-rows CSV: feature columns first, integer label last.

    Splits are assigned by a seeded permutation. When ``standardize`` is
    set, features are shifted and scaled to zero mean and unit variance
    using statistics of the train split only, so no information leaks
    from validation or test rows into preprocessing.
    """
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1 if has_header else 0, ndmin=2)
    except UnicodeDecodeError as exc:
        for _ in _numbered_lines(path, exc.encoding):
            pass  # raises at the first undecodable byte's line
        raise ValueError(f"{path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(_first_bad_line(path, has_header) or f"{path}: {exc}") from None
    if raw.shape[1] < 2:
        raise ValueError(f"{path}: need at least one feature column and a label column")
    features = raw[:, :-1]
    labels_raw = raw[:, -1]
    with np.errstate(invalid="ignore"):
        labels = labels_raw.astype(np.int64)
    bad = np.flatnonzero((labels != labels_raw) | (labels_raw < 0))
    if bad.size:
        raise ValueError(
            _bad_label_line(path, has_header, int(bad[0]))
            or f"{path}: label must be a nonnegative integer"
        )
    rng = np.random.default_rng(seed)
    try:
        train_idx, val_idx, test_idx = _split_indices(len(labels), fractions, rng)
        if standardize:
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
    except ValueError as exc:  # too few rows, or a feature that is not finite
        raise ValueError(f"{path}: {exc}") from None
