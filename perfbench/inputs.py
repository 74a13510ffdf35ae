"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and owned by the benchmark, so a change to
the library cannot change the inputs it is measured on. The library only
ever sees the files written from these arrays (or, for the data-free
workloads, the model file and nothing else).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Width presets. "full" is what the benchmark measures; "small" keeps every
# code path but finishes in seconds, for the benchmark's own tests.
SIZES = {
    "full": {
        "wide_in": 256,
        "wide_width": 1024,
        "wide_protos": 256,
        "wide_copies": 16,
        "probes": 2000,
        "blob_rows": 4300,
        "blob_features": 57,
        "blob_classes": 4,
        "hidden": 256,
        "epochs": 100,
        "budget": 24,
        # Extra timed prunes after each policy-compare repetition: prune_s
        # is the median of all of them, so its short prune gets as many
        # samples, spread over the run, as wide-layer's long one.
        "prune_repeats": 8,
    },
    "small": {
        "wide_in": 16,
        "wide_width": 32,
        "wide_protos": 8,
        "wide_copies": 4,
        "probes": 200,
        "blob_rows": 600,
        "blob_features": 12,
        "blob_classes": 4,
        "hidden": 16,
        "epochs": 10,
        "budget": 8,
        "prune_repeats": 1,
    },
}


@dataclass(frozen=True)
class DenseNet:
    """Layer arrays of a ReLU network whose last layer emits logits."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]


def near_twin_layer(rng, n_in: int, width: int, n_protos: int, n_copies: int, n_out: int = 10):
    """One ReLU layer of ``width`` rows drawn around ``n_protos`` prototypes.

    Each prototype gets ``width // n_protos`` rows with a small perturbation,
    so the layer is full of near-twins. In ``n_copies`` distinct prototype
    groups one row is then overwritten with an exact copy of a sibling, so
    the saliency matrix has exactly ``n_copies`` zero-cost pairs. Biases
    share one sign, which keeps the heuristic's relative bias term bounded.
    """
    group = width // n_protos
    protos = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_protos, n_in))
    proto_bias = rng.uniform(0.5, 1.5, size=n_protos)
    owner = rng.permutation(np.repeat(np.arange(n_protos), group))
    w1 = protos[owner] + rng.normal(0.0, 1e-3 / np.sqrt(n_in), size=(width, n_in))
    b1 = proto_bias[owner] + rng.normal(0.0, 1e-3, size=width)
    for proto in rng.choice(n_protos, size=n_copies, replace=False):
        source, target = np.flatnonzero(owner == proto)[:2]
        w1[target] = w1[source]
        b1[target] = b1[source]
    w2 = rng.normal(0.0, 1.0 / np.sqrt(width), size=(n_out, width))
    b2 = rng.normal(0.0, 0.1, size=n_out)
    return DenseNet((w1, w2), (b1, b2))


def probe_inputs(rng, n: int, dim: int) -> np.ndarray:
    return rng.normal(0.0, 1.0, size=(n, dim))


def blob_centers(rng, n_features: int, n_classes: int, separation: float = 4.0) -> np.ndarray:
    """Class centers on orthonormal directions, ``separation`` apart pairwise."""
    basis, _ = np.linalg.qr(rng.normal(size=(n_features, n_classes)))
    return basis.T * (separation / np.sqrt(2.0))


def blob_rows(rng, centers: np.ndarray, n: int, label_noise: float = 0.1):
    """Unit-variance Gaussian rows around the centers, with flipped labels."""
    n_classes, n_features = centers.shape
    labels = rng.integers(0, n_classes, n)
    features = centers[labels] + rng.normal(size=(n, n_features))
    flip = rng.random(n) < label_noise
    labels = np.where(flip, (labels + rng.integers(1, n_classes, n)) % n_classes, labels)
    return features, labels


def write_blobs_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    rows = [
        ",".join(format(v, ".17g") for v in row) + f",{int(y)}" for row, y in zip(features, labels)
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
