"""Shared fixtures for the test suite.

The trained classification fixtures cost hundreds of SGD epochs each, so
they are built once per session and shared by every module that needs a
realistic pruning curve.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import neuronprune as npr

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# Two-class fixture: cheap enough for module-level behavioral checks.
MODULE_SEEDS = (0, 1, 2, 3, 4)
MODULE_DATA = dict(n_classes=2, separation=4.0, label_noise=0.02)
MODULE_TRAIN = dict(learning_rate=0.5, epochs=300, weight_decay=5e-3)

# Four-class fixture: harder task, used by the acceptance gate. The random
# baseline is averaged over three draws per seed to damp draw-to-draw noise.
ACCEPT_SEEDS = tuple(range(10))
ACCEPT_DATA = dict(n_classes=4, separation=4.0, label_noise=0.02)
ACCEPT_TRAIN = dict(learning_rate=0.5, epochs=400, weight_decay=5e-3)


@dataclasses.dataclass(frozen=True)
class PolicyRun:
    """One seed's trained net plus traces and error curves for every policy."""

    seed: int
    dataset: npr.Dataset
    network: npr.Network
    traces: dict
    curves: dict
    baseline_error: float


def _run_seed(seed, data_kw, train_kw, random_draws):
    ds = npr.make_blobs(seed=seed, **data_kw)
    net = npr.train(ds, npr.TrainConfig(seed=seed, **train_kw))
    random_seeds = [seed + 100 * offset for offset in range(random_draws)]
    traces, curves = npr.compare_policies(net, 0, ds, random_seeds)
    curves = {kind: dict(curve) for kind, curve in curves.items()}
    baseline = curves[npr.PolicyKind.SALIENCY_SURGERY][0]
    return PolicyRun(seed, ds, net, traces, curves, baseline)


def mean_curve(runs, kind):
    """Elementwise mean of one policy's error curve across seeds."""
    steps = sorted(runs[0].curves[kind])
    return {s: float(np.mean([r.curves[kind][s] for r in runs])) for s in steps}


@pytest.fixture(scope="session")
def module_runs():
    return tuple(_run_seed(s, MODULE_DATA, MODULE_TRAIN, 1) for s in MODULE_SEEDS)


@pytest.fixture(scope="session")
def acceptance_runs():
    return tuple(_run_seed(s, ACCEPT_DATA, ACCEPT_TRAIN, 3) for s in ACCEPT_SEEDS)


def awkward_layer(seed, n, d, log_scale):
    """Rows at one scale, with exact, one-ulp, scaled, negated and zero copies mixed in."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, d)) * 10.0**log_scale
    b = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
    for r in range(1, n):
        source = int(rng.integers(r))
        kind = rng.integers(6)
        if kind == 0:
            w[r], b[r] = w[source], b[source]
        elif kind == 1:
            w[r], b[r] = w[source], b[source]
            k = int(rng.integers(d))
            w[r, k] = np.nextafter(w[r, k], np.inf)
        elif kind == 2:
            c = rng.uniform(0.1, 10.0)
            w[r], b[r] = c * w[source], c * b[source]
        elif kind == 3:
            w[r], b[r] = -w[source], -b[source]
        elif kind == 4:
            w[r], b[r] = 0.0, 0.0
    return w, b


def mutate(text: bytes, kind: str, at: int, flip: int) -> bytes:
    """One damaged copy of a file: cut, one byte flipped, or one line dropped or repeated.

    ``at`` is reduced to a valid position.
    """
    if kind == "truncate":
        return text[: at % (len(text) + 1)]
    if kind == "flip":
        at %= len(text)
        return text[:at] + bytes([text[at] ^ flip]) + text[at + 1 :]
    lines = text.splitlines(keepends=True)
    at %= len(lines)
    if kind == "drop":
        return b"".join(lines[:at] + lines[at + 1 :])
    return b"".join(lines[: at + 1] + lines[at:])  # duplicate
