#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the neuronprune pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload wide-layer --seed 0 --seconds 35 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``wide-layer``: a near-twin 256->1024->10 ReLU layer pruned to one
  neuron through the library API, then cut at the data-free cutoff.
* ``policy-compare``: ``train``, ``prune``, ``cutoff``, ``prune``,
  ``eval`` and ``compare`` through ``neuronprune.cli.main`` on a blobs CSV.

Everything runs in this one process, with the BLAS thread count pinned
before numpy is imported. Set-up (making the inputs and writing the input
files) runs at least three times and reports its median. The pipeline then
repeats until ``--seconds`` have passed (at least once) and every output is
checked after each repetition; timings are medians. ``policy-compare``'s
prune stage is short, so each of its repetitions is followed by a few more
timed prunes of the same model (``prune_repeats`` in ``inputs.SIZES``),
which must reproduce its outputs, and ``prune_s`` is the median over all
of them.

End-to-end metrics (``--trace 0``): ``setup_s``, ``wall_s`` (the whole
pipeline), ``prune_s`` (getting the traces and the pruned model) and
``peak_rss_mb`` (the process's resident high-water mark after set-up and
the first repetition). With ``--trace 1`` one more repetition runs with
every module boundary wrapped by :mod:`tracing`, and the per-layer metrics
of ``tracing.LAYER_METRICS`` are reported instead; its spans are written
to ``.perfbench_work/spans/``.

Standard output ends with two JSON lines. The first is the run record:
environment (numpy, BLAS build, threads, nproc), stage times, behaviour
numbers (removals, compression, logit change, test error), trace digests
and any failed checks. The last is the result:
``{"correct", "attempted", "failed", "metrics"}``. On the default seed the
trace digests must equal ``digests.json``, which holds the digests this
record printed when the benchmark was written.

The library is imported from ``src/`` next to this directory; without it
the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
# Set-up repeats at least MIN times and until SETUP_SECONDS have been spent
# (at most MAX times), so that a cheap set-up still gets a steady median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 3, 9, 2.0
DEFAULT_SEED = 0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "prune_s": "s",
    "peak_rss_mb": "MB",
}


def pin_blas_threads(threads: int) -> int | None:
    """Set OpenBLAS's thread count through its own API; returns the count read back.

    The environment variables set in ``main`` cover a fresh process; this
    also covers a process that loaded numpy earlier, such as the tests.
    Returns None when numpy's bundled OpenBLAS cannot be found.
    """
    import ctypes

    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, getter.restype = [ctypes.c_int], ctypes.c_int
                setter(threads)
                return getter()
    return None


def environment(blas_threads: int | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def verify(wl, case, out, out_dir, checks, references):
    """Check one repetition's outputs; a check that raises is one failed operation."""
    try:
        return wl.verify(case, out, out_dir, checks, references)
    except Exception as exc:  # missing or unreadable outputs: report, keep measuring
        checks.check("verify", False, f"{type(exc).__name__}: {exc}")
        return None


def prune_again(wl, case, out, out_dir, checks):
    """Time one more prune; returns None (and fails a check) if it raises."""
    try:
        return wl.prune_again(case, out, out_dir, checks)
    except Exception as exc:  # missing or unreadable outputs: report, keep measuring
        checks.check("prune again", False, f"{type(exc).__name__}: {exc}")
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool, size_name: str = "full"):
    """Run one workload; returns ``(result, record)`` as printed by ``main``."""
    import inputs
    import tracing
    import workloads

    blas_threads = pin_blas_threads(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    wl = workloads.WORKLOADS[workload]
    size = inputs.SIZES[size_name]
    references = None
    if size_name == "full" and seed == DEFAULT_SEED:
        references = json.loads((HERE / "digests.json").read_text())
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    checks = workloads.Checks()
    stages = defaultdict(list)
    try:
        setup_s = []
        while len(setup_s) < SETUP_MIN_REPEATS or (
            sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_MAX_REPEATS
        ):
            case = None  # free the previous inputs first, so peak memory holds one set
            gc.collect()
            start = time.perf_counter()
            case = wl.setup(seed, size, work / f"setup{len(setup_s)}")
            setup_s.append(time.perf_counter() - start)
        begin = time.perf_counter()
        repeat = 0
        while repeat == 0 or time.perf_counter() - begin < seconds:
            out_dir = work / f"run{repeat}"
            start = time.perf_counter()
            out = wl.run(case, out_dir)
            stages["wall_s"].append(time.perf_counter() - start)
            for key, value in out["times"].items():
                stages[key].append(value)
            behaviour = verify(wl, case, out, out_dir, checks, references)
            for _ in range(size["prune_repeats"] if wl.prune_again else 0):
                prune_s = prune_again(wl, case, out, out_dir, checks)
                if prune_s is not None:
                    stages["prune_s"].append(prune_s)
            if repeat == 0:
                # Later repetitions inherit the heap the first one left, so
                # the high-water mark is read once, after set-up and one.
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            digests = {p.name: workloads.sha256(p) for p in sorted(out_dir.glob("*.csv"))}
            shutil.rmtree(out_dir)
            repeat += 1
        medians = {key: statistics.median(values) for key, values in stages.items()}
        if trace:
            tracer = tracing.Tracer()
            out_dir = work / "traced"
            with tracing.instrument(tracer), tracer.span("bench.pipeline"):
                start = time.perf_counter()
                out = wl.run(case, out_dir)
                traced_wall = time.perf_counter() - start
            verify(wl, case, out, out_dir, checks, references)
            values = tracing.layer_metrics(tracer, traced_wall - medians["wall_s"])
            metrics = {
                k: {"value": values[k], "unit": unit}
                for k, (unit, _, _) in tracing.LAYER_METRICS.items()
            }
        else:
            values = {
                "setup_s": statistics.median(setup_s),
                "wall_s": medians["wall_s"],
                "prune_s": medians["prune_s"],
                "peak_rss_mb": peak_mb,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "env": environment(blas_threads),
        "repeats": repeat,
        "prune_samples": len(stages["prune_s"]),
        "setup_runs_s": setup_s,
        "stage_medians_s": medians,
        "behaviour": behaviour,
        "digests": digests,
        "computed_metrics": list(tracing.COMPUTED) if trace else [],
        "failures": checks.failures,
    }
    if trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps({"record": record, "spans": tracing.span_records(tracer)}))
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="neuronprune end-to-end benchmark")
    parser.add_argument(
        "--workload", required=True, choices=["wide-layer", "policy-compare"]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # Pin BLAS threads before numpy loads; 1 is within nproc everywhere.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "neuronprune" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import neuronprune

    if Path(neuronprune.__file__).resolve().parent != SRC / "neuronprune":
        print(f"error: imported neuronprune from {neuronprune.__file__}", file=sys.stderr)
        return 2

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
