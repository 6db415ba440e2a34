"""Repetitions of one workload in one fresh process; prints one JSON line.

    PYTHONPATH=src python3 perfbench/rep.py --workload lopo-vmd --seed 0 --seconds 60 --trace 0

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count set.  Repetitions run one after another
while another one is expected to fit in ``--seconds``; there is always at
least one.  Each generates the corpus and template bank from the seed
(``SETUP_REPEATS`` times, for the set-up time), runs the workload once and
checks its outputs.  With ``--trace 1`` untraced and traced repetitions
alternate.  The process's peak resident memory is reported once, after
the last repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Checker, Tracer, check_arithmetic, instrument, layer_metrics  # noqa: E402
from workloads import SMOKE_ONLY, WORKLOADS, spec  # noqa: E402

SETUP_REPEATS = 3


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def run_rep(name: str, seed: int, trace: bool, patients: int | None = None,
            stride_s: int | None = None, cnn_epochs: int | None = None) -> dict:
    """Set up, run and check one workload; the returned dict is JSON-ready."""
    from earpipe import corpus as ec
    from earpipe import evaluation as ev

    wl = spec(name)
    n = patients or wl["patients"]
    cfg_fields = dict(wl["config"])
    if stride_s is not None and "stride_s" in cfg_fields:
        cfg_fields["stride_s"] = stride_s
    if cnn_epochs is not None and "cnn_epochs" in cfg_fields:
        cfg_fields["cnn_epochs"] = cnn_epochs
    cfg = ev.ExperimentConfig(**cfg_fields)
    tracer = Tracer() if trace else None

    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with _span(tracer, "corpus.synth"):
            recordings = ec.make_synthetic_corpus(n, master_seed=seed)
        with _span(tracer, "corpus.templates"):
            bank = ec.train_corpus_templates(master_seed=seed)
        setup_s.append(time.perf_counter() - t0)

    checker = Checker(n)
    error = None
    with instrument(ev, checker, tracer):
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        try:
            if wl["kind"] == "lopo":
                result = ev.run_experiment(recordings, cfg, bank)
                accuracy, recall = result.macro["accuracy"], result.macro["recall"]
            else:
                rows = ev.sweep(recordings, cfg, wl["axis"], bank)
                accuracy = statistics.fmean(r["macro_accuracy"] for r in rows)
                recall = statistics.fmean(r["macro_recall"] for r in rows)
        except Exception:  # a failed run is counted and reported, never raised
            error = traceback.format_exc(limit=5)
            accuracy = recall = None
        wall_s = time.perf_counter() - t0

    n_values = len(ev.SWEEP_AXES[wl["axis"]]) if wl["kind"] == "sweep" else 1
    expected_ops = n + n * n_values
    attempted = max(expected_ops, checker.attempted)
    failed = checker.failed + (attempted - checker.attempted)
    out = {
        "workload": name, "seed": seed, "traced": trace, "patients": n,
        "config": cfg.to_dict(),
        "setup_s": statistics.median(setup_s), "setup_samples_s": setup_s,
        "wall_s": wall_s,
        "macro_accuracy": accuracy, "macro_recall": recall,
        "attempted": attempted, "failed": failed,
        "problems": checker.problems + ([error] if error else []),
    }
    if tracer is not None and error is None:
        root = tracer.spans[first_span]
        traced_wall = root["end"] - root["start"]
        layers = layer_metrics(tracer, root["id"])
        for part in ("synth", "templates"):
            layers[f"corpus.{part}_s"] = statistics.median(
                s["end"] - s["start"] for s in tracer.spans if s["name"] == f"corpus.{part}")
        out.update(wall_s=traced_wall, layers=layers, spans=tracer.spans,
                   trace_problems=check_arithmetic(tracer.spans, root["id"], traced_wall))
    return out


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def run_reps(name: str, seed: int, seconds: float, trace: bool,
             patients: int | None = None) -> list[dict]:
    """Repetitions while another is expected to fit in ``seconds``; at least one."""
    plan = (False, True) if trace else (False,)
    start, longest, reps = time.monotonic(), 0.0, []
    while True:
        for traced in plan:
            t0 = time.monotonic()
            reps.append(run_rep(name, seed, traced, patients))
            longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + len(plan) * longest > seconds:
            break
    for rep in reps[:-1]:  # only the last traced repetition keeps its spans
        rep.pop("spans", None)
    return reps


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted({**WORKLOADS, **SMOKE_ONLY}))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--patients", type=int)
    a = ap.parse_args()
    reps = run_reps(a.workload, a.seed, a.seconds, bool(a.trace), a.patients)
    print(json.dumps({
        "env": environment(a.seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "reps": reps,
    }))


if __name__ == "__main__":
    main()
