"""Smoke test of the benchmark at a tiny size (2 patients, stride 9, 1 CNN epoch).

    python3 perfbench/smoke.py

Runs every workload path traced, and checks that its outputs pass, that the
trace arithmetic holds (self times >= 0, children inside their parents, self
times summing to the traced wall time) and that every per-layer metric is
reported.  It also breaks the feature matrix on purpose and checks that the
failures are counted rather than raised, checks that ``workloads.py`` defines
exactly the workloads ``BENCHMARK.json`` declares, and runs ``run.py`` once
to check its result line.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from rep import run_rep  # noqa: E402
from run import declared, declared_metrics  # noqa: E402
from workloads import SMOKE_ONLY, WORKLOADS  # noqa: E402

TINY = {"patients": 2, "stride_s": 9, "cnn_epochs": 1}


def check(cond: bool, msg: str) -> None:
    if not cond:
        sys.exit(f"smoke: FAILED: {msg}")


def check_workload(name: str) -> None:
    rep = run_rep(name, seed=0, trace=True, **TINY)
    check(not rep["problems"] and rep["failed"] == 0, f"{name}: {rep['problems']}")
    check(not rep["trace_problems"], f"{name}: {rep['trace_problems']}")
    missing = set(declared_metrics()[1]) - set(rep["layers"]) - {"trace.overhead_s"}
    check(not missing, f"{name}: per-layer metrics missing: {sorted(missing)}")
    check(rep["layers"]["models.fits"] == rep["patients"] * (9 if name == "sweep-stride" else 1),
          f"{name}: one model fit per fold")
    print(f"smoke: {name} ok  wall {rep['wall_s']:.2f} s  "
          f"ops {rep['attempted']}  stages {sorted(k for k, v in rep['layers']['stages'].items() if v)}")


def check_failures_are_counted() -> None:
    from earpipe import evaluation as ev

    original = ev.features_for_epochs
    ev.features_for_epochs = lambda epochs, fs: original(epochs, fs)[:, :-1]
    try:
        rep = run_rep("sweep-stride", seed=0, trace=False, **TINY)
    finally:
        ev.features_for_epochs = original
    folds = 2 * 9
    check(rep["attempted"] == 2 + folds and rep["failed"] == folds,
          f"347-column features should fail every fold: {rep['attempted']}, {rep['failed']}")
    print(f"smoke: broken features counted as {rep['failed']} failed of {rep['attempted']} ops")


def check_command() -> None:
    names = [w["name"] for w in declared()["workloads"]]
    check(sorted(names) == sorted(WORKLOADS), f"declared {names}, defined {sorted(WORKLOADS)}")
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "sweep-stride", "--seed", "0",
           "--seconds", "1", "--trace", "0", "--patients", "2"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    check(out.returncode == 0, f"run.py exited {out.returncode}: {out.stderr[-1000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
    check(result["correct"] and result["failed"] == 0, f"run.py result {result}")
    check(set(result["metrics"]) == set(declared_metrics()[0])
          and all(isinstance(m["value"], float) for m in result["metrics"].values()),
          f"metrics {result['metrics']}")
    print("smoke: run.py result line ok")


def main() -> None:
    for name in [*WORKLOADS, *SMOKE_ONLY]:
        check_workload(name)
    check_failures_are_counted()
    check_command()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
