"""earpipe benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload lopo-vmd --seed 0 --seconds 60 --trace 0

Run it from the root of a checkout; it imports earpipe from that checkout's
``src``.  The repetitions run in one fresh process (``rep.py``), so peak
memory is the workload's own.  Repetitions continue while another one is
expected to fit in ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics: medians over the repetitions
of set-up time and wall time, the process's peak memory, the share of
operations that passed their checks, and the macro quality metrics (which
must repeat exactly for one seed).  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones,
the tracing overhead, and ROADMAP's stage table.  The last line of standard
output is the result JSON; the full record, with environment and spans, is
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_LIMIT_S = 170.0  # the whole run must end within 180 s


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = declared()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_child(args: argparse.Namespace) -> dict:
    """All repetitions in one fresh interpreter; a crash is returned as an error."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(min(args.seconds, CHILD_LIMIT_S)),
           "--trace", str(args.trace)]
    if args.patients is not None:
        cmd += ["--patients", str(args.patients)]
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=str(nproc), OMP_NUM_THREADS=str(nproc))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    # a one-off resized run (--patients) may take as long as it needs
    timeout = None if args.patients is not None else CHILD_LIMIT_S
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "repetitions exceeded the time limit"}
    if proc.returncode != 0 or not stdout.strip():
        return {"error": f"repetitions exited with {proc.returncode}: {stderr[-2000:]}"}
    return json.loads(stdout.strip().splitlines()[-1])


def summarize(args: argparse.Namespace, child: dict,
              metric_units: tuple[dict, dict]) -> tuple[dict, dict]:
    """(result line, full record) from the repetitions of one run."""
    reps = child.get("reps", [])
    problems = [child["error"]] if "error" in child else []
    for r in reps:
        problems += r["problems"] + r.get("trace_problems", [])
    quality = {(r["macro_accuracy"], r["macro_recall"]) for r in reps}
    if len(quality) > 1:
        problems.append(f"macro metrics differ between repetitions of one seed: {quality}")
    attempted = sum(r["attempted"] for r in reps) or 1
    failed = sum(r["failed"] for r in reps) + (attempted if not reps else 0)
    correct = bool(reps) and not problems and failed == 0

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if "layers" in r]

    def med(values: list) -> float | None:
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    end_to_end, per_layer = metric_units
    if args.trace:
        base = med([r["wall_s"] for r in plain])
        layers = [dict(r["layers"], **{"trace.overhead_s": None if base is None else r["wall_s"] - base})
                  for r in traced]
        values = {k: med([row[k] for row in layers]) for k in per_layer}
    else:
        values = {
            "setup_s": med([t for r in plain for t in r["setup_samples_s"]]),
            "wall_s": med([r["wall_s"] for r in plain]),
            "peak_rss_mb": child.get("peak_rss_mb"),
            "macro_accuracy": med([r["macro_accuracy"] for r in plain]),
            "macro_recall": med([r["macro_recall"] for r in plain]),
            "ops_ok_frac": 1.0 - failed / attempted,
        }
    metrics = {k: {"value": values.get(k), "unit": u}
               for k, u in (per_layer if args.trace else end_to_end).items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": WORKLOADS[args.workload],
        "env": child.get("env"),
        "ops_failed_frac": failed / attempted, "problems": problems,
        "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "spans": traced[-1]["spans"] if traced else [],
        "result": result,
    }
    return result, record


def print_report(record: dict) -> None:
    env = record["env"] or {}
    print(f"earpipe benchmark  workload={record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  repetitions={len(record['reps'])}")
    print("  env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for p in record["problems"]:
        print(f"  PROBLEM: {p.strip()}")
    for name, m in record["result"]["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<28} {value:>14} {m['unit']}")
    print(f"  {'ops_failed_frac':<28} {record['ops_failed_frac']:>14.6g} ratio")
    traced = [r for r in record["reps"] if r.get("layers")]
    if traced:
        stages = traced[-1]["layers"]["stages"]
        wall = traced[-1]["wall_s"]
        print(f"  stage table (self time of the last traced repetition, wall {wall:.3f} s):")
        for name, secs in stages.items():
            print(f"    {name:<20} {secs:>10.3f} s  {100 * secs / wall:6.1f} %")


def main() -> int:
    ap = argparse.ArgumentParser(description="earpipe benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in declared()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--patients", type=int,
                    help="one-off corpus size, not limited to 170 s (e.g. the 20-patient cross-check)")
    args = ap.parse_args()
    if not (ROOT / "src" / "earpipe" / "__init__.py").is_file():
        print(f"no earpipe sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    result, record = summarize(args, run_child(args), declared_metrics())
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
