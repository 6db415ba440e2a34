"""Workload definitions: experiment config and corpus size.

Every workload is one batch job that a single caller runs in one process:
generate a corpus and a template bank from the seed, then run
``run_experiment`` (kind ``lopo``) or ``sweep`` (kind ``sweep``) on them.
The experiment config is fixed per workload; only the generated inputs
depend on the seed.  Why each workload exists is said once, in
``BENCHMARK.json``; ``WORKLOADS`` holds exactly the workloads declared there.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    "lopo-vmd": {
        "kind": "lopo",
        "patients": 8,
        "config": {
            "stride_s": 1, "ratio": "1:1", "model": "svm", "separation": "nnmf",
            "motion": "vmd", "normalization": "minmax",
        },
    },
    "sweep-stride": {
        "kind": "sweep",
        "axis": "stride",
        "patients": 4,
        "config": {
            "ratio": "1:1", "model": "rfc", "separation": "emd",
            "motion": "bandpass", "normalization": "minmax",
        },
    },
}

# Paths the smoke test runs that no declared workload measures.  The CNN
# trained for a few epochs on a few patients scores differently on every
# seed, so no quality bound holds for it at a size a run can afford.
SMOKE_ONLY: dict[str, dict] = {
    "lopo-cnn-emd": {
        "kind": "lopo",
        "patients": 4,
        "config": {
            "stride_s": 1, "ratio": "1:1", "model": "cnn", "separation": "emd",
            "motion": "bandpass", "normalization": "minmax", "cnn_epochs": 4,
        },
    },
}


def spec(name: str) -> dict:
    return WORKLOADS[name] if name in WORKLOADS else SMOKE_ONLY[name]
