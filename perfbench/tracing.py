"""Timing spans and output checks around the calls ``earpipe.evaluation`` makes.

The program itself carries no tracing.  ``instrument`` temporarily replaces
the public functions that ``earpipe.evaluation`` imported into its own
namespace with thin wrappers, so every call the pipeline makes through that
module passes a wrapper.  A wrapper opens a span (traced runs only) and
hands the return value to observers: the ``Checker`` in every run, the
``Tracer`` counters in traced runs.  The originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

N_FEATURES = 348
MACRO_KEYS = ("accuracy", "precision", "recall", "specificity", "f1")

# evaluation-namespace name -> span name; the span prefix is the layer
SPAN_NAMES = {
    "sweep": "evaluation.sweep",
    "run_experiment": "evaluation.run_experiment",
    "prepare_recording": "evaluation.prepare_recording",
    "preprocess_recording": "preprocess.recording",
    "bandpass_filter": "preprocess.bandpass",
    "remove_motion_artifacts": "vmd.remove_motion_artifacts",
    "separate_recording_nnmf": "nnmf.separate_recording",
    "separate_recording_emd": "emd.separate_recording",
    "segment_recording": "features.segment",
    "balance_epochs": "features.balance",
    "features_for_epochs": "features.extract",
    "fit_normalizer": "features.normalize",
    "apply_normalizer": "features.normalize",
}

# ROADMAP's stage table, as groups of span names (self time is summed)
STAGES = (
    ("conditioning", ("preprocess.recording", "preprocess.bandpass")),
    ("vmd", ("vmd.remove_motion_artifacts",)),
    ("nnmf", ("nnmf.separate_recording",)),
    ("emd", ("emd.separate_recording",)),
    ("segmentation", ("features.segment",)),
    ("features", ("features.extract",)),
    ("balance+normalize", ("features.balance", "features.normalize")),
    ("fit", ("models.fit",)),
    ("predict", ("models.predict",)),
    ("evaluation (self)", ("evaluation.sweep", "evaluation.run_experiment",
                           "evaluation.prepare_recording")),
)


class Tracer:
    """Spans (name, start, end, parent) and layer counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.windows_seen: set[tuple[str, float]] = set()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    # -- counters, fed from the wrapped calls' arguments and return values --

    def on_motion(self, args, out) -> None:
        reports = out[1]
        self.counts["vmd.blocks"] += len(reports)
        self.counts["vmd.modes_excluded"] += sum(r.n_excluded for r in reports)
        self.counts["vmd.blocks_zeroed"] += sum(bool(r.excluded.all()) for r in reports)

    def on_separation(self, layer: str):
        def observe(args, out) -> None:
            mixed = sum(1 for role in args[0].channels if role.value.startswith("mixed"))
            self.counts[f"{layer}.channels"] += mixed
        return observe

    def on_segment(self, args, out) -> None:
        self.counts["features.windows_cut"] += len(out)

    def on_features(self, args, out) -> None:
        self.counts["features.rows"] += len(out)
        self.windows_seen.update((e.patient_id, e.start_s) for e in args[0])

    def on_fit(self, model):
        def observe(args, out) -> None:
            self.counts["models.fits"] += 1
            self.counts["models.fit_rows"] += len(args[0])
            support = getattr(model, "support_", None)
            if support is not None:
                self.counts["models.svm.support_vectors"] += len(support)
        return observe

    def on_predict(self, args, out) -> None:
        self.counts["models.predict_rows"] += len(args[0])


class Checker:
    """Counts operations (recordings prepared, folds scored) and failed checks.

    A failed check marks its operation failed; it never raises.
    """

    def __init__(self, n_patients: int) -> None:
        self.n_patients = n_patients
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._fold_bad: list[bool] = []
        self._features_bad = False

    def _fail(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)

    def on_prepared(self, args, rec) -> None:
        self.attempted += 1
        finite = all(np.isfinite(x).all() for x in rec.channels.values())
        if len(rec.channels) != 6 or not finite:
            self.failed += 1
            self._fail(f"{rec.patient_id}: separated channels not 6 finite tracks")

    def on_features(self, args, x) -> None:
        if x.ndim != 2 or x.shape[1] != N_FEATURES or not np.isfinite(x).all():
            self._features_bad = True
            self._fail(f"feature matrix {x.shape} not finite n x {N_FEATURES}")

    def on_confusion(self, args, metrics) -> None:
        """One call per fold, after its features: closes the fold."""
        self._fold_bad.append(self._features_bad)
        self._features_bad = False

    def on_experiment(self, args, result) -> None:
        flags, self._fold_bad = self._fold_bad, []
        rows = result.folds
        whole_ok = len(rows) == self.n_patients and _in_unit(result.macro.values())
        if not whole_ok:
            self._fail(f"{len(rows)} folds for {self.n_patients} patients, macro {result.macro}")
        for i, row in enumerate(rows):
            m = row["metrics"]
            ok = (whole_ok and not flags[i]
                  and m["tp"] + m["fp"] + m["tn"] + m["fn"] == row["n_test"]
                  and _in_unit(m[k] for k in MACRO_KEYS))
            self.attempted += 1
            if not ok:
                self.failed += 1
                self._fail(f"fold {row['patient']} failed its checks")


def _in_unit(values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


def _wrap(fn, name: str | None, tracer: Tracer | None, observers):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer is None or name is None:
            out = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                out = fn(*args, **kwargs)
        for observe in observers:
            observe(args, out)
        return out
    return wrapper


@contextlib.contextmanager
def instrument(ev, checker: Checker, tracer: Tracer | None = None):
    """Wrap the names in module ``ev`` (``earpipe.evaluation``) for one run.

    Untraced runs wrap only the four names the checks need.
    """
    observers = {
        "prepare_recording": [checker.on_prepared],
        "features_for_epochs": [checker.on_features],
        "confusion": [checker.on_confusion],
        "run_experiment": [checker.on_experiment],
    }
    if tracer is not None:
        for name in SPAN_NAMES:
            observers.setdefault(name, [])
        observers["features_for_epochs"].append(tracer.on_features)
        observers["remove_motion_artifacts"].append(tracer.on_motion)
        observers["separate_recording_nnmf"].append(tracer.on_separation("nnmf"))
        observers["separate_recording_emd"].append(tracer.on_separation("emd"))
        observers["segment_recording"].append(tracer.on_segment)
    originals = {name: getattr(ev, name) for name in observers}
    for name, fn in originals.items():
        setattr(ev, name, _wrap(fn, SPAN_NAMES.get(name), tracer, observers[name]))

    if tracer is not None:
        make_model = originals["make_model"] = ev.make_model

        @functools.wraps(make_model)
        def traced_make_model(*args, **kwargs):
            model = make_model(*args, **kwargs)
            model.fit = _wrap(model.fit, "models.fit", tracer, [tracer.on_fit(model)])
            model.predict = _wrap(model.predict, "models.predict", tracer, [tracer.on_predict])
            return model

        ev.make_model = traced_make_model
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(ev, name, fn)


# ---------------------------------------------------------------------------
# Trace arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    inside = {root_id}
    for s in spans:  # parents are always recorded before their children
        if s["parent"] in inside:
            inside.add(s["id"])
    return [s for s in spans if s["id"] in inside]


def check_arithmetic(spans: list[dict], root_id: int, wall_s: float) -> list[str]:
    """Self times >= 0, children inside parents, self times sum to the wall."""
    problems = []
    tree = subtree(spans, root_id)
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(tree)
    for s in tree:
        if selfs[s["id"]] < -1e-9:
            problems.append(f"span {s['name']} has negative self time {selfs[s['id']]}")
        p = by_id.get(s["parent"])
        if s["id"] != root_id and not (p["start"] <= s["start"] <= s["end"] <= p["end"]):
            problems.append(f"span {s['name']} leaves its parent {p['name']}")
    total = sum(selfs.values())
    if abs(total - wall_s) > 1e-9 * max(1.0, wall_s):
        problems.append(f"self times sum to {total!r}, traced wall is {wall_s!r}")
    return problems


def layer_metrics(tracer: Tracer, root_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (setup spans excluded)."""
    tree = subtree(tracer.spans, root_id)
    selfs = self_times(tree)
    by_name: dict[str, float] = defaultdict(float)
    for s in tree:
        by_name[s["name"]] += selfs[s["id"]]
    c = tracer.counts
    layer = lambda prefix: sum(v for k, v in by_name.items() if k.startswith(prefix + "."))

    out = {
        "preprocess.busy_s": layer("preprocess"),
        "preprocess.bandpass_s": by_name["preprocess.bandpass"],
        "vmd.busy_s": layer("vmd"),
        "vmd.blocks": c["vmd.blocks"],
        "vmd.modes_excluded": c["vmd.modes_excluded"],
        "vmd.blocks_zeroed": c["vmd.blocks_zeroed"],
        "nnmf.busy_s": layer("nnmf"),
        "nnmf.channels": c["nnmf.channels"],
        "emd.busy_s": layer("emd"),
        "emd.channels": c["emd.channels"],
        "features.segment_s": by_name["features.segment"],
        "features.windows_cut": c["features.windows_cut"],
        "features.busy_s": by_name["features.extract"],
        "features.rows": c["features.rows"],
        "features.unique_rows": float(len(tracer.windows_seen)),
        "features.balance_s": by_name["features.balance"],
        "features.normalize_s": by_name["features.normalize"],
        "models.fit_s": by_name["models.fit"],
        "models.predict_s": by_name["models.predict"],
        "models.fits": c["models.fits"],
        "models.fit_rows": c["models.fit_rows"],
        "models.predict_rows": c["models.predict_rows"],
        "models.svm.support_vectors": c["models.svm.support_vectors"],
        "evaluation.self_s": layer("evaluation"),
    }
    out["vmd.ms_per_block"] = _ratio(1e3 * out["vmd.busy_s"], out["vmd.blocks"])
    out["features.useful_ratio"] = _ratio(out["features.unique_rows"], out["features.rows"])
    out["features.ms_per_row"] = _ratio(1e3 * out["features.busy_s"], out["features.rows"])
    out["stages"] = {name: sum(by_name[n] for n in names) for name, names in STAGES}
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
