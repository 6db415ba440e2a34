"""Command-line entry points for every pipeline stage.

``synth``, ``evaluate`` and ``sweep`` accept ``--config FILE`` (a JSON
object) whose keys match the command's flags; explicit flags override the
file.  Stage commands write recording directories, ``train-templates`` and
``train`` write containers, ``features`` and ``sweep`` write CSV, and
``evaluate`` and ``snr`` write JSON.  Failures print a machine-readable JSON
object to stderr and exit nonzero.  All randomness descends from ``--seed``
(``synth``, ``train-templates``, ``train``) or ``--master-seed``
(``evaluate``, ``sweep``), so a repeated invocation writes byte-identical
outputs.

Each command imports the pipeline modules it uses when it runs.  A worker
of the process pool that ``evaluate`` and ``sweep`` open starts by
importing this module again (the console script's ``__main__`` imports
it), and at module level it loads only ``earpipe.vmd`` and numpy, not
``scipy.signal`` and the rest of the package.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .vmd import MOTION_R_THRESHOLD

if TYPE_CHECKING:
    from .evaluation import ExperimentConfig


def _fail(exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 2


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("--config must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, keys: list[str]) -> dict:
    """File config overlaid with any explicitly set flags."""
    cfg = _load_config(getattr(args, "config", None))
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_corpus(path: str) -> list:
    from .io import load_recording

    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory {path} does not exist")
    dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not dirs:
        raise ValueError(f"no recordings under {path}")
    return [load_recording(p) for p in dirs]


def _provenance(cfg: dict) -> dict:
    return {"tool": "earpipe", "version": __version__, "config": cfg}


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    from .io import save_recording
    from .signals import SynthComponent, SynthesisSpec, synthesize_recording

    cfg = _merged(args, ["duration_s", "patient_id", "seed"])
    comps = [SynthComponent(**c) for c in cfg.pop("components", [])]
    spec = SynthesisSpec(
        duration_s=float(cfg.get("duration_s", 60.0)),
        components=tuple(comps),
        patient_id=str(cfg.get("patient_id", "synthetic")),
        seed=int(cfg.get("seed", 0)),
    )
    rec = synthesize_recording(spec)
    save_recording(rec, args.out, payload=args.payload)
    print(f"wrote {rec.duration_s:.1f} s recording to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    from .io import load_recording, save_recording
    from .preprocess import PreprocessConfig, preprocess_recording

    rec = load_recording(args.input)
    band = tuple(args.bandpass) if args.bandpass else None
    cfg = PreprocessConfig(
        mains_hz=args.mains_hz,
        notch_q=args.notch_q,
        outlier_sigma=args.outlier_sigma,
        bandpass_hz=band,
    )
    save_recording(preprocess_recording(rec, cfg), args.out, payload=args.payload)
    print(f"preprocessed recording written to {args.out}")
    return 0


def cmd_denoise(args) -> int:
    from .evaluation import ExperimentConfig, screen_motion
    from .io import load_recording, save_recording

    cfg = ExperimentConfig(motion_threshold=args.threshold)
    cleaned, by_channel = screen_motion(load_recording(args.input), cfg).join()
    save_recording(cleaned, args.out, payload=args.payload)
    reports = [r for blocks in by_channel.values() for r in blocks]
    excluded = sum(r.n_excluded for r in reports)
    capped = sum(not r.converged for r in reports)
    zeroed = sum(bool(r.excluded.all()) for r in reports)
    print(f"dropped {excluded} motion-correlated modes; "
          f"{capped} of {len(reports)} blocks hit the VMD iteration cap; "
          f"{zeroed} of {len(reports)} blocks zeroed; wrote {args.out}")
    return 0


def cmd_separate(args) -> int:
    from .evaluation import separate_sources
    from .io import load_recording, save_recording
    from .nnmf import load_templates

    rec = load_recording(args.input)
    templates = load_templates(args.templates) if args.templates else None
    save_recording(separate_sources(rec, args.method, templates), args.out, payload=args.payload)
    print(f"separated recording ({args.method}) written to {args.out}")
    return 0


def cmd_train_templates(args) -> int:
    from .corpus import template_sources
    from .io import load_recording
    from .nnmf import NnmfConfig, save_templates, train_templates

    if args.synthetic:
        sources = template_sources(master_seed=args.seed)
        fs = 250.0
    else:
        missing = [n for n in ("eeg", "emg", "eog") if getattr(args, n) is None]
        if missing:
            raise ValueError(f"provide --{', --'.join(missing)} or use --synthetic")
        recs = {n: load_recording(getattr(args, n)) for n in ("eeg", "emg", "eog")}
        rates = {n: r.sample_rate for n, r in recs.items()}
        if len(set(rates.values())) > 1:
            named = ", ".join(f"{n} {rate:g} Hz" for n, rate in rates.items())
            raise ValueError(f"template sources have different sample rates ({named}); "
                             "resample them to one rate first")
        fs = rates["eeg"]
        sources = {n: r.channel_matrix()[0] for n, r in recs.items()}
    bank, history = train_templates(sources, fs, cfg=NnmfConfig(seed=args.seed))
    save_templates(bank, args.out)
    final = {m: h[-1] for m, h in history.items()}
    print(f"templates written to {args.out}; final divergences {final}")
    return 0


def cmd_features(args) -> int:
    from .features import WindowSpec, feature_names, features_for_epochs, segment_recording
    from .io import load_recording

    rec = load_recording(args.input)
    epochs = segment_recording(rec, WindowSpec(stride_s=args.stride),
                               allow_short_events=args.allow_short_events)
    matrix = features_for_epochs(epochs, rec.sample_rate)
    names = feature_names()
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("patient,start_s,label," + ",".join(names) + "\n")
        for epoch, row in zip(epochs, matrix):
            values = ",".join("%.17g" % v for v in row)
            fh.write(f"{epoch.patient_id},{epoch.start_s:.3f},{epoch.label},{values}\n")
    print(f"wrote {len(epochs)} epochs x {len(names)} features to {out}")
    return 0


def cmd_train(args) -> int:
    from .models import make_model, save_model

    if args.model == "cnn":
        raise ValueError("cnn training consumes raw windows; use `earpipe evaluate --model cnn`")
    lines = Path(args.features).read_text().splitlines()[1:]  # below the header
    if not any(line.strip() for line in lines):
        raise ValueError(f"{args.features}: no feature rows under the header; nothing to train on")
    rows = np.loadtxt(lines, delimiter=",", dtype=str, ndmin=2)
    y = rows[:, 2].astype(int)
    x = rows[:, 3:].astype(np.float64)
    model = make_model(args.model, seed=args.seed)
    model.fit(x, y)
    save_model(model, args.out)
    print(f"trained {args.model} on {len(y)} epochs; model written to {args.out}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    from .evaluation import ExperimentConfig

    cfg = _merged(args, [
        "stride_s", "ratio", "model", "separation", "motion",
        "motion_threshold", "normalization", "cnn_epochs", "master_seed",
    ])
    return ExperimentConfig(**cfg)


def _corpus_and_templates(args, cfg: ExperimentConfig):
    from .corpus import make_synthetic_corpus, train_corpus_templates
    from .nnmf import load_templates

    if args.synthetic is not None:
        recordings = make_synthetic_corpus(args.synthetic, master_seed=cfg.master_seed)
    elif args.corpus is not None:
        recordings = _load_corpus(args.corpus)
    else:
        raise ValueError("provide --corpus DIR or --synthetic N")
    templates = None
    if cfg.separation == "nnmf":
        if args.templates is not None:
            templates = load_templates(args.templates)
        elif args.synthetic is not None:
            templates = train_corpus_templates(master_seed=cfg.master_seed)
        else:
            raise ValueError("nnmf separation on a real corpus needs --templates")
    return recordings, templates


def cmd_evaluate(args) -> int:
    from .evaluation import run_experiment

    cfg = _experiment_config(args)
    recordings, templates = _corpus_and_templates(args, cfg)
    result = run_experiment(recordings, cfg, templates)
    payload = result.to_dict()
    payload["provenance"] = _provenance(cfg.to_dict())
    _write_json(args.out, payload)
    if args.out:
        print(f"macro accuracy {result.macro['accuracy']:.4f}, "
              f"recall {result.macro['recall']:.4f} -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    from .evaluation import sweep

    cfg = _experiment_config(args)
    recordings, templates = _corpus_and_templates(args, cfg)
    rows = sweep(recordings, cfg, args.axis, templates)
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write("axis,value,macro_accuracy,macro_recall,macro_f1,micro_accuracy\n")
        for r in rows:
            fh.write(f"{r['axis']},{r['value']},{r['macro_accuracy']:.6f},"
                     f"{r['macro_recall']:.6f},{r['macro_f1']:.6f},{r['micro_accuracy']:.6f}\n")
    print(f"{len(rows)} sweep rows written to {out}")
    return 0


def _parse_bands(specs: list[str] | None) -> dict:
    from .signals import EEG_BANDS

    if not specs:
        return {k: v for k, v in EEG_BANDS.items()}
    bands = {}
    for spec in specs:
        name, _, rng = spec.partition("=")
        lo, _, hi = rng.partition(":")
        if not rng or not hi:
            raise ValueError(f"band {spec!r} should look like name=lo:hi")
        bands[name] = (float(lo), float(hi))
    return bands


def cmd_snr(args) -> int:
    from .evaluation import band_snr, compare_snr
    from .io import load_recording

    rec = load_recording(args.input)
    bands = _parse_bands(args.band)
    payload: dict = {"bands": {}}
    if args.processed:
        proc = load_recording(args.processed)
        for role in rec.channels:
            if role not in proc.channels:
                raise ValueError(f"processed recording lacks channel {role}")
        payload["mode"] = "compare"
        for role, x in rec.channels.items():
            payload["bands"][str(role)] = compare_snr(
                x, proc.channels[role], rec.sample_rate, bands
            )
    else:
        payload["mode"] = "single"
        for role, x in rec.channels.items():
            payload["bands"][str(role)] = {
                name: band_snr(x, rec.sample_rate, band) for name, band in bands.items()
            }
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earpipe",
        description="Behind-the-ear biosignal separation and seizure detection pipeline",
    )
    parser.add_argument("--version", action="version", version=f"earpipe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_payload(p):
        p.add_argument("--payload", choices=["csv", "bin"], default="bin",
                       help="sample payload encoding for written recordings")

    p = sub.add_parser("synth", help="render a synthetic recording")
    p.add_argument("--config", help="JSON synthesis spec")
    p.add_argument("--duration-s", dest="duration_s", type=float)
    p.add_argument("--patient-id", dest="patient_id")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    add_payload(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="notch, detrend and de-spike a recording")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mains-hz", type=float, default=60.0)
    p.add_argument("--notch-q", type=float, default=35.0)
    p.add_argument("--outlier-sigma", type=float, default=6.0)
    p.add_argument("--bandpass", nargs=2, type=float, metavar=("LO", "HI"))
    add_payload(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("denoise", help="drop IMU-correlated modes from every channel")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=MOTION_R_THRESHOLD,
                   help="absolute envelope/IMU correlation above which a mode is dropped")
    add_payload(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("separate", help="split mixed channels into EEG/EMG/EOG")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["nnmf", "emd"], default="nnmf")
    p.add_argument("--templates", help="template bank file (nnmf)")
    add_payload(p)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("train-templates", help="learn NNMF spectral templates")
    p.add_argument("--eeg", help="recording dir with a clean EEG source channel")
    p.add_argument("--emg", help="recording dir with a clean EMG source channel")
    p.add_argument("--eog", help="recording dir with a clean EOG source channel")
    p.add_argument("--synthetic", action="store_true",
                   help="train from the built-in synthetic sources")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_templates)

    p = sub.add_parser("features", help="segment a separated recording and write features")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--allow-short-events", action="store_true")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit a classifier on a features CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=["svm", "knn", "rfc", "cnn"], default="svm")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    def add_experiment_flags(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--corpus", help="directory of recording directories")
        p.add_argument("--synthetic", type=int, metavar="N",
                       help="generate an N-patient synthetic corpus instead")
        p.add_argument("--templates", help="template bank file for nnmf separation")
        p.add_argument("--stride-s", dest="stride_s", type=int)
        p.add_argument("--ratio", choices=["1:1", "1:2", "1:3"])
        p.add_argument("--model", choices=["svm", "knn", "rfc", "cnn"])
        p.add_argument("--separation", choices=["nnmf", "emd"])
        p.add_argument("--motion", choices=["vmd", "bandpass", "off"])
        p.add_argument("--motion-threshold", dest="motion_threshold", type=float)
        p.add_argument("--normalization", choices=["zscore", "minmax"])
        p.add_argument("--cnn-epochs", dest="cnn_epochs", type=int)
        p.add_argument("--master-seed", dest="master_seed", type=int)

    p = sub.add_parser("evaluate", help="leave-one-patient-out experiment")
    add_experiment_flags(p)
    p.add_argument("--out", help="metrics JSON path (default: stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="ablation sweep along one axis")
    add_experiment_flags(p)
    p.add_argument("--axis", choices=["stride", "ratio", "motion"], required=True)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("snr", help="band SNR report for a recording")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--processed", help="processed recording to compare against")
    p.add_argument("--band", action="append", metavar="NAME=LO:HI",
                   help="band to report (repeatable); default: the EEG rhythm bands")
    p.add_argument("--out", help="JSON path (default: stdout)")
    p.set_defaults(func=cmd_snr)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
