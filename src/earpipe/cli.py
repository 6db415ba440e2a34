"""Command-line entry points for every pipeline stage.

``synth``, ``evaluate`` and ``sweep`` accept ``--config FILE``, a JSON
object whose keys are the field names of the config class the command
builds (``SynthesisSpec``, or ``ExperimentConfig`` for the last two); a flag
that is set overrides the key of its name, and an unknown key is refused by
name.  Every setting flag is named after the field it sets, so a refusal
names what was typed; ``--stride``, ``--threshold`` and ``--bandpass`` stay
as aliases of ``--stride-s``, ``--motion-threshold`` and ``--bandpass-hz``.
Stage commands write recording directories, ``train-templates`` writes a
template bank directory, ``features`` and ``sweep`` write CSV, and
``evaluate`` and ``snr`` write JSON.  Failures print a machine-readable JSON
object to stderr and exit nonzero.  Each setting's default and allowed
values are stated only in the class that checks it, so a bad value fails
this way, naming the field, before any work starts, whether it comes from a
flag or from the file.  All randomness descends from ``--seed``
(``synth``, ``train-templates``) or ``--master-seed``
(``evaluate``, ``sweep``), so a repeated invocation writes byte-identical
outputs.

Each command imports the pipeline modules it uses when it runs, and at
module level this module loads none of the pipeline: not numpy, not
``scipy.signal``.  ``evaluate`` and ``sweep`` open stage A's process pool
once, whose workers are forked from a server that has imported
``earpipe.vmd`` (spawned on Windows); each worker still runs the console
script's ``__main__``, which imports this module, before its first
channel.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .evaluation import ExperimentConfig


def _fail(exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 2


def _check_keys(obj, cls, where: str) -> None:
    """Refuse a JSON value for the dataclass ``cls`` that is not an object,
    that has a key ``cls`` lacks, or that lacks a field ``cls`` needs."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}; the keys are {names}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if missing:
        raise ValueError(f"{where} lacks the keys {missing}")


def _settings(cls, args: argparse.Namespace, where: str) -> dict:
    """The keys to build the dataclass ``cls`` from: the ``--config`` object,
    if the command takes one, with the flag of each field of ``cls``
    overlaid where it was set, checked by :func:`_check_keys`."""
    path = getattr(args, "config", None)
    obj = {} if path is None else json.loads(Path(path).read_text())
    if isinstance(obj, dict):
        obj.update((f.name, getattr(args, f.name)) for f in fields(cls)
                   if getattr(args, f.name, None) is not None)
    _check_keys(obj, cls, where)
    return obj


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

    cfg = _settings(SynthesisSpec, args, "the synthesis spec")
    comps = cfg.pop("components", [])
    if not comps:
        raise ValueError("the synthesis spec has no components, so every channel would be "
                         "zero; list at least one under \"components\" in --config")
    if not isinstance(comps, list):
        raise ValueError(f"components must be a JSON list, got {comps!r}")
    for k, comp in enumerate(comps):
        _check_keys(comp, SynthComponent, f"components[{k}]")
    rec = synthesize_recording(SynthesisSpec(components=[SynthComponent(**c) for c in comps], **cfg))
    save_recording(rec, args.out)
    print(f"wrote {rec.duration_s:.1f} s recording to {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    from .io import load_recording, save_recording
    from .preprocess import PreprocessConfig, preprocess_recording

    cfg = PreprocessConfig(**_settings(PreprocessConfig, args, "the preprocess config"))
    rec = load_recording(args.input)
    save_recording(preprocess_recording(rec, cfg), args.out)
    print(f"preprocessed recording written to {args.out}")
    return 0


def cmd_denoise(args) -> int:
    from .evaluation import ExperimentConfig, screen_motion
    from .io import load_recording, save_recording

    cfg = ExperimentConfig(**_settings(ExperimentConfig, args, "the experiment config"))
    ((cleaned, by_channel),) = screen_motion([load_recording(args.input)], cfg)
    save_recording(cleaned, args.out)
    reports = [r for blocks in by_channel.values() for r in blocks]
    excluded = sum(r.n_excluded for r in reports)
    capped = sum(not r.converged for r in reports)
    zeroed = sum(bool(r.excluded.all()) for r in reports)
    print(f"dropped {excluded} motion-correlated modes; "
          f"{capped} of {len(reports)} blocks hit the VMD iteration cap; "
          f"{zeroed} of {len(reports)} blocks zeroed; wrote {args.out}")
    return 0


def _refuse_unused_templates(method: str, templates: str | None, flag: str) -> None:
    """A template bank given to EMD separation is refused, not dropped."""
    if method == "emd" and templates is not None:
        raise ValueError(f"{flag} emd uses no template bank; "
                         f"drop --templates or choose {flag} nnmf")


def cmd_separate(args) -> int:
    from .evaluation import separate_sources
    from .io import load_recording, save_recording
    from .nnmf import load_templates

    _refuse_unused_templates(args.method, args.templates, "--method")
    rec = load_recording(args.input)
    templates = load_templates(args.templates) if args.templates else None
    save_recording(separate_sources(rec, args.method, templates), args.out)
    print(f"separated recording ({args.method}) written to {args.out}")
    return 0


def cmd_train_templates(args) -> int:
    from .corpus import template_sources
    from .io import load_recording
    from .nnmf import save_templates, train_templates
    from .signals import BIOPOTENTIAL_RATE_HZ, MODALITIES

    if args.synthetic:
        given = [f"--{n}" for n in MODALITIES if getattr(args, n) is not None]
        if given:
            raise ValueError(f"--synthetic trains from the built-in sources; "
                             f"drop {', '.join(given)} or --synthetic")
        sources = template_sources()
        fs = BIOPOTENTIAL_RATE_HZ
    else:
        missing = [n for n in MODALITIES if getattr(args, n) is None]
        if missing:
            raise ValueError(f"provide --{', --'.join(missing)} or use --synthetic")
        recs = {n: load_recording(getattr(args, n)) for n in MODALITIES}
        rates = {n: r.sample_rate for n, r in recs.items()}
        if len(set(rates.values())) > 1:
            named = ", ".join(f"{n} {rate:g} Hz" for n, rate in rates.items())
            raise ValueError(f"template sources have different sample rates ({named}); "
                             "resample them to one rate first")
        fs = rates["eeg"]
        sources = {n: r.channel_matrix()[0] for n, r in recs.items()}
    bank, history = train_templates(sources, fs, seed=args.seed)
    save_templates(bank, args.out)
    final = {m: h[-1] for m, h in history.items()}
    print(f"templates written to {args.out}; final divergences {final}")
    return 0


def cmd_features(args) -> int:
    from .features import WindowSpec, feature_names, features_for_epochs, segment_recording
    from .io import load_recording

    spec = WindowSpec(**_settings(WindowSpec, args, "the window spec"))
    rec = load_recording(args.input)
    epochs = segment_recording(rec, spec, allow_short_events=args.allow_short_events)
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


def _corpus_and_templates(args, cfg: ExperimentConfig):
    from .corpus import make_synthetic_corpus, train_corpus_templates
    from .nnmf import load_templates

    if args.synthetic is not None and args.corpus is not None:
        raise ValueError("give --corpus DIR or --synthetic N, not both")
    _refuse_unused_templates(cfg.separation, args.templates, "--separation")
    if args.synthetic is not None:
        if args.synthetic < 2:
            raise ValueError(f"--synthetic must be at least 2, got {args.synthetic}: "
                             "leave-one-patient-out needs at least two patients")
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
    from .evaluation import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(**_settings(ExperimentConfig, args, "the experiment config"))
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
    from .evaluation import ExperimentConfig, sweep

    cfg = ExperimentConfig(**_settings(ExperimentConfig, args, "the experiment config"))
    recordings, templates = _corpus_and_templates(args, cfg)
    rows = sweep(recordings, cfg, args.axis, templates)
    out = Path(args.out)
    with open(out, "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for r in rows:
            fh.write(",".join(f"{v:.6f}" if isinstance(v, float) else str(v)
                              for v in r.values()) + "\n")
    print(f"{len(rows)} sweep rows written to {out}")
    return 0


def _parse_bands(specs: list[str] | None) -> dict:
    from .signals import EEG_BANDS

    if not specs:
        return {k: v for k, v in EEG_BANDS.items()}
    bands = {}
    for spec in specs:
        name, _, rng = spec.partition("=")
        try:
            lo, hi = map(float, rng.split(":"))
        except ValueError:
            raise ValueError(f"band {spec!r} should look like name=lo:hi, "
                             "with lo and hi numbers in Hz") from None
        bands[name] = (lo, hi)
    return bands


def cmd_snr(args) -> int:
    from .evaluation import band_snr, compare_snr
    from .io import load_recording

    bands = _parse_bands(args.band)
    rec = load_recording(args.input)
    payload: dict = {"bands": {}}
    if args.processed:
        proc = load_recording(args.processed)
        for name in ("sample_rate", "n_samples"):
            raw_value, proc_value = getattr(rec, name), getattr(proc, name)
            if proc_value != raw_value:
                raise ValueError(
                    f"processed recording has {name} {proc_value:g}, the raw one {raw_value:g}; "
                    "band SNR compares only recordings of one rate and length"
                )
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

    p = sub.add_parser("synth", help="render a synthetic recording")
    p.add_argument("--config", help="JSON synthesis spec")
    p.add_argument("--duration-s", dest="duration_s", type=float)
    p.add_argument("--patient-id", dest="patient_id")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="notch, detrend and de-spike a recording")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mains-hz", type=float)
    p.add_argument("--notch-q", type=float)
    p.add_argument("--outlier-sigma", type=float)
    p.add_argument("--bandpass-hz", "--bandpass", dest="bandpass_hz", nargs=2, type=float,
                   metavar=("LO", "HI"))
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("denoise", help="drop IMU-correlated modes from every channel")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--motion-threshold", "--threshold", dest="motion_threshold", type=float,
                   help="absolute envelope/IMU correlation above which a mode is dropped")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("separate", help="split mixed channels into EEG/EMG/EOG")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", default="nnmf")
    p.add_argument("--templates", help="template bank directory (nnmf)")
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
    p.add_argument("--stride-s", "--stride", dest="stride_s", type=int)
    p.add_argument("--allow-short-events", action="store_true")
    p.set_defaults(func=cmd_features)

    def add_experiment_flags(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--corpus", help="directory of recording directories")
        p.add_argument("--synthetic", type=int, metavar="N",
                       help="generate an N-patient synthetic corpus instead")
        p.add_argument("--templates", help="template bank directory for nnmf separation")
        p.add_argument("--stride-s", dest="stride_s", type=int)
        p.add_argument("--ratio")
        p.add_argument("--model")
        p.add_argument("--separation")
        p.add_argument("--motion")
        p.add_argument("--motion-threshold", dest="motion_threshold", type=float)
        p.add_argument("--normalization")
        p.add_argument("--cnn-epochs", dest="cnn_epochs", type=int)
        p.add_argument("--master-seed", dest="master_seed", type=int)

    p = sub.add_parser("evaluate", help="leave-one-patient-out experiment")
    add_experiment_flags(p)
    p.add_argument("--out", help="metrics JSON path (default: stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="ablation sweep along one axis")
    add_experiment_flags(p)
    # checked here: nothing else checks the axis before the corpus is built
    p.add_argument("--axis", choices=["motion", "ratio", "stride"], required=True)
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
