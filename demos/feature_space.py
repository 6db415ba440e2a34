"""Walk one corpus from separated channels to per-model fold scores.

Four synthetic patients go through conditioning, motion screening, and
source separation once; the stage A products are then reused by three
classifiers under leave-one-patient-out evaluation.  Along the way the
report shows what the motion screen did to each patient (VMD blocks,
blocks that hit the iteration cap, modes dropped as motion), the windowing
arithmetic, the 348-dimensional feature vector layout, and how class
balancing reshapes each training fold.

Stage A runs VMD on a process pool, whose workers are forked from one
server per process that has imported ``earpipe.vmd`` once (on Windows they
are spawned).  Each worker still runs this script's top level first, so
the pipeline modules are imported inside ``main``.
"""


def main() -> int:
    from earpipe.corpus import make_synthetic_corpus, train_corpus_templates
    from earpipe.evaluation import ExperimentConfig, prepare_corpus, run_experiment
    from earpipe.features import (
        WindowSpec,
        balance_epochs,
        feature_names,
        features_for_epochs,
        segment_recording,
    )

    corpus = make_synthetic_corpus(n_patients=4)
    bank = train_corpus_templates()
    cfg = ExperimentConfig(stride_s=3, normalization="minmax")
    prepared = prepare_corpus(corpus, cfg, bank)
    separated = [rec for rec, _ in prepared]

    window = WindowSpec(stride_s=cfg.stride_s)
    epochs = []
    print("patient   windows  seizure   blocks   capped excluded")
    for rec, report in prepared:
        rows = segment_recording(rec, window)
        epochs.extend(rows)
        positives = sum(e.label for e in rows)
        blocks = [b for channel in report.values() for b in channel]
        capped = sum(not b.converged for b in blocks)
        excluded = sum(b.n_excluded for b in blocks)
        print(f"{rec.patient_id:8s} {len(rows):8d} {positives:8d} "
              f"{len(blocks):8d} {capped:8d} {excluded:8d}")

    x = features_for_epochs(epochs[:8], separated[0].sample_rate)
    names = feature_names()
    print(f"\nfeature matrix for 8 epochs: {x.shape[0]} x {x.shape[1]}")
    print(f"first features: {', '.join(names[:3])} ...")
    print(f"last features:  ... {', '.join(names[-2:])}")

    balanced = balance_epochs(epochs, cfg.ratio, seed=0)
    kept = sum(e.label for e in balanced)
    print(f"\nbalanced {cfg.ratio}: {len(epochs)} epochs -> {len(balanced)} "
          f"({kept} seizure, {len(balanced) - kept} background)")

    print("\nmodel   accuracy  recall")
    for model in ("svm", "knn", "rfc"):
        result = run_experiment(
            corpus, ExperimentConfig(stride_s=3, normalization="minmax", model=model),
            bank, separated=separated,
        )
        print(f"{model:6s} {result.macro['accuracy']:9.4f} "
              f"{result.macro['recall']:7.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
