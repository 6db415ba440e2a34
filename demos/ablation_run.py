"""Sweep the two ablation axes that matter most for wearable detection.

On a six-patient corpus the motion axis answers "does accelerometer
screening pay for itself?" and the stride axis answers "how much does
window density buy?".  Dropping the motion screen leaves bursts in the
training data, and widening the stride starves the folds of seizure
epochs, which shows up first as lost recall.

The motion sweep runs VMD on a process pool.  Its workers are forked from
one server per process, started by the first pooled run, which imports
``earpipe.vmd`` once and lives until the interpreter exits (on Windows
they are spawned).  Each worker still runs this script's top level first,
so the pipeline modules are imported inside ``main`` and the ``__main__``
guard below is required.
"""


def show(title: str, rows: list[dict]) -> None:
    print(f"\n{title}")
    print("value   accuracy  recall      f1")
    for row in rows:
        print(f"{str(row['value']):6s} {row['macro_accuracy']:9.4f} "
              f"{row['macro_recall']:7.4f} {row['macro_f1']:7.4f}")


def main() -> int:
    from earpipe.corpus import make_synthetic_corpus, train_corpus_templates
    from earpipe.evaluation import ExperimentConfig, sweep

    corpus = make_synthetic_corpus(n_patients=6)
    bank = train_corpus_templates()
    cfg = ExperimentConfig(stride_s=3, model="svm", normalization="minmax")

    show("motion screening", sweep(corpus, cfg, "motion", bank))
    show("window stride (s)", [
        row for row in sweep(corpus, cfg, "stride", bank) if row["value"] in (1, 3, 9)
    ])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
