"""Split mixed ear channels into brain, muscle, and eye components.

Trains the spectral template bank on the synthetic source corpus, then
separates one conditioned patient with supervised factorization and,
for contrast, with mode sifting.  For each output channel the report
shows where its power lives, so the brain channel should concentrate
below 25 Hz, the muscle channel above 20 Hz, and the eye channel below
a few hertz.
"""

import numpy as np
from scipy.signal import welch

from earpipe.corpus import make_synthetic_corpus, train_corpus_templates
from earpipe.emd import separate_recording_emd
from earpipe.nnmf import separate_recording_nnmf
from earpipe.preprocess import preprocess_recording
from earpipe.signals import MODALITIES, SEPARATED_ROLES

BANDS = {"<4 Hz": (0.0, 4.0), "4-12 Hz": (4.0, 12.0),
         "12-25 Hz": (12.0, 25.0), ">25 Hz": (25.0, None)}


def band_fractions(x: np.ndarray, fs: float) -> dict[str, float]:
    freqs, psd = welch(x, fs)
    total = float(psd.sum())
    out = {}
    for name, (lo, hi) in BANDS.items():
        mask = freqs >= lo if hi is None else (freqs >= lo) & (freqs < hi)
        out[name] = float(psd[mask].sum()) / total
    return out


def report(title: str, rec) -> None:
    print(f"\n{title}")
    print("channel     " + "".join(f"{name:>10s}" for name in BANDS))
    for role in SEPARATED_ROLES:
        fractions = band_fractions(rec.channels[role], rec.sample_rate)
        cells = "".join(f"{v:10.2f}" for v in fractions.values())
        print(f"{role.value:12s}{cells}")


def main() -> int:
    rec = preprocess_recording(make_synthetic_corpus(n_patients=1)[0])
    bank = train_corpus_templates()
    print(f"template bank: {', '.join(MODALITIES)} "
          f"({bank.rank} atoms each, {bank.w.shape[0]} frequency bins)")

    report("supervised factorization (power fraction per band)",
           separate_recording_nnmf(rec, bank))
    report("mode sifting (power fraction per band)",
           separate_recording_emd(rec))
    print("\nFactorization pins each output to its trained spectral "
          "templates; sifting only orders modes from fast to slow.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
