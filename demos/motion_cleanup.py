"""Scrub IMU-correlated motion bursts out of a behind-the-ear channel.

Builds one synthetic patient, conditions the mixed channels, then runs
block-wise mode decomposition with accelerometer screening.  The report
shows per-band SNR before and after, how many modes each block (30 s,
the last one under 59 s) dropped, and why a fixed 1-30 Hz bandpass
cannot do the same job: the bursts live inside the band it keeps.
"""

import numpy as np

from earpipe.corpus import make_synthetic_corpus
from earpipe.evaluation import compare_snr
from earpipe.preprocess import bandpass_filter, preprocess_recording
from earpipe.signals import ChannelRole, EEG_BANDS
from earpipe.vmd import remove_motion_artifacts


def main() -> int:
    rec = make_synthetic_corpus(n_patients=1)[0]
    conditioned = preprocess_recording(rec)
    fs = conditioned.sample_rate
    x = conditioned.channels[ChannelRole.MIXED_LEFT]

    cleaned, blocks = remove_motion_artifacts(x, fs, rec.imu, rec.imu_rate)
    print(f"patient {rec.patient_id}: {len(x) / fs:.0f} s, {len(blocks)} blocks")
    for i, block in enumerate(blocks):
        dropped = block.n_excluded
        peak_r = float(np.abs(block.r).max())
        print(f"  block {i}: dropped {dropped}/{len(block.r)} modes "
              f"(peak |r| {peak_r:.2f}, threshold {block.threshold:.2f})")

    bands = {name: EEG_BANDS[name] for name in ("theta", "alpha", "beta")}
    table = compare_snr(x, cleaned, fs, bands)
    print("\nband          raw  screened   delta")
    for name, row in table.items():
        print(f"{name:8s} {row['raw_db']:+8.2f} {row['processed_db']:+9.2f} "
              f"{row['delta_db']:+7.2f} dB")

    baseline = compare_snr(x, bandpass_filter(x, fs, 1.0, 30.0), fs,
                           {"alpha": bands["alpha"]})
    print(f"\n1-30 Hz bandpass moves alpha SNR by "
          f"{baseline['alpha']['delta_db']:+.2f} dB; the bursts sit inside "
          "the passband, so only the IMU screen removes them.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
