"""Synthetic multi-patient corpora for end-to-end pipeline exercises.

Every patient carries the same kinds of activity with per-patient jitter:
continuous alpha rhythm, blinks, mild chewing EMG, broadband sensor noise,
IMU-co-registered motion (two interictal jolt series plus one during the
seizure), and one 3 Hz spike-wave discharge with a matching annotation.
Template sources for supervised separation are rendered from the same
component definitions, so the dictionaries see both background and
discharge spectra.  None of those components draws from its random
stream, so the sources are one fixed set; a corpus's master seed reaches
its template bank only as the seed of the NNMF training start.
"""

from __future__ import annotations

import numpy as np

from .nnmf import TemplateBank, train_templates
from .signals import (
    BIOPOTENTIAL_RATE_HZ,
    MODALITIES,
    Recording,
    SynthComponent,
    SynthesisSpec,
    render_sources,
    synthesize_recording,
)

DURATION_S = 90.0
TEMPLATE_DURATION_S = 60.0

#: ``(kind, amplitude_mv, freq_hz)`` of the activity present all along, one
#: component per modality; ``None`` leaves the kind's default rate.
BACKGROUND = (("alpha_burst", 0.10, 10.0), ("blink", 0.08, 1.0), ("chew", 0.05, None))
#: The same for the activity a seizure adds: the discharge, a tonic chew
#: burst train and rapid blinking.
ICTAL = (("spike_wave_seizure", 0.30, 3.0), ("chew", 0.12, 3.0), ("blink", 0.15, 2.0))


def patient_spec(index: int, master_seed: int = 0, duration_s: float = DURATION_S) -> SynthesisSpec:
    """Synthesis spec for one patient, jittered deterministically.

    Seizure boundaries land on whole seconds so that, at 1 s stride,
    windows with partial discharge coverage form the same coverage
    classes for every patient.  The ictal interval carries the discharge
    itself plus sustained muscle activity (chew at 3 Hz closes into a
    tonic burst train) and rapid blinking, so all three separated
    modalities change state together, the way a convulsive seizure
    presents across biopotential channels.  One jolt series lands inside
    every seizure: convulsions shake the sensor.  Its jerk times and
    strengths are patient-random, so skipping motion removal leaves
    unrepeatable contamination on the seizure windows while removal
    recovers the shared ictal signature.  A recording shorter than
    ``DURATION_S`` leaves out the components that would start after its
    end.
    """
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, 7, index]))
    jit = lambda scale=0.05: 1.0 + scale * (2.0 * rng.random() - 1.0)

    seiz_start = float(rng.integers(30, 33))
    seiz_stop = seiz_start + float(rng.integers(16, 27))
    components = (
        *(SynthComponent(kind, amp * jit(), freq_hz=freq * jit(0.01) if kind == "alpha_burst" else freq)
          for kind, amp, freq in BACKGROUND),
        SynthComponent("white_noise", 0.004 * jit()),
        SynthComponent("motion_burst", 0.45 * jit(), freq_hz=17.0, start_s=8.0, stop_s=18.0),
        SynthComponent("motion_burst", 0.40 * jit(), freq_hz=17.0, start_s=36.0, stop_s=46.0),
        SynthComponent("motion_burst", 0.45 * jit(), freq_hz=17.0, start_s=68.0, stop_s=80.0),
        *(SynthComponent(kind, amp * jit(), freq_hz=freq, start_s=seiz_start, stop_s=seiz_stop)
          for kind, amp, freq in ICTAL),
    )
    return SynthesisSpec(
        duration_s=duration_s,
        components=tuple(c for c in components if c.start_s < duration_s),
        patient_id=f"p{index:02d}",
        seed=int(rng.integers(0, 2**31)),
    )


def make_synthetic_corpus(n_patients: int = 20, master_seed: int = 0) -> list[Recording]:
    return [synthesize_recording(patient_spec(i, master_seed)) for i in range(n_patients)]


def template_sources() -> dict[str, np.ndarray]:
    """Clean per-modality tracks covering background and ictal regimes.

    Each modality's track spends the middle third of the recording in its
    ictal state so the learned spectral dictionary spans both regimes.
    """
    third, two_thirds = TEMPLATE_DURATION_S / 3, 2 * TEMPLATE_DURATION_S / 3
    spec = SynthesisSpec(
        duration_s=TEMPLATE_DURATION_S,
        components=(
            *(SynthComponent(kind, amp, freq_hz=freq) for kind, amp, freq in BACKGROUND),
            *(SynthComponent(kind, amp, freq_hz=freq, start_s=third, stop_s=two_thirds)
              for kind, amp, freq in ICTAL),
        ),
        patient_id="templates",
    )
    sources, _, _ = render_sources(spec)
    return {m: sources[m] for m in MODALITIES}


def train_corpus_templates(master_seed: int = 0) -> TemplateBank:
    """Template bank trained on the synthetic per-modality sources, from an
    NNMF start seeded with ``master_seed``."""
    bank, _ = train_templates(template_sources(), BIOPOTENTIAL_RATE_HZ, seed=master_seed)
    return bank
