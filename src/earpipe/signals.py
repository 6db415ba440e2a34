"""Core signal types and the synthetic recording generator.

Biopotential channels are float64 arrays in millivolts sampled at a common
rate (250 Hz by default).  Inertial data rides along at a lower rate so that
motion-correlated artifacts can be identified later in the pipeline.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import signal as sps

BIOPOTENTIAL_RATE_HZ = 250.0
IMU_RATE_HZ = 50.0

#: EEG rhythm bands (Hz).  The gamma band is open-ended above 25 Hz and is
#: capped at the Nyquist frequency of the recording when evaluated.
EEG_BANDS = {
    "delta": (0.0, 3.0),
    "theta": (3.0, 8.0),
    "alpha": (8.0, 12.0),
    "beta": (12.0, 25.0),
    "gamma": (25.0, None),
}

TONE_SPACING_HZ = 1.5  # line spacing of a chew burst's tone comb, a multiple of 0.5 Hz


def finite(value) -> bool:
    """Whether ``value`` is a real number (not a bool), neither nan nor infinite."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


class ChannelRole(str, enum.Enum):
    """Identity of a biopotential channel within a recording."""

    MIXED_LEFT = "mixed_left"
    MIXED_RIGHT = "mixed_right"
    EEG_LEFT = "eeg_left"
    EEG_RIGHT = "eeg_right"
    EMG_LEFT = "emg_left"
    EMG_RIGHT = "emg_right"
    EOG_LEFT = "eog_left"
    EOG_RIGHT = "eog_right"

    def __str__(self) -> str:  # keeps file headers and feature names compact
        return self.value


#: Channel order expected of a mixed (unseparated) recording.
MIXED_ROLES = (ChannelRole.MIXED_LEFT, ChannelRole.MIXED_RIGHT)

#: Canonical channel order of a separated recording.  Feature vectors are
#: concatenated channel-major in exactly this order.
SEPARATED_ROLES = (
    ChannelRole.EEG_LEFT,
    ChannelRole.EEG_RIGHT,
    ChannelRole.EMG_LEFT,
    ChannelRole.EMG_RIGHT,
    ChannelRole.EOG_LEFT,
    ChannelRole.EOG_RIGHT,
)


@dataclass(frozen=True)
class SeizureAnnotation:
    """Expert (or synthetic) seizure interval in recording time."""

    onset_s: float
    offset_s: float
    label: str = "seizure"

    def __post_init__(self) -> None:
        if not (self.offset_s > self.onset_s):
            raise ValueError(
                f"annotation offset ({self.offset_s}) must exceed onset ({self.onset_s})"
            )

    @property
    def duration_s(self) -> float:
        return self.offset_s - self.onset_s


@dataclass
class Recording:
    """A multi-channel biopotential recording with optional IMU track.

    Parameters
    ----------
    patient_id : str
        Stable identifier used for leave-one-patient-out fold assignment.
    sample_rate : float
        Biopotential sampling rate in Hz; finite and above 0, as is ``imu_rate``.
    channels : dict[ChannelRole, np.ndarray]
        Ordered mapping from role to signal (mV).  All arrays share a length.
    imu : np.ndarray or None
        3 x M accelerometer track in g, sampled at ``imu_rate``.
    imu_rate : float
        IMU sampling rate in Hz.
    annotations : list[SeizureAnnotation]
    """

    patient_id: str
    sample_rate: float = BIOPOTENTIAL_RATE_HZ
    channels: dict[ChannelRole, np.ndarray] = field(default_factory=dict)
    imu: np.ndarray | None = None
    imu_rate: float = IMU_RATE_HZ
    annotations: list[SeizureAnnotation] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("sample_rate", "imu_rate"):
            rate = getattr(self, name)
            if not (np.isfinite(rate) and rate > 0):
                raise ValueError(f"{name} must be a finite number above 0, got {rate!r}")
        lengths = {len(x) for x in self.channels.values()}
        if len(lengths) > 1:
            raise ValueError(f"channel lengths differ: {sorted(lengths)}")
        if self.imu is not None:
            self.imu = np.asarray(self.imu, dtype=np.float64)
            if self.imu.ndim != 2 or self.imu.shape[0] != 3:
                raise ValueError(f"imu must be 3 x M, got shape {self.imu.shape}")
        for role, x in list(self.channels.items()):
            self.channels[role] = np.asarray(x, dtype=np.float64)

    @property
    def n_samples(self) -> int:
        if not self.channels:
            return 0
        return len(next(iter(self.channels.values())))

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate

    @property
    def roles(self) -> tuple[ChannelRole, ...]:
        return tuple(self.channels)

    def channel_matrix(self, roles=None) -> np.ndarray:
        """Stack the requested roles (default: all, recorded order) as C x N."""
        roles = tuple(roles) if roles is not None else self.roles
        _require_roles(self, roles)
        return np.stack([self.channels[r] for r in roles])

    def with_channels(self, channels: dict[ChannelRole, np.ndarray]) -> Recording:
        """This recording with ``channels`` in place of its own.

        The IMU track and the annotation list are copies, so changing the
        new recording leaves this one as it was.
        """
        return replace(
            self,
            channels=channels,
            imu=None if self.imu is None else self.imu.copy(),
            annotations=list(self.annotations),
        )


def _require_roles(rec: Recording, roles) -> None:
    """Raise ``ValueError`` naming the patient and the ``roles`` that ``rec``
    lacks, and the step that makes them."""
    missing = [r for r in roles if r not in rec.channels]
    if not missing:
        return
    if any(r in SEPARATED_ROLES for r in missing):
        step = "`earpipe separate` makes the six separated roles from a mixed recording"
    else:
        step = "separation needs a mixed recording, with mixed_left and mixed_right"
    raise ValueError(f"recording of patient {rec.patient_id!r} lacks channels "
                     f"{[str(r) for r in missing]}; {step}")


def separate_mixed(rec: Recording, split) -> Recording:
    """Split each of ``MIXED_ROLES`` into EEG, EMG and EOG.

    ``split(x)`` maps one mixed channel to a dict holding at least the
    ``"eeg"``, ``"emg"`` and ``"eog"`` signals.  The result carries the six
    roles in ``SEPARATED_ROLES`` order.
    """
    _require_roles(rec, MIXED_ROLES)
    separated = {}
    for mixed in MIXED_ROLES:
        side = mixed.value.removeprefix("mixed_")
        signals = split(rec.channels[mixed])
        for modality in ("eeg", "emg", "eog"):
            separated[ChannelRole(f"{modality}_{side}")] = signals[modality]
    return rec.with_channels({role: separated[role] for role in SEPARATED_ROLES})


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

COMPONENT_KINDS = (
    "tone",
    "alpha_burst",
    "blink",
    "chew",
    "motion_burst",
    "spike_wave_seizure",
    "white_noise",
)

#: Which separated modality each synthetic component belongs to.  Used when
#: rendering ground-truth source tracks for template training.
COMPONENT_MODALITY = {
    "tone": "eeg",
    "alpha_burst": "eeg",
    "spike_wave_seizure": "eeg",
    "blink": "eog",
    "chew": "emg",
    "motion_burst": "motion",
    "white_noise": "noise",
}


@dataclass(frozen=True)
class SynthComponent:
    """One additive ingredient of a synthetic recording.

    ``freq_hz`` is the oscillation frequency for ``tone`` / ``alpha_burst``
    (defaults: 10 Hz) and the discharge rate for ``spike_wave_seizure``
    (default: 3 Hz); the remaining kinds ignore it.  ``start_s`` / ``stop_s``
    bound the active interval; ``stop_s=None`` extends to the end.
    """

    kind: str
    amplitude_mv: float
    freq_hz: float | None = None
    start_s: float = 0.0
    stop_s: float | None = None

    def __post_init__(self) -> None:
        """Refuse a value that would crash rendering or render NaN or nothing."""
        if self.kind not in COMPONENT_KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        if not (finite(self.amplitude_mv) and self.amplitude_mv >= 0):
            raise ValueError(f"amplitude_mv must be a finite nonnegative number, "
                             f"got {self.amplitude_mv!r}")
        if self.freq_hz is not None and not (finite(self.freq_hz) and self.freq_hz > 0):
            raise ValueError(f"freq_hz must be a finite number above 0, got {self.freq_hz!r}")
        if not finite(self.start_s):
            raise ValueError(f"start_s must be a finite number, got {self.start_s!r}")
        if self.stop_s is not None and not (finite(self.stop_s) and self.stop_s > self.start_s):
            raise ValueError(f"stop_s must be a finite number above start_s ({self.start_s!r}), "
                             f"got {self.stop_s!r}")


@dataclass(frozen=True)
class SynthesisSpec:
    """Deterministic description of a synthetic recording."""

    duration_s: float
    components: tuple[SynthComponent, ...] = ()
    patient_id: str = "synthetic"
    sample_rate: float = BIOPOTENTIAL_RATE_HZ
    imu_rate: float = IMU_RATE_HZ
    seed: int = 0

    def __post_init__(self) -> None:
        if not (finite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be a finite number above 0, got {self.duration_s!r}")
        object.__setattr__(self, "components", tuple(self.components))


def _interval_mask(n: int, fs: float, start_s: float, stop_s: float | None) -> tuple[int, int]:
    stop_s = n / fs if stop_s is None else stop_s
    i0 = max(0, int(round(start_s * fs)))
    i1 = min(n, int(round(stop_s * fs)))
    return i0, max(i0, i1)


def _raised_cosine_edges(length: int, ramp: int) -> np.ndarray:
    """Flat-topped envelope with raised-cosine on/off ramps."""
    env = np.ones(length)
    ramp = min(ramp, length // 2)
    if ramp > 0:
        edge = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
        env[:ramp] = edge
        env[-ramp:] = edge[::-1]
    return env


def _spike_wave_period(fs: float, rate_hz: float) -> np.ndarray:
    """One period of a spike-and-wave discharge, peak-normalized.

    The spike is a 12 ms-sigma bump, broad enough that a despiking stage
    tuned for electrode pops leaves it alone.  The slow wave is wide and
    deep, so each period has net negative area: the baseline shift that
    accompanies a discharge.
    """
    period = int(round(fs / rate_hz))
    t = np.arange(period) / fs
    spike = np.exp(-0.5 * ((t - 0.045) / 0.012) ** 2)
    wave = np.zeros(period)
    w0, w1 = 0.08, 0.32
    inside = (t >= w0) & (t < w1)
    wave[inside] = 0.90 * np.sin(np.pi * (t[inside] - w0) / (w1 - w0))
    shape = spike - wave
    return shape / np.max(np.abs(shape))


def _bandlimited_noise(rng: np.random.Generator, n: int, fs: float, lo: float, hi: float) -> np.ndarray:
    """Unit-RMS Gaussian noise bandpassed to [lo, hi] Hz."""
    x = rng.standard_normal(n + 2 * int(fs))
    sos = sps.butter(4, [lo, hi], btype="band", fs=fs, output="sos")
    y = sps.sosfiltfilt(sos, x)[int(fs):int(fs) + n]
    rms = np.sqrt(np.mean(y**2))
    return y / rms if rms > 0 else y


def _tone_comb(n: int, fs: float, lo: float, hi: float) -> np.ndarray:
    """Unit-RMS sum of equal-amplitude tones filling [lo, hi] Hz.

    Lines ``TONE_SPACING_HZ`` apart sit on a 0.5 Hz grid so any 2 s frame holds
    a whole number of cycles of every line, making frame energies
    independent of frame placement.  Phases follow the Schroeder rule,
    which keeps the crest factor near that of a single sinusoid instead
    of letting the lines ever peak together.
    """
    freqs = np.arange(np.ceil(lo / 0.5) * 0.5, hi + 1e-9, TONE_SPACING_HZ)
    k = np.arange(len(freqs))
    phases = -np.pi * k * (k + 1) / len(freqs)
    t = np.arange(n) / fs
    x = np.sum(np.sin(2 * np.pi * freqs[:, None] * t + phases[:, None]), axis=0)
    rms = np.sqrt(np.mean(x**2))
    return x / rms if rms > 0 else x


def _render_component(
    comp: SynthComponent,
    n: int,
    fs: float,
    n_imu: int,
    imu_rate: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Render one component.

    Returns (biopotential track, optional second-channel track, optional IMU
    envelope at the IMU rate).  A None second channel means both mixed
    channels receive the same waveform.
    """
    x = np.zeros(n)
    i0, i1 = _interval_mask(n, fs, comp.start_s, comp.stop_s)
    seg = i1 - i0
    if seg == 0:
        return x, None, None
    t = np.arange(n) / fs

    if comp.kind == "tone":
        f = 10.0 if comp.freq_hz is None else comp.freq_hz
        x[i0:i1] = comp.amplitude_mv * np.sin(2 * np.pi * f * t[i0:i1])
        return x, None, None

    if comp.kind == "alpha_burst":
        f = 10.0 if comp.freq_hz is None else comp.freq_hz
        env = _raised_cosine_edges(seg, int(0.5 * fs))
        x[i0:i1] = comp.amplitude_mv * env * np.sin(2 * np.pi * f * t[i0:i1])
        return x, None, None

    if comp.kind == "white_noise":
        x[i0:i1] = rng.normal(0.0, comp.amplitude_mv, seg)
        x2 = np.zeros(n)
        x2[i0:i1] = rng.normal(0.0, comp.amplitude_mv, seg)
        return x, x2, None

    if comp.kind == "blink":
        # biphasic ~500 ms deflections; freq_hz is the repetition rate
        # (default one blink every 2 s).  Rapid repetition merges the
        # pulses into a continuous slow oscillation, the way a run of
        # forced blinks or rhythmic eye deviation looks.
        rate = 0.5 if comp.freq_hz is None else comp.freq_hz
        pulse_len = int(0.3 * fs)
        pulse = np.sin(np.pi * np.arange(pulse_len) / pulse_len) ** 2
        rebound_len = int(0.2 * fs)
        rebound = -0.25 * np.sin(np.pi * np.arange(rebound_len) / rebound_len) ** 2
        shape = np.concatenate([pulse, rebound])
        j = 0
        while True:
            pos = i0 + int(round(j * fs / rate))
            if pos >= i1:
                break
            end = min(pos + len(shape), i1)
            x[pos:end] += comp.amplitude_mv * shape[: end - pos]
            j += 1
        return x, None, None

    if comp.kind == "chew":
        # bursts of broadband muscle activity; freq_hz is the burst rate
        # (default ~1 Hz mastication).  Rates above 2 Hz close the
        # inter-burst gaps into sustained high-tension activity, which
        # also recruits a wider, higher-frequency band.  A small
        # same-envelope pedestal models the baseline shift of a working
        # muscle.
        rate = 1.0 if comp.freq_hz is None else comp.freq_hz
        lo, hi = (20.0, 60.0) if rate <= 2.0 else (35.0, 112.0)
        burst_len = int(0.35 * fs)
        carrier = _tone_comb(seg, fs, lo, hi)
        env = np.zeros(seg)
        j = 0
        while True:
            pos = int(round(j * fs / rate))
            if pos >= seg:
                break
            end = min(pos + burst_len, seg)
            env[pos:end] = np.maximum(env[pos:end], np.hanning(burst_len)[: end - pos])
            j += 1
        x[i0:i1] = comp.amplitude_mv * env * (carrier + 0.1)
        return x, None, None

    if comp.kind == "spike_wave_seizure":
        rate = 3.0 if comp.freq_hz is None else comp.freq_hz
        period = _spike_wave_period(fs, rate)
        reps = int(np.ceil(seg / len(period)))
        train = np.tile(period, reps)[:seg]
        env = _raised_cosine_edges(seg, int(1.0 * fs))
        x[i0:i1] = comp.amplitude_mv * env * train
        return x, None, None

    if comp.kind == "motion_burst":
        # Without a dominant frequency: one smooth sway, low-frequency
        # noise under a sin^2 envelope.  With freq_hz set: a series of
        # discrete jolts (0.25 s windowed tones near that frequency) at
        # random times with random strengths, the way scratching or
        # head jerks register.  Either way the envelope co-registers on
        # the accelerometer.
        full_env = np.zeros(n)
        if comp.freq_hz is None:
            carrier = _bandlimited_noise(rng, seg, fs, 2.0, 6.0)
            env = np.sin(np.pi * np.arange(seg) / seg) ** 2
            x[i0:i1] = comp.amplitude_mv * env * carrier
            full_env[i0:i1] = env
        else:
            jerk_len = int(0.4 * fs)
            n_jerks = max(1, int(round(1.2 * seg / fs)))
            starts = np.sort(rng.integers(0, max(1, seg - jerk_len), n_jerks))
            amps = np.clip(rng.lognormal(0.0, 0.35, n_jerks), 0.3, 2.5)
            env = np.zeros(seg)
            for s0, amp in zip(starts, amps):
                e = amp * np.hanning(jerk_len)
                f = comp.freq_hz * (1.0 + 0.05 * (2.0 * rng.random() - 1.0))
                tone = np.cos(2 * np.pi * f * np.arange(jerk_len) / fs + rng.uniform(0, 2 * np.pi))
                x[i0 + s0:i0 + s0 + jerk_len] += comp.amplitude_mv * e * tone
                env[s0:s0 + jerk_len] = np.maximum(env[s0:s0 + jerk_len], e)
            full_env[i0:i1] = env
        imu_env = np.interp(np.arange(n_imu) / imu_rate, t, full_env)
        return x, None, imu_env

    raise ValueError(f"unknown component kind {comp.kind!r}")  # pragma: no cover


def render_sources(spec: SynthesisSpec) -> tuple[dict[str, np.ndarray], np.ndarray, list[SeizureAnnotation]]:
    """Render a spec into per-modality source tracks plus the IMU track.

    Returns
    -------
    sources : dict
        Keys are a subset of {"eeg", "eog", "emg", "motion", "noise"} and
        map to single-channel tracks; "noise" holds the second channel's
        independent noise draw stacked as 2 x N when present.
    imu : np.ndarray
        3 x M accelerometer track in g.
    annotations : list[SeizureAnnotation]
    """
    fs = spec.sample_rate
    n = int(round(spec.duration_s * fs))
    n_imu = int(round(spec.duration_s * spec.imu_rate))
    seeds = np.random.SeedSequence(spec.seed).spawn(len(spec.components) + 1)
    imu_rng = np.random.default_rng(seeds[-1])

    sources: dict[str, np.ndarray] = {}
    noise_pair = None
    imu_env_total = np.zeros(n_imu)
    annotations: list[SeizureAnnotation] = []

    for comp, seed in zip(spec.components, seeds[:-1]):
        rng = np.random.default_rng(seed)
        x, x2, imu_env = _render_component(comp, n, fs, n_imu, spec.imu_rate, rng)
        modality = COMPONENT_MODALITY[comp.kind]
        if modality == "noise":
            pair = np.stack([x, x2])
            noise_pair = pair if noise_pair is None else noise_pair + pair
        else:
            sources[modality] = sources.get(modality, np.zeros(n)) + x
        if imu_env is not None:
            imu_env_total += imu_env
        if comp.kind == "spike_wave_seizure":
            stop = spec.duration_s if comp.stop_s is None else comp.stop_s
            annotations.append(SeizureAnnotation(comp.start_s, stop, "synthetic"))

    if noise_pair is not None:
        sources["noise"] = noise_pair

    # IMU: gravity on z plus sensor noise, with motion bursts showing up as
    # magnitude fluctuations spread over the axes.
    imu = np.zeros((3, n_imu))
    imu[2] = 1.0
    imu += 0.01 * imu_rng.standard_normal((3, n_imu))
    imu[0] += 0.30 * imu_env_total
    imu[2] += 0.40 * imu_env_total
    return sources, imu, annotations


def synthesize_recording(spec: SynthesisSpec) -> Recording:
    """Build a two-channel mixed recording from a synthesis spec.

    The same seed always yields byte-identical samples.  Structured
    components are injected into both mixed channels; white noise is drawn
    independently per channel.
    """
    sources, imu, annotations = render_sources(spec)
    n = int(round(spec.duration_s * spec.sample_rate))
    base = np.zeros(n)
    for name in ("eeg", "eog", "emg", "motion"):
        if name in sources:
            base = base + sources[name]
    left = base.copy()
    right = base.copy()
    if "noise" in sources:
        left += sources["noise"][0]
        right += sources["noise"][1]
    return Recording(
        patient_id=spec.patient_id,
        sample_rate=spec.sample_rate,
        channels={ChannelRole.MIXED_LEFT: left, ChannelRole.MIXED_RIGHT: right},
        imu=imu,
        imu_rate=spec.imu_rate,
        annotations=annotations,
    )
