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
            if not (finite(rate) and rate > 0):
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


#: The sources separation splits each mixed channel into, in the order of a
#: template bank's column blocks.
MODALITIES = ("eeg", "emg", "eog")


def separate_mixed(rec: Recording, split) -> Recording:
    """Split each of ``MIXED_ROLES`` into the ``MODALITIES``.

    ``split(x)`` maps one mixed channel to a dict holding at least one
    signal per name in ``MODALITIES``.  The result carries the six roles in
    ``SEPARATED_ROLES`` order.
    """
    _require_roles(rec, MIXED_ROLES)
    separated = {}
    for mixed in MIXED_ROLES:
        side = mixed.value.removeprefix("mixed_")
        signals = split(rec.channels[mixed])
        for modality in MODALITIES:
            separated[ChannelRole(f"{modality}_{side}")] = signals[modality]
    return rec.with_channels({role: separated[role] for role in SEPARATED_ROLES})


# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

#: Every synthetic component kind: the source track it renders into, and the
#: ``freq_hz`` it renders with when a component leaves that unset (None: the
#: kind has no rate of its own).
COMPONENTS = {
    "tone": ("eeg", 10.0),
    "alpha_burst": ("eeg", 10.0),
    "spike_wave_seizure": ("eeg", 3.0),
    "blink": ("eog", 0.5),
    "chew": ("emg", 1.0),
    "motion_burst": ("motion", None),
    "white_noise": ("noise", None),
}

#: Largest component amplitude: a kilovolt, far above any biopotential and
#: far enough inside the float64 range that summed components stay finite.
MAX_AMPLITUDE_MV = 1e6
#: Longest synthetic recording: one week, the longest vEEG stay, at about
#: 1.2 GB of float64 samples per track.
MAX_DURATION_S = 7 * 24 * 3600.0


@dataclass(frozen=True)
class SynthComponent:
    """One additive ingredient of a synthetic recording.

    ``kind`` is a key of ``COMPONENTS``.  ``freq_hz`` is the oscillation
    frequency of ``tone`` and ``alpha_burst``, the discharge rate of
    ``spike_wave_seizure``, the pulse rate of ``blink`` and ``chew`` and the
    jolt frequency of ``motion_burst`` (which, without one, is a single
    smooth sway); ``white_noise`` ignores it.  Left unset, it is the kind's
    default in ``COMPONENTS``.  It must lie below the Nyquist rate of
    ``BIOPOTENTIAL_RATE_HZ``.  ``start_s`` / ``stop_s`` bound the active
    interval; ``stop_s=None`` extends to the end.
    """

    kind: str
    amplitude_mv: float
    freq_hz: float | None = None
    start_s: float = 0.0
    stop_s: float | None = None

    def __post_init__(self) -> None:
        """Refuse a value that would crash rendering or render NaN or nothing."""
        if not isinstance(self.kind, str) or self.kind not in COMPONENTS:
            raise ValueError(f"unknown component kind {self.kind!r}, expected one of "
                             f"{list(COMPONENTS)}")
        if not (finite(self.amplitude_mv) and self.amplitude_mv >= 0):
            raise ValueError(f"amplitude_mv must be a finite nonnegative number, "
                             f"got {self.amplitude_mv!r}")
        if self.amplitude_mv > MAX_AMPLITUDE_MV:
            raise ValueError(f"amplitude_mv must be at most {MAX_AMPLITUDE_MV:g}, "
                             f"got {self.amplitude_mv!r}")
        if self.freq_hz is not None:
            if not (finite(self.freq_hz) and self.freq_hz > 0):
                raise ValueError(f"freq_hz must be a finite number above 0, got {self.freq_hz!r}")
            if self.freq_hz >= BIOPOTENTIAL_RATE_HZ / 2:
                raise ValueError(f"freq_hz must be below {BIOPOTENTIAL_RATE_HZ / 2:g} Hz, the "
                                 f"Nyquist rate at {BIOPOTENTIAL_RATE_HZ:g} Hz, "
                                 f"got {self.freq_hz!r}")
        if not finite(self.start_s):
            raise ValueError(f"start_s must be a finite number, got {self.start_s!r}")
        if self.stop_s is not None and not (finite(self.stop_s) and self.stop_s > self.start_s):
            raise ValueError(f"stop_s must be a finite number above start_s ({self.start_s!r}), "
                             f"got {self.stop_s!r}")


@dataclass(frozen=True)
class SynthesisSpec:
    """Deterministic description of a synthetic recording.

    It renders at ``BIOPOTENTIAL_RATE_HZ``, its IMU track at
    ``IMU_RATE_HZ``.  Each component's interval, clipped to the recording,
    must cover at least one sample.
    """

    duration_s: float = 60.0
    components: tuple[SynthComponent, ...] = ()
    patient_id: str = "synthetic"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (finite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be a finite number above 0, got {self.duration_s!r}")
        if self.duration_s > MAX_DURATION_S:
            raise ValueError(f"duration_s must be at most {MAX_DURATION_S:g} s (one week), "
                             f"got {self.duration_s!r}")
        if not isinstance(self.patient_id, str):
            raise ValueError(f"patient_id must be a string, got {self.patient_id!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer 0 or above, got {self.seed!r}")
        object.__setattr__(self, "components", tuple(self.components))
        for k, comp in enumerate(self.components):
            i0, i1 = _interval(comp, self.n_samples)
            if i0 == i1:
                raise ValueError(f"components[{k}] ({comp.kind}): start_s {comp.start_s!r} and "
                                 f"stop_s {comp.stop_s!r} cover no sample of the "
                                 f"{self.duration_s!r} s recording")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * BIOPOTENTIAL_RATE_HZ))


def _interval(comp: SynthComponent, n: int) -> tuple[int, int]:
    """First and end sample of ``comp``'s interval, clipped to ``n`` samples."""
    fs = BIOPOTENTIAL_RATE_HZ
    i0 = round(min(max(comp.start_s * fs, 0), n))
    i1 = n if comp.stop_s is None else round(min(max(comp.stop_s * fs, 0), n))
    return i0, max(i0, i1)


def _pulse_starts(length: int, fs: float, rate: float) -> np.ndarray:
    """Sample offsets of pulses repeating at ``rate`` Hz from offset 0 that
    fall within ``length`` samples."""
    starts = np.rint(np.arange(int(length * rate / fs) + 1) * fs / rate)
    return starts[starts < length].astype(int)


def _raised_cosine_edges(length: int, ramp: int) -> np.ndarray:
    """Flat-topped envelope with raised-cosine on/off ramps."""
    env = np.ones(length)
    ramp = min(ramp, length // 2)
    if ramp > 0:
        edge = 0.5 * (1 - np.cos(np.pi * np.arange(ramp) / ramp))
        env[:ramp] = edge
        env[-ramp:] = edge[::-1]
    return env


def _spike_wave_period(fs: float, rate_hz: float, limit: int | None = None) -> np.ndarray:
    """One period of a spike-and-wave discharge, peak-normalized.

    The spike is a 12 ms-sigma bump, broad enough that a despiking stage
    tuned for electrode pops leaves it alone.  The slow wave is wide and
    deep, so each period has net negative area: the baseline shift that
    accompanies a discharge.

    Given ``limit``, a period longer than both ``limit`` samples and 0.4 s
    is cut there.  The peak that sets the scale lies in its first 0.32 s,
    so the samples kept equal those of the whole period, and a rate far
    below 1 Hz costs no more than its interval.
    """
    period = fs / rate_hz
    cut = math.inf if limit is None else max(limit, int(0.4 * fs))
    t = np.arange(int(round(period)) if period < cut else cut) / fs
    spike = np.exp(-0.5 * ((t - 0.045) / 0.012) ** 2)
    wave = np.zeros(len(t))
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

    The lines are added one at a time, in line order, into one n-sample
    sum, so the comb costs a few n-sample arrays rather than one per line.
    """
    freqs = np.arange(np.ceil(lo / 0.5) * 0.5, hi + 1e-9, TONE_SPACING_HZ)
    k = np.arange(len(freqs))
    phases = -np.pi * k * (k + 1) / len(freqs)
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * freqs[0] * t + phases[0])
    for freq, phase in zip(freqs[1:], phases[1:]):
        x += np.sin(2 * np.pi * freq * t + phase)
    rms = np.sqrt(np.mean(x**2))
    return x / rms if rms > 0 else x


def _render_component(
    comp: SynthComponent, n: int, n_imu: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Render one component into its source track.

    Returns the track, n samples long (2 x n for ``white_noise``: one
    independent draw per mixed channel), and, for ``motion_burst`` only,
    its envelope at ``IMU_RATE_HZ``.
    """
    fs = BIOPOTENTIAL_RATE_HZ
    i0, i1 = _interval(comp, n)
    seg = i1 - i0
    rate = COMPONENTS[comp.kind][1] if comp.freq_hz is None else comp.freq_hz

    if comp.kind == "white_noise":
        x = np.zeros((2, n))
        x[:, i0:i1] = rng.normal(0.0, comp.amplitude_mv, (2, seg))
        return x, None

    x = np.zeros(n)
    if comp.kind == "tone":
        t = np.arange(i0, i1) / fs
        x[i0:i1] = comp.amplitude_mv * np.sin(2 * np.pi * rate * t)

    elif comp.kind == "alpha_burst":
        t = np.arange(i0, i1) / fs
        env = _raised_cosine_edges(seg, int(0.5 * fs))
        x[i0:i1] = comp.amplitude_mv * env * np.sin(2 * np.pi * rate * t)

    elif comp.kind == "blink":
        # biphasic ~500 ms deflections; the rate is the repetition rate.
        # Rapid repetition merges the pulses into a continuous slow
        # oscillation, the way a run of forced blinks or rhythmic eye
        # deviation looks.  Overlapping pulses add up, so a train whose sum
        # exceeds one pulse's peak is scaled back to it: ``amplitude_mv``
        # bounds the track at every rate.
        pulse_len = int(0.3 * fs)
        pulse = np.sin(np.pi * np.arange(pulse_len) / pulse_len) ** 2
        rebound_len = int(0.2 * fs)
        rebound = -0.25 * np.sin(np.pi * np.arange(rebound_len) / rebound_len) ** 2
        shape = comp.amplitude_mv * np.concatenate([pulse, rebound])
        for pos in _pulse_starts(seg, fs, rate):
            end = min(pos + len(shape), seg)
            x[i0 + pos:i0 + end] += shape[: end - pos]
        peak, train_peak = np.max(np.abs(shape)), np.max(np.abs(x))
        if train_peak > peak:
            x *= peak / train_peak

    elif comp.kind == "chew":
        # bursts of broadband muscle activity; the rate is the burst rate
        # (~1 Hz mastication).  Rates above 2 Hz close the inter-burst
        # gaps into sustained high-tension activity, which also recruits a
        # wider, higher-frequency band.  A small same-envelope pedestal
        # models the baseline shift of a working muscle.
        lo, hi = (20.0, 60.0) if rate <= 2.0 else (35.0, 112.0)
        burst = np.hanning(int(0.35 * fs))
        carrier = _tone_comb(seg, fs, lo, hi)
        env = np.zeros(seg)
        for pos in _pulse_starts(seg, fs, rate):
            end = min(pos + len(burst), seg)
            env[pos:end] = np.maximum(env[pos:end], burst[: end - pos])
        x[i0:i1] = comp.amplitude_mv * env * (carrier + 0.1)

    elif comp.kind == "spike_wave_seizure":
        train = np.resize(_spike_wave_period(fs, rate, seg), seg)
        env = _raised_cosine_edges(seg, int(1.0 * fs))
        x[i0:i1] = comp.amplitude_mv * env * train

    else:  # motion_burst
        # Without a rate: one smooth sway, low-frequency noise under a sin^2
        # envelope.  With one: a series of discrete jolts (0.25 s windowed
        # tones near that frequency, cut where the interval ends) at random
        # times with random strengths, the way scratching or head jerks
        # register.  Either way the envelope co-registers on the
        # accelerometer.
        if rate is None:
            carrier = _bandlimited_noise(rng, seg, fs, 2.0, 6.0)
            env = np.sin(np.pi * np.arange(seg) / seg) ** 2
            x[i0:i1] = comp.amplitude_mv * env * carrier
        else:
            jerk_len = int(0.4 * fs)
            n_jerks = max(1, int(round(1.2 * seg / fs)))
            starts = np.sort(rng.integers(0, max(1, seg - jerk_len), n_jerks))
            amps = np.clip(rng.lognormal(0.0, 0.35, n_jerks), 0.3, 2.5)
            env = np.zeros(seg)
            for s0, amp in zip(starts, amps):
                e = amp * np.hanning(jerk_len)
                f = rate * (1.0 + 0.05 * (2.0 * rng.random() - 1.0))
                tone = np.cos(2 * np.pi * f * np.arange(jerk_len) / fs + rng.uniform(0, 2 * np.pi))
                end = min(s0 + jerk_len, seg)
                x[i0 + s0:i0 + end] += (comp.amplitude_mv * e * tone)[: end - s0]
                env[s0:end] = np.maximum(env[s0:end], e[: end - s0])
        full_env = np.zeros(n)
        full_env[i0:i1] = env
        return x, np.interp(np.arange(n_imu) / IMU_RATE_HZ, np.arange(n) / fs, full_env)

    return x, None


def render_sources(spec: SynthesisSpec) -> tuple[dict[str, np.ndarray], np.ndarray, list[SeizureAnnotation]]:
    """Render a spec into per-track sources plus the IMU track.

    Returns
    -------
    sources : dict
        Keys are the tracks in ``COMPONENTS`` that the spec's components
        render into.  Each maps to an N-sample track, but "noise" holds one
        independent draw per mixed channel, stacked as 2 x N.
    imu : np.ndarray
        3 x M accelerometer track in g.
    annotations : list[SeizureAnnotation]
    """
    n = spec.n_samples
    n_imu = int(round(spec.duration_s * IMU_RATE_HZ))
    seeds = np.random.SeedSequence(spec.seed).spawn(len(spec.components) + 1)
    imu_rng = np.random.default_rng(seeds[-1])

    sources: dict[str, np.ndarray] = {}
    imu_env_total = np.zeros(n_imu)
    annotations: list[SeizureAnnotation] = []

    for comp, seed in zip(spec.components, seeds[:-1]):
        track, imu_env = _render_component(comp, n, n_imu, np.random.default_rng(seed))
        name = COMPONENTS[comp.kind][0]
        sources[name] = sources.get(name, np.zeros(n)) + track
        if imu_env is not None:
            imu_env_total += imu_env
        if comp.kind == "spike_wave_seizure":
            stop = spec.duration_s if comp.stop_s is None else comp.stop_s
            annotations.append(SeizureAnnotation(comp.start_s, stop, "synthetic"))

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
    mixed = np.zeros((2, spec.n_samples))
    for name in ("eeg", "eog", "emg", "motion", "noise"):  # a fixed order fixes the sum's bits
        if name in sources:
            mixed = mixed + sources[name]
    return Recording(
        patient_id=spec.patient_id,
        channels={ChannelRole.MIXED_LEFT: mixed[0], ChannelRole.MIXED_RIGHT: mixed[1]},
        imu=imu,
        annotations=annotations,
    )
