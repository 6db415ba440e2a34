"""Divergences, multiplicative updates, and template-bank separation."""

import json
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe import nnmf
from earpipe.io import RecordingFormatError, save_recording
from earpipe.nnmf import (
    EPS,
    TemplateBank,
    _multiplicative_updates,
    is_divergence,
    load_templates,
    nnmf_factorize,
    save_templates,
    separate_channel,
    separate_recording_nnmf,
    train_templates,
)
from earpipe.signals import MODALITIES, ChannelRole, Recording, SEPARATED_ROLES
from earpipe.stft import StftConfig, stft

FS = 250.0


def _sources(duration_s=12.0, fs=FS, seed=0):
    """Band-separated stand-ins: 10 Hz tone, fast noise, slow drift."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * fs)) / fs
    eeg = 0.1 * np.sin(2 * np.pi * 10.0 * t)
    emg = 0.05 * rng.standard_normal(len(t))
    eog = 0.2 * np.sin(2 * np.pi * 0.8 * t + 0.3)
    return {"eeg": eeg, "emg": emg, "eog": eog}


class TestBetaDivergence:
    """The Itakura-Saito divergence, the beta = 0 member of the family."""

    def test_zero_at_equality(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 2.0, 50)
        assert is_divergence(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_itakura_saito_scale_invariant(self):
        """Scaling both inputs leaves the IS divergence unchanged."""
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 2.0, 40)
        y = rng.uniform(0.1, 2.0, 40)
        d1 = is_divergence(x, y)
        d2 = is_divergence(1000.0 * x, 1000.0 * y)
        assert d2 == pytest.approx(d1, rel=1e-9)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            is_divergence(np.array([-1.0]), np.array([1.0]))


class TestFactorize:
    def test_divergence_nonincreasing(self, monkeypatch):
        """Multiplicative updates never push the objective uphill."""
        monkeypatch.setattr(nnmf, "RANK", 4)
        monkeypatch.setattr(nnmf, "MAX_ITER", 60)
        rng = np.random.default_rng(3)
        v = rng.uniform(0.1, 1.0, size=(20, 30))
        _, _, hist = nnmf_factorize(v)
        diffs = np.diff(hist)
        assert np.all(diffs <= 1e-8 * np.abs(hist[:-1]) + 1e-12)

    def test_low_rank_recovery(self, monkeypatch):
        """An exactly rank-3 matrix is fitted to small relative error."""
        monkeypatch.setattr(nnmf, "RANK", 3)
        monkeypatch.setattr(nnmf, "MAX_ITER", 500)
        rng = np.random.default_rng(4)
        w_true = rng.uniform(0.1, 1.0, size=(25, 3))
        h_true = rng.uniform(0.1, 1.0, size=(3, 40))
        v = w_true @ h_true
        w, h, _ = nnmf_factorize(v)
        rel = np.linalg.norm(w @ h - v) / np.linalg.norm(v)
        assert rel < 0.02

    def test_deterministic_given_seed(self, monkeypatch):
        monkeypatch.setattr(nnmf, "RANK", 2)
        monkeypatch.setattr(nnmf, "MAX_ITER", 30)
        rng = np.random.default_rng(5)
        v = rng.uniform(0.1, 1.0, size=(15, 20))
        w1, h1, _ = nnmf_factorize(v, seed=42)
        w2, h2, _ = nnmf_factorize(v, seed=42)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(h1, h2)

    def test_factors_strictly_positive(self, monkeypatch):
        monkeypatch.setattr(nnmf, "RANK", 2)
        monkeypatch.setattr(nnmf, "MAX_ITER", 20)
        rng = np.random.default_rng(6)
        v = rng.uniform(0.0, 1.0, size=(10, 10))
        w, h, _ = nnmf_factorize(v)
        assert np.all(w > 0)
        assert np.all(h > 0)


def _shared_ratio_updates(v, w, h, max_iter, tol, learn_w):
    """The update loop written plainly, kept as the exact oracle: after each
    factor update ``wh`` is floored once, and the next update's numerator
    reads ``v / wh * (1 / wh)`` and its denominator ``1 / wh``."""
    wh = np.maximum(w @ h, EPS)
    history = [is_divergence(v, wh)]
    for _ in range(max_iter):
        h = np.maximum(h * (w.T @ (v / wh * (1 / wh))) / np.maximum(w.T @ (1 / wh), EPS), EPS)
        wh = np.maximum(w @ h, EPS)
        if learn_w:
            w = np.maximum(w * ((v / wh * (1 / wh)) @ h.T) / np.maximum((1 / wh) @ h.T, EPS), EPS)
            wh = np.maximum(w @ h, EPS)
        history.append(is_divergence(v, wh))
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < tol:
            break
    return w, h, history


# The textbook beta-divergence updates, at beta = 0 (Itakura-Saito)
def _reference_update_h(v, w, h, beta=0):
    wh = np.maximum(w @ h, EPS)
    num = w.T @ (wh ** (beta - 2) * v)
    den = np.maximum(w.T @ wh ** (beta - 1), EPS)
    return np.maximum(h * num / den, EPS)


def _reference_update_w(v, w, h, beta=0):
    wh = np.maximum(w @ h, EPS)
    num = (wh ** (beta - 2) * v) @ h.T
    den = np.maximum(wh ** (beta - 1) @ h.T, EPS)
    return np.maximum(w * num / den, EPS)


def _power_updates(v, w, h, max_iter, tol, learn_w):
    """The textbook loop, kept as the tolerance oracle: every update forms
    ``w @ h`` itself and raises it to the powers -2 and -1, and so does the
    divergence, three products per iteration.  The shared loop computes
    ``v / wh**2`` as ``v / wh * (1 / wh)``, so only the last bits differ."""
    history = [is_divergence(v, w @ h)]
    for _ in range(max_iter):
        h = _reference_update_h(v, w, h)
        if learn_w:
            w = _reference_update_w(v, w, h)
        history.append(is_divergence(v, w @ h))
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < tol:
            break
    return w, h, history


def _reference_factorize(v, rank, seed, max_iter, tol, updates):
    """``nnmf_factorize`` with the update loop ``updates``."""
    v = np.maximum(np.asarray(v, dtype=np.float64), EPS)
    bins, frames = v.shape
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=(bins, rank)) * np.sqrt(v.mean() / rank)
    h = rng.uniform(0.5, 1.5, size=(rank, frames)) * np.sqrt(v.mean() / rank)
    return updates(v, w, h, max_iter, tol, True)


def _reference_separation(x, bank, max_iter, tol, updates):
    """Separation's activation fit, from seed 0, with the update loop
    ``updates``, and its soft masks.  Returns (masks, divergence history)."""
    v = np.maximum(stft(x, bank.stft_config).power(), EPS)
    rng = np.random.default_rng(0)
    h = rng.uniform(0.5, 1.5, size=(bank.w.shape[1], v.shape[1]))
    _, h, history = updates(v, bank.w, h, max_iter, tol, False)
    powers = {m: bank.w[:, bank.block(m)] @ h[bank.block(m)] for m in MODALITIES}
    total = np.maximum(sum(powers.values()), np.finfo(float).tiny)
    return {m: powers[m] / total for m in MODALITIES}, history


_loop_settings = dict(
    rank=st.integers(min_value=1, max_value=4),
    max_iter=st.integers(min_value=0, max_value=40),
    tol=st.sampled_from([0.0, nnmf.TOL]),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestReferenceLoop:
    @settings(max_examples=80, deadline=None)
    @given(
        bins=st.integers(min_value=1, max_value=20),
        frames=st.integers(min_value=1, max_value=24),
        **_loop_settings,
    )
    def test_factorize_matches_reference_exactly(self, bins, frames, rank, max_iter, tol, seed):
        """Factors and divergence history equal the plainly written shared
        loop's bit for bit, zero cells (floored at EPS) included."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 2.0, size=(bins, frames)) * (rng.random((bins, frames)) > 0.2)
        with patch.multiple(nnmf, RANK=rank, MAX_ITER=max_iter, TOL=tol):
            w, h, history = nnmf_factorize(v, seed)
        w_ref, h_ref, history_ref = _reference_factorize(
            v, rank, seed, max_iter, tol, _shared_ratio_updates
        )
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(h, h_ref)
        assert history == history_ref

    @settings(max_examples=60, deadline=None)
    @given(
        window_len=st.sampled_from([8, 16, 32]),
        n=st.integers(min_value=4, max_value=300),
        **_loop_settings,
    )
    def test_separation_matches_reference_exactly(self, window_len, n, rank, max_iter, tol, seed):
        """Masks and divergence history of a fixed-bank separation equal the
        plainly written shared loop's bit for bit; ``seed`` draws the bank
        and the signal."""
        rng = np.random.default_rng(seed)
        bins = window_len // 2 + 1
        w = rng.uniform(0.01, 1.0, size=(bins, rank * len(MODALITIES)))
        bank = TemplateBank(w=w / w.sum(axis=0), stft_config=StftConfig(window_len, window_len // 2),
                            sample_rate=FS)
        x = rng.standard_normal(n)
        with patch.multiple(nnmf, MAX_ITER=max_iter, TOL=tol):
            res = separate_channel(x, bank)
        masks_ref, history_ref = _reference_separation(
            x, bank, max_iter, tol, _shared_ratio_updates
        )
        for m in MODALITIES:
            np.testing.assert_array_equal(res.masks[m], masks_ref[m])
        assert res.divergence == history_ref


def _full_size_start():
    """A full-size mixture spectrogram (129 bins) and a rank-6 start."""
    mixture = sum(_sources().values())
    v = np.maximum(stft(mixture).power(), EPS)
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 1.5, size=(v.shape[0], 6))
    h = rng.uniform(0.5, 1.5, size=(6, v.shape[1]))
    return v, w, h


class TestPreviousLoop:
    @pytest.mark.parametrize("learn_w", [True, False])
    def test_matches_previous_loop_exactly(self, learn_w, monkeypatch):
        """On a full-size spectrogram (129 bins), factors and divergence
        history equal the plainly written shared loop's bit for bit."""
        v, w, h = _full_size_start()
        monkeypatch.setattr(nnmf, "MAX_ITER", 30)
        monkeypatch.setattr(nnmf, "TOL", 0.0)
        got = _multiplicative_updates(v, w, h, learn_w)
        want = _shared_ratio_updates(v, w, h, 30, 0.0, learn_w)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2] and len(got[2]) == 31


class TestPowerLoopOracle:
    """The shared loop against the textbook ``wh ** -2`` loop on full-size
    inputs: the same iteration count and factors, masks and divergence
    histories within 1e-12 relative (measured: at most 9e-13 for factors
    after 200 iterations, 4.5e-16 for histories).  On tiny random inputs
    the loops can part further: at ``tol = 0`` a rank-1 fit reaches its
    fixed point within a few iterations and stops at the first uphill
    rounding step, which any change in the last bits moves."""

    @pytest.mark.parametrize("learn_w", [True, False])
    @pytest.mark.parametrize("max_iter, tol", [(30, 0.0), (nnmf.MAX_ITER, nnmf.TOL)],
                             ids=["30-iterations", "default"])
    def test_factors_near_power_loop(self, learn_w, max_iter, tol, monkeypatch):
        v, w, h = _full_size_start()
        monkeypatch.setattr(nnmf, "MAX_ITER", max_iter)
        monkeypatch.setattr(nnmf, "TOL", tol)
        got = _multiplicative_updates(v, w, h, learn_w)
        want = _power_updates(v, w, h, max_iter, tol, learn_w)
        assert len(got[2]) == len(want[2])
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=0)

    def test_masks_near_power_loop(self, bank):
        src = _sources(duration_s=30.0, seed=12)
        mix = src["eeg"] + src["emg"] + src["eog"]
        res = separate_channel(mix, bank)
        masks, history = _reference_separation(mix, bank, nnmf.MAX_ITER, nnmf.TOL, _power_updates)
        assert len(res.divergence) == len(history)
        for m in MODALITIES:
            np.testing.assert_allclose(res.masks[m], masks[m], rtol=1e-12, atol=0)
        np.testing.assert_allclose(res.divergence, history, rtol=1e-12, atol=0)


class TestTemplateBank:
    def test_bank_shape_and_normalization(self, monkeypatch):
        monkeypatch.setattr(nnmf, "RANK", 4)
        monkeypatch.setattr(nnmf, "MAX_ITER", 50)
        bank, history = train_templates(_sources(), FS)
        assert bank.w.shape[1] == 4 * len(MODALITIES)
        np.testing.assert_allclose(bank.w.sum(axis=0), 1.0, atol=1e-9)
        assert set(history) == set(MODALITIES)

    def test_block_slices(self, monkeypatch):
        monkeypatch.setattr(nnmf, "RANK", 3)
        monkeypatch.setattr(nnmf, "MAX_ITER", 20)
        bank, _ = train_templates(_sources(), FS)
        assert bank.block("eeg") == slice(0, 3)
        assert bank.block("emg") == slice(3, 6)
        assert bank.block("eog") == slice(6, 9)

    def test_rank_follows_width(self):
        """A 30-column dictionary is three blocks of 10, every column used."""
        bank = TemplateBank(np.full((129, 30), 1 / 129), StftConfig(), FS)
        assert bank.rank == 10
        assert [bank.block(m) for m in MODALITIES] == [slice(0, 10), slice(10, 20), slice(20, 30)]

    @pytest.mark.parametrize("width", [0, 1, 2, 4, 29, 31])
    def test_width_not_a_multiple_of_three_refused(self, width):
        with pytest.raises(ValueError, match=rf"^w has {width} columns, not a positive multiple "
                                             r"of 3, one block per modality$"):
            TemplateBank(np.full((129, width), 1 / 129), StftConfig(), FS)

    @pytest.mark.parametrize("bins, window_len", [(128, 256), (130, 256), (129, 128)])
    def test_rows_not_the_stft_bins_refused(self, bins, window_len):
        cfg = StftConfig(window_len=window_len, hop=window_len // 2)
        with pytest.raises(ValueError, match=rf"^w has {bins} rows, but a {window_len}-sample "
                                             rf"STFT window gives {window_len // 2 + 1} bins$"):
            TemplateBank(np.full((bins, 3), 1 / bins), cfg, FS)

    def test_missing_source_rejected(self):
        sources = _sources()
        del sources["emg"]
        with pytest.raises(ValueError, match="missing template sources"):
            train_templates(sources, FS)

    def test_save_load_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nnmf, "RANK", 3)
        monkeypatch.setattr(nnmf, "MAX_ITER", 20)
        bank, _ = train_templates(_sources(), FS)
        path = save_templates(bank, tmp_path / "bank")
        assert sorted(p.name for p in path.iterdir()) == ["header.json", "w.bin"]
        loaded = load_templates(path)
        np.testing.assert_array_equal(loaded.w, bank.w)
        assert loaded.rank == bank.rank
        assert loaded.stft_config == bank.stft_config
        assert loaded.sample_rate == bank.sample_rate

    def test_load_rejects_other_containers(self, tmp_path):
        """A recording directory, or a bank saved as one file (the format
        before banks were directories), is refused by path."""
        rec = Recording("p01", channels={ChannelRole.MIXED_LEFT: np.zeros(10)})
        recording = save_recording(rec, tmp_path / "rec")
        with pytest.raises(RecordingFormatError,
                           match=rf"^{re.escape(str(recording))}: header\.json: missing kind$"):
            load_templates(recording)
        single_file = tmp_path / "bank.earpipe"
        single_file.write_bytes(b"EARPIPE1\n" + bytes(64))
        with pytest.raises(RecordingFormatError,
                           match=rf"^{re.escape(str(single_file))}: no header\.json$"):
            load_templates(single_file)

    @pytest.mark.parametrize(
        "field, value", [("rank", 2), ("rank", 4), ("stft", {"window_len": 128, "hop": 64})]
    )
    def test_load_rejects_payload_header_mismatch(self, tmp_path, field, value, monkeypatch):
        """A header that disagrees with the payload's shape is refused by
        file name, not turned into all-zero channels at separation."""
        monkeypatch.setattr(nnmf, "RANK", 3)
        monkeypatch.setattr(nnmf, "MAX_ITER", 5)
        bank, _ = train_templates(_sources(), FS)
        path = save_templates(bank, tmp_path / "bank")
        header = json.loads((path / "header.json").read_text())
        header[field] = value
        (path / "header.json").write_text(json.dumps(header))
        message = rf"^{re.escape(str(path))}: w\.bin: expected \d+ float64 values \(\d+ bytes\), "
        message += "got 9288 bytes$"
        with pytest.raises(RecordingFormatError, match=message):
            load_templates(path)

    @pytest.mark.parametrize("damage, message", [
        (lambda header, w: header.pop("rank"), r"header\.json: missing rank$"),
        (lambda header, w: header["stft"].update(extra=1),
         r"header\.json: unexpected keys \['extra'\] in stft$"),
        (lambda header, w: header.update(rank="ten"),
         r"header\.json: rank must be an integer of at least 1, got 'ten'$"),
        (lambda header, w: w.unlink(), r"missing payload file w\.bin$"),
        (lambda header, w: header.update(modalities=3),
         r"header\.json: modalities must be \['eeg', 'emg', 'eog'\], got 3$"),
        (lambda header, w: header.update(sample_rate="x"),
         r"header\.json: sample_rate must be a finite number above 0, got 'x'$"),
        (lambda header, w: header["stft"].update(hop=0),
         r"header\.json: stft\.hop must be an integer of at least 1, got 0$"),
        (lambda header, w: header.update(modalities=["eeg", "emg", "eoh"]),
         r"header\.json: modalities must be \['eeg', 'emg', 'eog'\], "
         r"got \['eeg', 'emg', 'eoh'\]$"),
        (lambda header, w: header.update(kind="recording"),
         r"header\.json: kind must be 'nnmf_templates', got 'recording'$"),
        (lambda header, w: header["stft"].update(hop=512),
         r"header\.json: hop larger than the window breaks overlap-add$"),
        (lambda header, w: header.update(rank=True),
         r"header\.json: rank must be an integer of at least 1, got True$"),
        (lambda header, w: _set_cell(w, 40, float("nan")),
         r"w\.bin: 1 of 387 values are NaN or infinite$"),
        (lambda header, w: _set_cell(w, 40, -1.0), r"w\.bin: 1 of 387 values are negative$"),
    ], ids=["no-rank", "extra-stft-key", "text-rank", "no-arrays", "integer-modalities",
            "text-rate", "zero-hop", "misspelt-modality", "another-kind", "hop-over-window",
            "true-rank", "nan-cell", "negative-cell"])
    def test_damaged_bank_names_the_file(self, tmp_path, damage, message):
        bank = TemplateBank(np.full((129, 3), 1 / 129), StftConfig(), FS)
        path = save_templates(bank, tmp_path / "bank")
        header = json.loads((path / "header.json").read_text())
        damage(header, path / "w.bin")
        (path / "header.json").write_text(json.dumps(header))
        with pytest.raises(RecordingFormatError, match=rf"^{re.escape(str(path))}: {message}"):
            load_templates(path)


def _set_cell(path, at, value):
    """Overwrite float64 number ``at`` of the payload file ``path``."""
    values = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    values[at] = value
    path.write_bytes(values.tobytes())


@pytest.fixture(scope="module")
def bank():
    with patch.multiple(nnmf, RANK=4, MAX_ITER=80):
        bank, _ = train_templates(_sources(), FS)
    return bank


class TestSeparation:

    def test_masks_partition_unity(self, bank, monkeypatch):
        """Soft masks over the three modalities sum to one per cell."""
        monkeypatch.setattr(nnmf, "MAX_ITER", 60)
        src = _sources(seed=7)
        mix = src["eeg"] + src["emg"] + src["eog"]
        res = separate_channel(mix, bank)
        total = sum(res.masks.values())
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_outputs_sum_to_mixture(self, bank, monkeypatch):
        """Masked reconstructions add back to the input signal.

        The masks partition unity, so the three masked spectrograms sum to
        the mixture's spectrogram exactly; in the time domain the only error
        left is the overlap-add boundary, hence the trimmed comparison.
        """
        monkeypatch.setattr(nnmf, "MAX_ITER", 60)
        src = _sources(seed=8)
        mix = src["eeg"] + src["emg"] + src["eog"]
        res = separate_channel(mix, bank)
        rebuilt = sum(res.signals.values())
        win = bank.stft_config.window_len
        np.testing.assert_allclose(rebuilt[win:-win], mix[win:-win], atol=1e-8)

    def test_band_separated_mixture_recovered(self, bank, monkeypatch):
        """Each output channel tracks its own source, not the others."""
        monkeypatch.setattr(nnmf, "MAX_ITER", 100)
        src = _sources(seed=9)
        mix = src["eeg"] + src["emg"] + src["eog"]
        res = separate_channel(mix, bank)
        trim = slice(int(FS), -int(FS))
        for m in MODALITIES:
            out = res.signals[m][trim]
            ref = src[m][trim]
            r = np.corrcoef(out, ref)[0, 1]
            assert r > 0.8, f"{m}: r={r:.3f}"

    def test_peak_memory_per_sample(self, bank, monkeypatch):
        """Separating a 90 s channel holds at most 16 float64 values per
        sample at its peak: the powers become the masks in place, and the
        fitted power spectrogram is freed before them.  Holding the powers,
        their sum and the masks at once, with the power spectrogram, takes
        20.3."""
        monkeypatch.setattr(nnmf, "MAX_ITER", 20)
        mix = sum(_sources(duration_s=90.0, seed=3).values())
        tracemalloc.start()
        try:
            separate_channel(mix, bank)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (8 * len(mix)) <= 16

    def test_bin_mismatch_rejected(self, bank):
        """A dictionary cut short of the STFT's bins is refused when the bank
        is built, before any separation."""
        with pytest.raises(ValueError, match="w has 124 rows, but a 256-sample STFT window"):
            type(bank)(w=bank.w[:-5], stft_config=bank.stft_config, sample_rate=bank.sample_rate)

    def test_recording_separation_roles(self, bank, monkeypatch):
        monkeypatch.setattr(nnmf, "MAX_ITER", 40)
        src = _sources(seed=11)
        mix = src["eeg"] + src["emg"] + src["eog"]
        rec = Recording(
            patient_id="t01",
            sample_rate=FS,
            channels={
                ChannelRole.MIXED_LEFT: mix,
                ChannelRole.MIXED_RIGHT: mix * 0.9,
            },
        )
        out = separate_recording_nnmf(rec, bank)
        assert tuple(out.channels) == SEPARATED_ROLES
        assert out.patient_id == "t01"

    def test_recording_rate_mismatch_rejected(self, bank):
        rec = Recording(
            patient_id="t02",
            sample_rate=FS * 2,
            channels={
                ChannelRole.MIXED_LEFT: np.ones(1000),
                ChannelRole.MIXED_RIGHT: np.ones(1000),
            },
        )
        with pytest.raises(ValueError, match="sample rates differ"):
            separate_recording_nnmf(rec, bank)

    def test_recording_missing_channel_rejected(self, bank):
        rec = Recording(
            patient_id="t03", sample_rate=FS, channels={ChannelRole.MIXED_LEFT: np.ones(1000)}
        )
        message = r"patient 't03' lacks channels \['mixed_right'\]; separation needs a mixed"
        with pytest.raises(ValueError, match=message):
            separate_recording_nnmf(rec, bank)
