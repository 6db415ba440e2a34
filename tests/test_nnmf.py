"""Divergences, multiplicative updates, and template-bank separation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe import io as containers
from earpipe.nnmf import (
    EPS,
    MODALITIES,
    NnmfConfig,
    TemplateBank,
    _multiplicative_updates,
    _update_h,
    _update_w,
    beta_divergence,
    load_templates,
    nnmf_factorize,
    save_templates,
    separate_channel,
    separate_recording_nnmf,
    train_templates,
)
from earpipe.signals import ChannelRole, Recording, SEPARATED_ROLES
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
    def test_euclidean_value(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([0.0, 2.0, 5.0])
        assert beta_divergence(x, y, 2) == pytest.approx(0.5 * (1.0 + 4.0))

    def test_zero_at_equality(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.1, 2.0, 50)
        for beta in (0, 1, 2):
            assert beta_divergence(x, x, beta) == pytest.approx(0.0, abs=1e-12)

    def test_itakura_saito_scale_invariant(self):
        """Scaling both inputs leaves the IS divergence unchanged."""
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 2.0, 40)
        y = rng.uniform(0.1, 2.0, 40)
        d1 = beta_divergence(x, y, 0)
        d2 = beta_divergence(1000.0 * x, 1000.0 * y, 0)
        assert d2 == pytest.approx(d1, rel=1e-9)

    def test_kl_known_value(self):
        x = np.array([2.0])
        y = np.array([1.0])
        assert beta_divergence(x, y, 1) == pytest.approx(2.0 * np.log(2.0) - 1.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            beta_divergence(np.array([-1.0]), np.array([1.0]), 0)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError, match="beta must be"):
            beta_divergence(np.ones(3), np.ones(3), 3)


class TestFactorize:
    def test_divergence_nonincreasing(self):
        """Multiplicative updates never push the objective uphill."""
        rng = np.random.default_rng(3)
        v = rng.uniform(0.1, 1.0, size=(20, 30))
        for beta in (0, 1, 2):
            _, _, hist = nnmf_factorize(v, 4, NnmfConfig(beta=beta, max_iter=60))
            diffs = np.diff(hist)
            assert np.all(diffs <= 1e-8 * np.abs(hist[:-1]) + 1e-12)

    def test_low_rank_recovery(self):
        """An exactly rank-3 matrix is fitted to small relative error."""
        rng = np.random.default_rng(4)
        w_true = rng.uniform(0.1, 1.0, size=(25, 3))
        h_true = rng.uniform(0.1, 1.0, size=(3, 40))
        v = w_true @ h_true
        w, h, _ = nnmf_factorize(v, 3, NnmfConfig(beta=0, max_iter=500))
        rel = np.linalg.norm(w @ h - v) / np.linalg.norm(v)
        assert rel < 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.1, 1.0, size=(15, 20))
        w1, h1, _ = nnmf_factorize(v, 2, NnmfConfig(seed=42, max_iter=30))
        w2, h2, _ = nnmf_factorize(v, 2, NnmfConfig(seed=42, max_iter=30))
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(h1, h2)

    def test_factors_strictly_positive(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(0.0, 1.0, size=(10, 10))
        w, h, _ = nnmf_factorize(v, 2, NnmfConfig(max_iter=20))
        assert np.all(w > 0)
        assert np.all(h > 0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="beta"):
            NnmfConfig(beta=5)
        with pytest.raises(ValueError, match="rank_per_modality"):
            NnmfConfig(rank_per_modality=0)


def _reference_update_h(v, w, h, beta):
    wh = np.maximum(w @ h, EPS)
    num = w.T @ (wh ** (beta - 2) * v)
    den = np.maximum(w.T @ wh ** (beta - 1), EPS)
    return np.maximum(h * num / den, EPS)


def _reference_update_w(v, w, h, beta):
    wh = np.maximum(w @ h, EPS)
    num = (wh ** (beta - 2) * v) @ h.T
    den = np.maximum(wh ** (beta - 1) @ h.T, EPS)
    return np.maximum(w * num / den, EPS)


def _reference_factorize(v, rank, cfg):
    """Template training's own update loop, kept as the oracle for the
    shared one: every update forms ``w @ h`` itself and so does the
    divergence, three products per iteration."""
    v = np.maximum(np.asarray(v, dtype=np.float64), EPS)
    bins, frames = v.shape
    rng = np.random.default_rng(cfg.seed)
    w = rng.uniform(0.5, 1.5, size=(bins, rank)) * np.sqrt(v.mean() / rank)
    h = rng.uniform(0.5, 1.5, size=(rank, frames)) * np.sqrt(v.mean() / rank)
    history = [beta_divergence(v, w @ h, cfg.beta)]
    for _ in range(cfg.max_iter):
        h = _reference_update_h(v, w, h, cfg.beta)
        w = _reference_update_w(v, w, h, cfg.beta)
        history.append(beta_divergence(v, w @ h, cfg.beta))
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < cfg.tol:
            break
    return w, h, history


def _reference_separation(x, bank, cfg):
    """Separation's own activation loop and soft masks, kept as the oracle
    for the shared loop.  Returns (masks, divergence history)."""
    v = np.maximum(stft(x, bank.sample_rate, bank.stft_config).power(), EPS)
    rng = np.random.default_rng(cfg.seed)
    h = rng.uniform(0.5, 1.5, size=(bank.w.shape[1], v.shape[1]))
    history = [beta_divergence(v, bank.w @ h, cfg.beta)]
    for _ in range(cfg.max_iter):
        h = _reference_update_h(v, bank.w, h, cfg.beta)
        history.append(beta_divergence(v, bank.w @ h, cfg.beta))
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < cfg.tol:
            break
    powers = {m: bank.w[:, bank.block(m)] @ h[bank.block(m)] for m in bank.modalities}
    total = np.maximum(sum(powers.values()), np.finfo(float).tiny)
    return {m: powers[m] / total for m in bank.modalities}, history


_loop_settings = dict(
    beta=st.sampled_from([0, 1, 2]),
    rank=st.integers(min_value=1, max_value=4),
    max_iter=st.integers(min_value=0, max_value=40),
    tol=st.sampled_from([0.0, NnmfConfig().tol]),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestReferenceLoop:
    @settings(max_examples=80, deadline=None)
    @given(
        bins=st.integers(min_value=1, max_value=20),
        frames=st.integers(min_value=1, max_value=24),
        **_loop_settings,
    )
    def test_factorize_matches_reference_exactly(self, bins, frames, beta, rank, max_iter, tol, seed):
        """Factors and divergence history equal the old loop's bit for bit,
        zero cells (floored at EPS) included."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 2.0, size=(bins, frames)) * (rng.random((bins, frames)) > 0.2)
        cfg = NnmfConfig(beta=beta, max_iter=max_iter, tol=tol, seed=seed)
        w, h, history = nnmf_factorize(v, rank, cfg)
        w_ref, h_ref, history_ref = _reference_factorize(v, rank, cfg)
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(h, h_ref)
        assert history == history_ref

    @settings(max_examples=60, deadline=None)
    @given(
        window_len=st.sampled_from([8, 16, 32]),
        n=st.integers(min_value=4, max_value=300),
        **_loop_settings,
    )
    def test_separation_matches_reference_exactly(self, window_len, n, beta, rank, max_iter, tol, seed):
        """Masks and divergence history of a fixed-bank separation equal the
        old loop's bit for bit."""
        rng = np.random.default_rng(seed)
        bins = window_len // 2 + 1
        w = rng.uniform(0.01, 1.0, size=(bins, rank * len(MODALITIES)))
        bank = TemplateBank(w=w / w.sum(axis=0), modalities=MODALITIES, rank=rank,
                            stft_config=StftConfig(window_len, window_len // 2), sample_rate=FS)
        x = rng.standard_normal(n)
        cfg = NnmfConfig(beta=beta, max_iter=max_iter, tol=tol, seed=seed)
        res = separate_channel(x, bank, cfg)
        masks_ref, history_ref = _reference_separation(x, bank, cfg)
        for m in MODALITIES:
            np.testing.assert_array_equal(res.masks[m], masks_ref[m])
        assert res.divergence == history_ref


def _previous_multiplicative_updates(v, w, h, cfg, learn_w):
    """The shared loop before it floored ``w @ h`` once per update: the
    public divergence re-floors both inputs and scans them for signs."""
    wh = w @ h
    history = [beta_divergence(v, wh, cfg.beta)]
    for _ in range(cfg.max_iter):
        h = _update_h(v, w, h, np.maximum(wh, EPS), cfg.beta)
        wh = w @ h
        if learn_w:
            w = _update_w(v, w, h, np.maximum(wh, EPS), cfg.beta)
            wh = w @ h
        history.append(beta_divergence(v, wh, cfg.beta))
        prev, cur = history[-2], history[-1]
        if prev > 0 and (prev - cur) / prev < cfg.tol:
            break
    return w, h, history


class TestPreviousLoop:
    @pytest.mark.parametrize("learn_w", [True, False])
    @pytest.mark.parametrize("beta", [0, 1, 2])
    def test_matches_previous_loop_exactly(self, beta, learn_w):
        """On a full-size spectrogram (129 bins), factors and divergence
        history equal the previous loop's bit for bit."""
        mixture = sum(_sources().values())
        v = np.maximum(stft(mixture, FS).power(), EPS)
        rng = np.random.default_rng(3)
        w = rng.uniform(0.5, 1.5, size=(v.shape[0], 6))
        h = rng.uniform(0.5, 1.5, size=(6, v.shape[1]))
        cfg = NnmfConfig(beta=beta, max_iter=30, tol=0.0)
        got = _multiplicative_updates(v, w, h, cfg, learn_w)
        want = _previous_multiplicative_updates(v, w, h, cfg, learn_w)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2] and len(got[2]) == 31


class TestTemplateBank:
    def test_bank_shape_and_normalization(self):
        bank, history = train_templates(
            _sources(), FS, cfg=NnmfConfig(rank_per_modality=4, max_iter=50)
        )
        assert bank.w.shape[1] == 4 * len(MODALITIES)
        np.testing.assert_allclose(bank.w.sum(axis=0), 1.0, atol=1e-9)
        assert set(history) == set(MODALITIES)

    def test_block_slices(self):
        bank, _ = train_templates(
            _sources(), FS, cfg=NnmfConfig(rank_per_modality=3, max_iter=20)
        )
        assert bank.block("eeg") == slice(0, 3)
        assert bank.block("emg") == slice(3, 6)
        assert bank.block("eog") == slice(6, 9)

    def test_missing_source_rejected(self):
        sources = _sources()
        del sources["emg"]
        with pytest.raises(ValueError, match="missing template sources"):
            train_templates(sources, FS)

    def test_save_load_round_trip(self, tmp_path):
        bank, _ = train_templates(
            _sources(), FS, cfg=NnmfConfig(rank_per_modality=3, max_iter=20)
        )
        path = save_templates(bank, tmp_path / "bank.npz")
        loaded = load_templates(path)
        np.testing.assert_array_equal(loaded.w, bank.w)
        assert loaded.modalities == bank.modalities
        assert loaded.rank == bank.rank
        assert loaded.stft_config == bank.stft_config
        assert loaded.sample_rate == bank.sample_rate

    def test_load_rejects_other_containers(self, tmp_path):
        path = containers.write_container(
            tmp_path / "other.npz", {"kind": "something_else"}, [np.ones(3)]
        )
        with pytest.raises(ValueError, match="not a template bank"):
            load_templates(path)

    @pytest.mark.parametrize(
        "field, value", [("rank", 2), ("rank", 4), ("stft", {"window_len": 128, "hop": 64})]
    )
    def test_load_rejects_payload_header_mismatch(self, tmp_path, field, value):
        """A header that disagrees with the payload's shape is refused by
        file name, not turned into all-zero channels at separation."""
        bank, _ = train_templates(
            _sources(), FS, cfg=NnmfConfig(rank_per_modality=3, max_iter=5)
        )
        path = save_templates(bank, tmp_path / "bank.npz")
        header, arrays = containers.read_container(path)
        header[field] = value
        bad = containers.write_container(tmp_path / "bad.npz", header, arrays)
        with pytest.raises(ValueError, match=r"bad\.npz: template payload is \(129, 9\)"):
            load_templates(bad)


@pytest.fixture(scope="module")
def bank():
    bank, _ = train_templates(
        _sources(), FS, cfg=NnmfConfig(rank_per_modality=4, max_iter=80)
    )
    return bank


class TestSeparation:

    def test_masks_partition_unity(self, bank):
        """Soft masks over the three modalities sum to one per cell."""
        src = _sources(seed=7)
        mix = src["eeg"] + src["emg"] + src["eog"]
        res = separate_channel(mix, bank, NnmfConfig(max_iter=60))
        total = sum(res.masks.values())
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_outputs_sum_to_mixture(self, bank):
        """Masked reconstructions add back to the input signal.

        The masks partition unity, so the three masked spectrograms sum to
        the mixture's spectrogram exactly; in the time domain the only error
        left is the overlap-add boundary, hence the trimmed comparison.
        """
        src = _sources(seed=8)
        mix = src["eeg"] + src["emg"] + src["eog"]
        res = separate_channel(mix, bank, NnmfConfig(max_iter=60))
        rebuilt = sum(res.signals.values())
        win = bank.stft_config.window_len
        np.testing.assert_allclose(rebuilt[win:-win], mix[win:-win], atol=1e-8)

    def test_band_separated_mixture_recovered(self, bank):
        """Each output channel tracks its own source, not the others."""
        src = _sources(seed=9)
        mix = src["eeg"] + src["emg"] + src["eog"]
        res = separate_channel(mix, bank, NnmfConfig(max_iter=100))
        trim = slice(int(FS), -int(FS))
        for m in MODALITIES:
            out = res.signals[m][trim]
            ref = src[m][trim]
            r = np.corrcoef(out, ref)[0, 1]
            assert r > 0.8, f"{m}: r={r:.3f}"

    def test_bin_mismatch_rejected(self, bank):
        src = _sources(seed=10)
        mix = src["eeg"] + src["emg"]
        bad = type(bank)(
            w=bank.w[:-5],
            modalities=bank.modalities,
            rank=bank.rank,
            stft_config=bank.stft_config,
            sample_rate=bank.sample_rate,
        )
        with pytest.raises(ValueError, match="bin counts differ"):
            separate_channel(mix, bad)

    def test_recording_separation_roles(self, bank):
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
        out = separate_recording_nnmf(rec, bank, NnmfConfig(max_iter=40))
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
        with pytest.raises(KeyError, match="mixed_right"):
            separate_recording_nnmf(rec, bank)
