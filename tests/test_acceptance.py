"""Fourteen acceptance checks covering every pipeline stage end to end.

Each test exercises one published guarantee at its stated tolerance and
prints a single [PASS] line when it holds.  The end-to-end checks (12, 13)
share one twenty-patient synthetic corpus and its stage A products through
a module-scoped fixture, mirroring how the ablation harness reuses
separated signals.
"""

import json
import time

import numpy as np
import pytest

from earpipe import evaluation
from earpipe.cli import main as cli_main
from earpipe.corpus import make_synthetic_corpus, train_corpus_templates
from earpipe.emd import emd_decompose
from earpipe.evaluation import ExperimentConfig, band_snr, run_experiment
from earpipe.features import (
    LabeledEpoch,
    WindowSpec,
    epoch_features,
    epoch_start_indices,
    window_label,
)
from earpipe.models.cnn import Cnn1d, CnnConfig, focal_loss
from earpipe.models.forest import RandomForestClassifier
from earpipe.models.knn import KnnClassifier
from earpipe.models.svm import SvmClassifier
from earpipe.nnmf import NnmfConfig, _update_h, beta_divergence, nnmf_factorize
from earpipe.preprocess import bandpass_filter
from earpipe.signals import SeizureAnnotation
from earpipe.stft import istft, stft
from earpipe.vmd import (
    motion_correlation,
    reconstruct_excluding_motion,
    vmd_decompose,
)

FS = 250.0


def _ok(n: int, text: str) -> None:
    print(f"[PASS] criterion {n:02d}: {text}")


# ---------------------------------------------------------------------------
# 1-2: factorization updates
# ---------------------------------------------------------------------------

def test_01_factorization_objective_never_increases():
    """Multiplicative updates keep the IS divergence non-increasing on 50
    random 64 x 128 matrices, within 1e-9 relative, in under 30 s."""
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    for _ in range(50):
        v = rng.uniform(0.05, 2.0, size=(64, 128))
        _, _, hist = nnmf_factorize(v, 10, NnmfConfig(beta=0, max_iter=30, tol=0.0))
        hist = np.asarray(hist)
        increases = np.diff(hist) / np.maximum(hist[:-1], 1e-300)
        assert np.all(increases < 1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _ok(1, f"IS divergence monotone over 50 matrices in {elapsed:.1f} s")


def test_02_fixed_point_and_scale_invariance():
    """An exact factorization is a fixed point of the activation update,
    and the three divergences scale as lambda^0, lambda^1, lambda^2."""
    rng = np.random.default_rng(101)
    w = rng.uniform(0.1, 1.0, size=(64, 5))
    h = rng.uniform(0.1, 1.0, size=(5, 128))
    v = w @ h
    h2 = _update_h(v, w, h, w @ h, beta=0)
    move = np.linalg.norm(h2 - h) / np.linalg.norm(h)
    assert move < 1e-10

    x = rng.uniform(0.1, 2.0, size=(32, 32))
    y = rng.uniform(0.1, 2.0, size=(32, 32))
    d_is = beta_divergence(x, y, 0)
    d_kl = beta_divergence(x, y, 1)
    d_eu = beta_divergence(x, y, 2)
    for lam in rng.uniform(0.01, 100.0, 20):
        assert abs(beta_divergence(lam * x, lam * y, 0) - d_is) < 1e-9
        assert beta_divergence(lam * x, lam * y, 1) == pytest.approx(lam * d_kl, rel=1e-9)
        assert beta_divergence(lam * x, lam * y, 2) == pytest.approx(lam**2 * d_eu, rel=1e-9)
    _ok(2, f"activation fixed point moved {move:.1e}; scale laws hold for 20 lambdas")


# ---------------------------------------------------------------------------
# 3-4: decompositions
# ---------------------------------------------------------------------------

def test_03_sifting_additivity_and_two_tone_split():
    """IMFs plus residual rebuild the input to 1e-8 relative L2, and a
    25 Hz + 5 Hz mixture puts each tone's FFT peak in its own IMF within
    1 Hz, in under 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    x = rng.standard_normal(2500)
    res = emd_decompose(x)
    rel = np.linalg.norm(res.imfs.sum(axis=0) + res.residual - x) / np.linalg.norm(x)
    assert rel < 1e-8

    t = np.arange(int(10 * FS)) / FS
    mix = np.sin(2 * np.pi * 25.0 * t) + 3.0 * np.sin(2 * np.pi * 5.0 * t)
    res = emd_decompose(mix)
    assert res.n_imfs >= 2
    freqs = np.fft.rfftfreq(len(t), 1.0 / FS)
    peak1 = freqs[np.argmax(np.abs(np.fft.rfft(res.imfs[0])))]
    peak2 = freqs[np.argmax(np.abs(np.fft.rfft(res.imfs[1])))]
    assert abs(peak1 - 25.0) < 1.0
    assert abs(peak2 - 5.0) < 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(3, f"additivity {rel:.1e}; tone peaks at {peak1:.2f}/{peak2:.2f} Hz in {elapsed:.1f} s")


def test_04_mode_extraction_tone_recovery():
    """Three tones at 2/10/40 Hz land three mode centers within 0.5 Hz,
    and a single tone is rebuilt with under 5% relative error, in < 20 s."""
    t0 = time.perf_counter()
    t = np.arange(int(10 * FS)) / FS
    x = sum(np.sin(2 * np.pi * f * t) for f in (2.0, 10.0, 40.0))
    res = vmd_decompose(x, FS, k=3)
    np.testing.assert_allclose(res.center_freqs_hz, [2.0, 10.0, 40.0], atol=0.5)

    t = np.arange(int(30 * FS)) / FS
    tone = np.sin(2 * np.pi * 10.0 * t)
    res = vmd_decompose(tone, FS, k=1)
    rel = np.linalg.norm(res.modes[0] - tone) / np.linalg.norm(tone)
    assert rel < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    _ok(4, f"centers on grid, single-tone error {rel:.3f} in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5: motion screening beats the static baseline
# ---------------------------------------------------------------------------

def test_05_motion_screening_recovers_rhythm_band():
    """Dropping IMU-correlated modes lifts the 8-12 Hz SNR of an alpha
    rhythm buried under a 0.8 mV motion burst by at least 6 dB, and beats
    a fixed 1-30 Hz bandpass on the same metric."""
    rng = np.random.default_rng(103)
    n = int(30 * FS)
    t = np.arange(n) / FS
    alpha = 0.05 * np.sin(2 * np.pi * 10.0 * t)
    env = np.zeros(n)
    i0, i1 = int(8 * FS), int(20 * FS)
    env[i0:i1] = np.sin(np.pi * np.arange(i1 - i0) / (i1 - i0)) ** 2
    burst = 0.8 * env * np.sin(2 * np.pi * 4.0 * t + 1.0)
    noisy = alpha + burst

    imu_rate = 50.0
    n_imu = int(30 * imu_rate)
    t_imu = np.arange(n_imu) / imu_rate
    accel = np.vstack(
        [
            np.interp(t_imu, t, env) + 0.01 * rng.standard_normal(n_imu),
            0.01 * rng.standard_normal(n_imu),
            1.0 + 0.01 * rng.standard_normal(n_imu),
        ]
    )

    res = vmd_decompose(noisy, FS, k=4)
    corr = motion_correlation(res, accel, imu_rate)
    cleaned = reconstruct_excluding_motion(res, corr)

    band = (8.0, 12.0)
    snr_raw = band_snr(noisy, FS, band)
    snr_clean = band_snr(cleaned, FS, band)
    snr_bandpass = band_snr(bandpass_filter(noisy, FS, 1.0, 30.0), FS, band)
    assert snr_clean - snr_raw >= 6.0
    assert snr_clean > snr_bandpass
    _ok(
        5,
        f"SNR raw {snr_raw:.1f} -> screened {snr_clean:.1f} dB "
        f"(bandpass baseline {snr_bandpass:.1f} dB)",
    )


# ---------------------------------------------------------------------------
# 6-8: spectrogram, features, leakage
# ---------------------------------------------------------------------------

def test_06_spectrogram_round_trip():
    """Forward/inverse spectrogram reproduces random 10 s signals within
    1e-9 relative error away from the boundary."""
    worst = 0.0
    for seed in (104, 105, 106):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(int(10 * FS))
        y = istft(stft(x, FS))[: len(x)]
        inner = slice(256, len(x) - 256)
        rel = np.linalg.norm(y[inner] - x[inner]) / np.linalg.norm(x[inner])
        worst = max(worst, rel)
        assert rel < 1e-9
    _ok(6, f"worst interior round-trip error {worst:.1e}")


def test_07_feature_count_window_math_and_labeling():
    """Every epoch yields exactly 348 features, window counts follow
    floor((T-10)/stride)+1, and the entirely-inside labeling rule matches
    a brute-force interval checker on 1000 random cases."""
    rng = np.random.default_rng(107)
    epoch = LabeledEpoch("t", 0.0, rng.standard_normal((6, 2500)), 0)
    assert epoch_features(epoch, FS).shape == (348,)

    for duration in (10.0, 12.0, 30.0, 90.0, 100.0):
        for stride in range(1, 10):
            got = len(epoch_start_indices(int(duration * FS), FS, WindowSpec(stride)))
            assert got == int((duration - 10.0) // stride) + 1, (duration, stride)

    for _ in range(1000):
        anns = [
            SeizureAnnotation(onset_s=float(on), offset_s=float(on + dur))
            for on, dur in zip(rng.uniform(0, 70, rng.integers(0, 4)),
                               rng.uniform(1, 30, 3))
        ]
        start = float(rng.uniform(0, 80))
        brute = int(
            any(a.onset_s <= start and start + 10.0 <= a.offset_s for a in anns)
        )
        assert window_label(start, anns) == brute
    _ok(7, "348 features, window arithmetic, labeling vs brute force")


def test_08_normalization_never_sees_held_out_data(monkeypatch):
    """Per-fold normalization statistics are bit-identical whether or not
    the held-out patient's signals are wildly corrupted."""
    import earpipe.evaluation as evaluation
    from earpipe.signals import Recording, SEPARATED_ROLES

    def patient(pid, seed, corrupt=False):
        prng = np.random.default_rng(seed)
        n = int(60 * FS)
        t = np.arange(n) / FS
        ictal = (t >= 20.0) & (t <= 40.0)
        channels = {}
        for role in SEPARATED_ROLES:
            x = 0.02 * prng.standard_normal(n)
            x[ictal] += 0.2 * np.sin(2 * np.pi * 3.0 * t[ictal])
            if corrupt:
                x = x * 1000.0 + 5.0
            channels[role] = x
        return Recording(
            patient_id=pid, sample_rate=FS, channels=channels,
            annotations=[SeizureAnnotation(onset_s=20.0, offset_s=40.0)],
        )

    real_fit = evaluation.fit_normalizer

    def run(corrupt_last):
        seen = []

        def recording_fit(x, mode="zscore"):
            seen.append(np.array(x, copy=True))
            return real_fit(x, mode)

        monkeypatch.setattr(evaluation, "fit_normalizer", recording_fit)
        separated = [
            patient("p00", 1),
            patient("p01", 2),
            patient("p02", 3, corrupt=corrupt_last),
        ]
        run_experiment([], ExperimentConfig(stride_s=3, model="knn"), separated=separated)
        return seen

    clean = run(corrupt_last=False)
    dirty = run(corrupt_last=True)
    assert len(clean) == len(dirty) == 3
    # fold 2 holds out p02: its training statistics cannot change
    np.testing.assert_array_equal(clean[2], dirty[2])
    # sanity: folds that train on p02 must see the corruption
    assert not np.array_equal(clean[0], dirty[0])
    _ok(8, "held-out corruption left that fold's training matrix untouched")


# ---------------------------------------------------------------------------
# 9-10: classifiers
# ---------------------------------------------------------------------------

def test_09_classifier_sanity_and_voting_oracles():
    """The three feature classifiers ace separable blobs, hold >= 95% on a
    margin-2 task, and KNN/RFC agree with brute-force vote oracles on 100
    random queries."""
    rng = np.random.default_rng(108)

    def blobs(n_per, sd, seed):
        r = np.random.default_rng(seed)
        a = sd * r.standard_normal((n_per, 2))
        b = sd * r.standard_normal((n_per, 2)) + [4.0, 0.0]
        return np.vstack([a, b]), np.array([0] * n_per + [1] * n_per)

    x_tr, y_tr = blobs(50, 0.5, 109)
    x_te, y_te = blobs(100, 0.5, 110)
    models = {
        "svm": SvmClassifier(),
        "knn": KnnClassifier(),
        "rfc": RandomForestClassifier(),
    }
    for name, model in models.items():
        model.fit(x_tr, y_tr)
        assert np.mean(model.predict(x_tr) == y_tr) == 1.0, name
        held_out = np.mean(model.predict(x_te) == y_te)
        assert held_out >= 0.95, (name, held_out)

    queries = rng.uniform(-2.0, 6.0, size=(100, 2))

    knn = models["knn"]
    for q in queries:
        dists = np.array([np.sum((q - p) ** 2) for p in x_tr])
        order = np.argsort(dists, kind="stable")[:5]
        expected = int(np.argmax(np.bincount(y_tr[order])))
        assert knn.predict(q[None, :])[0] == expected

    rfc = models["rfc"]
    for q in queries:
        votes = []
        for tree in rfc.trees:
            row = 0
            while tree.nodes[row, 4] < 0:
                feature, threshold, left, right, _ = tree.nodes[row]
                row = int(left) if q[int(feature)] <= threshold else int(right)
            votes.append(int(tree.nodes[row, 4]))
        expected = int(np.argmax(np.bincount(np.array(votes))))
        assert rfc.predict(q[None, :])[0] == expected
    _ok(9, "blob accuracy and 200 vote-oracle agreements")


def test_10_network_gradients_softmax_and_loss_values():
    """Backprop matches central differences (h=1e-4, 1e-4 relative) for
    every parameter tensor of a shrunken network; the loss's softmax is
    exactly normalized; focal loss hits its hand-computed values."""
    cfg = CnnConfig(
        in_channels=2, input_len=24, conv_filters=(3, 4), kernel=3,
        pool=2, fc_units=(6,), n_classes=2, dropout=0.0,
    )
    net = Cnn1d(cfg, seed=111)
    rng = np.random.default_rng(112)
    x = rng.standard_normal((4, 2, 24))
    y = np.array([0, 1, 1, 0])
    alpha = np.array([0.5, 0.5])

    logits, cache = net.forward(x)
    _, dlogits = focal_loss(logits, y, alpha, gamma=2.0)
    grads = net.backward(cache, dlogits)

    h = 1e-4
    checked = 0
    for name, tensor in net.params.items():
        flat = tensor.ravel()
        picks = np.linspace(0, flat.size - 1, min(6, flat.size)).astype(int)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = focal_loss(net.forward(x)[0], y, alpha, gamma=2.0)
            flat[idx] = orig - h
            down, _ = focal_loss(net.forward(x)[0], y, alpha, gamma=2.0)
            flat[idx] = orig
            num = (up - down) / (2 * h)
            ana = grads[name].ravel()[idx]
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-8), name
            checked += 1

    z = rng.standard_normal((20, 2))
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    loss0, _ = focal_loss(np.zeros((20, 2)), np.zeros(20, dtype=int), np.ones(2), gamma=0.0)
    assert loss0 == pytest.approx(np.log(2.0), rel=1e-12)

    chain = [CnnConfig().input_len]
    for _ in CnnConfig().conv_filters:
        chain.append(chain[-1] // CnnConfig().pool)
    assert chain == [2500, 1250, 625, 312]
    assert CnnConfig().conv_output_len() == 312

    even = np.zeros((1, 2))
    ones = np.ones(2)
    l0, _ = focal_loss(even, np.array([0]), ones, gamma=0.0)
    l2, _ = focal_loss(even, np.array([0]), ones, gamma=2.0)
    assert l0 == pytest.approx(np.log(2.0), rel=1e-12)
    assert l2 == pytest.approx(0.25 * np.log(2.0), rel=1e-12)
    _ok(10, f"{checked} gradient entries, softmax rows, 2500->1250->625->312, loss values")


# ---------------------------------------------------------------------------
# 11: SNR metric calibration
# ---------------------------------------------------------------------------

def test_11_snr_metric_calibration():
    """White noise scores 0 +/- 0.5 dB, an in-band tone >= 30 dB, and an
    out-of-band tone <= -20 dB in the 8-12 Hz band."""
    rng = np.random.default_rng(113)
    band = (8.0, 12.0)
    t = np.arange(int(120 * FS)) / FS
    snr_white = band_snr(rng.standard_normal(len(t)), FS, band)
    snr_in = band_snr(np.sin(2 * np.pi * 10.0 * t), FS, band)
    snr_out = band_snr(np.sin(2 * np.pi * 40.0 * t), FS, band)
    assert abs(snr_white) <= 0.5
    assert snr_in >= 30.0
    assert snr_out <= -20.0
    _ok(11, f"white {snr_white:+.2f} dB, in-band {snr_in:.0f} dB, out-of-band {snr_out:.0f} dB")


# ---------------------------------------------------------------------------
# 12-13: end-to-end corpus runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def e2e():
    """Twenty-patient corpus pushed through the full pipeline once,
    plus the two ablation reruns that reuse its products.  Stage A runs as
    the CLI runs it, with the VMD blocks on a process pool when the machine
    has a second core; pooled results equal inline ones bit for bit."""
    corpus = make_synthetic_corpus(n_patients=20)
    bank = train_corpus_templates()
    cfg_on = ExperimentConfig(normalization="minmax")

    t0 = time.perf_counter()
    separated = [rec for rec, _ in evaluation.prepare_corpus(corpus, cfg_on, bank)]
    result_on = run_experiment(corpus, cfg_on, bank, separated=separated)
    elapsed_on = time.perf_counter() - t0

    cfg_s9 = ExperimentConfig(normalization="minmax", stride_s=9)
    result_s9 = run_experiment(corpus, cfg_s9, bank, separated=separated)

    cfg_off = ExperimentConfig(normalization="minmax", motion="off")
    result_off = run_experiment(corpus, cfg_off, bank)

    return {
        "on": result_on,
        "elapsed_on": elapsed_on,
        "s9": result_s9,
        "off": result_off,
    }


def test_12_end_to_end_lopo_detection(e2e):
    """Condition -> motion screen -> separate -> features (stride 1, 1:1)
    -> SVM under leave-one-patient-out reaches macro accuracy >= 0.90 and
    seizure recall >= 0.85 on 20 synthetic patients in under 10 minutes.
    This is the pinned run, so its numbers are pinned too."""
    acc = e2e["on"].macro["accuracy"]
    rec = e2e["on"].macro["recall"]
    assert acc >= 0.90
    assert rec >= 0.85
    assert (round(acc, 4), round(rec, 4)) == (0.9778, 0.9487), (
        f"the pinned run moved from 0.9778 / 0.9487 to {acc:.4f} / {rec:.4f}; "
        "a change that moves it must say so, and why, in CHANGES.md"
    )
    micro = e2e["on"].micro
    assert (micro.tp, micro.fp, micro.tn, micro.fn) == (210, 23, 1374, 13)
    assert e2e["elapsed_on"] < 600.0
    _ok(12, f"accuracy {acc:.4f}, recall {rec:.4f} in {e2e['elapsed_on']:.0f} s")


def test_13_ablation_directionality(e2e):
    """Motion screening on beats off, and dense striding beats sparse,
    in macro accuracy on the same corpus."""
    on = e2e["on"].macro["accuracy"]
    off = e2e["off"].macro["accuracy"]
    s1 = e2e["on"].macro["accuracy"]
    s9 = e2e["s9"].macro["accuracy"]
    assert on >= off
    assert s1 >= s9
    _ok(13, f"motion {on:.4f} >= {off:.4f}; stride {s1:.4f} >= {s9:.4f}")


# ---------------------------------------------------------------------------
# 14: CLI determinism
# ---------------------------------------------------------------------------

def test_14_repeated_cli_runs_are_byte_identical(tmp_path):
    """The same evaluation command with the same master seed writes
    byte-identical metrics JSON both times."""
    argv = [
        "evaluate", "--synthetic", "2", "--stride-s", "5", "--model", "rfc",
        "--motion", "off", "--master-seed", "6",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["config"]["master_seed"] == 6
    _ok(14, f"{a.stat().st_size} identical bytes from repeated runs")
