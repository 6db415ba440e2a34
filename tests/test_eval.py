"""SNR reporting, metrics math, fold planning, and the experiment loop."""

import dataclasses
import os
import warnings
from concurrent.futures import Executor, Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe import evaluation
from earpipe.cli import main
from earpipe.corpus import make_synthetic_corpus, patient_spec, train_corpus_templates
from earpipe.evaluation import (
    ExperimentConfig,
    Metrics,
    band_snr,
    compare_snr,
    confusion,
    epoch_band_snr,
    lopo_folds,
    macro_average,
    micro_average,
    run_experiment,
    sweep,
)
from earpipe.features import WindowSpec, features_for_epochs, segment_recording
from earpipe.io import save_recording
from earpipe.preprocess import bandpass_filter
from earpipe.signals import (
    ChannelRole,
    Recording,
    SeizureAnnotation,
    SEPARATED_ROLES,
    synthesize_recording,
)
from earpipe.vmd import remove_motion_artifacts

FS = 250.0


def _tone_plus_noise(tone_amp=1.0, noise_sd=0.05, duration_s=30.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * FS)) / FS
    return tone_amp * np.sin(2 * np.pi * 10.0 * t) + noise_sd * rng.standard_normal(len(t))


class TestBandSnr:
    def test_tone_dominates_its_band(self):
        x = _tone_plus_noise()
        assert band_snr(x, FS, (8.0, 12.0)) > 20.0

    def test_empty_band_negative(self):
        """A band holding only noise scores below the tone's residue."""
        x = _tone_plus_noise()
        assert band_snr(x, FS, (40.0, 60.0)) < 0.0

    def test_open_ended_band(self):
        x = _tone_plus_noise()
        low = band_snr(x, FS, (0.0, 20.0))
        high = band_snr(x, FS, (20.0, None))
        assert low > 0.0 > high

    def test_all_or_nothing_band_rejected(self):
        x = _tone_plus_noise(duration_s=2.0)
        with pytest.raises(ValueError, match="leaves nothing"):
            band_snr(x, FS, (0.0, None))
        with pytest.raises(ValueError, match="leaves nothing"):
            band_snr(x, FS, (130.0, 140.0))

    def test_epoch_chunking(self):
        x = _tone_plus_noise(duration_s=35.0)
        vals = epoch_band_snr(x, FS, (8.0, 12.0), epoch_s=10.0)
        assert vals.shape == (3,)  # the 5 s remainder is dropped
        assert np.all(vals > 10.0)

    def test_epoch_too_long_rejected(self):
        with pytest.raises(ValueError, match="shorter than one epoch"):
            epoch_band_snr(np.zeros(100), FS, (8.0, 12.0), epoch_s=10.0)

    def test_compare_identity_is_zero_delta(self):
        x = _tone_plus_noise()
        out = compare_snr(x, x, FS, {"alpha": (8.0, 12.0)})
        assert out["alpha"]["delta_db"] == pytest.approx(0.0, abs=1e-12)

    def test_compare_reports_cleanup_gain(self):
        noisy = _tone_plus_noise(noise_sd=0.5, seed=1)
        clean = _tone_plus_noise(noise_sd=0.01, seed=2)
        out = compare_snr(noisy, clean, FS, {"alpha": (8.0, 12.0)})
        assert out["alpha"]["delta_db"] > 10.0
        assert out["alpha"]["processed_db"] == pytest.approx(
            out["alpha"]["raw_db"] + out["alpha"]["delta_db"]
        )


class TestMetrics:
    def test_frozen_confusion(self):
        m = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 1, 1, 1)
        assert m.accuracy == pytest.approx(0.6)
        assert m.precision == pytest.approx(2 / 3)
        assert m.recall == pytest.approx(2 / 3)
        assert m.specificity == pytest.approx(0.5)
        assert m.f1 == pytest.approx(2 / 3)

    def test_degenerate_denominators(self):
        """All-negative data defines the undefined rates as zero."""
        m = Metrics(tp=0, fp=0, tn=5, fn=0)
        assert m.accuracy == 1.0
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.specificity == 1.0
        assert m.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            confusion([1, 0], [1])

    def test_macro_average(self):
        folds = [Metrics(5, 0, 5, 0), Metrics(1, 1, 1, 1)]
        macro = macro_average(folds)
        assert macro["accuracy"] == pytest.approx(0.75)
        assert macro["recall"] == pytest.approx(0.75)

    def test_macro_empty_rejected(self):
        with pytest.raises(ValueError, match="no folds"):
            macro_average([])

    def test_micro_pools_counts(self):
        micro = micro_average([Metrics(1, 2, 3, 4), Metrics(10, 20, 30, 40)])
        assert (micro.tp, micro.fp, micro.tn, micro.fn) == (11, 22, 33, 44)

    def test_to_dict_round_numbers(self):
        d = Metrics(2, 1, 1, 1).to_dict()
        assert d["tp"] == 2
        assert d["accuracy"] == pytest.approx(0.6)


class TestFoldPlanning:
    def test_one_fold_per_patient(self):
        folds = lopo_folds(["p02", "p00", "p01", "p01"])
        assert [f.test_patient for f in folds] == ["p00", "p01", "p02"]
        for f in folds:
            assert f.test_patient not in f.train_patients
            assert len(f.train_patients) == 2

    def test_single_patient_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            lopo_folds(["p00", "p00"])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([f"p{i:02d}" for i in range(12)]), max_size=40))
    def test_folds_partition_the_patients(self, patient_ids):
        """Each patient is tested exactly once and trains every other fold;
        fewer than two patients raise."""
        patients = set(patient_ids)
        if len(patients) < 2:
            with pytest.raises(ValueError, match="at least two"):
                lopo_folds(patient_ids)
            return
        folds = lopo_folds(patient_ids)
        assert sorted(f.test_patient for f in folds) == sorted(patients)
        for f in folds:
            assert sorted(f.train_patients) == sorted(patients - {f.test_patient})


def _separated_patient(patient_id, seed, duration_s=60.0, fs=FS):
    """Synthetic separated recording whose seizure windows carry a tone."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * fs)
    t = np.arange(n) / fs
    onset, offset = 20.0, 40.0
    ictal = (t >= onset) & (t <= offset)
    channels = {}
    for role in SEPARATED_ROLES:
        x = 0.02 * rng.standard_normal(n)
        x[ictal] += 0.2 * np.sin(2 * np.pi * 3.0 * t[ictal] + rng.uniform(0, 2 * np.pi))
        channels[role] = x
    return Recording(
        patient_id=patient_id,
        sample_rate=fs,
        channels=channels,
        annotations=[SeizureAnnotation(onset_s=onset, offset_s=offset)],
    )


@pytest.fixture(scope="module")
def separated():
    return [_separated_patient(f"p{i:02d}", seed=i) for i in range(3)]


class TestRunExperiment:
    def test_result_structure(self, separated):
        cfg = ExperimentConfig(stride_s=3, model="knn")
        result = run_experiment([], cfg, separated=separated)
        assert [f["patient"] for f in result.folds] == ["p00", "p01", "p02"]
        assert set(result.macro) == {"accuracy", "precision", "recall", "specificity", "f1"}
        assert result.micro.total == sum(f["n_test"] for f in result.folds)
        d = result.to_dict()
        assert d["config"]["model"] == "knn"
        assert len(d["folds"]) == 3

    def test_easy_problem_is_solved(self, separated):
        """A loud shared ictal tone is recovered well above chance.

        Windows that straddle the onset carry the tone but count as
        background, so even this easy problem tops out below perfect.
        """
        cfg = ExperimentConfig(stride_s=3, model="knn")
        result = run_experiment([], cfg, separated=separated)
        assert result.macro["accuracy"] > 0.75
        assert result.macro["recall"] > 0.75

    def test_deterministic_given_config(self, separated):
        cfg = ExperimentConfig(stride_s=3, model="rfc")
        r1 = run_experiment([], cfg, separated=separated)
        r2 = run_experiment([], cfg, separated=separated)
        assert r1.to_dict() == r2.to_dict()

    def test_seed_changes_balance_draw(self, separated):
        a = run_experiment([], ExperimentConfig(stride_s=3, master_seed=0), separated=separated)
        b = run_experiment([], ExperimentConfig(stride_s=3, master_seed=1), separated=separated)
        assert a.folds[0]["n_train"] == b.folds[0]["n_train"]

    def test_cnn_path_runs(self, separated):
        """The raw-window branch trains and scores without features."""
        cfg = ExperimentConfig(stride_s=3, model="cnn", cnn_epochs=2)
        result = run_experiment([], cfg, separated=separated)
        assert len(result.folds) == 3
        assert result.micro.total == sum(f["n_test"] for f in result.folds)


    def test_mixed_sample_rates_rejected(self, separated):
        """Rates are checked before stage A and for precomputed recordings."""
        mixed = separated[:2] + [_separated_patient("p09", seed=9, fs=200.0)]
        cfg = ExperimentConfig(stride_s=3, model="knn")
        with pytest.raises(ValueError, match=r"sample rates \[200\.0, 250\.0\]"):
            run_experiment([], cfg, separated=mixed)
        with pytest.raises(ValueError, match=r"sample rates \[200\.0, 250\.0\]"):
            run_experiment(mixed, cfg)

    def test_patient_without_full_window_rejected(self, separated):
        rng = np.random.default_rng(9)
        short = Recording(
            patient_id="p09",
            sample_rate=FS,
            channels={role: 0.02 * rng.standard_normal(int(8 * FS)) for role in SEPARATED_ROLES},
        )
        cfg = ExperimentConfig(stride_s=3, model="knn")
        with pytest.raises(ValueError, match="p09 has no full 10 s window"):
            run_experiment([], cfg, separated=separated + [short])


class TestWindowTables:
    def test_strides_view_one_copy_per_recording(self, separated, monkeypatch):
        """Each recording is cut once; every stride's windows view that cut's copy."""
        cuts = []

        def cut_once(rec, spec, real=evaluation.segment_recording):
            cuts.append(real(rec, spec))
            return cuts[-1]

        monkeypatch.setattr(evaluation, "segment_recording", cut_once)
        tables = evaluation.window_tables(separated, [1, 2, 5], with_features=False)
        assert len(cuts) == len(separated)
        for rec, cut in zip(separated, cuts):
            base = cut[0].channels.base
            for table in tables:
                epochs = table[rec.patient_id].epochs
                assert epochs and all(e.channels.base is base for e in epochs)

    @pytest.mark.parametrize("strides", [[2, 3], [4, 6]])
    def test_each_stride_equals_its_own_cut(self, separated, strides, monkeypatch):
        """Tables match a standalone cut and extraction at each stride, and
        only windows some stride uses reach the feature kernel."""
        extracted = []

        def spy(epochs, fs, real=evaluation.features_for_epochs):
            extracted.append([(e.patient_id, e.start_s) for e in epochs])
            return real(epochs, fs)

        monkeypatch.setattr(evaluation, "features_for_epochs", spy)
        tables = evaluation.window_tables(separated, strides)
        assert len(extracted) == len(separated)
        for rec, seen in zip(separated, extracted):
            used = set()
            for stride, table in zip(strides, tables):
                alone = segment_recording(rec, WindowSpec(stride_s=stride))
                got = table[rec.patient_id]
                assert [e.start_s for e in got.epochs] == [e.start_s for e in alone]
                assert got.labels.tolist() == [e.label for e in alone]
                for a, b in zip(got.epochs, alone):
                    np.testing.assert_array_equal(a.channels, b.channels)
                np.testing.assert_array_equal(
                    got.features, features_for_epochs(alone, rec.sample_rate)
                )
                used.update((rec.patient_id, e.start_s) for e in alone)
            assert seen == sorted(used, key=lambda key: key[1])
        if strides == [2, 3]:
            assert {1.0, 5.0, 7.0}.isdisjoint(t for _, t in extracted[0])


class TestSweep:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis must be"):
            sweep([], ExperimentConfig(), "kernel")

    def test_ratio_axis_rows(self):
        """A ratio sweep reuses stage A and reports one row per setting."""
        recordings = make_synthetic_corpus(n_patients=3)
        templates = train_corpus_templates()
        cfg = ExperimentConfig(stride_s=3, model="knn", motion="off")
        rows = sweep(recordings, cfg, "ratio", templates)
        assert [r["value"] for r in rows] == ["1:1", "1:2", "1:3"]
        for row in rows:
            assert row["axis"] == "ratio"
            assert 0.0 <= row["macro_accuracy"] <= 1.0
            assert 0.0 <= row["macro_recall"] <= 1.0

    def test_stride_rows_match_standalone_runs(self, separated, monkeypatch):
        """Features shared across strides change no row of the sweep."""
        # the fixture is stage A output already: skip stage A
        monkeypatch.setattr(evaluation, "prepare_corpus",
                            lambda recordings, cfg, templates: [(r, {}) for r in recordings])
        cfg = ExperimentConfig(model="rfc", normalization="minmax")
        rows = sweep(separated, cfg, "stride")
        assert [r["value"] for r in rows] == list(range(1, 10))
        for row in rows:
            alone = run_experiment(
                [], dataclasses.replace(cfg, stride_s=row["value"]), separated=separated
            )
            assert row["macro_accuracy"] == alone.macro["accuracy"]
            assert row["macro_recall"] == alone.macro["recall"]
            assert row["macro_f1"] == alone.macro["f1"]
            assert row["micro_accuracy"] == alone.micro.accuracy

    def test_motion_rows_match_standalone_runs(self, separated, monkeypatch):
        """Each motion setting runs stage A once and scores as a run of its own."""
        calls = []

        def stage_a(recordings, cfg, templates):
            calls.append(cfg.motion)
            if cfg.motion == "vmd":
                return [(rec, {}) for rec in recordings]
            return [(_separated_patient(rec.patient_id, seed=10 + i), {})
                    for i, rec in enumerate(recordings)]

        monkeypatch.setattr(evaluation, "prepare_corpus", stage_a)
        cfg = ExperimentConfig(stride_s=3, model="knn", normalization="minmax")
        rows = sweep(separated, cfg, "motion")
        assert calls == ["vmd", "off"]
        assert [r["value"] for r in rows] == ["vmd", "off"]
        for row in rows:
            alone = run_experiment(separated, dataclasses.replace(cfg, motion=row["value"]))
            assert row["macro_accuracy"] == alone.macro["accuracy"]
            assert row["macro_recall"] == alone.macro["recall"]
            assert row["macro_f1"] == alone.macro["f1"]
            assert row["micro_accuracy"] == alone.micro.accuracy


class TestScreenMotion:
    def test_reports_are_channel_reports_in_order(self, monkeypatch):
        """screen_motion cleans each channel as remove_motion_artifacts does
        and its join returns each channel's reports, in channel order,
        submitting blocks through the evaluation module once per channel."""
        rec = synthesize_recording(patient_spec(0, duration_s=60.0))
        calls = []

        def spy(x, *args, real=evaluation.submit_motion_blocks, **kwargs):
            calls.append(x)
            return real(x, *args, **kwargs)

        monkeypatch.setattr(evaluation, "submit_motion_blocks", spy)
        out, reports = evaluation.screen_motion(rec, ExperimentConfig()).join()
        assert len(calls) == len(rec.channels)
        assert list(reports) == list(rec.channels)
        for role, x in rec.channels.items():
            cleaned, expected = remove_motion_artifacts(x, rec.sample_rate, rec.imu, rec.imu_rate)
            np.testing.assert_array_equal(out.channels[role], cleaned)
            assert len(reports[role]) == len(expected) == 2  # two per 60 s channel
            for got, want in zip(reports[role], expected):
                np.testing.assert_array_equal(got.r, want.r)
                np.testing.assert_array_equal(got.excluded, want.excluded)
                assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert not np.shares_memory(out.imu, rec.imu)

    @pytest.mark.parametrize("motion", ["bandpass", "off"])
    def test_no_blocks_and_no_reports_without_vmd(self, motion, monkeypatch):
        """Band-pass and motion off finish at once: nothing is submitted,
        the join has no reports, and motion off returns the recording itself."""
        def refuse(*args, **kwargs):
            raise AssertionError("a VMD block was submitted")

        monkeypatch.setattr(evaluation, "submit_motion_blocks", refuse)
        rec = synthesize_recording(patient_spec(0, duration_s=20.0))
        out, reports = evaluation.screen_motion(rec, ExperimentConfig(motion=motion)).join()
        assert reports == {}
        if motion == "off":
            assert out is rec
        for role, x in rec.channels.items():
            want = x if motion == "off" else bandpass_filter(x, rec.sample_rate, 1.0, 30.0)
            np.testing.assert_array_equal(out.channels[role], want)

    def test_unknown_motion_mode_rejected(self):
        rec = synthesize_recording(patient_spec(0, duration_s=20.0))
        with pytest.raises(ValueError, match="unknown motion mode 'ica'"):
            evaluation.screen_motion(rec, ExperimentConfig(motion="ica"))


class TestSeparateSources:
    def test_stage_a_and_cli_reach_splitters_through_this_module(self, monkeypatch, tmp_path):
        """prepare_recording and `earpipe separate` share one dispatch, which
        looks the splitters up in earpipe.evaluation, where wrappers replace them."""
        calls = []
        monkeypatch.setattr(evaluation, "separate_recording_emd",
                            lambda rec: calls.append("emd") or rec)
        monkeypatch.setattr(evaluation, "separate_recording_nnmf",
                            lambda rec, bank: calls.append(("nnmf", bank)) or rec)
        rec = synthesize_recording(patient_spec(0, duration_s=20.0))
        evaluation.prepare_recording(rec, ExperimentConfig(separation="emd", motion="off"))
        evaluation.prepare_recording(rec, ExperimentConfig(separation="nnmf", motion="off"), "bank")
        save_recording(rec, tmp_path / "raw")
        code = main(["separate", "--in", str(tmp_path / "raw"), "--method", "emd",
                     "--out", str(tmp_path / "sep")])
        assert code == 0
        assert calls == ["emd", ("nnmf", "bank"), "emd"]

    def test_missing_templates_and_unknown_method_rejected(self):
        rec = synthesize_recording(patient_spec(0, duration_s=20.0))
        with pytest.raises(ValueError, match="needs a template bank"):
            evaluation.separate_sources(rec, "nnmf")
        with pytest.raises(ValueError, match="unknown separation method 'ica'"):
            evaluation.separate_sources(rec, "ica")


def _set_cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestStageAPool:
    """Stage A spreads VMD blocks over a process pool only where that pays."""

    @pytest.mark.parametrize("motion, cores", [("bandpass", 2), ("off", 2), ("vmd", 1)])
    def test_no_pool_without_vmd_or_second_core(self, motion, cores, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("stage A opened a process pool")

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", refuse)
        _set_cores(monkeypatch, cores)
        rec = synthesize_recording(patient_spec(0, duration_s=40.0))
        cfg = ExperimentConfig(motion=motion, separation="emd")
        ((out, report),) = evaluation.prepare_corpus([rec], cfg)
        assert set(out.channels) == set(SEPARATED_ROLES)
        if motion == "vmd":  # one block per 40 s channel
            assert list(report) == list(rec.channels)
            assert [len(blocks) for blocks in report.values()] == [1] * len(rec.channels)
        else:
            assert report == {}

    def test_pool_run_equals_inline_run(self, monkeypatch, workers_gone):
        """Each recording is prepared in this process, once, through this
        module's namespace, with or without the pool."""
        recordings = make_synthetic_corpus(n_patients=2)
        templates = train_corpus_templates()
        cfg = ExperimentConfig(stride_s=3, normalization="minmax")
        calls, submitted, joined, done_at_first_join = [], [], [], []

        def submit_spy(rec, cfg, executor=None, real=evaluation.screen_motion):
            submitted.append(real(rec, cfg, executor))
            return submitted[-1]

        def join_spy(queued, real=evaluation.QueuedRecording.join):
            joined.append((queued, real(queued)))
            return joined[-1][1]

        def spy(rec, cfg, templates, screened=None, real=evaluation.prepare_recording):
            if not calls:  # the inline run's first join
                done_at_first_join.extend(
                    f.done() for q in submitted for b in q.blocks.values() for f in b.futures
                )
            calls.append((rec.patient_id, screened))
            return real(rec, cfg, templates, screened=screened)

        monkeypatch.setattr(evaluation, "screen_motion", submit_spy)
        monkeypatch.setattr(evaluation.QueuedRecording, "join", join_spy)
        monkeypatch.setattr(evaluation, "prepare_recording", spy)
        _set_cores(monkeypatch, 1)
        inline = run_experiment(recordings, cfg, templates).to_dict()
        _set_cores(monkeypatch, 2)
        pooled = run_experiment(recordings, cfg, templates).to_dict()
        assert [patient for patient, _ in calls] == [r.patient_id for r in recordings] * 2
        # every call separates the join of blocks that were already
        # submitted; inline, they have run
        for queued in submitted:
            assert queued.blocks
            assert all(blocks.futures for blocks in queued.blocks.values())
        assert all(q is s for (q, _), s in zip(joined, submitted, strict=True))
        assert all(c is j for (_, c), (_, (j, _)) in zip(calls, joined, strict=True))
        inline_blocks = sum(len(b.futures) for q in submitted[:2] for b in q.blocks.values())
        assert len(done_at_first_join) == inline_blocks and all(done_at_first_join)
        assert pooled == inline
        assert workers_gone()

    def test_pool_closed_when_stage_a_fails(self, monkeypatch, workers_gone):
        """A recording failing after others used the pool leaves no worker behind."""
        good = synthesize_recording(patient_spec(0, duration_s=40.0))
        bad = dataclasses.replace(good, patient_id="p09", imu=None)
        _set_cores(monkeypatch, 2)
        with pytest.raises(ValueError, match="p09 has no IMU track"):
            evaluation.prepare_corpus([good, bad], ExperimentConfig(separation="emd"))
        assert workers_gone()


class _LoggedFuture(Future):
    def __init__(self, log):
        super().__init__()
        self.log = log

    def result(self, timeout=None):
        self.log.append("read")
        return super().result(timeout)


class _FakePool(Executor):
    """Stands in for the process pool class in ``evaluation``.

    Logs each submit and each result read.  With ``run`` a block runs when
    it is submitted; without, it stays pending.  With ``fail_first`` the
    first block submitted raises.
    """

    def __init__(self, run=True, fail_first=False):
        self.run, self.fail_first = run, fail_first
        self.log, self.futures = [], []
        self.closed = False

    def __call__(self, *args, **kwargs):
        return self

    def submit(self, fn, *args, **kwargs):
        f = _LoggedFuture(self.log)
        if self.fail_first and not self.futures:
            f.set_exception(RuntimeError("block failed"))
        elif self.run:
            f.set_result(fn(*args, **kwargs))
        self.futures.append(f)
        self.log.append("submit")
        return f

    def shutdown(self, wait=True, *, cancel_futures=False):
        if cancel_futures:  # as ProcessPoolExecutor does with pending work
            for f in self.futures:
                f.cancel()
        self.closed = True


class TestStageAJobGraph:
    """On the pool, stage A queues every block before it joins any."""

    @pytest.fixture
    def recordings(self):
        return [synthesize_recording(patient_spec(i, duration_s=60.0)) for i in range(2)]

    def _pool(self, monkeypatch, **kwargs):
        pool = _FakePool(**kwargs)
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", pool)
        _set_cores(monkeypatch, 2)
        return pool

    def test_every_block_submitted_before_the_first_is_read(self, recordings, monkeypatch):
        cfg = ExperimentConfig(separation="emd")
        _set_cores(monkeypatch, 1)
        inline = evaluation.prepare_corpus(recordings, cfg)
        pool = self._pool(monkeypatch)
        pooled = evaluation.prepare_corpus(recordings, cfg)
        blocks = 2 * sum(len(r.channels) for r in recordings)  # two per 60 s channel
        assert pool.log == ["submit"] * blocks + ["read"] * blocks
        assert pool.closed
        for (got, got_report), (want, want_report), rec in zip(pooled, inline, recordings,
                                                                strict=True):
            assert list(got.channels) == list(want.channels)
            for role, x in want.channels.items():
                assert got.channels[role].tobytes() == x.tobytes()
            # the block reports too, field by field, in channel and block order
            assert list(got_report) == list(want_report) == list(rec.channels)
            for role, want_blocks in want_report.items():
                assert len(got_report[role]) == len(want_blocks) == 2
                for g, w in zip(got_report[role], want_blocks):
                    assert g.r.tobytes() == w.r.tobytes()
                    assert g.excluded.tobytes() == w.excluded.tobytes()
                    assert (g.iterations, g.converged) == (w.iterations, w.converged)

    def test_zeroed_blocks_warn_in_join_order_with_their_names(self, recordings, monkeypatch):
        """Each zeroed block's warning names recording, channel and span, so
        Python's default filter hides none of them, and each matches, in
        order, a report entry with every mode excluded."""
        self._pool(monkeypatch)
        cfg = ExperimentConfig(separation="emd", motion_threshold=-1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            prepared = evaluation.prepare_corpus(recordings, cfg)
        messages = [str(w.message) for w in caught]
        spans = ("0–30 s", "29–60 s")
        assert messages == [
            f"{rec.patient_id} {role.value} block {span}: every mode correlates with motion; "
            "returning zeros"
            for rec in recordings for role in rec.channels for span in spans
        ]
        assert messages == [
            f"{rec.patient_id} {role.value} block {spans[i]}: every mode correlates with motion; "
            "returning zeros"
            for rec, (_, report) in zip(recordings, prepared, strict=True)
            for role, blocks in report.items()
            for i, corr in enumerate(blocks) if corr.excluded.all()
        ]

    def test_failing_recording_cancels_every_queued_block(self, recordings, monkeypatch):
        """The third recording fails after the first two queued their blocks."""
        bad = dataclasses.replace(recordings[0], patient_id="p09", imu=None)
        pool = self._pool(monkeypatch, run=False)
        with pytest.raises(ValueError, match="p09 has no IMU track"):
            evaluation.prepare_corpus([*recordings, bad], ExperimentConfig(separation="emd"))
        assert len(pool.futures) == 8
        assert all(f.cancelled() for f in pool.futures)
        assert "read" not in pool.log and pool.closed

    def test_failing_block_cancels_every_queued_block(self, recordings, monkeypatch):
        """The first block raises in the first join; no other block runs."""
        pool = self._pool(monkeypatch, run=False, fail_first=True)
        with pytest.raises(RuntimeError, match="block failed"):
            evaluation.prepare_corpus(recordings, ExperimentConfig(separation="emd"))
        assert len(pool.futures) == 8
        assert all(f.cancelled() for f in pool.futures[1:])
        assert pool.closed
