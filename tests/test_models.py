"""From-scratch classifiers: optimization, voting, backprop, persistence."""

import numpy as np
import pytest

from earpipe import io as containers
from earpipe.models.cnn import (
    Adam,
    Cnn1d,
    CnnClassifier,
    CnnConfig,
    TrainConfig,
    focal_alpha,
    focal_loss,
)
from earpipe.models.forest import (
    DecisionTree,
    ForestConfig,
    RandomForestClassifier,
    gini,
)
from earpipe.models.knn import KnnClassifier, KnnConfig
from earpipe.models.store import load_model, save_model
from earpipe.models.svm import SvmClassifier, SvmConfig, rbf_kernel


def _blobs(n_per=20, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, 2)) + [0.0, 0.0]
    b = rng.standard_normal((n_per, 2)) + [gap, gap]
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def _xor(n_per=15, seed=1):
    rng = np.random.default_rng(seed)
    corners = np.array([[0, 0], [0, 4], [4, 0], [4, 4]], dtype=float)
    labels = np.array([0, 1, 1, 0])
    x = np.vstack([c + 0.3 * rng.standard_normal((n_per, 2)) for c in corners])
    y = np.repeat(labels, n_per)
    return x, y


class TestRbfKernel:
    def test_known_values(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        k = rbf_kernel(a, a, gamma=0.5)
        np.testing.assert_allclose(np.diag(k), 1.0)
        assert k[0, 1] == pytest.approx(np.exp(-0.5))

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 4))
        k = rbf_kernel(a, a, gamma=1.0)
        assert np.all(k > 0.0)
        assert np.all(k <= 1.0 + 1e-12)
        np.testing.assert_allclose(k, k.T, atol=1e-12)


class TestSvm:
    def test_separable_blobs(self):
        x, y = _blobs()
        model = SvmClassifier(SvmConfig(gamma=0.5, c=20.0)).fit(x, y)
        np.testing.assert_array_equal(model.predict(x), y)

    def test_xor_needs_kernel(self):
        """The RBF machine solves a problem no linear boundary can."""
        x, y = _xor()
        model = SvmClassifier(SvmConfig(gamma=0.5, c=20.0)).fit(x, y)
        assert np.mean(model.predict(x) == y) == 1.0

    def test_margin_conditions_hold(self):
        """Unbounded support vectors sit on the margin: y * f(x) near 1."""
        x, y = _blobs(seed=3)
        cfg = SvmConfig(gamma=0.5, c=20.0, tol=1e-4)
        model = SvmClassifier(cfg).fit(x, y)
        ys = np.where(y == 1, 1.0, -1.0)
        f = model.decision_function(x)
        free = (model.alpha > 1e-8) & (model.alpha < cfg.c - 1e-8)
        assert free.any()
        np.testing.assert_allclose(ys[free] * f[free], 1.0, atol=5e-3)

    def test_decision_sign_matches_predict(self):
        x, y = _blobs(seed=4)
        model = SvmClassifier().fit(x, y)
        f = model.decision_function(x)
        np.testing.assert_array_equal(model.predict(x), (f >= 0).astype(int))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            SvmClassifier().fit(np.ones((5, 2)), np.zeros(5))

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            SvmClassifier().predict(np.ones((1, 2)))

    def test_deterministic(self):
        x, y = _blobs(seed=5)
        f1 = SvmClassifier().fit(x, y).decision_function(x)
        f2 = SvmClassifier().fit(x, y).decision_function(x)
        np.testing.assert_array_equal(f1, f2)


class TestKnn:
    def test_small_oracle(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        y = np.array([0, 0, 0, 1, 1])
        model = KnnClassifier(KnnConfig(k=3)).fit(x, y)
        np.testing.assert_array_equal(
            model.predict(np.array([[1.2], [10.4]])), [0, 1]
        )

    def test_k_one_memorizes(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 3))
        y = rng.integers(0, 2, 30)
        model = KnnClassifier(KnnConfig(k=1)).fit(x, y)
        np.testing.assert_array_equal(model.predict(x), y)

    def test_distance_tie_takes_earlier_row(self):
        """A query equidistant from both points copies the first one."""
        x = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        model = KnnClassifier(KnnConfig(k=1)).fit(x, y)
        assert model.predict(np.array([[1.0]]))[0] == 1

    def test_vote_tie_takes_lower_class(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        model = KnnClassifier(KnnConfig(k=2)).fit(x, y)
        assert model.predict(np.array([[0.9]]))[0] == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            KnnClassifier(KnnConfig(k=0))
        with pytest.raises(ValueError, match="training points"):
            KnnClassifier(KnnConfig(k=5)).fit(np.ones((3, 2)), np.zeros(3))
        with pytest.raises(RuntimeError, match="not fitted"):
            KnnClassifier().predict(np.ones((1, 2)))


class TestForest:
    def test_gini_frozen_values(self):
        assert gini(np.array([0, 0, 1, 1])) == pytest.approx(0.5)
        assert gini(np.array([0, 0, 0])) == pytest.approx(0.0)
        assert gini(np.array([0, 1, 1, 1])) == pytest.approx(0.375)

    def test_tree_learns_threshold(self):
        x = np.linspace(-2, 2, 40)[:, None]
        y = (x[:, 0] > 0.1).astype(int)
        tree = DecisionTree(rng=np.random.default_rng(0)).fit(x, y)
        np.testing.assert_array_equal(tree.predict(x), y)

    def test_stump_cannot_solve_xor_but_forest_depth_can(self):
        x, y = _xor(seed=7)
        stump = RandomForestClassifier(ForestConfig(n_trees=5, max_depth=1, seed=0))
        deep = RandomForestClassifier(ForestConfig(n_trees=5, max_depth=10, seed=0))
        acc_stump = np.mean(stump.fit(x, y).predict(x) == y)
        acc_deep = np.mean(deep.fit(x, y).predict(x) == y)
        assert acc_deep == 1.0
        assert acc_stump < 1.0

    def test_reproducible_given_seed(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((50, 5))
        y = rng.integers(0, 2, 50)
        p1 = RandomForestClassifier(ForestConfig(seed=3)).fit(x, y).predict(x)
        p2 = RandomForestClassifier(ForestConfig(seed=3)).fit(x, y).predict(x)
        np.testing.assert_array_equal(p1, p2)

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            RandomForestClassifier().predict(np.ones((1, 2)))


TINY = CnnConfig(
    in_channels=2,
    input_len=24,
    conv_filters=(3, 4),
    kernel=3,
    pool=2,
    fc_units=(6,),
    n_classes=2,
    dropout=0.0,
)


class TestFocalLoss:
    def test_alpha_inverse_frequency(self):
        np.testing.assert_allclose(focal_alpha([10, 40]), [0.8, 0.2])

    def test_alpha_rejects_empty_class(self):
        with pytest.raises(ValueError, match="at least one"):
            focal_alpha([5, 0])

    def test_gamma_zero_is_weighted_cross_entropy(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((8, 2))
        targets = rng.integers(0, 2, 8)
        alpha = np.array([0.3, 0.7])
        loss, _ = focal_loss(logits, targets, alpha, gamma=0.0)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        pt = p[np.arange(8), targets]
        expected = np.mean(-alpha[targets] * np.log(pt))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_focusing_downweights_easy_examples(self):
        """Confident correct logits cost far less when gamma grows."""
        logits = np.array([[4.0, -4.0]])
        targets = np.array([0])
        alpha = np.array([0.5, 0.5])
        l0, _ = focal_loss(logits, targets, alpha, gamma=0.0)
        l2, _ = focal_loss(logits, targets, alpha, gamma=2.0)
        assert l2 < 1e-3 * l0

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((6, 2))
        targets = rng.integers(0, 2, 6)
        alpha = np.array([0.4, 0.6])
        _, grad = focal_loss(logits, targets, alpha, gamma=2.0)
        h = 1e-6
        for i in range(6):
            for j in range(2):
                up = logits.copy()
                up[i, j] += h
                down = logits.copy()
                down[i, j] -= h
                lu, _ = focal_loss(up, targets, alpha, gamma=2.0)
                ld, _ = focal_loss(down, targets, alpha, gamma=2.0)
                num = (lu - ld) / (2 * h)
                assert num == pytest.approx(grad[i, j], rel=1e-4, abs=1e-8)


class TestCnnNetwork:
    def test_forward_shape(self):
        net = Cnn1d(TINY, seed=0)
        rng = np.random.default_rng(11)
        logits, _ = net.forward(rng.standard_normal((5, 2, 24)))
        assert logits.shape == (5, 2)

    def test_forward_rejects_bad_shape(self):
        net = Cnn1d(TINY, seed=0)
        with pytest.raises(ValueError, match="expected"):
            net.forward(np.zeros((5, 2, 99)))

    def test_training_pass_needs_dropout_rng(self):
        cfg = CnnConfig(
            in_channels=2, input_len=24, conv_filters=(3,), kernel=3,
            pool=2, fc_units=(6, 6), n_classes=2, dropout=0.5,
        )
        net = Cnn1d(cfg, seed=0)
        with pytest.raises(ValueError, match="dropout rng"):
            net.forward(np.zeros((2, 2, 24)), train=True)

    def test_backprop_matches_finite_difference(self):
        """Central differences confirm every parameter tensor's gradient."""
        net = Cnn1d(TINY, seed=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 2, 24))
        y = np.array([0, 1, 1, 0])
        alpha = np.array([0.5, 0.5])

        def loss_only():
            logits, _ = net.forward(x)
            return focal_loss(logits, y, alpha, gamma=2.0)[0]

        logits, cache = net.forward(x)
        _, dlogits = focal_loss(logits, y, alpha, gamma=2.0)
        grads = net.backward(cache, dlogits)

        h = 1e-6
        for name, tensor in net.params.items():
            flat = tensor.ravel()
            picks = np.linspace(0, flat.size - 1, min(5, flat.size)).astype(int)
            for idx in picks:
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_only()
                flat[idx] = orig - h
                down = loss_only()
                flat[idx] = orig
                num = (up - down) / (2 * h)
                ana = grads[name].ravel()[idx]
                assert num == pytest.approx(ana, rel=1e-4, abs=1e-7), name

    def test_adam_minimizes_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        opt = Adam(params, TrainConfig(lr=0.1))
        for _ in range(300):
            opt.step(params, {"w": params["w"].copy()})
        np.testing.assert_allclose(params["w"], 0.0, atol=1e-3)


class TestCnnClassifier:
    def _dataset(self, n_per=12, seed=14):
        """Class 1 carries a strong tone the other class lacks."""
        rng = np.random.default_rng(seed)
        t = np.arange(24)
        tone = np.sin(2 * np.pi * 3 * t / 24.0)
        x0 = 0.3 * rng.standard_normal((n_per, 2, 24))
        x1 = 0.3 * rng.standard_normal((n_per, 2, 24)) + 2.0 * tone
        x = np.concatenate([x0, x1])
        y = np.array([0] * n_per + [1] * n_per)
        return x, y

    def test_learns_separable_windows(self):
        x, y = self._dataset()
        model = CnnClassifier(
            TINY, TrainConfig(epochs=40, batch_size=8, lr=3e-3, seed=0)
        ).fit(x, y)
        assert np.mean(model.predict(x) == y) >= 0.9
        assert model.report.epochs_run == 40
        assert len(model.report.train_loss) == 40
        assert model.report.train_loss[-1] < model.report.train_loss[0]

    def test_unfitted_predict_rejected(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            CnnClassifier(TINY).predict(np.zeros((1, 2, 24)))

    def test_single_class_split_rejected(self):
        x = np.zeros((10, 2, 24))
        y = np.zeros(10, dtype=int)
        with pytest.raises(ValueError, match="both classes"):
            CnnClassifier(TINY, TrainConfig(epochs=1)).fit(x, y)


class TestModelStore:
    def test_svm_round_trip(self, tmp_path):
        x, y = _blobs(seed=15)
        model = SvmClassifier().fit(x, y)
        loaded = load_model(save_model(model, tmp_path / "m.npz"))
        np.testing.assert_allclose(
            loaded.decision_function(x), model.decision_function(x), atol=1e-12
        )

    def test_knn_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((20, 4))
        y = rng.integers(0, 2, 20)
        model = KnnClassifier().fit(x, y)
        loaded = load_model(save_model(model, tmp_path / "m.npz"))
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_forest_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((40, 5))
        y = rng.integers(0, 2, 40)
        model = RandomForestClassifier(ForestConfig(n_trees=4)).fit(x, y)
        loaded = load_model(save_model(model, tmp_path / "m.npz"))
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_cnn_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((16, 2, 24))
        y = rng.integers(0, 2, 16)
        y[:2] = [0, 1]  # both classes survive any split
        model = CnnClassifier(TINY, TrainConfig(epochs=2, batch_size=8)).fit(x, y)
        loaded = load_model(save_model(model, tmp_path / "m.npz"))
        np.testing.assert_array_equal(loaded.predict(x), model.predict(x))

    def test_file_header_pinned(self, tmp_path):
        """Each kind's container header (tag, config, extra fields, array
        shapes) is fixed, whichever code fills it in."""
        x, y = _blobs(n_per=6, seed=19)
        w = np.random.default_rng(20).standard_normal((8, 2, 24))
        models = {
            "svm": SvmClassifier().fit(x, y),
            "knn": KnnClassifier().fit(x, y),
            "rfc": RandomForestClassifier(ForestConfig(n_trees=2, max_depth=3, seed=5)).fit(x, y),
            "cnn": CnnClassifier(TINY, TrainConfig(epochs=1, batch_size=4)).fit(w, [0, 1] * 4),
        }
        expected = {
            "svm": {
                "kind": "svm", "config": {"c": 20.0, "gamma": 0.5, "tol": 0.001},
                "b": models["svm"].b, "arrays": [[8, 2], [8]],
            },
            "knn": {"kind": "knn", "config": {"k": 5}, "arrays": [[12, 2], [12]]},
            "rfc": {
                "kind": "rfc", "config": {"n_trees": 2, "max_depth": 3, "seed": 5},
                "arrays": [[3, 5], [3, 5]],
            },
            "cnn": {
                "kind": "cnn",
                "config": {
                    "in_channels": 2, "input_len": 24, "conv_filters": [3, 4], "kernel": 3,
                    "pool": 2, "fc_units": [6], "n_classes": 2, "dropout": 0.0,
                },
                "param_names": [
                    "conv0_b", "conv0_w", "conv1_b", "conv1_w", "fc0_b", "fc0_w", "out_b", "out_w",
                ],
                "arrays": [[3], [3, 2, 3], [4], [4, 3, 3], [6], [6, 24], [2], [2, 6]],
            },
        }
        for kind, model in models.items():
            header, _ = containers.read_container(save_model(model, tmp_path / kind))
            assert header == expected[kind], kind

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(SvmClassifier(), tmp_path / "m.npz")

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize"):
            save_model(object(), tmp_path / "m.npz")
