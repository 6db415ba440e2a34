"""From-scratch classifiers: optimization, voting, backprop, fitted shapes."""

import hashlib
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    _best_split,
    _scan,
    gini,
    majority_vote,
)
from earpipe.models.knn import KnnClassifier, KnnConfig
from earpipe.models import make_model
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


class _RejectsBadTrainingSets:
    """The training-set checks every classifier shares; ``classifier`` builds
    one, and ``rows`` turns a feature matrix into what its ``fit`` takes.  A
    shape in a message is the feature matrix's; the test reads it as the
    shape that ``rows`` makes of it."""

    @staticmethod
    def rows(x):
        return x

    @pytest.mark.parametrize("x, y, message", [
        (np.zeros((0, 3)), np.zeros(0, dtype=int), r"at least one training row, got 0"),
        (np.zeros((5, 3)), np.zeros(4, dtype=int), r"x of shape \(5, 3\) and y of shape \(4,\)"),
        (np.zeros(5), np.zeros(5, dtype=int), r"x of shape \(5,\) and y of shape \(5,\)"),
        (np.zeros((4, 2)), np.array([0, 1, 2, 1]), r"labels in \{0, 1\}, got \[2\]"),
        (np.zeros((3, 2)), np.array([0.0, 0.5, -1.0]), r"labels in \{0, 1\}, got \[-1\.0, 0\.5\]"),
        (np.zeros((8, 3)), np.zeros(6, dtype=int), r"x of shape \(8, 3\) and y of shape \(6,\)"),
        (np.array([[0.0, np.nan], [1.0, 1.0], [np.inf, 0.0], [1.0, 0.0]]), np.array([0, 1, 0, 1]),
         r"finite x: 2 of 8 values are NaN or infinite"),
    ])
    def test_bad_training_set_rejected(self, x, y, message):
        rows = self.rows(x)
        escaped = lambda a: str(a.shape).replace("(", r"\(").replace(")", r"\)")
        message = message.replace(escaped(x), escaped(rows), 1)  # x comes before y
        with pytest.raises(ValueError, match=message):
            self.classifier().fit(rows, y)


class TestSvm(_RejectsBadTrainingSets):
    classifier = SvmClassifier
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

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("c", [0.5, 20.0])
    def test_two_opposite_points_take_one_newton_step(self, gamma, c):
        """Both multipliers move along (1, 1), where the dual curves by
        K_00 + K_11 - 2 K_01 = 2 - 2 exp(-gamma d^2) and falls with slope 2:
        one exact step reaches the minimum, or the box stops it at C."""
        x = np.array([[0.0], [1.3]])
        model = SvmClassifier(SvmConfig(gamma=gamma, c=c)).fit(x, np.array([0, 1]))
        expected = min(2.0 / (2.0 - 2.0 * np.exp(-gamma * 1.69)), c)
        np.testing.assert_allclose(model.alpha, [expected, expected], rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        d=st.integers(min_value=1, max_value=5),
        gamma=st.sampled_from([0.05, 0.5, 2.0]),
        c=st.sampled_from([0.5, 20.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_solution_meets_the_dual_constraints_and_kkt(self, n, d, gamma, c, seed):
        rng = np.random.default_rng(seed)
        x = np.round(rng.standard_normal((n, d)), 1)  # one decimal: tied and repeated points
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        cfg = SvmConfig(gamma=gamma, c=c)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alpha = SvmClassifier(cfg).fit(x, y).alpha
        assume(not caught)
        ys = np.where(y == 1, 1.0, -1.0)
        assert np.all((alpha >= 0.0) & (alpha <= c))
        assert abs(ys @ alpha) <= 1e-9 * c * n
        grad = (np.outer(ys, ys) * rbf_kernel(x, x, gamma)) @ alpha - 1.0
        viol = -ys * grad
        can_rise = np.where(ys > 0, alpha < c - 1e-12, alpha > 1e-12)
        can_fall = np.where(ys > 0, alpha > 1e-12, alpha < c - 1e-12)
        assert viol[can_rise].max() - viol[can_fall].min() <= cfg.tol + 1e-9


class TestKnn(_RejectsBadTrainingSets):
    classifier = KnnClassifier

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


class TestMajorityVote:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=12),
        k=st.integers(min_value=1, max_value=9),
        n_labels=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_equals_argmax_of_bincount_per_row(self, rows, k, n_labels, seed):
        """Ties fall to the lower label, exactly as argmax(bincount(row))."""
        votes = np.random.default_rng(seed).integers(0, n_labels, size=(rows, k))
        expected = [int(np.argmax(np.bincount(r))) for r in votes]
        np.testing.assert_array_equal(majority_vote(votes), np.array(expected, dtype=int))
        for r in votes:
            assert majority_vote(r) == int(np.argmax(np.bincount(r)))

    def test_three_way_tie_takes_lowest(self):
        np.testing.assert_array_equal(majority_vote(np.array([[2, 1, 0], [2, 2, 1]])), [0, 2])


def _walk(nodes, q):
    """Follow one query down a node table, one row at a time."""
    row = 0
    while nodes[row, 4] < 0:
        feature, threshold, left, right, _ = nodes[row]
        row = int(left) if q[int(feature)] <= threshold else int(right)
    return int(nodes[row, 4])


class TestForest(_RejectsBadTrainingSets):
    classifier = RandomForestClassifier

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        d=st.integers(min_value=1, max_value=6),
        max_depth=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_predict_equals_per_row_walk_of_the_table(self, n, d, max_depth, seed):
        """Rows are in preorder: an inner node's left child is the next row,
        its right child comes after the left subtree, and leaves alone
        carry a class."""
        rng = np.random.default_rng(seed)
        x = np.round(rng.standard_normal((n, d)), 1)  # one decimal: tied feature values
        y = rng.integers(0, 2, n)
        tree = DecisionTree(max_depth=max_depth, rng=rng).fit(x, y)
        nodes = tree.nodes
        inner = nodes[:, 4] < 0
        assert nodes.shape == (len(nodes), 5)
        np.testing.assert_array_equal(nodes[inner, 2], np.flatnonzero(inner) + 1)
        assert np.all(nodes[inner, 3] > nodes[inner, 2])
        assert np.all(nodes[~inner, :4] == [-1.0, 0.0, -1.0, -1.0])
        queries = np.vstack([x, np.round(rng.standard_normal((20, d)), 1)])
        np.testing.assert_array_equal(tree.predict(queries), [_walk(nodes, q) for q in queries])

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


def _scan_loop(scores, start):
    """The scan as a per-score loop: keep a score more than 1e-12 below the best."""
    at, best = -1, start
    for j, score in enumerate(scores):
        if score < best - 1e-12:
            at, best = j, score
    return at, best


def _best_split_loop(x, y, feat_ids):
    """The split search as it ran one feature and one cut at a time."""
    n = len(y)
    best = (-1, 0.0, gini(y))
    for f in feat_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        distinct = np.nonzero(np.diff(xs))[0]
        if distinct.size == 0:
            continue
        ones = np.cumsum(ys == 1)
        total_ones = ones[-1]
        for cut in distinct:
            n_left = cut + 1
            n_right = n - n_left
            l1 = ones[cut]
            r1 = total_ones - l1
            pl = l1 / n_left
            pr = r1 / n_right
            score = (n_left * 2 * pl * (1 - pl) + n_right * 2 * pr * (1 - pr)) / n
            if score < best[2] - 1e-12:
                best = (int(f), float((xs[cut] + xs[cut + 1]) / 2.0), score)
    return best


class TestSplitSearch:
    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(st.integers(min_value=-6, max_value=6), max_size=30),
        start=st.integers(min_value=-3, max_value=3),
        unit=st.sampled_from([0.25e-12, 0.5e-12, 0.9e-12, 1e-12, 1.1e-12, 2e-12, 1e-3]),
    )
    # runs of small falls that only add up past the tolerance, and a rise between
    @example(steps=[-1, -2, -3, -4, -5], start=0, unit=0.5e-12)
    @example(steps=[-1, -2, 5, -3, -4, -5, -6], start=0, unit=0.4e-12)
    @example(steps=[-2, -1, -2, -2, -3], start=0, unit=1e-12)
    @example(steps=[], start=0, unit=1e-3)
    def test_scan_keeps_what_the_loop_keeps(self, steps, start, unit):
        scores = 0.4 + np.array(steps, dtype=float) * unit
        scores[np.array(steps, dtype=int) == 6] = np.inf  # cuts between equal values
        assert _scan(scores, 0.4 + start * unit) == _scan_loop(scores, 0.4 + start * unit)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        d=st.integers(min_value=1, max_value=7),
        levels=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    # one level: every column constant; many small-integer columns: scores of
    # different cuts that tie exactly or within a few ulps
    @example(n=2, d=1, levels=2, seed=0)
    @example(n=9, d=3, levels=1, seed=1)
    @example(n=18, d=5, levels=3, seed=3)
    @example(n=24, d=5, levels=4, seed=33)
    def test_matches_the_per_cut_loop(self, n, d, levels, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, size=(n, d)).astype(float)
        x[:, ::2] += np.round(rng.standard_normal((n, (d + 1) // 2)), 1) * (levels > 2)
        y = rng.integers(0, 2, n)
        feat_ids = np.sort(rng.choice(d, rng.integers(1, d + 1), replace=False))
        assert _best_split(x, y, feat_ids) == _best_split_loop(x, y, feat_ids)

    @pytest.mark.parametrize("labels", [[0, 1, 1, 0], [1, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0]])
    def test_mirrored_labels_keep_the_first_of_tied_cuts(self, labels):
        y = np.array(labels * 3)
        rows = np.arange(len(y), dtype=float)
        x = np.column_stack([rows, rows[::-1], rows])
        feat_ids = np.arange(3)
        assert _best_split(x, y, feat_ids) == _best_split_loop(x, y, feat_ids)

    def test_monotone_falling_scores_stay_linear(self):
        """8,000 sorted rows, 19 features: every cut up to the middle is a
        new best, which a search restarting at each kept cut takes in
        quadratic time; the per-cut loop takes about 0.3 s here."""
        n, d = 8000, 19
        x = np.arange(n, dtype=float)[:, None] * np.arange(1, d + 1)
        y = (np.arange(n) >= n // 2).astype(int)
        feat_ids = np.arange(d)
        expected = _best_split_loop(x, y, feat_ids)
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            got = _best_split(x, y, feat_ids)
            seconds.append(time.perf_counter() - t0)
        assert got == expected
        assert min(seconds) < 0.1, seconds


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


class TestCnnClassifier(_RejectsBadTrainingSets):
    """The CNN refuses the same training sets, each row given a channel axis."""

    @staticmethod
    def classifier():
        return CnnClassifier(TINY, TrainConfig(epochs=1))

    @staticmethod
    def rows(x):
        return x[:, None]

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

    def test_geometry_comes_from_the_windows(self):
        """A config built for 24 samples trains on and predicts 30-sample
        windows, as a corpus at another sampling rate cuts them."""
        x = np.random.default_rng(21).standard_normal((8, 2, 30))
        model = CnnClassifier(TINY, TrainConfig(epochs=1, batch_size=4)).fit(x, [0, 1] * 4)
        assert (model.config.in_channels, model.config.input_len) == (2, 30)
        assert model.predict(x).shape == (8,)

    @pytest.mark.parametrize("shape, message", [
        ((8, 24), r"3-D x of n rows and y of n labels, got x of shape \(8, 24\)"),
        ((8, 2, 3), r"input_len 3 leaves no samples after 2 pooling stages of 2"),
    ], ids=["flat", "too-short"])
    def test_unusable_windows_rejected(self, shape, message):
        with pytest.raises(ValueError, match=message):
            CnnClassifier(TINY, TrainConfig(epochs=1)).fit(np.zeros(shape), [0, 1] * 4)

    def test_single_class_split_rejected(self):
        x = np.zeros((10, 2, 24))
        y = np.zeros(10, dtype=int)
        with pytest.raises(ValueError, match="both classes"):
            CnnClassifier(TINY, TrainConfig(epochs=1)).fit(x, y)


class TestFittedModels:
    def test_fitted_shapes_pinned(self):
        """The shapes a fit leaves behind are fixed, whichever code fills
        them in: the SVM's support vectors, each forest tree's node table
        and the CNN's parameters."""
        x, y = _blobs(n_per=6, seed=19)
        w = np.random.default_rng(20).standard_normal((8, 2, 24))
        svm = SvmClassifier().fit(x, y)
        assert svm._sv_x.shape == (8, 2)
        assert svm._sv_coef.shape == (8,)
        forest = RandomForestClassifier(ForestConfig(n_trees=2, max_depth=3, seed=5)).fit(x, y)
        assert [t.nodes.shape for t in forest.trees] == [(3, 5), (3, 5)]
        cnn = CnnClassifier(TINY, TrainConfig(epochs=1, batch_size=4)).fit(w, [0, 1] * 4)
        assert {name: p.shape for name, p in cnn.net.params.items()} == {
            "conv0_b": (3,), "conv0_w": (3, 2, 3), "conv1_b": (4,), "conv1_w": (4, 3, 3),
            "fc0_b": (6,), "fc0_w": (6, 24), "out_b": (2,), "out_w": (2, 6),
        }

    def test_forest_nodes_pinned(self):
        """A small forest's node tables hash as they did when a tree was
        still grown as linked nodes and flattened to its table."""
        rng = np.random.default_rng(21)
        x = np.round(rng.standard_normal((24, 3)), 1)  # one decimal: tied feature values
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = RandomForestClassifier(ForestConfig(n_trees=3, seed=4)).fit(x, y)
        digest = hashlib.sha256(b"".join(t.nodes.tobytes() for t in model.trees)).hexdigest()
        assert digest == "b50ca3de9e518d6aeb12bc33c32731c57f8d90a10adbfeda9ec2ec7fd7a47b18"

    def test_cnn_takes_its_epoch_count(self):
        assert make_model("cnn", seed=3, cnn_epochs=7).train_config == TrainConfig(epochs=7, seed=3)

    def test_unknown_kind_names_the_known_ones(self):
        with pytest.raises(ValueError, match=r"expected one of \['cnn', 'knn', 'rfc', 'svm'\]"):
            make_model("lda")
