"""Downstream classifiers: oracle equivalence, benchmarks, serialization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacae import (KINDS, ConfigError, SgdConfig, accuracy, build_mlp, canonical_kind, fit,
                   make_rng, sgd_step, softmax_cross_entropy)
from dacae import classifiers
from dacae.classifiers import (KnnClassifier, TreeClassifier, _train_logreg, best_split,
                               gini_impurity)


def two_blobs(seed, n_per=40, gap=6.0, dim=3):
    rng = make_rng(seed, 88)
    a = rng.standard_normal((n_per, dim))
    b = rng.standard_normal((n_per, dim))
    b[:, 0] += gap
    z = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    perm = rng.permutation(2 * n_per)
    return z[perm], y[perm]


def test_canonical_kind_aliases():
    assert canonical_kind("MLP") == "mlp"
    assert canonical_kind("nearest-neighbors") == "knn"
    assert canonical_kind(" tree ") == "tree"
    with pytest.raises(ConfigError):
        canonical_kind("forest")


def test_fit_rejects_empty_and_mismatched():
    with pytest.raises(ConfigError):
        fit("lda", np.empty((0, 2)), np.array([], dtype=int))
    with pytest.raises(ValueError):
        fit("lda", np.zeros((3, 2)), np.array([0, 1]))


# -- kNN -------------------------------------------------------------------------

def brute_force_knn(train_z, train_y, query, k):
    """Independent reference: sort by (distance, index), majority vote,
    vote ties to the lowest label."""
    d2 = [float(((query - p) ** 2).sum()) for p in train_z]
    order = sorted(range(len(train_z)), key=lambda i: (d2[i], i))[:k]
    votes = {}
    for i in order:
        votes[int(train_y[i])] = votes.get(int(train_y[i]), 0) + 1
    best = max(votes.values())
    return min(lbl for lbl, v in votes.items() if v == best)


def test_knn_one_neighbor_hand_case():
    clf = KnnClassifier(np.array([[0.0], [10.0]]), np.array([3, 7]), k=1)
    assert clf.predict(np.array([[1.0]]))[0] == 3
    assert clf.predict(np.array([[9.0]]))[0] == 7


def test_knn_vote_tie_goes_to_lowest_label():
    z = np.array([[-1.0], [1.0]])
    clf = KnnClassifier(z, np.array([5, 2]), k=2)
    assert clf.predict(np.array([[0.0]]))[0] == 2


def test_knn_k_clamped_to_training_size():
    clf = KnnClassifier(np.array([[0.0], [1.0]]), np.array([0, 1]), k=10)
    assert clf.k == 2


def test_knn_predict_memory_stays_per_query():
    # one query's distances at a time: an (n_test, n_train, d) temporary would be 25.6 MB
    rng = make_rng(22, 91)
    clf = fit("knn", rng.standard_normal((1000, 16)), rng.integers(0, 4, size=1000))
    queries = rng.standard_normal((200, 16))
    tracemalloc.start()
    try:
        clf.predict(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_knn_matches_brute_force_random_instances():
    for seed in range(30):
        rng = make_rng(seed, 91)
        n = int(rng.integers(2, 21))
        dim = int(rng.integers(1, 3))
        k = int(rng.integers(1, n + 1))
        train_z = np.round(rng.standard_normal((n, dim)), 1)  # coarse: force ties
        train_y = rng.integers(0, 3, size=n)
        clf = KnnClassifier(train_z, train_y, k=k)
        queries = np.round(rng.standard_normal((8, dim)), 1)
        got = clf.predict(queries)
        want = [brute_force_knn(train_z, train_y, q, k) for q in queries]
        assert list(got) == want, f"seed {seed}"


# -- decision tree ------------------------------------------------------------------

def test_gini_impurity_values():
    assert gini_impurity(np.array([2.0, 2.0])) == pytest.approx(0.5)
    assert gini_impurity(np.array([4.0, 0.0])) == 0.0
    assert gini_impurity(np.array([1.0, 1.0, 2.0])) == pytest.approx(0.625)
    assert gini_impurity(np.array([0.0, 0.0])) == 0.0


def test_gini_impurity_along_last_axis():
    counts = np.array([[[2.0, 2.0, 0.0], [0.0, 0.0, 0.0]], [[1.0, 1.0, 2.0], [0.0, 3.0, 0.0]]])
    got = gini_impurity(counts)
    assert got.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        assert got[idx] == gini_impurity(counts[idx])
    assert got[0, 1] == 0.0


def brute_force_best_split(z, label_pos, n_labels, min_leaf):
    """Enumerate every (feature, midpoint) candidate; first strictly best wins."""
    n = z.shape[0]
    best = None
    for f in range(z.shape[1]):
        for thr in sorted({(a + b) / 2.0 for a, b in
                           zip(sorted(set(z[:, f])), sorted(set(z[:, f]))[1:])}):
            mask = z[:, f] <= thr
            nl = int(mask.sum())
            if nl < min_leaf or n - nl < min_leaf:
                continue
            lc = np.bincount(label_pos[mask], minlength=n_labels).astype(float)
            rc = np.bincount(label_pos[~mask], minlength=n_labels).astype(float)
            score = (nl * gini_impurity(lc) + (n - nl) * gini_impurity(rc)) / n
            if best is None or score < best[2] - 1e-15:
                best = (f, thr, score)
    return best


def test_best_split_matches_brute_force():
    for seed in range(30):
        rng = make_rng(seed, 92)
        n = int(rng.integers(2, 21))
        dim = int(rng.integers(1, 3))
        min_leaf = int(rng.integers(1, 4))
        z = np.round(rng.standard_normal((n, dim)), 1)
        label_pos = rng.integers(0, 2, size=n)
        got = best_split(z, label_pos, 2, min_leaf)
        want = brute_force_best_split(z, label_pos, 2, min_leaf)
        if want is None:
            assert got is None, f"seed {seed}"
        else:
            assert got is not None, f"seed {seed}"
            assert got[0] == want[0] and got[1] == pytest.approx(want[1]), f"seed {seed}"
            assert got[2] == pytest.approx(want[2]), f"seed {seed}"


def reference_best_split(z, label_pos, n_labels, min_leaf):
    """The per-threshold loop the cumulative-count scan replaced, kept as a bitwise oracle."""
    n = z.shape[0]
    best = None
    for f in range(z.shape[1]):
        order = np.argsort(z[:, f], kind="stable")
        vals = z[order, f]
        labs = label_pos[order]
        left = np.zeros(n_labels)
        total = np.bincount(labs, minlength=n_labels).astype(np.float64)
        for i in range(1, n):
            left[labs[i - 1]] += 1
            if vals[i] == vals[i - 1]:
                continue
            if i < min_leaf or n - i < min_leaf:
                continue
            right = total - left
            score = (i * gini_impurity(left) + (n - i) * gini_impurity(right)) / n
            if best is None or score < best[2]:
                best = (f, (vals[i - 1] + vals[i]) / 2.0, score)
    return best


def test_best_split_matches_reference_loop_bitwise():
    for seed in range(250):
        rng = make_rng(seed, 99)
        n = int(rng.integers(1, 41))
        dim = int(rng.integers(1, 16))
        n_labels = int(rng.integers(2, 7))
        min_leaf = int(rng.integers(1, 8))
        z = np.round(rng.standard_normal((n, dim)), int(rng.integers(0, 3)))  # value ties
        label_pos = rng.integers(0, n_labels, size=n)
        if seed % 2:  # score ties: mirrored labels along increasing columns
            half = label_pos[: (n + 1) // 2]
            label_pos = np.concatenate([half, half[: n // 2][::-1]])
            z = np.sort(z, axis=0)
        got = best_split(z, label_pos, n_labels, min_leaf)
        want = reference_best_split(z, label_pos, n_labels, min_leaf)
        assert got == want, f"seed {seed}: {got} != {want}"
    constant = np.full((12, 3), 0.5)
    assert best_split(constant, np.arange(12) % 3, 3, 1) is None


def test_tree_fit_matches_reference_loop_bitwise(monkeypatch):
    rng = make_rng(23, 99)
    z = rng.standard_normal((720, 15))
    y = rng.integers(0, 4, size=720)
    got = fit("tree", z, y)
    monkeypatch.setattr(classifiers, "best_split", reference_best_split)
    want = fit("tree", z, y)
    for name in ("feature", "threshold", "left", "right", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_tree_learns_xor():
    z = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    y = np.array([0, 1, 1, 0] * 3)
    clf = TreeClassifier.train(z, y, min_leaf=1)
    assert accuracy(clf, z, y) == 1.0
    assert clf.depth() >= 2


def test_tree_depth_capped():
    rng = make_rng(13, 93)
    z = rng.standard_normal((300, 4))
    y = rng.integers(0, 4, size=300)  # pure noise forces deep growth
    clf = TreeClassifier.train(z, y, min_leaf=1)
    assert clf.depth() <= 10


def test_tree_min_leaf_respected():
    rng = make_rng(14, 94)
    z = rng.standard_normal((60, 2))
    y = rng.integers(0, 2, size=60)
    clf = TreeClassifier.train(z, y, min_leaf=5)
    leaf_sizes = clf.counts[clf.feature < 0].sum(axis=1)
    assert np.all(leaf_sizes >= 5)


# -- LDA ------------------------------------------------------------------------

def test_lda_separates_shifted_gaussians():
    z, y = two_blobs(1)
    clf = fit("lda", z, y)
    assert accuracy(clf, z, y) >= 0.95


def test_lda_zero_scatter_stays_finite():
    z = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]] * 5)
    y = np.array([0] * 5 + [1] * 5)
    clf = fit("lda", z, y)
    assert np.all(np.isfinite(clf.coef)) and np.all(np.isfinite(clf.intercept))
    assert accuracy(clf, z, y) == 1.0


def test_lda_prior_shifts_boundary():
    rng = make_rng(15, 95)
    z = np.vstack([rng.standard_normal((90, 1)), rng.standard_normal((10, 1)) + 3.0])
    y = np.array([0] * 90 + [1] * 10)
    clf = fit("lda", z, y)
    scores = clf.decision_scores(np.array([[1.5]]))
    assert scores.shape == (1, 2)


# -- linear SVM -------------------------------------------------------------------

def test_svm_separates_blobs():
    z, y = two_blobs(2)
    clf = fit("svm", z, y)
    assert accuracy(clf, z, y) >= 0.95


def test_svm_three_class_one_vs_rest():
    rng = make_rng(16, 96)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    z = np.vstack([rng.standard_normal((30, 2)) * 0.5 + c for c in centers])
    y = np.repeat([0, 1, 2], 30)
    clf = fit("svm", z, y)
    assert accuracy(clf, z, y) >= 0.99


# -- logistic regression ------------------------------------------------------------

def test_logreg_separates_blobs():
    z, y = two_blobs(3)
    clf = fit("logreg", z, y)
    assert accuracy(clf, z, y) >= 0.95


def test_logreg_converges_on_overlapping_classes():
    # finite optimum: once the gradient tolerance trips, extra epochs are free
    z, y = two_blobs(3, gap=1.0)
    a_coef, a_intercept = _train_logreg(z, y, epochs=20000)
    b_coef, b_intercept = _train_logreg(z, y, epochs=200000)
    assert np.allclose(a_coef, b_coef, atol=1e-6)
    assert np.allclose(a_intercept, b_intercept, atol=1e-6)


# -- MLP ----------------------------------------------------------------------------

def test_mlp_separates_blobs():
    z, y = two_blobs(4)
    clf = fit("mlp", z, y, seed=4)
    assert accuracy(clf, z, y) >= 0.95


def test_mlp_deterministic_given_seed():
    z, y = two_blobs(5)
    a = fit("mlp", z, y, seed=9)
    b = fit("mlp", z, y, seed=9)
    probe = make_rng(5).standard_normal((10, 3))
    assert np.array_equal(a.decision_scores(probe), b.decision_scores(probe))


def test_mlp_matches_reference_sgd_replay():
    # replay of the MLP's training from nn pieces: 15 hidden ReLU units, learning
    # rate 0.05, batch 32, 150 epochs; one Philox stream initialises, then shuffles
    z, y = two_blobs(6, n_per=25)  # 50 rows: a full and a short batch per epoch
    y = np.where(y == 1, 7, 2)
    clf = fit("mlp", z, y, seed=3)

    classes, targets = np.unique(y, return_inverse=True)
    rng = make_rng(3, 400)
    net = build_mlp([z.shape[1], 15, classes.size], rng)
    sgd = SgdConfig(learning_rate=0.05)
    for _ in range(150):
        order = rng.permutation(z.shape[0])
        for start in range(0, z.shape[0], 32):
            idx = order[start: start + 32]
            _, grad = softmax_cross_entropy(net.forward(z[idx]), targets[idx])
            sgd_step(net, net.backward(grad), sgd)
    for got, want in zip(clf.net.weights + clf.net.biases, net.weights + net.biases, strict=True):
        assert np.array_equal(got, want)


# -- shared behavior ------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_two_blob_benchmark_all_kinds(kind):
    scores = []
    for seed in range(5):
        z, y = two_blobs(seed + 10)
        clf = fit(kind, z, y, seed=seed)
        scores.append(accuracy(clf, z, y))
    assert np.mean(scores) >= 0.95


@pytest.mark.parametrize("kind", KINDS)
def test_constant_labels_predict_constant(kind):
    rng = make_rng(20, 97)
    z = rng.standard_normal((12, 3))
    y = np.full(12, 4)
    clf = fit(kind, z, y, seed=0)
    assert np.all(clf.predict(rng.standard_normal((5, 3))) == 4)


@pytest.mark.parametrize("kind", KINDS)
def test_noncontiguous_labels_preserved(kind):
    z, y01 = two_blobs(6)
    y = np.where(y01 == 0, 2, 9)
    clf = fit(kind, z, y, seed=0)
    assert set(clf.predict(z)) <= {2, 9}
    assert np.array_equal(clf.classes, [2, 9])


@pytest.mark.parametrize("kind", KINDS)
def test_feature_dim_mismatch_raises(kind):
    z, y = two_blobs(8)
    clf = fit(kind, z, y, seed=0)
    with pytest.raises(ValueError):
        clf.predict(np.zeros((2, 5)))


def test_accuracy_monte_carlo_chance():
    rng = make_rng(21, 98)
    z = rng.standard_normal((2000, 2))
    y = rng.integers(0, 4, size=2000)
    clf = fit("lda", z, y)
    acc = accuracy(clf, z, y)
    sigma = np.sqrt(0.25 * 0.75 / 2000)
    assert abs(acc - 0.25) <= 4 * sigma


def test_accuracy_empty_raises():
    z, y = two_blobs(9)
    clf = fit("lda", z, y)
    with pytest.raises(ValueError):
        accuracy(clf, np.empty((0, 3)), np.array([], dtype=int))
