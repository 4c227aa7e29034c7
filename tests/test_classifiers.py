"""Downstream classifiers: oracle equivalence, benchmarks, serialization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacae import (KINDS, ConfigError, SgdConfig, accuracy, build_mlp, canonical_kind, fit,
                   make_rng, sgd_step, softmax_cross_entropy)
from dacae import classifiers
from dacae.classifiers import (KnnClassifier, MlpClassifier, TreeClassifier,
                               _col_sum, _nearest, _squared_distances, _train_logreg, best_split)
from helpers import gini_impurity


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


def test_fit_rejects_labels_that_are_not_whole_numbers():
    # a cast to intp would truncate them to y and fit classes [0 1]
    z, y = two_blobs(9)
    with pytest.raises(ValueError, match="^labels must be whole numbers"):
        fit("lda", z, y + 0.9)
    with pytest.raises(ValueError, match="^labels must be whole numbers"):
        KnnClassifier(z, y + 0.9)


def test_accuracy_rejects_labels_that_are_not_whole_numbers():
    # a cast to intp would truncate them to y and score the fit against them
    z, y = two_blobs(9)
    clf = fit("lda", z, y)
    with pytest.raises(ValueError, match="^labels must be whole numbers"):
        accuracy(clf, z, y + 0.7)


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


def per_query_knn_votes(train_z, train_y, queries, k):
    """kNN votes as they were computed before blocking: one query at a time, the first k
    of a stable argsort of its distances."""
    classes = np.unique(train_y)
    label_pos = np.searchsorted(classes, train_y)
    votes = np.zeros((len(queries), classes.size))
    for i, q in enumerate(queries):
        d2 = ((q - train_z) ** 2).sum(axis=1)
        nearest = np.argsort(d2, kind="stable")[:k]
        votes[i] = np.bincount(label_pos[nearest], minlength=classes.size)
    return votes


@pytest.mark.parametrize("dim", [1, 3, 15])
def test_knn_blocks_match_the_per_query_loop_bitwise(dim):
    rng = make_rng(92, dim)
    distinct = np.round(rng.standard_normal((40, dim)), 1)
    train_z = distinct[rng.integers(0, 40, size=300)]  # duplicated rows: ties at every rank
    train_y = rng.integers(0, 4, size=300)
    queries = np.vstack([distinct[:13], np.round(rng.standard_normal((20, dim)), 1)])
    train_z[[7, 150]] = np.nan  # NaN distances sort last
    train_z[9] = 1e200          # an infinite distance sorts before them
    queries[4] = np.nan         # every distance NaN: the lowest indices win
    finite = np.delete(np.arange(len(queries)), 4)
    onehot = np.eye(4)[train_y]  # train_y holds all four labels
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (1, 5, 17, 299, 300):
            clf = KnnClassifier(train_z, train_y, k=k)
            want = per_query_knn_votes(train_z, train_y, queries, k)
            # decision_scores rejects the NaN query, so it meets the blocks' kernels
            # alone, block by block as decision_scores runs them
            assert np.array_equal(clf.decision_scores(queries[finite]), want[finite]), k
            with pytest.raises(ValueError, match="^non-finite features$"):
                clf.decision_scores(queries)
            votes = [_nearest(_squared_distances(queries[start: start + 8], train_z), k) @ onehot
                     for start in range(0, len(queries), 8)]
            assert np.array_equal(np.vstack(votes), want), k
        for start in range(0, len(queries), 8):  # 33 queries: the last block is short
            block = _squared_distances(queries[start: start + 8], train_z)
            for i, d2 in enumerate(block):
                want = ((queries[start + i] - train_z) ** 2).sum(axis=1)
                assert np.array_equal(d2.view(np.uint64), want.view(np.uint64))


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
        n_labels = int(rng.integers(2, 11))  # the label-axis sums go pairwise from 8
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


def tree_depth(clf, node=0):
    """Edges on the longest root-to-leaf path of a fitted TreeClassifier."""
    if clf.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(clf, clf.left[node]), tree_depth(clf, clf.right[node]))


def test_tree_learns_xor():
    z = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 3)
    y = np.array([0, 1, 1, 0] * 3)
    clf = TreeClassifier.train(z, y, min_leaf=1)
    assert accuracy(clf, z, y) == 1.0
    assert tree_depth(clf) >= 2


def test_tree_depth_capped():
    rng = make_rng(13, 93)
    z = rng.standard_normal((300, 4))
    y = rng.integers(0, 4, size=300)  # pure noise forces deep growth
    clf = TreeClassifier.train(z, y, min_leaf=1)
    assert tree_depth(clf) <= 10


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


# -- linear fits, bit for bit -------------------------------------------------------
# The full-batch loops as written with broadcasting, kept verbatim: the fits now
# run class-major, on (classes, n) buffers written in place, and must keep every bit.

def reference_train_svm(z, y):
    classes = np.unique(y)
    n, d = z.shape
    targets = np.where(y[:, None] == classes[None, :], 1.0, -1.0)
    lam = 1.0 / n
    w = np.zeros((classes.size, d))
    b = np.zeros(classes.size)
    for t in range(200):
        lr = 0.5 / (1.0 + 0.02 * t)
        margins = (z @ w.T + b) * targets
        active = (margins < 1.0) * targets
        w -= lr * (lam * w - active.T @ z / n)
        b -= lr * (-active.mean(axis=0))
    return w, b


def reference_train_logreg(z, y, epochs=500):
    classes, targets = np.unique(y, return_inverse=True)
    n, d = z.shape
    w = np.zeros((classes.size, d))
    b = np.zeros(classes.size)
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), targets] = 1.0
    for _ in range(epochs):
        logits = z @ w.T + b
        e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
        err = (e / e.sum(axis=-1, keepdims=True) - onehot) / n
        gw = err.T @ z + 1e-4 * w
        gb = err.sum(axis=0)
        if np.sqrt((gw * gw).sum() + (gb * gb).sum()) < 1e-6:
            break
        w -= gw
        b -= gb
    return w, b


def _assert_linear_fits_match_reference(n_rows, n_classes):
    rng = make_rng(61, n_rows, n_classes)
    y = rng.permutation(np.arange(n_rows) % n_classes)
    z = rng.standard_normal((n_rows, 15)) + 1.5 * rng.standard_normal((n_classes, 15))[y]
    for kind, reference in (("svm", reference_train_svm), ("logreg", reference_train_logreg)):
        with np.errstate(over="raise", invalid="raise"):  # as a fold's classifiers fit
            clf = fit(kind, z, y)
        coef, intercept = reference(z, y)
        assert np.array_equal(clf.coef, coef), (kind, n_classes)
        assert np.array_equal(clf.intercept, intercept), (kind, n_classes)
        assert np.array_equal(clf.decision_scores(z), z @ coef.T + intercept), (kind, n_classes)


@pytest.mark.parametrize("n_classes", [2, 3, 4, 7, 8, 9, 10, 16, 20])
@pytest.mark.parametrize("n_rows", [60, 720, 2740, 3040])
def test_linear_fits_match_broadcast_reference_bitwise(n_rows, n_classes):
    _assert_linear_fits_match_reference(n_rows, n_classes)


@pytest.mark.parametrize("n_rows", range(1, 10))
def test_linear_fits_match_broadcast_reference_bitwise_on_few_rows(n_rows):
    # fewer rows than n_classes leave some classes out of y
    for n_classes in range(1, 11):
        _assert_linear_fits_match_reference(n_rows, n_classes)


@pytest.mark.parametrize("width", range(1, 11))
def test_col_sum_matches_row_major_sum_bitwise(width):
    # magnitudes far apart, so that a pairwise and a sequential sum round apart
    rng = make_rng(63, width)
    a = rng.standard_normal((3040, width)) * np.exp(rng.uniform(-20.0, 20.0, (3040, width)))
    a[rng.random(a.shape) < 0.05] = -0.0
    a[:5, 0] = -0.0  # a short column of -0.0 sums to +0.0
    wide = np.zeros((3040, 2 * width))
    wide[:, ::2] = a
    for n in range(1, 3041):
        want = a[:n].sum(axis=0).view(np.uint64)
        for layout in (a[:n], np.asfortranarray(a[:n]), wide[:n, ::2]):
            assert np.array_equal(_col_sum(layout).view(np.uint64), want), n


@pytest.mark.parametrize("kind, message", [("logreg", "overflow encountered in multiply"),
                                           ("svm", "overflow encountered in matmul")])
def test_linear_fit_overflow_keeps_its_message(kind, message):
    # a fold's classifiers fit under this errstate; the text lands in folds.csv
    rng = make_rng(62)
    z = rng.uniform(-1.0, 1.0, size=(720, 15)) * 1e307
    y = np.arange(720) % 4
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError, match=f"^{message}$"):
            fit(kind, z, y)


def test_svm_affine_overflow_names_matmul():
    # at 1e200 the first overflow is the second step's margins, w @ z.T: np.matmul
    # names itself there, where np.dot would name dot
    z = make_rng(62).uniform(-1.0, 1.0, size=(720, 15)) * 1e200
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError, match="^overflow encountered in matmul$"):
            fit("svm", z, np.arange(720) % 4)


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


@pytest.mark.parametrize("n_classes", [2, 4, 8, 20])
@pytest.mark.parametrize("n_rows", [1, 2, 31, 32, 33, 660])
def test_mlp_stack_replicas_equal_solo_fits_bitwise(monkeypatch, n_rows, n_classes):
    # eight replicas, each with its own rows, seed and label values (one class count);
    # stacks of 1, 2, 3 and 8 of them, in mixed order, must give each replica its solo
    # fit's weights and biases by tobytes, and its predictions
    rng = make_rng(n_rows * 100 + n_classes, 98)
    z = rng.standard_normal((8, n_rows, 15)) + 3.0 * rng.standard_normal((8, 1, 15))
    y = np.stack([rng.permutation(np.arange(n_rows) % n_classes) * (r + 1) + r
                  for r in range(8)])
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, 8)]
    query = rng.standard_normal((17, 15))
    solo = [fit("mlp", z[r], y[r], seed=seeds[r]) for r in range(8)]
    real_step, stacks = classifiers.ce_step, []
    monkeypatch.setattr(classifiers, "ce_step", lambda net, x, *args: stacks.append(
        x.shape[:-2]) or real_step(net, x, *args))
    for picks in ([5], [6, 1], [7, 0, 4], list(range(8))):
        stacks.clear()
        got = fit("mlp", z[picks], y[picks], [seeds[r] for r in picks])
        assert set(stacks) == {(len(picks),) if len(picks) > 1 else ()}  # one stack per step
        assert len(got) == len(picks)
        for clf, r in zip(got, picks):
            assert clf.net.weights[0].ndim == 2
            assert np.array_equal(clf.classes, solo[r].classes)
            for a, b in zip(_fitted_arrays(clf), _fitted_arrays(solo[r]), strict=True):
                assert a.tobytes() == b.tobytes()
            assert np.array_equal(clf.predict(query), solo[r].predict(query))


@pytest.mark.parametrize("kind", KINDS)
def test_fit_takes_only_well_formed_mlp_stacks(kind):
    # only the MLP stacks; its stack takes (R, n) labels of one class count and R seeds,
    # a one-replica stack included
    rng = make_rng(31, 98)
    z = rng.standard_normal((3, 30, 4))
    y = np.stack([np.arange(30) % 2, 3 + np.arange(30) % 2, 5 * (np.arange(30) % 2)])
    if kind != "mlp":
        with pytest.raises(ValueError, match=f"^only mlp fits a stack of features, not {kind}"):
            fit(kind, z, y, [4, 5, 6])
        return
    for labels, seeds in ((y[:, :29], [4, 5, 6]), (y[:2], [4, 5, 6]), (y, [4, 5]), (y, 4)):
        with pytest.raises(ValueError, match="^a stack of features"):
            fit(kind, z, labels, seeds)
    with pytest.raises(ValueError, match="and 1 seeds, got .* and a scalar seed$"):
        fit(kind, z[:1], y[:1], 4)
    with pytest.raises(ConfigError, match="empty feature list"):
        fit(kind, z[:, :0], y[:, :0], [4, 5, 6])
    with pytest.raises(ValueError, match=r"one number of classes, got \[2, 3, 2\]$"):
        fit(kind, z, np.stack([y[0], np.arange(30) % 3, y[2]]), [4, 5, 6])


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


def _fitted_arrays(clf):
    """Every array a fitted classifier holds, an MLP's weights and biases included."""
    if isinstance(clf, MlpClassifier):
        return clf.net.weights + clf.net.biases
    return [v for v in vars(clf).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("kind", KINDS)
def test_any_layout_of_features_fits_and_scores_alike(kind):
    # the linear fits step class-major arrays, and keep their bits only from a
    # C-ordered z; F-ordered and column-strided features must fit the same model
    rng = make_rng(64, 97)
    y = rng.permutation(np.arange(300) % 4)
    z = rng.standard_normal((300, 15)) + 1.5 * rng.standard_normal((4, 15))[y]
    query = rng.standard_normal((40, 15))

    def layouts(a):
        wide = np.zeros((a.shape[0], 2 * a.shape[1]))
        wide[:, ::2] = a
        return a, np.asfortranarray(a), wide[:, ::2]

    want = fit(kind, z, y, seed=3)
    scores = want.decision_scores(query)
    for features in layouts(z):
        got = fit(kind, features, y, seed=3)
        for a, b in zip(_fitted_arrays(got), _fitted_arrays(want), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for q in layouts(query):
            assert got.decision_scores(q).tobytes() == scores.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_non_finite_features_are_rejected_in_fit_and_predict(kind):
    # each kind used to fit such rows and predict [0 0 0 0], or diverge (mlp)
    z, y = two_blobs(4)
    clf = fit(kind, z, y, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        z_bad = z[:4].copy()
        z_bad[1, 2] = bad
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="^non-finite features$"):
                fit(kind, z_bad, y[:4], seed=0)
            with pytest.raises(ValueError, match="^non-finite features$"):
                clf.predict(z_bad)


@pytest.mark.parametrize("kind", KINDS)
def test_feature_dim_mismatch_raises(kind):
    z, y = two_blobs(8)
    clf = fit(kind, z, y, seed=0)
    with pytest.raises(ValueError):
        clf.predict(np.zeros((2, 5)))


@pytest.mark.parametrize("kind", KINDS)
def test_single_row_rejected(kind):
    # a 1-D feature vector is not lifted to a batch of one, in fit or in predict
    z, y = two_blobs(8)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        fit(kind, z[0], y[:1], seed=0)
    clf = fit(kind, z, y, seed=0)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        clf.predict(z[0])


@pytest.mark.parametrize("kind", KINDS)
def test_zero_query_rows_score_and_predict_nothing(kind):
    z, y = two_blobs(8)
    clf = fit(kind, z, y, seed=0)
    assert clf.decision_scores(np.empty((0, 3))).shape == (0, clf.classes.size)
    predicted = clf.predict(np.empty((0, 3)))
    assert predicted.shape == (0,) and predicted.dtype == clf.classes.dtype


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


@pytest.mark.parametrize("labels", [[1], np.zeros((5, 1), dtype=int), np.zeros(6, dtype=int)],
                         ids=["one-label", "column", "one-too-many"])
def test_accuracy_rejects_labels_not_one_per_row(labels):
    # numpy would broadcast these against the 5 predictions and return a mean anyway
    z, y = two_blobs(9)
    clf = fit("lda", z, y)
    with pytest.raises(ValueError, match="^labels must be one per feature row$"):
        accuracy(clf, z[:5], labels)
