"""Downstream task classifiers under one fit/predict contract.

Six small models (MLP, k-nearest-neighbors, CART decision tree, LDA, linear
SVM, multinomial logistic regression) implemented directly on numpy. They all
expose predict() returning integer labels, decision_scores() returning one
score row per input (argmax of which is the prediction, ties resolving to the
lowest label), and fit deterministically for a given seed.

Features are (n, d) batches; a 1-D array raises ValueError, as does a NaN or an
infinity passed to fit, predict or decision_scores, and so do features large
enough to overflow a classifier's scores. Classifiers train on whatever label
subset is present; scores are reported over the sorted unique training labels.

For the MLP, fit also takes a stack: R feature sets of one shape, (R, n, d),
with (R, n) labels of one class count and R seeds. It returns R classifiers,
each equal to its solo fit bit for bit, trained as one network stack.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .nn import (ConfigError, Mlp, SgdConfig, _all, _ids, _one_hot, _softmax_in_place,
                 build_mlp, ce_step, make_rng)

_MLP_SGD = SgdConfig(learning_rate=0.05, batch_size=32, epochs=150)

KINDS = ("mlp", "knn", "tree", "lda", "svm", "logreg")

_ALIASES = {
    "mlp": "mlp", "multilayer-perceptron": "mlp",
    "knn": "knn", "nearest-neighbors": "knn",
    "tree": "tree", "decision-tree": "tree",
    "lda": "lda", "linear-discriminant": "lda",
    "svm": "svm", "linear-svm": "svm",
    "logreg": "logreg", "logistic-regression": "logreg",
}


def canonical_kind(kind: str) -> str:
    k = _ALIASES.get(kind.strip().lower())
    if k is None:
        raise ConfigError(f"unknown classifier kind {kind!r}; expected one of {KINDS}")
    return k


def _check_features(z: np.ndarray, dim: int) -> np.ndarray:
    if z.ndim != 2 or z.shape[1] != dim:
        raise ValueError(f"features of shape {z.shape} are not (n, {dim})")
    return z


def _finite(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not _all(np.isfinite(z)):
        raise ValueError("non-finite features")
    return z


class _Fitted:
    kind: str = ""
    classes: np.ndarray  # sorted unique training labels

    def decision_scores(self, z: np.ndarray) -> np.ndarray:
        """The finite (n, n_classes) scores of features z; raises ValueError for a NaN
        or an infinity in z, and for scores that overflow (finite features near the
        float limit), where the arithmetic would otherwise warn or raise mid-way."""
        z = _finite(z)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            scores = self._scores(z)
        if not _all(np.isfinite(scores)):
            raise ValueError("non-finite scores: features too large")
        return scores

    def _scores(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, z: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.decision_scores(z), axis=1)]


class MlpClassifier(_Fitted):
    """One hidden layer of 15 ReLU units, softmax cross-entropy, minibatch SGD.

    Nothing reads the training loss, so its steps compute none (ce_step with targets
    None). It stays row-major: its batches are C-ordered row slices of each pass's
    gather of z, the layout its products' bits depend on.

    train fits R classifiers at once. Each replica draws its weights, then its
    shuffles, from its own stream, make_rng(seed, 400), and gathers its own rows and
    one-hot targets, so it equals its solo fit bit for bit. R > 1 replicas train as
    one network stack, Mlp.stack of their nets, with one ce_step per batch for all of
    them, and come back as the stack's replicas(), 2-D copies; a lone fit trains its
    2-D network, which is its own replica.
    """

    kind = "mlp"

    def __init__(self, net: Mlp, classes: np.ndarray):
        self.net = net
        self.classes = classes

    @classmethod
    def train(cls, z: np.ndarray, y: np.ndarray, seeds: Sequence[int]) -> list["MlpClassifier"]:
        """One classifier per seed, fit to features z (R, n, d) and labels y (R, n);
        every replica's labels hold the same number of classes."""
        fits = [np.unique(labels, return_inverse=True) for labels in y]
        k = fits[0][0].size
        # each replica's stream initialises its weights, then shuffles its rows
        rngs = [make_rng(seed, 400) for seed in seeds]
        nets = [build_mlp([z.shape[-1], 15, k], rng) for rng in rngs]
        stacked = len(nets) > 1
        net = Mlp.stack(nets) if stacked else nets[0]
        z = np.ascontiguousarray(z)
        onehot = np.stack([_one_hot(targets, k) for _, targets in fits])
        replica, n, size = np.arange(len(rngs))[:, None], z.shape[1], _MLP_SGD.batch_size
        for _ in range(_MLP_SGD.epochs):
            order = replica, np.stack([rng.permutation(n) for rng in rngs])
            zs, hot = z[order], onehot[order]  # each replica's pass, (R, n, d) and (R, n, k)
            if not stacked:
                zs, hot = zs[0], hot[0]
            for start in range(0, n, size):
                ce_step(net, zs[..., start: start + size, :], None, _MLP_SGD,
                        hot[..., start: start + size, :])
        return [cls(m, classes) for m, (classes, _) in zip(net.replicas(), fits)]

    def _scores(self, z: np.ndarray) -> np.ndarray:
        return self.net.forward(z)  # rejects all but (n, net.in_dim) input


class KnnClassifier(_Fitted):
    """k nearest neighbors by Euclidean distance, majority vote.

    Distance ties resolve toward the lowest training index, vote ties toward
    the lowest label.
    """

    kind = "knn"

    def __init__(self, z: np.ndarray, y: np.ndarray, k: int = 5):
        self.z = np.asarray(z, dtype=np.float64)
        self.y = _ids(y, "labels")
        self.k = min(k, self.z.shape[0])
        self.classes = np.unique(self.y)

    def _scores(self, z: np.ndarray) -> np.ndarray:
        z = _check_features(z, self.z.shape[1])
        onehot = np.eye(self.classes.size)[np.searchsorted(self.classes, self.y)]
        votes = np.empty((z.shape[0], self.classes.size))
        for start in range(0, z.shape[0], _KNN_BLOCK):
            d2 = _squared_distances(z[start: start + _KNN_BLOCK], self.z)
            votes[start: start + len(d2)] = _nearest(d2, self.k) @ onehot
        return votes


_KNN_BLOCK = 8  # queries per distance block, whose temporary is (8, n_train, d)


def _squared_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(m, n) squared Euclidean distances; row i has the bits of
    ((queries[i] - points) ** 2).sum(axis=1)."""
    diff = queries[:, None, :] - points
    np.square(diff, out=diff)
    return diff.sum(axis=-1)


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Mask of each row's k nearest columns: the first k of a stable argsort of the row.

    Columns below the k-th smallest distance are in; of those tied with it,
    the lowest indices fill the rest. NaN sorts last, as in argsort.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1: k]
    nan_kth = np.isnan(kth)
    below = np.where(nan_kth, ~np.isnan(d2), d2 < kth)
    tied = np.where(nan_kth, np.isnan(d2), d2 == kth)
    room = k - below.sum(axis=1, keepdims=True)
    return below | (tied & (np.cumsum(tied, axis=1) <= room))


def best_split(z: np.ndarray, label_pos: np.ndarray, n_labels: int,
               min_leaf: int) -> tuple[int, float, float] | None:
    """Lowest weighted-Gini (feature, threshold) split, or None if no split is legal.

    Thresholds are midpoints between consecutive distinct sorted values. All
    features are scored in one pass: cumulative one-hot label counts over the
    stably sorted columns give the (n-1, d, labels) left counts at every cut
    (the right counts are the total minus them), and cuts between equal
    values or leaving fewer than min_leaf rows on a side score +inf. Ties go
    to the lowest feature (only a strictly better score replaces the
    incumbent), then to the lowest threshold (argmin takes the first minimum).

    Each side's Gini impurity is 1 - sum(p * p) over its labels, with p its
    label counts divided by its row count (its counts sum to it exactly), in
    that order of operations; the tests' reference loops score every cut
    with the same arithmetic one side at a time, and must match bit for bit.
    """
    n = z.shape[0]
    order = np.argsort(z, axis=0, kind="stable")
    vals = np.take_along_axis(z, order, axis=0)
    cut = np.arange(1, n)[:, None]             # rows left of each cut
    legal = (vals[1:] != vals[:-1]) & ((cut >= min_leaf) & (n - cut >= min_leaf))
    usable = legal.any(axis=0)
    if not usable.any():
        return None
    counts = np.eye(n_labels)[label_pos[order[:-1]]]  # (n-1, d, labels)
    np.cumsum(counts, axis=0, out=counts)
    p = counts / cut[:, :, None]
    p *= p
    g_left = 1.0 - p.sum(axis=-1)
    total = np.bincount(label_pos, minlength=n_labels).astype(np.float64)
    np.subtract(total, counts, out=counts)
    np.divide(counts, (n - cut)[:, :, None], out=p)
    p *= p
    g_right = 1.0 - p.sum(axis=-1)
    scores = (cut * g_left + (n - cut) * g_right) / n
    scores[~legal] = np.inf
    ks = np.argmin(scores, axis=0)
    best: tuple[int, float, float] | None = None
    for f in np.flatnonzero(usable):
        k = ks[f]
        if best is None or scores[k, f] < best[2]:
            best = (int(f), float((vals[k, f] + vals[k + 1, f]) / 2.0), float(scores[k, f]))
    return best


class TreeClassifier(_Fitted):
    """CART with Gini impurity, depth at most 10; axis-aligned splits, x <= threshold goes left."""

    kind = "tree"

    def __init__(self, feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
                 right: np.ndarray, counts: np.ndarray, classes: np.ndarray, dim: int):
        self.feature = feature      # -1 marks a leaf
        self.threshold = threshold
        self.left = left
        self.right = right
        self.counts = counts        # (nodes, n_classes) training label counts
        self.classes = classes
        self.dim = dim

    @classmethod
    def train(cls, z: np.ndarray, y: np.ndarray, min_leaf: int = 5) -> "TreeClassifier":
        classes = np.unique(y)
        label_pos = np.searchsorted(classes, y)
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        counts: list[np.ndarray] = []

        def grow(ids: np.ndarray, depth: int) -> int:
            node = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            node_counts = np.bincount(label_pos[ids], minlength=classes.size).astype(np.float64)
            counts.append(node_counts)
            if depth >= 10 or np.count_nonzero(node_counts) <= 1:
                return node
            split = best_split(z[ids], label_pos[ids], classes.size, min_leaf)
            if split is None:
                return node
            f, thr, _ = split
            mask = z[ids, f] <= thr
            feature[node] = f
            threshold[node] = thr
            left[node] = grow(ids[mask], depth + 1)
            right[node] = grow(ids[~mask], depth + 1)
            return node

        grow(np.arange(z.shape[0]), 0)
        return cls(np.asarray(feature, dtype=np.intp), np.asarray(threshold),
                   np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp),
                   np.vstack(counts), classes, z.shape[1])

    def _leaf(self, row: np.ndarray) -> int:
        node = 0
        while self.feature[node] >= 0:
            node = self.left[node] if row[self.feature[node]] <= self.threshold[node] \
                else self.right[node]
        return node

    def _scores(self, z: np.ndarray) -> np.ndarray:
        z = _check_features(z, self.dim)
        return self.counts[np.fromiter(map(self._leaf, z), dtype=np.intp, count=len(z))]


def _train_lda(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian LDA: pooled within-class covariance with a ridge of 1e-6 of its mean variance."""
    classes = np.unique(y)
    n, d = z.shape
    means = np.vstack([z[y == c].mean(axis=0) for c in classes])
    priors = np.array([(y == c).sum() / n for c in classes])
    scatter = np.zeros((d, d))
    for c, mu in zip(classes, means):
        centered = z[y == c] - mu
        scatter += centered.T @ centered
    cov = scatter / max(1, n - classes.size)
    # ridge floor keeps the solve finite even with zero within-class scatter
    cov = cov + (1e-6 * np.trace(cov) / d + 1e-12) * np.eye(d)
    solved = np.linalg.solve(cov, means.T).T
    intercept = -0.5 * np.sum(solved * means, axis=1) + np.log(priors)
    return solved, intercept


def _col_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0) of a C-ordered copy of an (n >= 1, k) array, bit for bit, in any layout.

    From two columns up, numpy sums axis 0 of a C-ordered array row after row from
    +0.0, as einsum's "ic->c" does on one, which a row-major buffer gives uncopied;
    test_col_sum_matches_row_major_sum_bitwise pins that order. One column is
    contiguous along axis 0 even when C-ordered, so numpy sums it pairwise in any layout.
    """
    if a.shape[1] == 1:
        return a.sum(axis=0)
    return np.einsum("ic->c", np.ascontiguousarray(a))


def _train_svm(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-rest hinge loss, L2 weight 1/n, 200 full-batch steps at rate 0.5 / (1 + 0.02 t).

    The margins run class-major, in place in one C-ordered (classes, n) buffer; the
    active set goes to the transposed view of a row-major (n, classes) one, so that
    active.T @ z is the reference's product and _col_sum reads active uncopied. The
    affine part is np.matmul, whose overflow error names matmul (np.dot's names dot).
    """
    z = np.ascontiguousarray(z)
    zt = np.ascontiguousarray(z.T)
    classes = np.unique(y)
    n, d = z.shape
    signs = np.where(classes[:, None] == y[None, :], 1.0, -1.0)  # (classes, n)
    lam = 1.0 / n
    w = np.zeros((classes.size, d))
    b = np.zeros(classes.size)
    e, active = np.empty((classes.size, n)), np.empty((n, classes.size))
    for t in range(200):
        lr = 0.5 / (1.0 + 0.02 * t)
        np.matmul(w, zt, out=e)
        e += b[:, None]
        e *= signs  # the margins
        np.less(e, 1.0, out=e)
        np.multiply(e, signs, out=active.T)
        w -= lr * (lam * w - active.T @ z / n)
        b -= lr * (-(_col_sum(active) / n))  # active.mean(axis=0)
    return w, b


def _train_logreg(z: np.ndarray, y: np.ndarray, epochs: int = 500) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic regression, L2 weight 1e-4, up to `epochs` full-batch unit steps.

    A fit stops early once the gradient norm falls below 1e-6; fits at the default
    fold size do not get there and run all 500 steps. Laid out as _train_svm: the
    logits and their softmax fill the class-major buffer in place, and the error
    the transposed view of the row-major one, which err.T @ z and _col_sum read.
    """
    z = np.ascontiguousarray(z)
    zt = np.ascontiguousarray(z.T)
    classes, targets = np.unique(y, return_inverse=True)
    n, d = z.shape
    w = np.zeros((classes.size, d))
    b = np.zeros(classes.size)
    onehot = np.ascontiguousarray(_one_hot(targets, classes.size).T)
    e, err = np.empty((classes.size, n)), np.empty((n, classes.size))
    for _ in range(epochs):
        np.matmul(w, zt, out=e)
        e += b[:, None]
        _softmax_in_place(e)
        e -= onehot
        np.divide(e, n, out=err.T)
        gw = err.T @ z + 1e-4 * w
        gb = _col_sum(err)
        if np.sqrt((gw * gw).sum() + (gb * gb).sum()) < 1e-6:
            break
        w -= gw
        b -= gb
    return w, b


# training procedure of each linear kind; each returns (coef, intercept)
_LINEAR = {"lda": _train_lda, "svm": _train_svm, "logreg": _train_logreg}


class LinearClassifier(_Fitted):
    """Affine scores z @ coef.T + intercept; kind names the procedure that fit them."""

    def __init__(self, kind: str, coef: np.ndarray, intercept: np.ndarray, classes: np.ndarray):
        self.kind = kind
        self.coef = coef            # (n_classes, dim)
        self.intercept = intercept  # (n_classes,)
        self.classes = classes

    def _scores(self, z: np.ndarray) -> np.ndarray:
        return _check_features(z, self.coef.shape[1]) @ self.coef.T + self.intercept


def fit(kind: str, z: np.ndarray, y: np.ndarray, seed: int | Sequence[int] = 0
        ) -> _Fitted | list[_Fitted]:
    """Train one classifier kind on features z (n, d) and integer labels y (n,).

    An mlp also takes a stack: features z (R, n, d), labels y (R, n) whose replicas
    hold the same number of classes, and a sequence of R seeds. It returns a list of R
    classifiers, replica r equal to fit("mlp", z[r], y[r], seed[r]) bit for bit,
    trained as one network stack (MlpClassifier.train).
    """
    z = _finite(z)
    if z.ndim != 3:
        return _fit(kind, z, y, seed)
    if canonical_kind(kind) != "mlp":
        raise ValueError(f"only mlp fits a stack of features, not {kind}")
    y, seeds = _ids(y, "labels"), list(seed) if np.iterable(seed) else None
    if y.shape != z.shape[:2] or seeds is None or len(seeds) != len(z):
        raise ValueError(f"a stack of features {z.shape} takes labels of shape {z.shape[:2]} "
                         f"and {len(z)} seeds, got {y.shape} and "
                         f"{'a scalar seed' if seeds is None else len(seeds)}")
    if z.shape[1] == 0:
        raise ConfigError("empty feature list")
    if len({np.unique(labels).size for labels in y}) != 1:
        raise ValueError("the replicas of an mlp stack must hold one number of classes, got "
                         f"{[np.unique(labels).size for labels in y]}")
    return MlpClassifier.train(z, y, seeds)


def _fit(kind: str, z: np.ndarray, y: np.ndarray, seed: int) -> _Fitted:
    """fit on one feature set z, already checked finite by _finite."""
    if z.ndim != 2:
        raise ValueError(f"features must be (n, d), got shape {z.shape}")
    y = _ids(y, "labels")
    if z.shape[0] == 0:
        raise ConfigError("empty feature list")
    if y.shape != (z.shape[0],):
        raise ValueError("labels must be one per feature row")
    kind = canonical_kind(kind)
    if kind == "mlp":
        return MlpClassifier.train(z[None], y[None], [seed])[0]
    if kind == "knn":
        return KnnClassifier(z, y)
    if kind == "tree":
        return TreeClassifier.train(z, y)
    return LinearClassifier(kind, *_LINEAR[kind](z, y), np.unique(y))


def accuracy(fitted: _Fitted, z: np.ndarray, y: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y = _ids(y, "labels")
    if y.size == 0:
        raise ValueError("empty evaluation set")
    predicted = fitted.predict(z)
    if y.shape != predicted.shape:
        raise ValueError("labels must be one per feature row")
    return float(np.mean(predicted == y))

