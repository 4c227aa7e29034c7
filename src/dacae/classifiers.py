"""Downstream task classifiers under one fit/predict contract.

Six small models (MLP, k-nearest-neighbors, CART decision tree, LDA, linear
SVM, multinomial logistic regression) implemented directly on numpy. They all
expose predict() returning integer labels, decision_scores() returning one
score row per input (argmax of which is the prediction, ties resolving to the
lowest label), and fit deterministically for a given seed.

Classifiers train on whatever label subset is present; scores are reported
over the sorted unique training labels.
"""

from __future__ import annotations

import numpy as np

from .nn import ConfigError, Mlp, SgdConfig, build_mlp, ce_step, make_rng, minibatches, softmax

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
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.shape[1] != dim:
        raise ValueError(f"feature dim {z.shape[1]} != fitted dim {dim}")
    return z


class _Fitted:
    kind: str = ""
    classes: np.ndarray  # sorted unique training labels
    dim: int

    def decision_scores(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, z: np.ndarray) -> np.ndarray:
        scores = self.decision_scores(z)
        return self.classes[np.argmax(scores, axis=1)]


class MlpClassifier(_Fitted):
    """One hidden layer of 15 ReLU units, softmax cross-entropy, minibatch SGD."""

    kind = "mlp"

    def __init__(self, net: Mlp, classes: np.ndarray, dim: int):
        self.net = net
        self.classes = classes
        self.dim = dim

    @classmethod
    def train(cls, z: np.ndarray, y: np.ndarray, seed: int) -> "MlpClassifier":
        classes, targets = np.unique(y, return_inverse=True)
        rng = make_rng(seed, 400)  # initialises the weights, then shuffles
        net = build_mlp([z.shape[1], 15, classes.size], rng)
        for _ in range(_MLP_SGD.epochs):
            for idx in minibatches(rng, z.shape[0], _MLP_SGD.batch_size):
                ce_step(net, z[idx], targets[idx], _MLP_SGD)
        return cls(net, classes, z.shape[1])

    def decision_scores(self, z: np.ndarray) -> np.ndarray:
        return self.net.forward(_check_features(z, self.dim))


class KnnClassifier(_Fitted):
    """k nearest neighbors by Euclidean distance, majority vote.

    Distance ties resolve toward the lowest training index, vote ties toward
    the lowest label.
    """

    kind = "knn"

    def __init__(self, z: np.ndarray, y: np.ndarray, k: int = 5):
        self.z = np.asarray(z, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.intp)
        self.k = min(k, self.z.shape[0])
        self.classes = np.unique(self.y)
        self.dim = self.z.shape[1]

    def decision_scores(self, z: np.ndarray) -> np.ndarray:
        z = _check_features(z, self.dim)
        label_pos = np.searchsorted(self.classes, self.y)
        votes = np.zeros((z.shape[0], self.classes.size))
        for i in range(z.shape[0]):
            d2 = ((z[i] - self.z) ** 2).sum(axis=1)
            nearest = np.argsort(d2, kind="stable")[: self.k]
            votes[i] = np.bincount(label_pos[nearest], minlength=self.classes.size)
        return votes


def gini_impurity(counts: np.ndarray) -> np.ndarray | float:
    """Gini impurity 1 - sum(p^2) of class counts along the last axis; 0 where all are 0."""
    n = counts.sum(axis=-1, keepdims=True)
    p = counts / np.where(n > 0, n, 1.0)
    g = np.where(n[..., 0] > 0, 1.0 - np.sum(p * p, axis=-1), 0.0)
    return float(g) if g.ndim == 0 else g


def best_split(z: np.ndarray, label_pos: np.ndarray, n_labels: int,
               min_leaf: int) -> tuple[int, float, float] | None:
    """Lowest weighted-Gini (feature, threshold) split, or None if no split is legal.

    Thresholds are midpoints between consecutive distinct sorted values. Each
    feature is scored in one pass: cumulative one-hot label counts over its
    stably sorted column give the left counts at every cut (the right counts
    are the total minus them), and cuts between equal values or leaving fewer
    than min_leaf rows on a side are masked out. Ties go to the lowest
    feature (only a strictly better score replaces the incumbent), then to
    the lowest threshold (argmin takes the first minimum).
    """
    n = z.shape[0]
    onehot = np.eye(n_labels)[label_pos]
    total = onehot.sum(axis=0)
    cut = np.arange(1, n)                      # rows left of each cut
    sized = (cut >= min_leaf) & (n - cut >= min_leaf)
    best: tuple[int, float, float] | None = None
    for f in range(z.shape[1]):
        order = np.argsort(z[:, f], kind="stable")
        vals = z[order, f]
        legal = sized & (vals[1:] != vals[:-1])
        if not legal.any():
            continue
        left = np.cumsum(onehot[order[:-1]], axis=0)[legal]
        i = cut[legal]
        scores = (i * gini_impurity(left) + (n - i) * gini_impurity(total - left)) / n
        k = int(np.argmin(scores))
        if best is None or scores[k] < best[2]:
            j = i[k]
            best = (f, float((vals[j - 1] + vals[j]) / 2.0), float(scores[k]))
    return best


class TreeClassifier(_Fitted):
    """CART with Gini impurity; axis-aligned splits, x <= threshold goes left."""

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
    def train(cls, z: np.ndarray, y: np.ndarray, max_depth: int = 10,
              min_leaf: int = 5) -> "TreeClassifier":
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
            if depth >= max_depth or np.count_nonzero(node_counts) <= 1:
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

    def decision_scores(self, z: np.ndarray) -> np.ndarray:
        z = _check_features(z, self.dim)
        return np.vstack([self.counts[self._leaf(row)] for row in z])

    def depth(self) -> int:
        def walk(node: int) -> int:
            if self.feature[node] < 0:
                return 0
            return 1 + max(walk(self.left[node]), walk(self.right[node]))
        return walk(0)


def _train_lda(z: np.ndarray, y: np.ndarray, ridge: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian LDA: pooled within-class covariance with a small ridge."""
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
    cov = cov + (ridge * np.trace(cov) / d + 1e-12) * np.eye(d)
    solved = np.linalg.solve(cov, means.T).T
    intercept = -0.5 * np.sum(solved * means, axis=1) + np.log(priors)
    return solved, intercept


def _train_svm(z: np.ndarray, y: np.ndarray, c: float = 1.0, epochs: int = 200,
               learning_rate: float = 0.5, decay: float = 0.02) -> tuple[np.ndarray, np.ndarray]:
    """One-vs-rest L2-regularized hinge loss, full-batch subgradient descent."""
    classes = np.unique(y)
    n, d = z.shape
    targets = np.where(y[:, None] == classes[None, :], 1.0, -1.0)  # (n, L)
    lam = 1.0 / (c * n)
    w = np.zeros((classes.size, d))
    b = np.zeros(classes.size)
    for t in range(epochs):
        lr = learning_rate / (1.0 + decay * t)
        margins = (z @ w.T + b) * targets
        active = (margins < 1.0) * targets
        w -= lr * (lam * w - active.T @ z / n)
        b -= lr * (-active.mean(axis=0))
    return w, b


def _train_logreg(z: np.ndarray, y: np.ndarray, l2: float = 1e-4, epochs: int = 500,
                  learning_rate: float = 1.0,
                  grad_tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Multinomial logistic regression, L2 penalty, full-batch gradient descent."""
    classes, targets = np.unique(y, return_inverse=True)
    n, d = z.shape
    w = np.zeros((classes.size, d))
    b = np.zeros(classes.size)
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), targets] = 1.0
    for _ in range(epochs):
        err = (softmax(z @ w.T + b) - onehot) / n
        gw = err.T @ z + l2 * w
        gb = err.sum(axis=0)
        if np.sqrt((gw * gw).sum() + (gb * gb).sum()) < grad_tol:
            break
        w -= learning_rate * gw
        b -= learning_rate * gb
    return w, b


# training procedure of each linear kind; each returns (coef, intercept)
_LINEAR = {"lda": _train_lda, "svm": _train_svm, "logreg": _train_logreg}


class LinearClassifier(_Fitted):
    """Affine scores z @ coef.T + intercept; kind names the procedure that fit them."""

    def __init__(self, kind: str, coef: np.ndarray, intercept: np.ndarray,
                 classes: np.ndarray, dim: int):
        self.kind = kind
        self.coef = coef            # (n_classes, dim)
        self.intercept = intercept  # (n_classes,)
        self.classes = classes
        self.dim = dim

    def decision_scores(self, z: np.ndarray) -> np.ndarray:
        return _check_features(z, self.dim) @ self.coef.T + self.intercept


def fit(kind: str, z: np.ndarray, y: np.ndarray, seed: int = 0) -> _Fitted:
    """Train one classifier kind on features z (n, d) and integer labels y (n,)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    y = np.asarray(y, dtype=np.intp)
    if z.shape[0] == 0:
        raise ConfigError("empty feature list")
    if y.shape != (z.shape[0],):
        raise ValueError("labels must be one per feature row")
    kind = canonical_kind(kind)
    if kind == "mlp":
        return MlpClassifier.train(z, y, seed=seed)
    if kind == "knn":
        return KnnClassifier(z, y)
    if kind == "tree":
        return TreeClassifier.train(z, y)
    return LinearClassifier(kind, *_LINEAR[kind](z, y), np.unique(y), z.shape[1])


def accuracy(fitted: _Fitted, z: np.ndarray, y: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y = np.asarray(y, dtype=np.intp)
    if y.size == 0:
        raise ValueError("empty evaluation set")
    return float(np.mean(fitted.predict(z) == y))

