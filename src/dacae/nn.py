"""Minimal dense-network engine: ReLU networks, losses, SGD, grad checking.

Everything is float64 numpy on (n, features) batches. A network is its weight and
bias arrays, with ReLU after every layer but the last. The arithmetic is written
once, as kernels on the bare arrays: _forward, _ce_in_place and _backward, which
reads each hidden ReLU's mask off the next layer's input, and _input_grad, its
chain to the input alone. Mlp.forward, Mlp.backward and softmax_cross_entropy
check their input and call one kernel; ce_step, the update of the heads and the
MLP classifier, chains three, and skips the loss if given no targets. A central
finite-difference checker is the independent oracle for the gradients.

ce_step runs at batch 32-64, where per-call allocations and reshapes cost more
than the arithmetic. So every Mlp keeps a private step cache (_step_cache): the
views _forward reads, one flat gradient buffer with each layer's gradients as
views of it, and the update's (parameter, step) pairs, rebuilt whenever
net.weights + net.biases stop holding the same array objects. _ce_in_place
subtracts the targets' one-hot rows, which its callers build once per pass or
batch: x - 0.0 is x for every float, so the bits are those of subtracting 1.0 at
each target alone.

A network's arrays may carry a leading replica axis: R networks of one shape,
with (R, out, in) weights and (R, out) biases, run as one stack. Every primitive
broadcasts over that axis. An input is either shared, (n, in), or one per
replica, (R, n, in); losses come back one per replica as an (R,) array, and a
step checks every replica's gradient before it updates any. Each replica's
arithmetic is that of its own 2-D network, bit for bit, and a 2-D network runs
the same lines with no replica axis.

The kernels call the ufuncs' reduce directly (np.add.reduce for .sum(),
np.maximum.reduce for .max(), _all for .all()): the same arithmetic, without the
methods' Python wrappers, which cost more than the work on a minibatch's small
arrays. The row max and sum over the class axis (_row_max, _row_sum) go further
below 8 classes: numpy reduces a short last axis with one inner loop per row, so
there they run one ufunc call per class column, with the same bits. From 8
classes up numpy's own row reduce is kept: its lanes and pairwise sums give bits
a column chain would not, and at 20 classes the chain is slower.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from operator import is_
from typing import Callable, Iterator, Sequence

import numpy as np


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient becomes non-finite (or absurdly large)."""


class ConfigError(ValueError):
    """Invalid configuration (bad hyperparameters, degenerate datasets, ...)."""


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based RNG keyed on (seed, stream...). Stable across runs and platforms."""
    key = np.random.SeedSequence([int(seed), *map(int, stream)]).generate_state(2)
    return np.random.Generator(np.random.Philox(key=int(key[0]) << 64 | int(key[1])))


def job_seed(master_seed: int, *job_index: int) -> int:
    """Derive an independent 63-bit seed for a parallel job from the master seed."""
    state = np.random.SeedSequence([int(master_seed), *map(int, job_index)]).generate_state(1)
    return int(state[0]) & (2**63 - 1)


def _check_numbers(config, ints: Sequence[str], floats: Sequence[str]) -> None:
    """Raise ConfigError unless each field named in ints holds an int and each in floats
    a real number; a bool is neither, and an int is a real number."""
    for names, kind, what in ((ints, numbers.Integral, "an int"),
                              (floats, numbers.Real, "a number")):
        for name in names:
            value = getattr(config, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass
class SgdConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        _check_numbers(self, ints=("batch_size", "epochs", "seed"), floats=("learning_rate",))
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class MlpGrads:
    """Per-layer parameter gradients plus the gradient w.r.t. the network input."""
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    wrt_input: np.ndarray


class Mlp:
    """Dense layers a @ weights[k].T + biases[k], with ReLU after every layer but the last.

    Weights are (out, in) and biases (out,), or (R, out, in) and (R, out) for a
    stack of R replicas (see the module docstring).
    """

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not weights or len(biases) != len(weights):
            raise ValueError(f"{len(weights)} weights and {len(biases)} biases, not one per layer")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim not in (2, 3) or b.shape != w.shape[:-1]:
                raise ValueError(f"layer {k}: weight shape {w.shape} and bias shape {b.shape}")
            if w.shape[:-2] != weights[0].shape[:-2]:
                raise ValueError(f"layer {k}: replica axis {w.shape[:-2]}, "
                                 f"not layer 0's {weights[0].shape[:-2]}")
            if k and weights[k - 1].shape[-2] != w.shape[-1]:
                raise ValueError(
                    f"layer dims mismatch: {weights[k - 1].shape[-2]} -> {w.shape[-1]}")
        self.weights = weights
        self.biases = biases
        self._cache: list[np.ndarray] | None = None  # each layer's input
        self._steps: _StepCache | None = None  # see _step_cache

    def __getstate__(self) -> dict:
        # a copy's views would no longer view its own arrays: the copy builds its own
        return {**self.__dict__, "_steps": None}

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[-2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a batch x of shape (n, in), or (R, n, in) for a stack;
        caches for backward."""
        a = np.asarray(x, dtype=np.float64)
        if not 2 <= a.ndim <= self.weights[0].ndim or a.shape[-1] != self.in_dim:
            raise ValueError(f"input shape {a.shape} is not (n, {self.in_dim})")
        self._cache, out = _forward(*_views(self.weights, self.biases), a)
        return out

    def backward(self, upstream_grad: np.ndarray) -> MlpGrads:
        """Gradients of the cached forward pass; upstream_grad is dLoss/dOutput, shaped
        like the output."""
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        g = np.asarray(upstream_grad, dtype=np.float64)
        if not 2 <= g.ndim <= self.weights[0].ndim or g.shape[-1] != self.out_dim:
            raise ValueError(f"upstream grad shape {g.shape} is not (n, {self.out_dim})")
        if g.ndim < self.weights[0].ndim:  # one upstream gradient shared by every replica
            g = np.broadcast_to(g, self.weights[0].shape[:-2] + g.shape)
        _, w_grads, b_grads = _grad_buffer(self.weights)  # a new one: the grads escape
        g = _backward(self.weights, self._cache, g, w_grads, b_grads)
        return MlpGrads(w_grads, b_grads, g @ self.weights[0])


def _matmul(weights: list[np.ndarray]):
    """np.matmul for a stack; np.dot, which runs the same BLAS product on 2-D arrays
    with less per-call overhead, for a 2-D network, whose every operand is 2-D."""
    return np.dot if weights[0].ndim == 2 else np.matmul


def _views(weights: list[np.ndarray], biases: list[np.ndarray]
           ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """What _forward reads: each weight transposed, (in, out), and each bias as a row."""
    return [w.swapaxes(-1, -2) for w in weights], [b[..., None, :] for b in biases]


def _forward(w_t: list[np.ndarray], b_rows: list[np.ndarray], x: np.ndarray
             ) -> tuple[list[np.ndarray], np.ndarray]:
    """Each layer's input and the network's output on x, given _views of its arrays;
    x is left unchanged."""
    last = len(w_t) - 1
    mm = _matmul(w_t)
    a, inputs = x, [x]
    for k, (w, b) in enumerate(zip(w_t, b_rows)):
        a = mm(a, w)
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)  # ReLU in place: a is this layer's own array
            inputs.append(a)
    return inputs, a


def _grad_buffer(weights: list[np.ndarray]
                 ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """One flat gradient vector per replica, last layer first, each layer's weight
    gradient then its bias gradient, and those gradients as views of it."""
    size = sum(w.shape[-2] * (w.shape[-1] + 1) for w in weights)
    flat = np.empty(weights[0].shape[:-2] + (size,))
    w_grads, b_grads = [None] * len(weights), [None] * len(weights)
    start = 0
    for k in range(len(weights) - 1, -1, -1):
        w = weights[k]
        split = start + w.shape[-2] * w.shape[-1]
        # views: each replica's run of flat is contiguous
        w_grads[k] = flat[..., start:split].reshape(w.shape)
        start = split + w.shape[-2]
        b_grads[k] = flat[..., split:start]
    return flat, w_grads, b_grads


def _backward(weights: list[np.ndarray], inputs: list[np.ndarray], g: np.ndarray,
              w_grads: list[np.ndarray], b_grads: list[np.ndarray]) -> np.ndarray:
    """Given each layer's input and g, the loss's gradient at the output (left unchanged),
    writes each layer's weight and bias gradients into w_grads and b_grads (arrays of
    the parameters' shapes) and returns the gradient at layer 0's output."""
    last = len(weights) - 1
    mm = _matmul(weights)
    for k in range(last, -1, -1):
        if k < last:
            g = mm(g, weights[k + 1])
            g *= inputs[k + 1] > 0  # relu(z) > 0 exactly where z > 0 (NaN included)
        mm(g.swapaxes(-1, -2), inputs[k], out=w_grads[k])
        np.add.reduce(g, axis=-2, out=b_grads[k])
    return g


class _StepCache:
    """A network's arrays for its SGD steps, for net.weights + net.biases as they were
    when it was built (params): the _views of them, a flat gradient buffer (one per
    stack) from _grad_buffer with its layer views, a mask buffer of its shape, and
    the (parameter, step) pairs of the update."""

    def __init__(self, net: Mlp):
        self.params = net.weights + net.biases
        self.w_t, self.b_rows = _views(net.weights, net.biases)
        self.flat, self.w_grads, self.b_grads = _grad_buffer(net.weights)
        self.finite = np.empty(self.flat.shape, dtype=bool)
        self.pairs = list(zip(self.params, self.w_grads + self.b_grads))

    def update(self, lr: float) -> None:
        """param -= lr * grad for every parameter, with the gradients in flat; raises
        TrainingDiverged, before any parameter changes, if one is not finite."""
        if np.count_nonzero(np.isfinite(self.flat, out=self.finite)) != self.flat.size:
            raise TrainingDiverged("non-finite gradient in sgd_step")
        np.multiply(self.flat, lr, out=self.flat)
        for param, step in self.pairs:
            np.subtract(param, step, out=param)


def _step_cache(net: Mlp) -> _StepCache:
    """net's step cache, rebuilt when net.weights + net.biases no longer holds the array
    objects it was built for (by identity and count: an array replaced by another, or
    a list replaced, even with equal values)."""
    cache = net._steps
    params = net.weights + net.biases
    if cache is None or len(cache.params) != len(params) or not all(
            map(is_, cache.params, params)):
        cache = net._steps = _StepCache(net)
    return cache


def _input_grad(weights: list[np.ndarray], inputs: list[np.ndarray], g: np.ndarray
                ) -> np.ndarray:
    """The loss's gradient at the network's input, given each layer's input and g, its
    gradient at the output: _backward's chain, with no weight or bias gradient."""
    for k in range(len(weights) - 1, 0, -1):
        g = g @ weights[k]
        g *= inputs[k] > 0
    return g @ weights[0]


def build_mlp(dims: Sequence[int], rng: np.random.Generator) -> Mlp:
    """Mlp with layer sizes dims[0] -> ... -> dims[-1], zero biases and Glorot-uniform
    weights in +-sqrt(6/(fan_in+fan_out)), drawn from rng one layer at a time."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / max(1, fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases)


def _row_max(a: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(a, axis=-1) over the class axis of a (..., k) array, any layout.
    From 2 to 7 classes it runs one np.maximum per column, where numpy would run one
    inner loop per row; a max never rounds, so only a NaN's sign may differ. From 8 up
    it is numpy's own reduce, whose 8 lanes may give a zero max either sign."""
    k = a.shape[-1]
    if k == 1 or k >= 8:
        return np.maximum.reduce(a, axis=-1)
    m = np.maximum(a[..., 0], a[..., 1])
    for j in range(2, k):
        np.maximum(m, a[..., j], out=m)
    return m


def _row_sum(e: np.ndarray) -> np.ndarray:
    """np.add.reduce(e, axis=-1) of a (..., k) exp output, bit for bit, in e's own layout.
    Below 8 classes numpy adds each row left to right from +0.0, which one add per
    column repeats (only a row of -0.0 alone, which exp never returns, would differ);
    from 8 up it is numpy's own reduce, which sums a contiguous row pairwise and the
    columns of an F-ordered array in sequence."""
    k = e.shape[-1]
    if k == 1 or k >= 8:
        return np.add.reduce(e, axis=-1)
    s = e[..., 0] + e[..., 1]
    for j in range(2, k):
        s += e[..., j]
    return s


def _softmax_in_place(e: np.ndarray) -> np.ndarray:
    """Softmax down the columns of a C-ordered (k, n) array, in place; returns e. The max
    and, below 8 classes, the sum run down e row after row, as _row_max and _row_sum;
    from 8 up the sum is numpy's pairwise row sum of a row-major copy. So e gets the
    bits of the (n, k) broadcast form, but for a zero max's sign, which exp hides."""
    e -= np.maximum.reduce(e, axis=0)
    np.exp(e, out=e)
    e /= (np.add.reduce(e, axis=0) if e.shape[0] < 8
          else np.add.reduce(np.ascontiguousarray(e.T), axis=1))
    return e


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of (n, k) logits, k >= 1: exp(x - row max) / row sum.

    Computed class-major (_softmax_in_place), it returns an F-ordered (n, k) array with
    the bits of the broadcast form on C-ordered logits, whatever the logits' layout.
    """
    lg = np.asarray(logits, dtype=np.float64)
    if lg.ndim != 2 or lg.shape[1] == 0:
        raise ValueError(f"logits must be (n, k) with k >= 1, got shape {lg.shape}")
    return _softmax_in_place(np.array(lg.T, order="C")).T


def _all(a: np.ndarray) -> bool:
    """a.all(), without ndarray.all's Python wrapper."""
    return bool(np.logical_and.reduce(a, axis=None))


def _per_replica(loss: np.ndarray) -> np.ndarray | float:
    """A stack's losses as an (R,) array; a 2-D network's one loss as a Python float."""
    return loss if loss.ndim else float(loss)


def _ids(values, name: str) -> np.ndarray:
    """values (labels, subject, trial or row ids) as an intp array; an intp array comes
    back as it is. Raises ValueError for a boolean, a non-number, or a value that is not
    a whole number in intp's range, where a plain cast would truncate or overflow. A
    float id must be below 2**53 in magnitude: past that, a list that mixes an int with
    a float may already have rounded the int."""
    a = np.asarray(values)  # an int past 64 bits makes an object array, which fails below
    if a.dtype == np.intp:
        return a
    if a.dtype.kind == "f":
        ok = _all((a == np.floor(a)) & (np.abs(a) < 2.0**53))  # NaN and +-inf fail
    else:  # an unsigned 64-bit id may exceed intp
        ok = a.dtype.kind in "iu" and (np.can_cast(a.dtype, np.intp)
                                      or a.max(initial=0) <= np.iinfo(np.intp).max)
    if not ok:
        raise ValueError(f"{name} must be whole numbers in the int64 range (floats below "
                         f"2**53), got {a.dtype} values {a.ravel()[:4]}")
    return a.astype(np.intp)


def _targets(targets, n: int, k: int) -> np.ndarray:
    """targets as n class ids in [0, k), for logits of n rows and k classes."""
    t = _ids(targets, "targets")
    if t.shape != (n,):
        raise ValueError(f"targets of shape {t.shape} for {n} logit rows")
    if n == 0:
        raise ValueError("empty batch")
    if t.min() < 0 or t.max() >= k:
        raise ValueError("target class out of range")
    return t


def softmax_cross_entropy(logits: np.ndarray, targets) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy of softmax((n, k) logits) against n integer class targets.

    The returned gradient is w.r.t. the logits and already carries the 1/n
    batch factor, so it feeds straight into Mlp.backward. A stack's (R, n, k)
    logits share the targets and give one loss per replica.
    """
    lg = np.asarray(logits, dtype=np.float64)
    if lg.ndim not in (2, 3):
        raise ValueError(f"logits must be (n, k), got shape {lg.shape}")
    n, k = lg.shape[-2:]
    if k == 0:
        raise ValueError("empty logits")
    t = _targets(targets, n, k)
    grad = lg.copy(order="K")  # lg's own layout, which decides how a wide row sums
    return _per_replica(_ce_in_place(grad, t, _one_hot(t, k))), grad


def _one_hot(ids: np.ndarray, k: int) -> np.ndarray:
    """(n, k) float rows, 1.0 at each of n ids already checked to be in [0, k), else 0.0."""
    out = np.zeros((ids.shape[0], k))
    out[np.arange(ids.shape[0]), ids] = 1.0
    return out


def _ce_in_place(logits: np.ndarray, targets: np.ndarray | None, onehot: np.ndarray
                 ) -> np.ndarray | None:
    """Mean softmax cross-entropy of logits against targets, one per replica, as
    np.mean's bits; leaves its gradient w.r.t. the logits, 1/n included, in logits.
    onehot is _one_hot(targets, k): subtracting it has the bits of subtracting 1.0 at
    each row's target alone. With targets None it computes no loss and returns None."""
    n = logits.shape[-2]
    logits -= _row_max(logits)[..., None]
    picked = None if targets is None else logits[..., np.arange(n), targets]
    np.exp(logits, out=logits)
    norm = _row_sum(logits)
    loss = None if picked is None else np.add.reduce(np.log(norm) - picked, axis=-1) / n
    logits /= norm[..., None]
    logits -= onehot
    logits /= n
    return loss


def mse_loss(x_hat: np.ndarray, x: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean squared error over all entries; gradient w.r.t. x_hat.

    A stack's (R, n, c) x_hat may share one (n, c) target and gives one loss
    per replica.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_hat.shape != x.shape and (x_hat.ndim != 3 or x_hat.shape[1:] != x.shape):
        raise ValueError(f"shape mismatch {x_hat.shape} vs {x.shape}")
    if x.size == 0:
        raise ValueError("empty batch")
    diff = x_hat - x
    sq = (diff * diff).reshape(x_hat.shape[:-2] + (-1,))
    m = sq.shape[-1]
    loss = np.add.reduce(sq, axis=-1) / m  # np.mean over each replica's entries, bit for bit
    grad = 2.0 * diff / m
    return _per_replica(loss), grad


def sgd_step(net: Mlp, grads: MlpGrads, config: SgdConfig) -> Mlp:
    """In-place SGD update: param -= learning_rate * grad. Returns net.

    Every gradient is checked before any parameter, of any replica, changes.
    """
    layers = list(zip(net.weights, net.biases, grads.weights, grads.biases))
    for w, b, dw, db in layers:
        if not (_all(np.isfinite(dw)) and _all(np.isfinite(db))):
            raise TrainingDiverged("non-finite gradient in sgd_step")
        if dw.shape != w.shape or db.shape != b.shape:
            raise ValueError("gradient shapes do not match network parameters")
    lr = config.learning_rate
    for w, b, dw, db in layers:
        w -= lr * dw
        b -= lr * db
    return net


def ce_step(net: Mlp, x: np.ndarray, targets: np.ndarray | None, sgd: SgdConfig,
            onehot: np.ndarray | None = None) -> float | np.ndarray | None:
    """One SGD step on the mean softmax cross-entropy of net(x); returns the pre-step loss.

    A non-finite gradient in any replica raises TrainingDiverged before any
    parameter changes. The step drops net's forward cache, which could hold a
    large batch alive. x must be a nonempty (n, net.in_dim) float64 batch, or
    (R, n, net.in_dim) for a stack, and targets n class ids in [0, net.out_dim):
    callers check them once per fit, not here. onehot, their (n, net.out_dim)
    one-hot rows, is built here when not given; a training loop builds it once per
    pass or per batch and passes it. With targets None (onehot then required) the
    step has the same bits, but computes no loss and returns None.

    The step runs on net's step cache (see _step_cache): its gradients go into the
    cache's flat buffer, which is checked once, scaled and subtracted, so nothing
    of the network's size is allocated per step.
    """
    net._cache = None
    cache = _step_cache(net)
    inputs, logits = _forward(cache.w_t, cache.b_rows, x)
    if onehot is None:
        onehot = _one_hot(targets, logits.shape[-1])
    loss = _ce_in_place(logits, targets, onehot)
    _backward(net.weights, inputs, logits, cache.w_grads, cache.b_grads)
    cache.update(sgd.learning_rate)
    return None if loss is None else _per_replica(loss)


def minibatches(rng: np.random.Generator, batch_size: int, *columns: np.ndarray
                ) -> Iterator[tuple[np.ndarray, ...]]:
    """One pass over the rows of columns (arrays of n rows each) in the order of
    rng.permutation(n), in batches of batch_size; a short batch comes last.

    Each column is gathered once per pass, and every batch is a tuple of contiguous
    slices of those gathers, with the values of column[order[start: stop]]. A batch
    keeps its pass's gather alive, so a caller drops the last one before it
    allocates much else.
    """
    n = len(columns[0])
    order = rng.permutation(n)
    gathered = [c[order] for c in columns]
    for start in range(0, n, batch_size):
        yield tuple(c[start: start + batch_size] for c in gathered)


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_param: str = ""


def grad_check(net: Mlp, loss_fn: Callable[[Mlp], float], analytic: MlpGrads,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic parameter gradients against central finite differences of step 1e-6.

    loss_fn must evaluate the full loss for the net's current parameters
    (re-running forward internally); analytic holds the gradients under test.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    worst = 0.0
    worst_name = ""
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        for name, param, grad in (("w", w, analytic.weights[k]), ("b", b, analytic.biases[k])):
            flat = param.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-6
                up = loss_fn(net)
                flat[i] = orig - 1e-6
                down = loss_fn(net)
                flat[i] = orig
                numeric = (up - down) / 2e-6
                denom = max(abs(numeric), abs(gflat[i]))
                # absolute error near zero, else relative: FD noise (~1e-10)
                # would swamp a pure ratio when the true gradient vanishes
                err = abs(numeric - gflat[i]) / (denom if denom >= 1e-6 else 1.0)
                if err > worst:
                    worst = err
                    worst_name = f"layer{k}.{name}[{i}]"
    return GradCheckReport(worst, tolerance, worst <= tolerance, worst_name)
