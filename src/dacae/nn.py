"""Minimal dense-network engine: ReLU networks, losses, SGD, grad checking.

Everything is float64 numpy on (n, features) batches. A network is its weight and
bias arrays, with ReLU after every layer but the last; the forward pass caches
activations so the matching backward pass can return exact analytic gradients.
A central finite-difference checker is the independent oracle for those gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class SgdConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class MlpGrads:
    """Per-layer parameter gradients plus the gradient w.r.t. the network input."""
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    wrt_input: np.ndarray


class Mlp:
    """Dense layers a @ weights[k].T + biases[k], with ReLU after every layer but the last."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not weights or len(biases) != len(weights):
            raise ValueError(f"{len(weights)} weights and {len(biases)} biases, not one per layer")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {k}: weight shape {w.shape} and bias shape {b.shape}")
            if k and weights[k - 1].shape[0] != w.shape[1]:
                raise ValueError(f"layer dims mismatch: {weights[k - 1].shape[0]} -> {w.shape[1]}")
        self.weights = weights
        self.biases = biases
        self._cache: list[tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a batch x of shape (n, in); caches for backward."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] != self.in_dim:
            raise ValueError(f"input shape {a.shape} is not (n, {self.in_dim})")
        last = len(self.weights) - 1
        cache = []
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            cache.append((a, z))
            a = np.maximum(z, 0.0) if k < last else z
        self._cache = cache
        return a

    def backward(self, upstream_grad: np.ndarray) -> MlpGrads:
        """Gradients of the cached forward pass; upstream_grad is dLoss/dOutput, (n, out)."""
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        g = np.asarray(upstream_grad, dtype=np.float64)
        if g.ndim != 2 or g.shape[1] != self.out_dim:
            raise ValueError(f"upstream grad shape {g.shape} is not (n, {self.out_dim})")
        last = len(self.weights) - 1
        w_grads, b_grads = [], []  # last layer first
        for k in range(last, -1, -1):
            a_prev, z = self._cache[k]
            if k < last:
                g = g * (z > 0)
            w_grads.append(g.T @ a_prev)
            b_grads.append(g.sum(axis=0))
            g = g @ self.weights[k]
        return MlpGrads(w_grads[::-1], b_grads[::-1], g)

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases])


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


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax((n, k) logits) against n integer class targets.

    The returned gradient is w.r.t. the logits and already carries the 1/n
    batch factor, so it feeds straight into Mlp.backward.
    """
    lg = np.asarray(logits, dtype=np.float64)
    if lg.ndim != 2:
        raise ValueError(f"logits must be (n, k), got shape {lg.shape}")
    if lg.shape[1] == 0:
        raise ValueError("empty logits")
    t = np.asarray(targets, dtype=np.intp)
    if t.shape != (lg.shape[0],):
        raise ValueError(f"targets of shape {t.shape} for {lg.shape[0]} logit rows")
    if np.any(t < 0) or np.any(t >= lg.shape[1]):
        raise ValueError("target class out of range")
    n = lg.shape[0]
    shifted = lg - lg.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(norm[:, 0]) - shifted[np.arange(n), t]))
    grad = e / norm
    grad[np.arange(n), t] -= 1.0
    grad /= n
    return loss, grad


def mse_loss(x_hat: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries; gradient w.r.t. x_hat."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_hat.shape != x.shape:
        raise ValueError(f"shape mismatch {x_hat.shape} vs {x.shape}")
    diff = x_hat - x
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def sgd_step(net: Mlp, grads: MlpGrads, config: SgdConfig) -> Mlp:
    """In-place SGD update: param -= learning_rate * grad. Returns net."""
    for w, b, dw, db in zip(net.weights, net.biases, grads.weights, grads.biases):
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise TrainingDiverged("non-finite gradient in sgd_step")
        if dw.shape != w.shape or db.shape != b.shape:
            raise ValueError("gradient shapes do not match network parameters")
        w -= config.learning_rate * dw
        b -= config.learning_rate * db
    return net


def ce_step(net: Mlp, x: np.ndarray, targets: np.ndarray, sgd: SgdConfig) -> float:
    """One SGD step on the mean softmax cross-entropy of net(x); returns the pre-step loss."""
    loss, grad = softmax_cross_entropy(net.forward(x), targets)
    sgd_step(net, net.backward(grad), sgd)
    return loss


def minibatches(rng: np.random.Generator, n: int, batch_size: int) -> Iterator[np.ndarray]:
    """One pass over rng.permutation(n) in batches of batch_size; a short batch comes last."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start: start + batch_size]


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_param: str = ""


def grad_check(net: Mlp, loss_fn: Callable[[Mlp], float], analytic: MlpGrads,
               tolerance: float = 1e-4, step: float = 1e-6) -> GradCheckReport:
    """Compare analytic parameter gradients against central finite differences.

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
                flat[i] = orig + step
                up = loss_fn(net)
                flat[i] = orig - step
                down = loss_fn(net)
                flat[i] = orig
                numeric = (up - down) / (2.0 * step)
                denom = max(abs(numeric), abs(gflat[i]))
                # absolute error near zero, else relative: FD noise (~1e-10)
                # would swamp a pure ratio when the true gradient vanishes
                err = abs(numeric - gflat[i]) / (denom if denom >= 1e-6 else 1.0)
                if err > worst:
                    worst = err
                    worst_name = f"layer{k}.{name}[{i}]"
    return GradCheckReport(worst, tolerance, worst <= tolerance, worst_name)
