"""Minimal dense-network engine: linear layers, ReLU, losses, SGD, grad checking.

Everything is float64 numpy. Networks are plain stacks of fully connected
layers; the forward pass caches activations so the matching backward pass can
return exact analytic gradients. A central finite-difference checker serves as
the independent oracle for those gradients.
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


class DenseLayer:
    """Fully connected layer y = act(W x + b) with weight (out, in) and bias (out,)."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str | None = None):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D, got shape {weight.shape}")
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"bias shape {bias.shape} incompatible with weight {weight.shape}")
        if activation not in (None, "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.weight = weight
        self.bias = bias
        self.activation = activation

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


def init_dense(in_dim: int, out_dim: int, rng: np.random.Generator,
               activation: str | None = None) -> DenseLayer:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero bias."""
    limit = np.sqrt(6.0 / max(1, in_dim + out_dim))
    weight = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(weight, np.zeros(out_dim), activation)


@dataclass
class MlpGrads:
    """Per-layer parameter gradients plus the gradient w.r.t. the network input."""
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    wrt_input: np.ndarray


class Mlp:
    """Stack of DenseLayers. forward() caches what backward() needs."""

    def __init__(self, layers: Sequence[DenseLayer]):
        layers = list(layers)
        if not layers:
            raise ValueError("Mlp needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"layer dims mismatch: {a.out_dim} -> {b.in_dim}")
        self.layers = layers
        self._cache: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._squeeze = False

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on x of shape (in,) or (n, in); caches for backward."""
        x = np.asarray(x, dtype=np.float64)
        self._squeeze = x.ndim == 1
        a = np.atleast_2d(x)
        if a.shape[1] != self.in_dim:
            raise ValueError(f"input dim {a.shape[1]} != expected {self.in_dim}")
        cache = []
        for layer in self.layers:
            z = a @ layer.weight.T + layer.bias
            cache.append((a, z))
            a = np.maximum(z, 0.0) if layer.activation == "relu" else z
        self._cache = cache
        return a[0] if self._squeeze else a

    def backward(self, upstream_grad: np.ndarray) -> MlpGrads:
        """Gradients of the cached forward pass; upstream_grad is dLoss/dOutput."""
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        g = np.atleast_2d(np.asarray(upstream_grad, dtype=np.float64))
        if g.shape[1] != self.out_dim:
            raise ValueError(f"upstream grad dim {g.shape[1]} != output dim {self.out_dim}")
        w_grads: list[np.ndarray] = [None] * len(self.layers)  # type: ignore[list-item]
        b_grads: list[np.ndarray] = [None] * len(self.layers)  # type: ignore[list-item]
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            a_prev, z = self._cache[k]
            if layer.activation == "relu":
                g = g * (z > 0)
            w_grads[k] = g.T @ a_prev
            b_grads[k] = g.sum(axis=0)
            g = g @ layer.weight
        wrt_input = g[0] if self._squeeze else g
        return MlpGrads(w_grads, b_grads, wrt_input)

    def copy(self) -> "Mlp":
        return Mlp([DenseLayer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers])


def build_mlp(dims: Sequence[int], rng: np.random.Generator) -> Mlp:
    """Mlp with layer sizes dims[0] -> ... -> dims[-1]; ReLU on all but the last layer."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    layers = []
    for i in range(len(dims) - 1):
        act = "relu" if i < len(dims) - 2 else None
        layers.append(init_dense(dims[i], dims[i + 1], rng, act))
    return Mlp(layers)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) against integer class targets.

    Accepts a single logit vector with a scalar target, or a (n, k) batch with
    n targets. The returned gradient is w.r.t. the logits and already carries
    the 1/n batch factor, so it feeds straight into Mlp.backward.
    """
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    lg = np.atleast_2d(logits)
    if lg.shape[1] == 0:
        raise ValueError("empty logits")
    t = np.atleast_1d(np.asarray(targets, dtype=np.intp))
    if t.shape[0] != lg.shape[0]:
        raise ValueError(f"{t.shape[0]} targets for {lg.shape[0]} logit rows")
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
    return loss, (grad[0] if single else grad)


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
    for layer, dw, db in zip(net.layers, grads.weights, grads.biases):
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise TrainingDiverged("non-finite gradient in sgd_step")
        if dw.shape != layer.weight.shape or db.shape != layer.bias.shape:
            raise ValueError("gradient shapes do not match network parameters")
        layer.weight -= config.learning_rate * dw
        layer.bias -= config.learning_rate * db
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
    for k, layer in enumerate(net.layers):
        for name, param, grad in (("w", layer.weight, analytic.weights[k]),
                                  ("b", layer.bias, analytic.biases[k])):
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
