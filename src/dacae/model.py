"""Conditional autoencoder with adversary and nuisance heads on a split latent.

The encoder maps a C-channel sample to a d-dim code z = [z_a, z_n]. A linear
adversary head predicts the subject from z_a (the encoder is trained against
it), a linear nuisance head predicts the subject from z_n (the encoder
cooperates), and the decoder reconstructs the input from z plus a one-hot
subject condition. Five variants (AE, cAE, A-cAE, D-cAE, DA-cAE) differ only
in the loss weights and whether the decoder sees the condition, so they share
one parameter shape and one code path.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .nn import (ConfigError, Mlp, SgdConfig, TrainingDiverged, _check_numbers, _ids, _one_hot,
                 build_mlp, make_rng, mse_loss, softmax_cross_entropy)

VARIANTS = ("AE", "cAE", "A-cAE", "D-cAE", "DA-cAE")


def nuisance_dim(latent_dim: int, r_n: float) -> int:
    """Latent dims allotted to z_n: round(d * r_n), ties rounding half up."""
    return int(math.floor(latent_dim * r_n + 0.5))


@dataclass
class HyperConfig:
    """Loss weights, latent split, variant and optimizer settings for one model.

    Variant semantics are enforced on construction: AE/cAE zero both weights
    (AE additionally drops decoder conditioning), A-cAE zeroes the nuisance
    weight, D-cAE zeroes the adversary weight. r_n=None takes the variant's
    default nuisance ratio: 1/3 for D-cAE and DA-cAE, 0 for the others.
    latent_dim must be an int and the loss weights and r_n numbers (a bool is
    neither); any other value raises ConfigError, as SgdConfig's fields do.
    """

    lambda_a: float = 0.0
    lambda_n: float = 0.0
    r_n: float | None = None
    latent_dim: int = 15
    variant: str = "DA-cAE"
    sgd: SgdConfig = field(default_factory=SgdConfig)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.r_n is None:
            # the split each variant was evaluated with (no split for the
            # unregularized and adversary-only models)
            self.r_n = 1.0 / 3.0 if self.variant in ("D-cAE", "DA-cAE") else 0.0
        _check_numbers(self, ints=("latent_dim",), floats=("lambda_a", "lambda_n", "r_n"))
        if not isinstance(self.sgd, SgdConfig):
            raise ConfigError(f"sgd must be an SgdConfig, got {self.sgd!r}")
        if not (0 <= self.lambda_a < math.inf and 0 <= self.lambda_n < math.inf):
            raise ConfigError("lambda_a and lambda_n must be finite and >= 0")
        if not 0.0 <= self.r_n < 1.0:
            raise ConfigError(f"r_n must be in [0, 1), got {self.r_n}")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        if self.variant in ("AE", "cAE"):
            self.lambda_a = 0.0
            self.lambda_n = 0.0
        elif self.variant == "A-cAE":
            self.lambda_n = 0.0
        elif self.variant == "D-cAE":
            self.lambda_a = 0.0

    @property
    def conditioned(self) -> bool:
        return self.variant != "AE"

    @property
    def d_n(self) -> int:
        return nuisance_dim(self.latent_dim, self.r_n)

    @property
    def d_a(self) -> int:
        return self.latent_dim - self.d_n


class DacaeParams:
    """The four parameter groups: encoder, decoder, adversary head, nuisance head.

    Every dimension is read off the networks: n_channels and latent_dim from the
    encoder, d_a and d_n from the head inputs, n_subjects from the head outputs.
    The heads must split the code exactly, predict one subject count, and the
    decoder must take the code plus a one-hot subject condition.
    """

    def __init__(self, encoder: Mlp, decoder: Mlp, adversary: Mlp, nuisance: Mlp):
        self.encoder = encoder
        self.decoder = decoder
        self.adversary = adversary
        self.nuisance = nuisance
        self.n_channels = encoder.in_dim
        self.latent_dim = encoder.out_dim
        self.d_a = adversary.in_dim
        self.d_n = nuisance.in_dim
        self.n_subjects = adversary.out_dim
        if self.d_a + self.d_n != self.latent_dim:
            raise ValueError("head input dims must split the encoder output dim")
        if nuisance.out_dim != self.n_subjects:
            raise ValueError("adversary and nuisance heads must predict the same subjects")
        if decoder.in_dim != self.latent_dim + self.n_subjects:
            raise ValueError("decoder input dim must equal latent_dim + n_subjects")

    def groups(self) -> dict[str, Mlp]:
        return {"encoder": self.encoder, "decoder": self.decoder,
                "adversary": self.adversary, "nuisance": self.nuisance}


def init_params(n_channels: int, n_subjects: int, config: HyperConfig, seed: int) -> DacaeParams:
    """Fresh parameters: encoder C->15->d, decoder (d+S)->15->C, linear S-way heads.

    Head input dims follow the latent split, so parameter shapes depend on r_n
    but not on the loss weights; all five variants are shape-compatible.
    """
    d = config.latent_dim
    d_n = config.d_n
    rng = make_rng(seed, 0)
    encoder = build_mlp([n_channels, 15, d], rng)
    decoder = build_mlp([d + n_subjects, 15, n_channels], rng)
    adversary = build_mlp([d - d_n, n_subjects], rng)
    nuisance = build_mlp([d_n, n_subjects], rng)
    return DacaeParams(encoder, decoder, adversary, nuisance)


def encode(params: DacaeParams, x: np.ndarray) -> np.ndarray:
    """The code z = [z_a, z_n] of a batch x (n, C).

    The adversary head reads z[:, :params.d_a] and the nuisance head the rest.
    """
    return params.encoder.forward(x)


def one_hot_subjects(s, n_subjects: int) -> np.ndarray:
    s = _ids(s, "subject ids")
    if s.ndim != 1:
        raise ValueError(f"subject ids must be (n,), got shape {s.shape}")
    if s.size and (s.min() < 0 or s.max() >= n_subjects):
        raise ValueError(f"subject index out of range [0, {n_subjects})")
    return _one_hot(s, n_subjects)


def decoder_input(z: np.ndarray, s, n_subjects: int, conditioned: bool) -> np.ndarray:
    """Concatenate the code with a one-hot condition (zeros when unconditioned).

    A stack's (R, n, d) code gets the same condition in every replica.
    """
    return _decoder_input(z, one_hot_subjects(s, n_subjects) if conditioned else 0.0,
                          n_subjects)


def _decoder_input(z: np.ndarray, condition, n_subjects: int) -> np.ndarray:
    """The code z with condition, an (n, n_subjects) array or 0.0, in its last columns."""
    d = z.shape[-1]
    out = np.empty(z.shape[:-1] + (d + n_subjects,))
    out[..., :d] = z
    out[..., d:] = condition
    return out


@dataclass
class LossParts:
    recon: float
    adv_ce: float
    nui_ce: float


def dacae_loss(params: DacaeParams, x: np.ndarray, s: np.ndarray,
               config: HyperConfig) -> tuple[float, LossParts]:
    """Joint training objective: recon + lambda_n * CE_nuisance - lambda_a * CE_adversary.

    Raising the nuisance CE weight rewards packing subject information into
    z_n; the negative adversary term rewards hiding it from z_a. Reconstruction
    is mean squared error of the conditioned decode against the input.
    """
    if len(x) == 0:
        raise ValueError("empty batch")
    z = encode(params, x)
    x_hat = params.decoder.forward(decoder_input(z, s, params.n_subjects, config.conditioned))
    recon, _ = mse_loss(x_hat, x)
    adv_ce, _ = softmax_cross_entropy(params.adversary.forward(z[:, : params.d_a]), s)
    nui_ce, _ = softmax_cross_entropy(params.nuisance.forward(z[:, params.d_a:]), s)
    total = recon + config.lambda_n * nui_ce - config.lambda_a * adv_ce
    if not np.isfinite(total):
        raise TrainingDiverged(f"non-finite loss: recon={recon} adv={adv_ce} nui={nui_ce}")
    return total, LossParts(recon, adv_ce, nui_ce)


# -- checkpointing ------------------------------------------------------------

_CHECKPOINT_FORMAT = "dacae-checkpoint-v1"


def _layer_meta(n_layers: int) -> list[dict]:
    return [{"activation": "relu"}] * (n_layers - 1) + [{"activation": None}]


def save_checkpoint(path: str | Path, params: DacaeParams, config: HyperConfig,
                    normalization: tuple[np.ndarray, np.ndarray] | None = None) -> None:
    """Write an extractor's parameters, config and normalization stats to one .npz.

    Arrays are stored as raw float64, so a load returns bit-identical values.
    The config is stored resolved, so its r_n is a number, never None.
    """
    meta = {
        "format": _CHECKPOINT_FORMAT,
        "config": asdict(config),
        "dims": {"n_channels": params.n_channels, "n_subjects": params.n_subjects,
                 "latent_dim": params.latent_dim, "d_n": params.d_n},
        "layers": {name: _layer_meta(len(net.weights))
                   for name, net in params.groups().items()},
    }
    arrays: dict[str, np.ndarray] = {}
    for name, net in params.groups().items():
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{name}_w{k}"] = w
            arrays[f"{name}_b{k}"] = b
    if normalization is not None:
        arrays["norm_mean"] = np.asarray(normalization[0], dtype=np.float64)
        arrays["norm_std"] = np.asarray(normalization[1], dtype=np.float64)
        meta["has_normalization"] = True
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:  # plain handle: np.savez would append .npz to a str path
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path):
    """Inverse of save_checkpoint. Returns (params, config, normalization).

    normalization is None when the checkpoint was saved without it. A file that
    is not a whole checkpoint (empty or truncated, missing an array or a meta
    key, or holding a config that HyperConfig rejects) raises ValueError naming
    the path, with the file closed; a file that cannot be opened raises OSError.
    """
    try:
        with open(path, "rb") as fh:
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):  # a lone .npy array
                raise ValueError("not an .npz archive")
            with data:
                return _read_checkpoint(data)
    except (EOFError, zipfile.BadZipFile, KeyError, TypeError, AttributeError, ValueError) as err:
        reason = err if isinstance(err, ValueError) else f"{type(err).__name__}: {err}"
        raise ValueError(f"bad model checkpoint {path}: {reason}") from err


def _read_checkpoint(data):
    meta = json.loads(bytes(data["meta"]).decode())
    if meta.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError("not a model checkpoint")
    cfg = meta["config"]
    config = HyperConfig(**{**cfg, "sgd": SgdConfig(**cfg["sgd"])})
    nets = {}
    for name, layer_meta in meta["layers"].items():
        n = len(layer_meta)
        if layer_meta != _layer_meta(n):
            raise ValueError(f"checkpoint group {name!r}: not ReLU on all but the last layer")
        nets[name] = Mlp([data[f"{name}_w{k}"] for k in range(n)],
                         [data[f"{name}_b{k}"] for k in range(n)])
    params = DacaeParams(**nets)
    if any(getattr(params, k) != v for k, v in meta["dims"].items()):
        raise ValueError(f"checkpoint dims {meta['dims']} do not match its networks")
    normalization = None
    if meta.get("has_normalization"):
        normalization = (data["norm_mean"].copy(), data["norm_std"].copy())
    return params, config, normalization
