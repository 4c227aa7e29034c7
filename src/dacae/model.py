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
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .nn import (ConfigError, DenseLayer, Mlp, MlpGrads, SgdConfig, TrainingDiverged,
                 build_mlp, init_dense, make_rng, mse_loss, softmax_cross_entropy)

VARIANTS = ("AE", "cAE", "A-cAE", "D-cAE", "DA-cAE")

# nuisance-ratio defaults per variant, following the split each variant was
# evaluated with (no split for the unregularized and adversary-only models)
DEFAULT_R_N = {"AE": 0.0, "cAE": 0.0, "A-cAE": 0.0, "D-cAE": 1.0 / 3.0, "DA-cAE": 1.0 / 3.0}


def nuisance_dim(latent_dim: int, r_n: float) -> int:
    """Latent dims allotted to z_n: round(d * r_n), ties rounding half up."""
    return int(math.floor(latent_dim * r_n + 0.5))


@dataclass
class HyperConfig:
    """Loss weights, latent split, variant and optimizer settings for one model.

    Variant semantics are enforced on construction: AE/cAE zero both weights
    (AE additionally drops decoder conditioning), A-cAE zeroes the nuisance
    weight, D-cAE zeroes the adversary weight.
    """

    lambda_a: float = 0.0
    lambda_n: float = 0.0
    r_n: float = 0.0
    latent_dim: int = 15
    variant: str = "DA-cAE"
    sgd: SgdConfig = field(default_factory=SgdConfig)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.lambda_a < 0 or self.lambda_n < 0:
            raise ConfigError("lambda_a and lambda_n must be >= 0")
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

    @classmethod
    def for_variant(cls, variant: str, lambda_a: float = 0.0, lambda_n: float = 0.0,
                    r_n: float | None = None, latent_dim: int = 15,
                    sgd: SgdConfig | None = None) -> "HyperConfig":
        """Config with the per-variant default nuisance ratio when r_n is not given."""
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        if r_n is None:
            r_n = DEFAULT_R_N[variant]
        return cls(lambda_a=lambda_a, lambda_n=lambda_n, r_n=r_n,
                   latent_dim=latent_dim, variant=variant, sgd=sgd or SgdConfig())


@dataclass
class LatentCode:
    """Encoder output split into the adversary part z_a and nuisance part z_n."""
    z_a: np.ndarray
    z_n: np.ndarray

    @property
    def full(self) -> np.ndarray:
        return np.concatenate([self.z_a, self.z_n], axis=-1)


class DacaeParams:
    """The four parameter groups: encoder, decoder, adversary head, nuisance head."""

    def __init__(self, encoder: Mlp, decoder: Mlp, adversary: Mlp, nuisance: Mlp,
                 n_channels: int, n_subjects: int, latent_dim: int, d_n: int):
        if encoder.out_dim != latent_dim:
            raise ValueError("encoder output dim must equal latent_dim")
        if decoder.in_dim != latent_dim + n_subjects:
            raise ValueError("decoder input dim must equal latent_dim + n_subjects")
        if adversary.in_dim != latent_dim - d_n or adversary.out_dim != n_subjects:
            raise ValueError("adversary head dims inconsistent with latent split")
        if nuisance.in_dim != d_n or nuisance.out_dim != n_subjects:
            raise ValueError("nuisance head dims inconsistent with latent split")
        self.encoder = encoder
        self.decoder = decoder
        self.adversary = adversary
        self.nuisance = nuisance
        self.n_channels = n_channels
        self.n_subjects = n_subjects
        self.latent_dim = latent_dim
        self.d_n = d_n

    @property
    def d_a(self) -> int:
        return self.latent_dim - self.d_n

    def groups(self) -> dict[str, Mlp]:
        return {"encoder": self.encoder, "decoder": self.decoder,
                "adversary": self.adversary, "nuisance": self.nuisance}

    def copy(self) -> "DacaeParams":
        return DacaeParams(self.encoder.copy(), self.decoder.copy(), self.adversary.copy(),
                           self.nuisance.copy(), self.n_channels, self.n_subjects,
                           self.latent_dim, self.d_n)


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
    adversary = Mlp([init_dense(d - d_n, n_subjects, rng)])
    nuisance = Mlp([init_dense(d_n, n_subjects, rng)])
    return DacaeParams(encoder, decoder, adversary, nuisance,
                       n_channels, n_subjects, d, d_n)


def split_latent(z: np.ndarray, d_n: int) -> LatentCode:
    """Partition an encoder output (or batch) into (z_a, z_n); a pure view by value."""
    d = z.shape[-1]
    return LatentCode(z[..., : d - d_n], z[..., d - d_n:])


def encode(params: DacaeParams, x: np.ndarray) -> LatentCode:
    """Run the encoder and split the code. x is one sample (C,) or a batch (n, C)."""
    z = params.encoder.forward(x)
    return split_latent(z, params.d_n)


def one_hot_subjects(s, n_subjects: int) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s, dtype=np.intp))
    if np.any(s < 0) or np.any(s >= n_subjects):
        raise ValueError(f"subject index out of range [0, {n_subjects})")
    out = np.zeros((s.shape[0], n_subjects))
    out[np.arange(s.shape[0]), s] = 1.0
    return out


def decoder_input(z: np.ndarray, s, n_subjects: int, conditioned: bool) -> np.ndarray:
    """Concatenate the code with a one-hot condition (zeros when unconditioned)."""
    z2 = np.atleast_2d(z)
    if conditioned:
        cond = one_hot_subjects(s, n_subjects)
    else:
        cond = np.zeros((z2.shape[0], n_subjects))
    return np.concatenate([z2, cond], axis=1)


def decode(params: DacaeParams, z: LatentCode, s, conditioned: bool = True) -> np.ndarray:
    """Reconstruct the input from the full code plus the subject condition."""
    full = z.full
    single = full.ndim == 1
    x_hat = params.decoder.forward(decoder_input(full, s, params.n_subjects, conditioned))
    return x_hat[0] if single else x_hat


def adversary_logits(params: DacaeParams, z_a: np.ndarray) -> np.ndarray:
    return params.adversary.forward(z_a)


def nuisance_logits(params: DacaeParams, z_n: np.ndarray) -> np.ndarray:
    return params.nuisance.forward(z_n)


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
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    s = np.atleast_1d(np.asarray(s, dtype=np.intp))
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    code = encode(params, x)
    x_hat = decode(params, code, s, conditioned=config.conditioned)
    recon, _ = mse_loss(x_hat, x)
    adv_ce, _ = softmax_cross_entropy(adversary_logits(params, code.z_a), s)
    nui_ce, _ = softmax_cross_entropy(nuisance_logits(params, code.z_n), s)
    total = recon + config.lambda_n * nui_ce - config.lambda_a * adv_ce
    if not np.isfinite(total):
        raise TrainingDiverged(f"non-finite loss: recon={recon} adv={adv_ce} nui={nui_ce}")
    return total, LossParts(recon, adv_ce, nui_ce)


# -- checkpointing ------------------------------------------------------------

_CHECKPOINT_FORMAT = "dacae-checkpoint-v1"


def _mlp_meta(net: Mlp) -> list[dict]:
    return [{"activation": layer.activation} for layer in net.layers]


def save_checkpoint(path: str | Path, params: DacaeParams, config: HyperConfig,
                    normalization: tuple[np.ndarray, np.ndarray] | None = None,
                    classifier=None) -> None:
    """Write parameters, config and normalization stats to one .npz container.

    Arrays are stored as raw float64, so a load returns bit-identical values.
    A fitted task classifier may ride along (see classifiers.fit).
    """
    meta = {
        "format": _CHECKPOINT_FORMAT,
        "config": {
            "lambda_a": config.lambda_a, "lambda_n": config.lambda_n, "r_n": config.r_n,
            "latent_dim": config.latent_dim, "variant": config.variant,
            "sgd": asdict(config.sgd),
        },
        "dims": {"n_channels": params.n_channels, "n_subjects": params.n_subjects,
                 "latent_dim": params.latent_dim, "d_n": params.d_n},
        "layers": {name: _mlp_meta(net) for name, net in params.groups().items()},
    }
    arrays: dict[str, np.ndarray] = {}
    for name, net in params.groups().items():
        for k, layer in enumerate(net.layers):
            arrays[f"{name}_w{k}"] = layer.weight
            arrays[f"{name}_b{k}"] = layer.bias
    if normalization is not None:
        arrays["norm_mean"] = np.asarray(normalization[0], dtype=np.float64)
        arrays["norm_std"] = np.asarray(normalization[1], dtype=np.float64)
        meta["has_normalization"] = True
    if classifier is not None:
        from . import classifiers as _classifiers
        cmeta, carrays = _classifiers.serialize(classifier)
        meta["classifier"] = cmeta
        for key, arr in carrays.items():
            arrays[f"clf_{key}"] = arr
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:  # plain handle: np.savez would append .npz to a str path
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path):
    """Inverse of save_checkpoint. Returns (params, config, normalization, classifier)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"not a model checkpoint: {path}")
        cfg = meta["config"]
        config = HyperConfig(lambda_a=cfg["lambda_a"], lambda_n=cfg["lambda_n"],
                             r_n=cfg["r_n"], latent_dim=cfg["latent_dim"],
                             variant=cfg["variant"], sgd=SgdConfig(**cfg["sgd"]))
        nets = {}
        for name, layer_meta in meta["layers"].items():
            layers = [DenseLayer(data[f"{name}_w{k}"], data[f"{name}_b{k}"], m["activation"])
                      for k, m in enumerate(layer_meta)]
            nets[name] = Mlp(layers)
        dims = meta["dims"]
        params = DacaeParams(nets["encoder"], nets["decoder"], nets["adversary"],
                             nets["nuisance"], dims["n_channels"], dims["n_subjects"],
                             dims["latent_dim"], dims["d_n"])
        normalization = None
        if meta.get("has_normalization"):
            normalization = (data["norm_mean"].copy(), data["norm_std"].copy())
        classifier = None
        if "classifier" in meta:
            from . import classifiers as _classifiers
            carrays = {key[4:]: data[key].copy() for key in data.files if key.startswith("clf_")}
            classifier = _classifiers.deserialize(meta["classifier"], carrays)
    return params, config, normalization, classifier
