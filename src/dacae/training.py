"""Alternating adversarial training, probe metrics, and the two-stage sweep.

Each mini-batch applies three sub-updates in a fixed order: the adversary head
descends its own cross-entropy, then the nuisance head, then the
encoder-decoder pair descends the joint objective with both heads frozen.
Gradients of the joint step flow through the heads into the encoder without
touching head weights.

Evaluation reads codes: probe_accuracies and classifiers.fit take z = encode(params, x),
and each epoch encodes the training set once for its probes and its LDA readout.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import classifiers
from .data import Dataset, write_csv
from .model import (DacaeParams, HyperConfig, LossParts, dacae_loss, decoder_input, encode,
                    init_params)
from .nn import ConfigError, TrainingDiverged, ce_step, make_rng, minibatches, \
    mse_loss, sgd_step, softmax_cross_entropy

LOSS_CEILING = 1e6

LAMBDA_N_GRID = (0.0, 0.005, 0.01, 0.2, 0.5)
LAMBDA_A_GRID = (0.0, 0.01, 0.1, 0.2, 0.5)

# near-ties in sweep selection (within half a point of task accuracy) resolve
# toward stronger disentanglement: lower adversary, higher nuisance accuracy
TIE_MARGIN = 0.005


def train_step(params: DacaeParams, x: np.ndarray, s: np.ndarray,
               config: HyperConfig) -> tuple[float, LossParts]:
    """One alternating update on a batch; mutates params, returns pre-step loss.

    Sub-updates run in a fixed order: adversary, nuisance, encoder-decoder.
    The encoder-decoder step leaves both heads bit-unchanged, and at
    lambda = 0 a head contributes nothing to the encoder gradient, so the
    encoder-decoder trajectory matches a plain (conditional) autoencoder.
    """
    if len(x) == 0:
        raise ValueError("empty batch")

    # (1) + (2): heads fit the current code; encoder sees no update here.
    # ce_step trusts its targets, so s is checked here, once for both heads
    z = params.encoder.forward(x)
    s = np.asarray(s, dtype=np.intp)
    if s.shape != (z.shape[0],):
        raise ValueError(f"targets of shape {s.shape} for {z.shape[0]} logit rows")
    if s.min() < 0 or s.max() >= params.n_subjects:
        raise ValueError("target class out of range")
    z_a, z_n = z[:, : params.d_a], z[:, params.d_a:]
    adv_ce = ce_step(params.adversary, z_a, s, config.sgd)
    nui_ce = ce_step(params.nuisance, z_n, s, config.sgd)

    # (3): encoder-decoder joint step against the freshly updated heads; the head
    # updates leave the encoder and its forward cache as (1) left them, so z is reused
    x_hat = params.decoder.forward(decoder_input(z, s, params.n_subjects, config.conditioned))
    recon, recon_grad = mse_loss(x_hat, x)
    dec_grads = params.decoder.backward(recon_grad)
    dz = dec_grads.wrt_input[:, : params.latent_dim].copy()
    if config.lambda_a != 0.0:
        _, ga = softmax_cross_entropy(params.adversary.forward(z_a), s)
        dz[:, : params.d_a] -= config.lambda_a * params.adversary.backward(ga).wrt_input
    if config.lambda_n != 0.0:
        _, gn = softmax_cross_entropy(params.nuisance.forward(z_n), s)
        dz[:, params.d_a:] += config.lambda_n * params.nuisance.backward(gn).wrt_input
    enc_grads = params.encoder.backward(dz)
    sgd_step(params.encoder, enc_grads, config.sgd)
    sgd_step(params.decoder, dec_grads, config.sgd)

    total = recon + config.lambda_n * nui_ce - config.lambda_a * adv_ce
    if not np.isfinite(total) or abs(total) > LOSS_CEILING:
        raise TrainingDiverged(f"joint loss {total} out of bounds")
    return total, LossParts(recon, adv_ce, nui_ce)


@dataclass
class TrainLogRow:
    epoch: int
    total_loss: float
    recon_loss: float
    adversary_ce: float
    nuisance_ce: float
    adversary_acc: float
    nuisance_acc: float
    val_task_acc: float


@dataclass
class TrainLog:
    rows: list[TrainLogRow]

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, [f.name for f in fields(TrainLogRow)], map(astuple, self.rows))


def probe_accuracies(params: DacaeParams, z: np.ndarray, s: np.ndarray) -> tuple[float, float]:
    """Fraction of rows of the code z whose adversary/nuisance argmax recovers subject s."""
    if len(s) == 0:
        raise ValueError("empty probe set")
    adv = float(np.mean(np.argmax(params.adversary.forward(z[:, : params.d_a]), axis=1) == s))
    nui = float(np.mean(np.argmax(params.nuisance.forward(z[:, params.d_a:]), axis=1) == s))
    return adv, nui


def fit_feature_extractor(dataset: Dataset, config: HyperConfig,
                          val: Dataset | None = None) -> tuple[DacaeParams, TrainLog]:
    """Train an extractor on the dataset with shuffled mini-batches.

    The conditioning width is dataset.n_subjects, so codes from subjects held
    out of this split still decode. One TrainLog row is appended per epoch,
    evaluated on the full training set; val_task_acc, an LDA fit on its code scored
    on the validation code, is 0.0 when no validation split is given.
    """
    if np.unique(dataset.s).size < 2:
        raise ConfigError("feature extractor needs at least two subjects")
    params = init_params(dataset.x.shape[1], dataset.n_subjects, config, config.sgd.seed)
    shuffle_rng = make_rng(config.sgd.seed, 500)
    rows = []
    for epoch in range(config.sgd.epochs):
        for batch, ids in enumerate(minibatches(shuffle_rng, len(dataset), config.sgd.batch_size)):
            try:
                train_step(params, dataset.x[ids], dataset.s[ids], config)
            except TrainingDiverged as err:
                raise TrainingDiverged(f"epoch {epoch}, batch {batch}: {err}") from err
        total, parts = dacae_loss(params, dataset.x, dataset.s, config)
        z = encode(params, dataset.x)
        adv_acc, nui_acc = probe_accuracies(params, z, dataset.s)
        val_acc = 0.0
        if val is not None:  # cheap task readout: LDA on the full code
            readout = classifiers.fit("lda", z, dataset.y)
            val_acc = classifiers.accuracy(readout, encode(params, val.x), val.y)
        rows.append(TrainLogRow(epoch, total, parts.recon, parts.adv_ce, parts.nui_ce,
                                adv_acc, nui_acc, val_acc))
        del z  # not held through the next epoch's training, where it would raise peak memory
    return params, TrainLog(rows)


@dataclass
class SweepRow:
    stage: int
    lambda_a: float
    lambda_n: float
    r_n: float
    val_task_acc: float
    adversary_acc: float
    nuisance_acc: float


@dataclass
class SweepResult:
    rows: list[SweepRow]
    selected: SweepRow

    def to_csv(self, path: str | Path) -> None:
        """One row per training run, then the selected row with stage "selected"."""
        rows = [astuple(row) for row in self.rows]
        rows.append(("selected", *astuple(self.selected)[1:]))
        write_csv(path, [f.name for f in fields(SweepRow)], rows)


def _pick(rows: list[SweepRow]) -> SweepRow:
    best_acc = max(r.val_task_acc for r in rows)
    near = [r for r in rows if r.val_task_acc >= best_acc - TIE_MARGIN]
    winner = near[0]
    for row in near[1:]:
        if row.nuisance_acc - row.adversary_acc > winner.nuisance_acc - winner.adversary_acc:
            winner = row
    return winner


def two_stage_sweep(train: Dataset, val: Dataset, base: HyperConfig, classifier: str = "lda",
                    lambda_n_grid=LAMBDA_N_GRID, lambda_a_grid=LAMBDA_A_GRID) -> SweepResult:
    """Stage 1 sweeps lambda_n at lambda_a=0; stage 2 sweeps lambda_a at the winner.

    Every run trains replace(base, lambda_a=..., lambda_n=...), so the latent
    width, nuisance ratio and optimizer settings (including the seed of every
    run's extractor and classifier) all come from base, which must be the full
    DA-cAE variant. Stage 2's lambda_a=0 point is stage 1's winning run, so its
    metrics are reused rather than retrained: a sweep trains len(grid1) +
    len(grid2) runs, less one when grid2 holds a zero, never the cross product.
    Selection maximizes validation task accuracy for the given classifier
    kind; rows within TIE_MARGIN of the best resolve toward lower adversary and
    higher nuisance accuracy.
    """
    if base.variant != "DA-cAE":
        raise ConfigError(f"sweep needs a DA-cAE base config, got {base.variant!r}")
    if len(lambda_n_grid) == 0 or len(lambda_a_grid) == 0:
        raise ConfigError("sweep grids must be nonempty")
    if val.x.shape[0] == 0:
        raise ConfigError("sweep needs a nonempty validation set")

    def run(stage: int, lambda_a: float, lambda_n: float) -> SweepRow:
        config = replace(base, lambda_a=lambda_a, lambda_n=lambda_n)
        params, _ = fit_feature_extractor(train, config)
        z_val = encode(params, val.x)
        clf = classifiers.fit(classifier, encode(params, train.x), train.y, seed=config.sgd.seed)
        val_acc = classifiers.accuracy(clf, z_val, val.y)
        adv_acc, nui_acc = probe_accuracies(params, z_val, val.s)
        return SweepRow(stage, lambda_a, lambda_n, config.r_n, val_acc, adv_acc, nui_acc)

    stage1 = [run(1, 0.0, ln) for ln in lambda_n_grid]
    best = _pick(stage1)
    # the row keeps the grid's own lambda_a, so a -0.0 entry prints as -0.0
    stage2 = [replace(best, stage=2, lambda_a=la) if la == 0.0 else run(2, la, best.lambda_n)
              for la in lambda_a_grid]
    selected = _pick(stage2)
    return SweepResult(stage1 + stage2, selected)
