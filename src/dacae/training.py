"""Alternating adversarial training, probe metrics, and the two-stage sweep.

Each mini-batch applies three sub-updates in a fixed order: the adversary head
descends its own cross-entropy, then the nuisance head, then the
encoder-decoder pair descends the joint objective with both heads frozen.
Gradients of the joint step flow through the heads into the encoder without
touching head weights. The heads' ce_step, the heads' term in the encoder
gradient and the joint step's Mlp primitives run one set of dacae.nn kernels, the
same that train the MLP classifier; the head term runs them on the bare arrays
(_forward, _ce_in_place, _input_grad), since it needs neither a forward cache nor
the heads' weight gradients. The subject one-hot is built once per batch and
serves the decoder's condition, both heads' steps and both head terms. The
encoder's backward writes into its step cache's gradient buffer (see
dacae.nn._step_cache), with no input gradient; the decoder keeps Mlp.backward
and sgd_step, since its input gradient is the encoder's upstream gradient.

Evaluation reads codes: probe_accuracies and classifiers.fit take z = encode(params, x),
and each epoch encodes the training set once for its probes and its LDA readout. A fit
whose logs nobody reads (log=False; the sweep's) skips that evaluation and checks the
training loss once, after the last epoch.

Runs that differ only in their loss weights train as one stack: their
parameters carry a leading replica axis (see dacae.nn), every step updates all
of them with one call per primitive, and each replica's weights, losses and
log equal its solo run's bit for bit. A single run trains 2-D networks, the
one-replica case of the same lines. The two-stage sweep trains each stage's
grid as one stack.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import classifiers
from .data import Dataset, write_csv
from .model import DacaeParams, HyperConfig, LossParts, _decoder_input, dacae_loss, encode, \
    init_params
from .nn import ConfigError, Mlp, TrainingDiverged, _all, _backward, _ce_in_place, _forward, \
    _input_grad, _one_hot, _step_cache, _targets, ce_step, make_rng, minibatches, mse_loss, \
    sgd_step

LOSS_CEILING = 1e6

LAMBDA_N_GRID = (0.0, 0.005, 0.01, 0.2, 0.5)
LAMBDA_A_GRID = (0.0, 0.01, 0.1, 0.2, 0.5)

# near-ties in sweep selection (within half a point of task accuracy) resolve
# toward stronger disentanglement: lower adversary, higher nuisance accuracy
TIE_MARGIN = 0.005


def train_step(params: DacaeParams, x: np.ndarray, s: np.ndarray,
               config: HyperConfig | Sequence[HyperConfig]
               ) -> tuple[float | np.ndarray, LossParts]:
    """One alternating update on a batch; mutates params, returns pre-step loss.

    Sub-updates run in a fixed order: adversary, nuisance, encoder-decoder.
    The encoder-decoder step leaves both heads bit-unchanged, and at
    lambda = 0 a head contributes nothing to the encoder gradient, so the
    encoder-decoder trajectory matches a plain (conditional) autoencoder.

    A stack of R replicas takes one config per replica; the configs may differ
    only in lambda_a and lambda_n. The replicas share the batch, and the loss
    and its parts come back as (R,) arrays.
    """
    if len(x) == 0:
        raise ValueError("empty batch")
    configs = [config] if isinstance(config, HyperConfig) else list(config)
    replicas = params.encoder.weights[0].shape[:-2]
    if len(configs) != math.prod(replicas):
        raise ValueError(f"{len(configs)} configs for a stack of {replicas or 1} replicas")
    # one weight per replica; [()] makes a 2-D net's lone weight a scalar, which is cheaper
    lambda_a = np.array([c.lambda_a for c in configs]).reshape(replicas)[()]
    lambda_n = np.array([c.lambda_n for c in configs]).reshape(replicas)[()]
    sgd = configs[0].sgd

    # (1) + (2): heads fit the current code; encoder sees no update here.
    # ce_step trusts its targets, so s is checked here, once for both heads
    z = params.encoder.forward(x)
    s = _targets(s, z.shape[-2], params.n_subjects)
    onehot = _one_hot(s, params.n_subjects)
    z_a, z_n = z[..., : params.d_a], z[..., params.d_a:]
    adv_ce = ce_step(params.adversary, z_a, s, sgd, onehot)
    nui_ce = ce_step(params.nuisance, z_n, s, sgd, onehot)

    # (3): encoder-decoder joint step against the freshly updated heads; the head
    # updates leave the encoder and its forward cache as (1) left them, so z is reused
    condition = onehot if configs[0].conditioned else 0.0
    x_hat = params.decoder.forward(_decoder_input(z, condition, params.n_subjects))
    recon, recon_grad = mse_loss(x_hat, x)
    dec_grads = params.decoder.backward(recon_grad)
    dz = dec_grads.wrt_input[..., : params.latent_dim].copy()
    _head_term(dz[..., : params.d_a], np.subtract, lambda_a, params.adversary, z_a, s, onehot)
    _head_term(dz[..., params.d_a:], np.add, lambda_n, params.nuisance, z_n, s, onehot)
    encoder = _step_cache(params.encoder)
    _backward(params.encoder.weights, params.encoder._cache, dz, encoder.w_grads,
              encoder.b_grads)
    encoder.update(sgd.learning_rate)
    sgd_step(params.decoder, dec_grads, sgd)

    total = recon + lambda_n * nui_ce - lambda_a * adv_ce
    in_bounds = np.abs(total) <= LOSS_CEILING  # False for NaN too
    if not _all(in_bounds):  # named by the first such replica's loss, as its solo run names it
        raise TrainingDiverged(f"joint loss {np.ravel(total)[np.argmin(in_bounds)]} "
                               "out of bounds")
    return total, LossParts(recon, adv_ce, nui_ce)


def _head_term(dz: np.ndarray, combine, weight: np.ndarray, head: Mlp, code: np.ndarray,
               s: np.ndarray, onehot: np.ndarray) -> None:
    """dz = combine(dz, weight * d CE(head(code), s) / d code), in place, in each replica
    whose weight (one per replica) is not 0.

    The term has the bits of head.backward(grad).wrt_input after head.forward(code)
    and softmax_cross_entropy; s is train_step's checked subject ids and onehot their
    one-hot rows. A replica at 0 is skipped by mask, not multiplied by 0, so its dz
    keeps the bits, signed zeros included, of a run that never consults the head.
    """
    on = np.count_nonzero(weight)
    if not on:
        return
    cache = _step_cache(head)
    inputs, grad = _forward(cache.w_t, cache.b_rows, code)
    _ce_in_place(grad, s, onehot)
    term = _input_grad(head.weights, inputs, grad)
    term *= weight[..., None, None]
    # a full mask is left out: numpy's masked loop costs several times the plain one
    mask = True if on == weight.size else (weight != 0.0)[..., None, None]
    combine(dz, term, out=dz, where=mask)


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


def _stack(params: DacaeParams, replicas: int) -> DacaeParams:
    """replicas copies of params, stacked along a new leading axis."""
    return DacaeParams(*(Mlp([np.stack([w] * replicas) for w in net.weights],
                             [np.stack([b] * replicas) for b in net.biases])
                         for net in params.groups().values()))


def _replica(stack: DacaeParams, r: int) -> DacaeParams:
    """Replica r of a stack, as fresh networks over 2-D views of the stack's arrays."""
    return DacaeParams(*(Mlp([w[r] for w in net.weights], [b[r] for b in net.biases])
                         for net in stack.groups().values()))


def _epoch_row(params: DacaeParams, dataset: Dataset, config: HyperConfig,
               val: Dataset | None, epoch: int) -> TrainLogRow:
    total, parts = dacae_loss(params, dataset.x, dataset.s, config)
    z = encode(params, dataset.x)
    adv_acc, nui_acc = probe_accuracies(params, z, dataset.s)
    val_acc = 0.0
    if val is not None:  # cheap task readout: LDA on the full code
        readout = classifiers.fit("lda", z, dataset.y)
        val_acc = classifiers.accuracy(readout, encode(params, val.x), val.y)
    return TrainLogRow(epoch, total, parts.recon, parts.adv_ce, parts.nui_ce,
                       adv_acc, nui_acc, val_acc)


def fit_feature_extractor(dataset: Dataset, config: HyperConfig | Sequence[HyperConfig],
                          val: Dataset | None = None, *, log: bool = True
                          ) -> tuple[DacaeParams, TrainLog | list[TrainLog] | None]:
    """Train an extractor on the dataset with shuffled mini-batches.

    The conditioning width is dataset.n_subjects, so codes from subjects held
    out of this split still decode. One TrainLog row is appended per epoch,
    evaluated on the full training set; val_task_acc, an LDA fit on its code scored
    on the validation code, is 0.0 when no validation split is given.

    One config returns (params, TrainLog). A list of configs that differ only
    in lambda_a and lambda_n trains them as one stack and returns (stack, one
    TrainLog per config): the runs share one init_params draw, one shuffle
    stream and one gather per batch, and each epoch is evaluated replica by
    replica. Replica r of the stack, and its log, equal a solo fit of
    config[r] bit for bit; a divergence in any replica stops the whole stack.
    A single config trains its 2-D networks, the one-replica case of the same
    lines.

    log=False runs the same steps without the per-epoch evaluation and returns
    (params, None), with the same parameters bit for bit. After the last epoch it
    computes each replica's training loss (dacae_loss), as the last evaluation
    does, so parameters that the last step left non-finite raise the same
    TrainingDiverged. Between epochs nothing is checked: parameters that an earlier
    epoch's last step left non-finite raise from a later step's own checks, named
    "epoch E, batch B: ...", where the evaluation would have raised its loss error;
    both are TrainingDiverged.
    """
    single = isinstance(config, HyperConfig)
    configs = [config] if single else list(config)
    if not configs:
        raise ConfigError("no configs to fit")
    first = configs[0]
    if any(replace(c, lambda_a=first.lambda_a, lambda_n=first.lambda_n) != first
           for c in configs):
        raise ConfigError("stacked configs may differ only in lambda_a and lambda_n")
    if np.unique(dataset.s).size < 2:
        raise ConfigError("feature extractor needs at least two subjects")
    params = init_params(dataset.x.shape[1], dataset.n_subjects, first, first.sgd.seed)
    if not single:
        params = _stack(params, len(configs))
    shuffle_rng = make_rng(first.sgd.seed, 500)
    logs = [TrainLog([]) for _ in configs]
    for epoch in range(first.sgd.epochs):
        batches = minibatches(shuffle_rng, first.sgd.batch_size, dataset.x, dataset.s)
        for batch, (x, s) in enumerate(batches):
            try:
                train_step(params, x, s, configs)
            except TrainingDiverged as err:
                raise TrainingDiverged(f"epoch {epoch}, batch {batch}: {err}") from err
        # the last batch, in x, s and the encoder's forward cache, is a view of the
        # pass's gather; dropping it frees that gather before the evaluation allocates
        del x, s
        params.encoder._cache = None
        if log:
            # one replica at a time, so evaluation needs no more memory than a solo fit's
            for r, (c, trainlog) in enumerate(zip(configs, logs)):
                replica = params if single else _replica(params, r)
                trainlog.rows.append(_epoch_row(replica, dataset, c, val, epoch))
    if not log:  # the loss the last evaluation would compute, so a last step's divergence shows
        for r, c in enumerate(configs):
            dacae_loss(params if single else _replica(params, r), dataset.x, dataset.s, c)
        return params, None
    return (params, logs[0]) if single else (params, logs)


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
    DA-cAE variant. Each stage's runs train as one stack, in one
    fit_feature_extractor call, and each replica equals its solo run bit for
    bit. The fits pass log=False: they skip the per-epoch evaluation, whose logs
    a sweep would discard, and check each run's training loss once after its
    last epoch, so a run that ends non-finite still raises TrainingDiverged.
    Stage 2's lambda_a=0 point is stage 1's winning run, so its metrics are
    reused rather than retrained: a sweep trains len(grid1) + len(grid2) runs,
    less one when grid2 holds a zero, never the cross product. If a run
    diverges, the stage is retrained one run at a time in grid order, so the
    error raised is the first diverging run's, as a run-by-run sweep raises it.
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

    def readout(stage: int, config: HyperConfig, params: DacaeParams) -> SweepRow:
        z_val = encode(params, val.x)
        clf = classifiers.fit(classifier, encode(params, train.x), train.y, seed=config.sgd.seed)
        val_acc = classifiers.accuracy(clf, z_val, val.y)
        adv_acc, nui_acc = probe_accuracies(params, z_val, val.s)
        return SweepRow(stage, config.lambda_a, config.lambda_n, config.r_n, val_acc,
                        adv_acc, nui_acc)

    def run(stage: int, points: list[tuple[float, float]]) -> list[SweepRow]:
        if not points:
            return []
        configs = [replace(base, lambda_a=la, lambda_n=ln) for la, ln in points]
        try:
            stack, _ = fit_feature_extractor(train, configs, log=False)
            fits = (_replica(stack, r) for r in range(len(configs)))
        except TrainingDiverged:
            # the stack stops at whichever replica diverges first in time
            fits = (fit_feature_extractor(train, c, log=False)[0] for c in configs)
        # lazily, so each replica's networks (and their forward caches) go after its readout
        return [readout(stage, c, params) for c, params in zip(configs, fits)]

    stage1 = run(1, [(0.0, ln) for ln in lambda_n_grid])
    best = _pick(stage1)
    trained = iter(run(2, [(la, best.lambda_n) for la in lambda_a_grid if la != 0.0]))
    # the reused row keeps the grid's own lambda_a, so a -0.0 entry prints as -0.0
    stage2 = [replace(best, stage=2, lambda_a=la) if la == 0.0 else next(trained)
              for la in lambda_a_grid]
    selected = _pick(stage2)
    return SweepResult(stage1 + stage2, selected)
