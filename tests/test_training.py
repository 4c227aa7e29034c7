"""Alternating training loop, logging, and the two-stage sweep."""

from dataclasses import astuple

import numpy as np
import pytest

from dacae import (
    ConfigError,
    HyperConfig,
    SgdConfig,
    SweepRow,
    SyntheticSpec,
    TrainLog,
    TrainLogRow,
    TrainingDiverged,
    VARIANTS,
    classifiers,
    dacae_loss,
    decoder_input,
    encode,
    fit_feature_extractor,
    generate_synthetic,
    init_params,
    make_rng,
    mse_loss,
    probe_accuracies,
    sgd_step,
    softmax_cross_entropy,
    train_step,
    two_stage_sweep,
)
import dacae.model
import dacae.training
from dacae.nn import Mlp, build_mlp, minibatches
from dacae.training import LAMBDA_A_GRID, LAMBDA_N_GRID, _head_term, _pick
from helpers import copy_params


def small_dataset(seed=0, **kw):
    spec = SyntheticSpec(n_subjects=3, n_classes=2, n_channels=4,
                         samples_per_cell=20, seed=seed, **kw)
    ds, _, _ = generate_synthetic(spec)
    return ds


def small_config(**kw):
    defaults = dict(lambda_a=0.1, lambda_n=0.01, r_n=1.0 / 3.0, latent_dim=6,
                    variant="DA-cAE",
                    sgd=SgdConfig(learning_rate=0.05, batch_size=16, epochs=3, seed=0))
    defaults.update(kw)
    return HyperConfig(**defaults)


def reference_step(params, x, s, config):
    """Manual replay of the three sub-updates, built only from model pieces."""
    z = encode(params, x)
    _, ga = softmax_cross_entropy(params.adversary.forward(z[:, : params.d_a]), s)
    sgd_step(params.adversary, params.adversary.backward(ga), config.sgd)
    _, gn = softmax_cross_entropy(params.nuisance.forward(z[:, params.d_a:]), s)
    sgd_step(params.nuisance, params.nuisance.backward(gn), config.sgd)

    z = params.encoder.forward(x)
    x_hat = params.decoder.forward(decoder_input(z, s, params.n_subjects, config.conditioned))
    _, gx = mse_loss(x_hat, x)
    dec_grads = params.decoder.backward(gx)
    dz = dec_grads.wrt_input[:, : params.latent_dim].copy()
    if config.lambda_a != 0.0:
        _, ga2 = softmax_cross_entropy(params.adversary.forward(z[:, : params.d_a]), s)
        dz[:, : params.d_a] -= config.lambda_a * params.adversary.backward(ga2).wrt_input
    if config.lambda_n != 0.0:
        _, gn2 = softmax_cross_entropy(params.nuisance.forward(z[:, params.d_a:]), s)
        dz[:, params.d_a:] += config.lambda_n * params.nuisance.backward(gn2).wrt_input
    enc_grads = params.encoder.backward(dz)
    sgd_step(params.encoder, enc_grads, config.sgd)
    sgd_step(params.decoder, dec_grads, config.sgd)


def _batch(seed=1, n=12, channels=4, subjects=3):
    rng = make_rng(seed, 55)
    return rng.standard_normal((n, channels)), rng.integers(0, subjects, size=n)


def test_train_step_matches_reference_bitwise():
    config = small_config()
    params = init_params(4, 3, config, seed=2)
    ref = copy_params(params)
    x, s = _batch()
    train_step(params, x, s, config)
    reference_step(ref, x, s, config)
    for name in ("encoder", "decoder", "adversary", "nuisance"):
        net, want = params.groups()[name], ref.groups()[name]
        for a, b in zip(net.weights + net.biases, want.weights + want.biases, strict=True):
            assert np.array_equal(a, b), name


def test_train_step_heads_untouched_by_joint_update():
    # zero learning pressure on the heads' own CE is impossible, so instead
    # verify the joint sub-step: replay (1)+(2) manually, then confirm the
    # third sub-step leaves head weights exactly where the replay put them
    config = small_config()
    params = init_params(4, 3, config, seed=3)
    ref = copy_params(params)
    x, s = _batch(2)
    train_step(params, x, s, config)

    z = encode(ref, x)
    _, ga = softmax_cross_entropy(ref.adversary.forward(z[:, : ref.d_a]), s)
    sgd_step(ref.adversary, ref.adversary.backward(ga), config.sgd)
    _, gn = softmax_cross_entropy(ref.nuisance.forward(z[:, ref.d_a:]), s)
    sgd_step(ref.nuisance, ref.nuisance.backward(gn), config.sgd)
    for name in ("adversary", "nuisance"):
        for wa, wb in zip(params.groups()[name].weights, ref.groups()[name].weights):
            assert np.array_equal(wa, wb)


def test_train_step_zero_lambda_matches_plain_autoencoder_path():
    # with both weights zero the encoder-decoder trajectory must be identical
    # to an autoencoder that never consults the heads
    config = small_config(variant="AE", lambda_a=0.0, lambda_n=0.0)
    params = init_params(4, 3, config, seed=4)
    ae = copy_params(params)
    x, s = _batch(3)
    train_step(params, x, s, config)

    z = ae.encoder.forward(x)
    x_hat = ae.decoder.forward(decoder_input(z, s, 3, False))
    _, gx = mse_loss(x_hat, x)
    dec_grads = ae.decoder.backward(gx)
    enc_grads = ae.encoder.backward(dec_grads.wrt_input[:, :6])
    sgd_step(ae.encoder, enc_grads, config.sgd)
    sgd_step(ae.decoder, dec_grads, config.sgd)
    for name in ("encoder", "decoder"):
        for wa, wb in zip(params.groups()[name].weights, ae.groups()[name].weights):
            assert np.array_equal(wa, wb)


def _assert_same_net(net, want):
    for a, b in zip(net.weights + net.biases, want.weights + want.biases, strict=True):
        assert a.tobytes() == b.tobytes()


def test_joint_step_checks_and_updates_the_encoder_then_the_decoder(monkeypatch):
    # encoder check, encoder update, decoder check, decoder update, as two sgd_steps ran them
    config = small_config()
    x, s = _batch(4)
    params = init_params(4, 3, config, seed=7)
    before = copy_params(params)
    # a non-finite reconstruction gradient reaches both: the encoder's check raises first
    monkeypatch.setattr(dacae.training, "mse_loss",
                        lambda x_hat, x: (0.0, np.full(x_hat.shape, np.nan)))
    with np.errstate(invalid="ignore"), \
            pytest.raises(TrainingDiverged, match="^non-finite gradient in sgd_step$"):
        train_step(params, x, s, config)
    _assert_same_net(params.encoder, before.encoder)
    _assert_same_net(params.decoder, before.decoder)
    monkeypatch.undo()
    # a decoder that fails its check leaves the encoder updated and itself unchanged
    params, want = init_params(4, 3, config, seed=7), init_params(4, 3, config, seed=7)
    reference_step(want, x, s, config)

    def failing_check(net, grads, sgd):
        raise TrainingDiverged("non-finite gradient in sgd_step")

    monkeypatch.setattr(dacae.training, "sgd_step", failing_check)
    with pytest.raises(TrainingDiverged, match="^non-finite gradient in sgd_step$"):
        train_step(params, x, s, config)
    _assert_same_net(params.encoder, want.encoder)
    _assert_same_net(params.decoder, before.decoder)


def test_train_step_adversary_ce_descends_on_its_batch():
    config = small_config(sgd=SgdConfig(learning_rate=1e-3, batch_size=16, epochs=1, seed=0))
    params = init_params(4, 3, config, seed=5)
    x, s = _batch(4, n=32)
    before, _ = softmax_cross_entropy(
        params.adversary.forward(encode(params, x)[:, : params.d_a]), s)
    _, parts = train_step(params, x, s, config)
    assert parts.adv_ce == pytest.approx(before)
    after, _ = softmax_cross_entropy(
        params.adversary.forward(params.encoder.forward(x)[:, : params.d_a]), s)
    # tiny lr: the head step dominates and the encoder barely moves
    assert after < before


def test_train_step_returns_prestep_loss_identity():
    config = small_config()
    params = init_params(4, 3, config, seed=6)
    x, s = _batch(5)
    probe = copy_params(params)
    z = encode(probe, x)
    adv0, _ = softmax_cross_entropy(probe.adversary.forward(z[:, : probe.d_a]), s)
    nui0, _ = softmax_cross_entropy(probe.nuisance.forward(z[:, probe.d_a:]), s)
    total, parts = train_step(params, x, s, config)
    assert parts.adv_ce == pytest.approx(adv0, abs=1e-12)
    assert parts.nui_ce == pytest.approx(nui0, abs=1e-12)
    assert total == pytest.approx(
        parts.recon + config.lambda_n * parts.nui_ce - config.lambda_a * parts.adv_ce,
        abs=1e-12)


def test_train_step_empty_batch_raises():
    config = small_config()
    params = init_params(4, 3, config, seed=0)
    with pytest.raises(ValueError):
        train_step(params, np.empty((0, 4)), np.array([], dtype=int), config)


def test_train_step_rejects_single_row():
    # a 1-D sample is not lifted to a batch of one
    config = small_config()
    params = init_params(4, 3, config, seed=0)
    before = copy_params(params)
    x, s = _batch()
    with pytest.raises(ValueError, match=r"input shape \(4,\)"):
        train_step(params, x[0], s[:1], config)
    for net, want in zip(params.groups().values(), before.groups().values()):
        for a, b in zip(net.weights + net.biases, want.weights + want.biases):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", ["AE", "DA-cAE"])
@pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "too-large"])
def test_train_step_rejects_out_of_range_subject(variant, bad):
    # AE is unconditioned, so its decoder input never checks s: train_step must
    config = small_config(variant=variant)
    params = init_params(4, 3, config, seed=0)
    before = copy_params(params)
    x, s = _batch()
    s[5] = bad
    with pytest.raises(ValueError, match="^target class out of range$"):
        train_step(params, x, s, config)
    for net, want in zip(params.groups().values(), before.groups().values()):
        for a, b in zip(net.weights + net.biases, want.weights + want.biases):
            assert np.array_equal(a, b)


def test_train_step_checks_subjects_as_softmax_cross_entropy_checks_targets():
    # one check serves both: same order, same messages, and no float id truncated
    config = small_config()
    x, s = _batch()
    cases = {"float": (s + 0.5, "^targets must be whole numbers"),
             "short": (s[:-1], r"^targets of shape \(11,\) for 12 logit rows$"),
             "range": (s + 3, "^target class out of range$")}
    for bad, message in cases.values():
        params = init_params(4, 3, config, seed=0)
        with pytest.raises(ValueError, match=message):
            train_step(params, x, bad, config)
        with pytest.raises(ValueError, match=message):
            softmax_cross_entropy(np.zeros((12, 3)), bad)


def test_fit_feature_extractor_single_subject_raises():
    ds = small_dataset()
    solo = ds.subset(np.flatnonzero(ds.s == 0))
    with pytest.raises(ConfigError):
        fit_feature_extractor(solo, small_config())


def test_fit_feature_extractor_log_shape_and_determinism():
    ds = small_dataset()
    config = small_config()
    p1, log1 = fit_feature_extractor(ds, config)
    p2, log2 = fit_feature_extractor(ds, config)
    assert len(log1.rows) == config.sgd.epochs
    assert [r.epoch for r in log1.rows] == [0, 1, 2]
    assert [r.total_loss for r in log1.rows] == [r.total_loss for r in log2.rows]
    for wa, wb in zip(p1.encoder.weights, p2.encoder.weights):
        assert np.array_equal(wa, wb)
    assert all(r.val_task_acc == 0.0 for r in log1.rows)


def test_fit_feature_extractor_loss_decreases_long_run():
    ds = small_dataset(1)
    config = small_config(sgd=SgdConfig(learning_rate=0.05, batch_size=16,
                                        epochs=50, seed=1))
    _, log = fit_feature_extractor(ds, config)
    losses = [r.total_loss for r in log.rows]
    assert losses[49] <= losses[4]


def test_fit_feature_extractor_divergence_names_position():
    ds = small_dataset(2)
    config = small_config(sgd=SgdConfig(learning_rate=1e9, batch_size=16,
                                        epochs=2, seed=2))
    with pytest.raises(TrainingDiverged, match=r"epoch \d+, batch \d+"):
        fit_feature_extractor(ds, config)


@pytest.mark.parametrize("dims", [[4, 6], [4, 7, 6]], ids=["linear", "two-layer"])
@pytest.mark.parametrize("weights", [[0.3], [0.2, 0.0, 0.5, -0.0, 1.0]], ids=["2d", "R5"])
@pytest.mark.parametrize("combine", [np.subtract, np.add], ids=["adversary", "nuisance"])
def test_head_term_equals_the_mlp_input_gradient_bitwise(dims, weights, combine):
    # _head_term runs the bare kernels; each replica's term must be what
    # head.forward, softmax_cross_entropy and head.backward(...).wrt_input give
    rng = make_rng(71, len(dims), len(weights))
    heads = [build_mlp(dims, make_rng(72, r)) for r in range(len(weights))]
    code = rng.standard_normal((len(weights), 64, dims[0])) * 3.0
    s = rng.integers(0, dims[-1], size=64)
    dz = rng.standard_normal(code.shape)
    dz[:, :3] = -0.0  # signed zeros, which a replica whose weight is 0 keeps
    want = dz.copy()
    for r, (head, weight) in enumerate(zip(heads, weights)):
        if weight != 0.0:
            _, grad = softmax_cross_entropy(head.forward(code[r]), s)
            want[r] = combine(dz[r], weight * head.backward(grad).wrt_input)
    if len(weights) == 1:
        head, code, dz, want = heads[0], code[0], dz[0], want[0]
        weight = np.array(weights[0])[()]
    else:
        head = Mlp.stack(heads)
        weight = np.array(weights)
    _head_term(dz, combine, weight, head, code, s, np.eye(dims[-1])[s])
    assert dz.tobytes() == want.tobytes()


def solo_fit(dataset, config, val=None):
    """One run on 2-D networks, one train_step per batch: the fit as it stood before
    runs were stacked, kept as the reference a stack's replicas must equal."""
    params = init_params(dataset.x.shape[1], dataset.n_subjects, config, config.sgd.seed)
    shuffle_rng = make_rng(config.sgd.seed, 500)
    rows = []
    for epoch in range(config.sgd.epochs):
        for (ids,) in minibatches(shuffle_rng, config.sgd.batch_size, np.arange(len(dataset))):
            train_step(params, dataset.x[ids], dataset.s[ids], config)
        total, parts = dacae_loss(params, dataset.x, dataset.s, config)
        z = encode(params, dataset.x)
        adv_acc, nui_acc = probe_accuracies(params, z, dataset.s)
        val_acc = 0.0
        if val is not None:
            readout = classifiers.fit("lda", z, dataset.y)
            val_acc = classifiers.accuracy(readout, encode(params, val.x), val.y)
        rows.append(TrainLogRow(epoch, total, parts.recon, parts.adv_ce, parts.nui_ce,
                                adv_acc, nui_acc, val_acc))
    return params, rows


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("lambdas", [
    [(0.1, 0.01)],
    [(0.0, 0.2), (0.5, 0.0), (-0.0, 0.01), (0.1, 0.5)],
    [(0.0, 0.0), (-0.0, 0.005), (0.0, 0.01), (0.2, -0.0), (0.5, 0.5)],
], ids=["R1", "R4", "R5"])
def test_stacked_fit_replicas_equal_solo_fits_bitwise(lambdas):
    ds = small_dataset(6)
    val_ids = np.arange(0, len(ds), 9)  # leaves 106 rows: every epoch ends on a short batch
    train = ds.subset(np.setdiff1d(np.arange(len(ds)), val_ids))
    val = ds.subset(val_ids)
    configs = [small_config(lambda_a=la, lambda_n=ln, sgd=SgdConfig(
        learning_rate=0.05, batch_size=16, epochs=8, seed=6)) for la, ln in lambdas]
    stack, logs = fit_feature_extractor(train, configs, val=val)
    assert len(logs) == len(configs)
    for r, config in enumerate(configs):
        want, want_rows = solo_fit(train, config, val=val)
        for name, net in stack.groups().items():
            ref = want.groups()[name]
            for a, b in zip(net.weights + net.biases, ref.weights + ref.biases, strict=True):
                assert np.array_equal(_bits(a[r]), _bits(b)), (r, name)
        assert [_bits(astuple(row)).tolist() for row in logs[r].rows] == \
            [_bits(astuple(row)).tolist() for row in want_rows]
    if len(configs) == 1:  # one config alone returns the replica's own 2-D networks
        params, log = fit_feature_extractor(train, configs[0], val=val)
        for name, net in params.groups().items():
            for a, b in zip(net.weights + net.biases,
                            stack.groups()[name].weights + stack.groups()[name].biases):
                assert a.shape == b.shape[1:] and np.array_equal(_bits(a), _bits(b[0]))
        assert log.rows == logs[0].rows


def test_stacked_fit_rejects_configs_that_differ_beyond_the_loss_weights():
    ds = small_dataset()
    with pytest.raises(ConfigError, match="^no configs to fit$"):
        fit_feature_extractor(ds, [])
    for other in (small_config(latent_dim=5), small_config(r_n=0.5), small_config(variant="A-cAE"),
                  small_config(sgd=SgdConfig(learning_rate=0.05, batch_size=16, epochs=3, seed=1))):
        with pytest.raises(ConfigError, match="may differ only in lambda_a and lambda_n"):
            fit_feature_extractor(ds, [small_config(), other])


@pytest.mark.parametrize("lambdas", [
    [(0.1, 0.01)],
    [(0.0, 0.2), (0.5, 0.0), (-0.0, 0.01), (0.1, 0.5)],
], ids=["R1", "R4"])
def test_fit_without_log_skips_evaluation_and_trains_the_same_bits(monkeypatch, lambdas):
    ds = small_dataset(7)
    configs = [small_config(lambda_a=la, lambda_n=ln) for la, ln in lambdas]
    config = configs[0] if len(configs) == 1 else configs  # R=1 is a lone HyperConfig
    want, _ = fit_feature_extractor(ds, config)
    rows, losses = [], []
    real_loss = dacae.training.dacae_loss

    def counted_loss(params, x, s, c):
        losses.append((c, params.encoder.weights[0].ndim, len(x)))
        return real_loss(params, x, s, c)

    monkeypatch.setattr(dacae.training, "_epoch_row", lambda *args: rows.append(args))
    monkeypatch.setattr(dacae.training, "dacae_loss", counted_loss)
    params, log = fit_feature_extractor(ds, config, log=False)
    assert log is None and rows == []
    # one loss per replica, each on its own 2-D networks and the whole training set
    assert losses == [(c, 2, len(ds)) for c in configs]
    for name, net in params.groups().items():
        ref = want.groups()[name]
        for a, b in zip(net.weights + net.biases, ref.weights + ref.biases, strict=True):
            assert a.shape == b.shape and np.array_equal(_bits(a), _bits(b)), name


@pytest.mark.parametrize("replicas", [1, 3], ids=["R1", "R3"])
@pytest.mark.parametrize("epoch", [1, 0], ids=["last-step", "earlier-epoch"])
def test_fit_without_log_raises_a_divergence_left_by_a_step(monkeypatch, replicas, epoch):
    # a step that leaves a decoder weight of the last replica at inf: after the last
    # step, both fits raise the last evaluation's loss error; after an earlier epoch,
    # the evaluation raises it but a fit without one raises from the next step
    ds = small_dataset(8)
    sgd = SgdConfig(learning_rate=0.05, batch_size=16, epochs=2, seed=8)
    configs = [small_config(lambda_a=0.1 * r, sgd=sgd) for r in range(replicas)]
    config = configs[0] if replicas == 1 else configs
    breaking_step = -(-len(ds) // sgd.batch_size) * (epoch + 1)
    real_step = dacae.training.train_step
    steps = []

    def step(params, x, s, c):
        out = real_step(params, x, s, c)
        steps.append(None)
        if len(steps) == breaking_step:
            params.decoder.weights[-1].flat[-1] = np.inf  # the last replica's, in place
        return out

    monkeypatch.setattr(dacae.training, "train_step", step)
    messages = []
    for log in (True, False):
        steps.clear()
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            fit_feature_extractor(ds, config, log=log)
        messages.append(str(info.value))
    assert messages[0].startswith("non-finite loss: ")
    if epoch == sgd.epochs - 1:
        assert messages[1] == messages[0]
    else:
        assert messages[1].startswith("epoch 1, batch 0: ")


def test_epoch_encodes_training_set_at_most_twice(monkeypatch):
    # the loss is a function of the parameters and encodes on its own; the probes
    # and the LDA readout share one code of the training set
    ds = small_dataset(3)
    val_ids = np.arange(0, len(ds), 5)
    train = ds.subset(np.setdiff1d(np.arange(len(ds)), val_ids))
    val = ds.subset(val_ids)
    rows = []

    def counting(real):
        def encode_counted(params, x):
            rows.append(len(x))
            return real(params, x)
        return encode_counted

    for module in (dacae.model, dacae.training):
        monkeypatch.setattr(module, "encode", counting(module.encode))
    fit_feature_extractor(train, small_config(sgd=SgdConfig(epochs=1, seed=0)), val=val)
    assert len(train) != len(val)
    assert rows.count(len(train)) <= 2
    assert rows.count(len(val)) == 1
    assert len(rows) == rows.count(len(train)) + 1


def test_fit_feature_extractor_val_probe_populated():
    ds = small_dataset(3)
    val = ds.subset(np.arange(0, len(ds), 5))
    train = ds.subset(np.setdiff1d(np.arange(len(ds)), np.arange(0, len(ds), 5)))
    _, log = fit_feature_extractor(train, small_config(), val=val)
    assert all(0.0 <= r.val_task_acc <= 1.0 for r in log.rows)
    assert any(r.val_task_acc > 0.0 for r in log.rows)


def test_untrained_probes_near_chance():
    # beta=0 removes subject signal entirely, so any probe sits at chance
    spec = SyntheticSpec(n_subjects=5, n_classes=2, n_channels=6, beta=0.0,
                         samples_per_cell=400, seed=9)
    ds, _, _ = generate_synthetic(spec)
    config = small_config()
    params = init_params(6, 5, config, seed=9)
    adv, nui = probe_accuracies(params, encode(params, ds.x), ds.s)
    assert abs(adv - 0.2) <= 0.05
    assert abs(nui - 0.2) <= 0.05


def test_fit_task_classifier_leaves_encoder_frozen():
    ds = small_dataset(4)
    config = small_config()
    params, _ = fit_feature_extractor(ds, config)
    snapshot = [w.copy() for w in params.encoder.weights]
    clf = classifiers.fit("mlp", encode(params, ds.x), ds.y, seed=4)
    for before, w in zip(snapshot, params.encoder.weights):
        assert np.array_equal(before, w)
    z = encode(params, ds.x)
    assert clf.decision_scores(z).shape == (len(ds), 2)


def test_fit_task_classifier_separable_latents():
    ds = small_dataset(5, sigma=0.05)
    config = small_config(sgd=SgdConfig(learning_rate=0.05, batch_size=16,
                                        epochs=30, seed=5))
    params, _ = fit_feature_extractor(ds, config)
    clf = classifiers.fit("lda", encode(params, ds.x), ds.y, seed=5)
    z = encode(params, ds.x)
    assert np.mean(clf.predict(z) == ds.y) >= 0.99


def test_trainlog_csv_layout(tmp_path):
    log = TrainLog([TrainLogRow(0, 1.5, 1.0, 1.1, 1.2, 0.3, 0.4, 0.5)])
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,total_loss,recon_loss,adversary_ce,nuisance_ce," \
                       "adversary_acc,nuisance_acc,val_task_acc"
    assert lines[1].startswith("0,1.5,1.0,")


def test_pick_prefers_best_accuracy():
    rows = [SweepRow(1, 0.0, 0.0, 0.0, 0.50, 0.9, 0.1),
            SweepRow(1, 0.0, 0.1, 0.0, 0.70, 0.9, 0.1),
            SweepRow(1, 0.0, 0.2, 0.0, 0.60, 0.0, 1.0)]
    assert _pick(rows).lambda_n == 0.1


def test_pick_breaks_near_tie_toward_disentanglement():
    rows = [SweepRow(1, 0.0, 0.0, 0.0, 0.700, 0.9, 0.1),
            SweepRow(1, 0.0, 0.1, 0.0, 0.697, 0.1, 0.9)]
    assert _pick(rows).lambda_n == 0.1
    # outside the margin the higher accuracy stands
    rows[1] = SweepRow(1, 0.0, 0.1, 0.0, 0.69, 0.1, 0.9)
    assert _pick(rows).lambda_n == 0.0


def _sweep_dataset():
    spec = SyntheticSpec(n_subjects=3, n_classes=2, n_channels=4,
                         samples_per_cell=30, seed=11)
    ds, _, _ = generate_synthetic(spec)
    val_ids = np.arange(0, len(ds), 6)
    train_ids = np.setdiff1d(np.arange(len(ds)), val_ids)
    return ds.subset(train_ids), ds.subset(val_ids)


def sweep_base(**sgd):
    return HyperConfig(variant="DA-cAE", sgd=SgdConfig(**sgd))


def test_two_stage_sweep_run_count_and_stages():
    train, val = _sweep_dataset()
    base = sweep_base(learning_rate=0.05, batch_size=32, epochs=2, seed=11)
    result = two_stage_sweep(train, val, base, classifier="lda")
    assert len(result.rows) == len(LAMBDA_N_GRID) + len(LAMBDA_A_GRID)
    stage1 = [r for r in result.rows if r.stage == 1]
    stage2 = [r for r in result.rows if r.stage == 2]
    assert [r.lambda_n for r in stage1] == list(LAMBDA_N_GRID)
    assert all(r.lambda_a == 0.0 for r in stage1)
    assert [r.lambda_a for r in stage2] == list(LAMBDA_A_GRID)
    best_n = _pick(stage1).lambda_n
    assert all(r.lambda_n == best_n for r in stage2)
    assert result.selected in stage2


def test_two_stage_sweep_reuses_stage_one_winner_for_zero_lambda_a(monkeypatch):
    # stage 2's lambda_a=0 point is stage 1's winning run: default grids train 5 + 4 points,
    # counted by config whether a call trains one run or a stack
    seen = []
    real = dacae.training.fit_feature_extractor

    def spy(dataset, config, val=None, **kw):
        configs = [config] if isinstance(config, HyperConfig) else config
        seen.extend((c.lambda_a, c.lambda_n) for c in configs)
        return real(dataset, config, val=val, **kw)

    monkeypatch.setattr(dacae.training, "fit_feature_extractor", spy)
    train, val = _sweep_dataset()
    base = sweep_base(learning_rate=0.05, batch_size=32, epochs=1, seed=14)
    result = two_stage_sweep(train, val, base, classifier="lda")
    assert len(seen) == 9 and len(set(seen)) == 9
    winner = _pick(result.rows[: len(LAMBDA_N_GRID)])
    reused = result.rows[len(LAMBDA_N_GRID) + LAMBDA_A_GRID.index(0.0)]
    assert reused == SweepRow(2, 0.0, winner.lambda_n, *astuple(winner)[3:])


def test_two_stage_sweep_keeps_a_negative_zero_grid_entry():
    train, val = _sweep_dataset()
    base = sweep_base(learning_rate=0.05, batch_size=32, epochs=1, seed=15)
    result = two_stage_sweep(train, val, base, classifier="lda",
                             lambda_n_grid=(0.01,), lambda_a_grid=(-0.0, 0.1))
    assert [r.stage for r in result.rows] == [1, 2, 2]
    assert np.copysign(1.0, result.rows[1].lambda_a) == -1.0
    assert astuple(result.rows[1])[2:] == astuple(result.rows[0])[2:]


def test_two_stage_sweep_single_point_grids():
    train, val = _sweep_dataset()
    base = sweep_base(learning_rate=0.05, batch_size=32, epochs=2, seed=12)
    result = two_stage_sweep(train, val, base, classifier="lda",
                             lambda_n_grid=(0.01,), lambda_a_grid=(0.1,))
    assert len(result.rows) == 2
    assert result.selected.lambda_a == 0.1 and result.selected.lambda_n == 0.01


def test_two_stage_sweep_empty_grid_or_val_raises():
    train, val = _sweep_dataset()
    with pytest.raises(ConfigError):
        two_stage_sweep(train, val, sweep_base(), lambda_n_grid=())
    with pytest.raises(ConfigError):
        two_stage_sweep(train, train.subset(np.array([], dtype=np.intp)), sweep_base())


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "DA-cAE"])
def test_two_stage_sweep_rejects_base_without_both_heads(variant):
    train, val = _sweep_dataset()
    base = HyperConfig(variant=variant, sgd=SgdConfig(epochs=1))
    with pytest.raises(ConfigError, match=f"DA-cAE base config, got '{variant}'"):
        two_stage_sweep(train, val, base, lambda_n_grid=(0.0,), lambda_a_grid=(0.0,))


def test_sweep_result_csv_trailer(tmp_path):
    train, val = _sweep_dataset()
    base = sweep_base(learning_rate=0.05, batch_size=32, epochs=1, seed=13)
    result = two_stage_sweep(train, val, base, classifier="lda",
                             lambda_n_grid=(0.0,), lambda_a_grid=(0.0, 0.1))
    path = tmp_path / "sweep.csv"
    result.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("stage,lambda_a,lambda_n,")
    assert len(lines) == 1 + 3 + 1
    assert lines[-1].startswith("selected,")
