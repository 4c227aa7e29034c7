"""Alternating training loop, logging, and the two-stage sweep."""

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
    decoder_input,
    encode,
    fit_feature_extractor,
    fit_task_classifier,
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
from dacae.training import LAMBDA_A_GRID, LAMBDA_N_GRID, _pick


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
    ref = params.copy()
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
    ref = params.copy()
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
    ae = params.copy()
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
    probe = params.copy()
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
    assert np.array_equal(log1.total_losses(), log2.total_losses())
    for wa, wb in zip(p1.encoder.weights, p2.encoder.weights):
        assert np.array_equal(wa, wb)
    assert all(r.val_task_acc == 0.0 for r in log1.rows)


def test_fit_feature_extractor_loss_decreases_long_run():
    ds = small_dataset(1)
    config = small_config(sgd=SgdConfig(learning_rate=0.05, batch_size=16,
                                        epochs=50, seed=1))
    _, log = fit_feature_extractor(ds, config)
    losses = log.total_losses()
    assert losses[49] <= losses[4]


def test_fit_feature_extractor_divergence_names_position():
    ds = small_dataset(2)
    config = small_config(sgd=SgdConfig(learning_rate=1e9, batch_size=16,
                                        epochs=2, seed=2))
    with pytest.raises(TrainingDiverged, match=r"epoch \d+, batch \d+"):
        fit_feature_extractor(ds, config)


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
    adv, nui = probe_accuracies(params, ds.x, ds.s)
    assert abs(adv - 0.2) <= 0.05
    assert abs(nui - 0.2) <= 0.05


def test_fit_task_classifier_leaves_encoder_frozen():
    ds = small_dataset(4)
    config = small_config()
    params, _ = fit_feature_extractor(ds, config)
    snapshot = [w.copy() for w in params.encoder.weights]
    clf = fit_task_classifier(params, ds, "mlp", seed=4)
    for before, w in zip(snapshot, params.encoder.weights):
        assert np.array_equal(before, w)
    z = encode(params, ds.x)
    assert clf.decision_scores(z).shape == (len(ds), 2)


def test_fit_task_classifier_separable_latents():
    ds = small_dataset(5, sigma=0.05)
    config = small_config(sgd=SgdConfig(learning_rate=0.05, batch_size=16,
                                        epochs=30, seed=5))
    params, _ = fit_feature_extractor(ds, config)
    clf = fit_task_classifier(params, ds, "lda", seed=5)
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
