"""Autoencoder variants: latent split, joint loss, checkpointing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacae import (
    ConfigError,
    HyperConfig,
    SgdConfig,
    VARIANTS,
    adversary_logits,
    dacae_loss,
    decode,
    encode,
    init_params,
    load_checkpoint,
    make_rng,
    mse_loss,
    nuisance_dim,
    nuisance_logits,
    one_hot_subjects,
    save_checkpoint,
    softmax_cross_entropy,
    split_latent,
)
from dacae import classifiers


def test_nuisance_dim_rounds_half_up():
    assert nuisance_dim(15, 1.0 / 3.0) == 5
    assert nuisance_dim(4, 1.0 / 3.0) == 1
    assert nuisance_dim(3, 0.5) == 2
    assert nuisance_dim(15, 0.0) == 0


def test_variant_weight_coercion():
    base = dict(lambda_a=0.3, lambda_n=0.7, r_n=0.2)
    ae = HyperConfig(variant="AE", **base)
    assert ae.lambda_a == 0.0 and ae.lambda_n == 0.0 and not ae.conditioned
    cae = HyperConfig(variant="cAE", **base)
    assert cae.lambda_a == 0.0 and cae.lambda_n == 0.0 and cae.conditioned
    a = HyperConfig(variant="A-cAE", **base)
    assert a.lambda_a == 0.3 and a.lambda_n == 0.0
    d = HyperConfig(variant="D-cAE", **base)
    assert d.lambda_a == 0.0 and d.lambda_n == 0.7
    da = HyperConfig(variant="DA-cAE", **base)
    assert da.lambda_a == 0.3 and da.lambda_n == 0.7


def test_for_variant_default_ratios():
    assert HyperConfig.for_variant("AE").r_n == 0.0
    assert HyperConfig.for_variant("DA-cAE").r_n == pytest.approx(1.0 / 3.0)
    assert HyperConfig.for_variant("DA-cAE").d_n == 5
    assert HyperConfig.for_variant("DA-cAE").d_a == 10
    with pytest.raises(ConfigError):
        HyperConfig.for_variant("VAE")


def test_config_validation():
    with pytest.raises(ConfigError):
        HyperConfig(lambda_a=-0.1)
    with pytest.raises(ConfigError):
        HyperConfig(r_n=1.0)
    with pytest.raises(ConfigError):
        HyperConfig(latent_dim=0)


def test_split_latent_ten_five():
    z = np.arange(15.0)
    code = split_latent(z, 5)
    assert code.z_a.shape == (10,)
    assert code.z_n.shape == (5,)
    assert np.array_equal(code.z_a, np.arange(10.0))
    assert np.array_equal(code.z_n, np.arange(10.0, 15.0))
    assert np.array_equal(code.full, z)


def test_init_params_shapes():
    config = HyperConfig.for_variant("DA-cAE", latent_dim=15, r_n=1.0 / 3.0)
    params = init_params(7, 20, config, seed=0)
    assert params.encoder.layers[0].weight.shape == (15, 7)
    assert params.encoder.layers[1].weight.shape == (15, 15)
    assert params.decoder.layers[0].weight.shape == (15, 35)
    assert params.decoder.layers[1].weight.shape == (7, 15)
    assert params.adversary.layers[0].weight.shape == (20, 10)
    assert params.nuisance.layers[0].weight.shape == (20, 5)


def test_init_params_deterministic():
    config = HyperConfig.for_variant("DA-cAE")
    a = init_params(7, 6, config, seed=3)
    b = init_params(7, 6, config, seed=3)
    for g in a.groups():
        for la, lb in zip(a.groups()[g].layers, b.groups()[g].layers):
            assert np.array_equal(la.weight, lb.weight)


def test_one_hot_subjects():
    out = one_hot_subjects([2, 0], 4)
    assert np.array_equal(out, [[0, 0, 1, 0], [1, 0, 0, 0]])
    with pytest.raises(ValueError):
        one_hot_subjects([4], 4)


def test_encode_splits_batch():
    config = HyperConfig.for_variant("DA-cAE")
    params = init_params(7, 6, config, seed=1)
    x = make_rng(1).standard_normal((8, 7))
    code = encode(params, x)
    assert code.z_a.shape == (8, 10)
    assert code.z_n.shape == (8, 5)
    assert np.array_equal(code.full, params.encoder.forward(x))


def test_conditioned_decode_depends_on_subject():
    config = HyperConfig.for_variant("DA-cAE")
    params = init_params(7, 6, config, seed=2)
    x = make_rng(2).standard_normal(7)
    code = encode(params, x)
    a = decode(params, code, [0], conditioned=True)
    b = decode(params, code, [3], conditioned=True)
    assert not np.allclose(a, b)
    ua = decode(params, code, [0], conditioned=False)
    ub = decode(params, code, [3], conditioned=False)
    assert np.array_equal(ua, ub)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_loss_identity(seed):
    rng = make_rng(seed)
    config = HyperConfig(lambda_a=float(rng.uniform(0, 0.5)),
                         lambda_n=float(rng.uniform(0, 0.5)),
                         r_n=1.0 / 3.0, latent_dim=15, variant="DA-cAE")
    params = init_params(7, 6, config, seed=seed)
    x = rng.standard_normal((5, 7))
    s = rng.integers(0, 6, size=5)
    total, parts = dacae_loss(params, x, s, config)
    code = encode(params, x)
    recon, _ = mse_loss(decode(params, code, s, conditioned=True), x)
    adv, _ = softmax_cross_entropy(adversary_logits(params, code.z_a), s)
    nui, _ = softmax_cross_entropy(nuisance_logits(params, code.z_n), s)
    expected = recon + config.lambda_n * nui - config.lambda_a * adv
    assert abs(total - expected) <= 1e-12
    assert parts.recon == recon and parts.adv_ce == adv and parts.nui_ce == nui


def test_zero_weights_reduce_to_reconstruction():
    config = HyperConfig(lambda_a=0.0, lambda_n=0.0, r_n=1.0 / 3.0, variant="DA-cAE")
    params = init_params(7, 6, config, seed=5)
    rng = make_rng(5)
    x = rng.standard_normal((10, 7))
    s = rng.integers(0, 6, size=10)
    total, parts = dacae_loss(params, x, s, config)
    assert total == parts.recon


def test_zero_parameters_loss_closed_form():
    config = HyperConfig(lambda_a=0.1, lambda_n=0.01, r_n=1.0 / 3.0, variant="DA-cAE")
    params = init_params(7, 6, config, seed=0)
    for net in params.groups().values():
        for layer in net.layers:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
    x = make_rng(0).standard_normal((4, 7))
    s = np.array([0, 1, 2, 3])
    total, parts = dacae_loss(params, x, s, config)
    chance_ce = np.log(6.0)
    assert parts.recon == pytest.approx(np.mean(x * x), abs=1e-12)
    assert parts.adv_ce == pytest.approx(chance_ce, abs=1e-12)
    assert parts.nui_ce == pytest.approx(chance_ce, abs=1e-12)
    assert total == pytest.approx(np.mean(x * x) + (0.01 - 0.1) * chance_ce, abs=1e-12)


def test_loss_gradient_matches_finite_differences():
    config = HyperConfig(lambda_a=0.2, lambda_n=0.05, r_n=1.0 / 3.0,
                         latent_dim=6, variant="DA-cAE")
    params = init_params(5, 4, config, seed=7)
    rng = make_rng(7)
    x = rng.standard_normal((6, 5))
    s = rng.integers(0, 4, size=6)
    step = 1e-6

    def loss():
        return dacae_loss(params, x, s, config)[0]

    # composite-loss encoder gradient, assembled the same way train_step does
    from dacae.model import decoder_input

    z = params.encoder.forward(x)
    code = split_latent(z, params.d_n)
    x_hat = params.decoder.forward(decoder_input(z, s, 4, True))
    _, gx = mse_loss(x_hat, x)
    dec_grads = params.decoder.backward(gx)
    dz = dec_grads.wrt_input[:, :6].copy()
    _, ga = softmax_cross_entropy(params.adversary.forward(code.z_a), s)
    dz[:, : params.d_a] -= config.lambda_a * params.adversary.backward(ga).wrt_input
    _, gn = softmax_cross_entropy(params.nuisance.forward(code.z_n), s)
    dz[:, params.d_a:] += config.lambda_n * params.nuisance.backward(gn).wrt_input
    params.encoder.forward(x)
    enc_grads = params.encoder.backward(dz)

    for li, layer in enumerate(params.encoder.layers):
        for idx in [(0, 0), (layer.weight.shape[0] - 1, layer.weight.shape[1] - 1)]:
            orig = layer.weight[idx]
            layer.weight[idx] = orig + step
            up = loss()
            layer.weight[idx] = orig - step
            down = loss()
            layer.weight[idx] = orig
            fd = (up - down) / (2 * step)
            assert enc_grads.weights[li][idx] == pytest.approx(fd, abs=1e-6)


def test_variant_loss_matches_plain_autoencoder():
    config = HyperConfig.for_variant("AE", latent_dim=8)
    params = init_params(7, 6, config, seed=11)
    rng = make_rng(11)
    x = rng.standard_normal((9, 7))
    s = rng.integers(0, 6, size=9)
    total, parts = dacae_loss(params, x, s, config)

    z = params.encoder.forward(x)
    padded = np.concatenate([z, np.zeros((9, 6))], axis=1)
    x_hat = params.decoder.forward(padded)
    recon = float(np.mean((x_hat - x) ** 2))
    assert total == pytest.approx(recon, abs=1e-15)
    assert parts.recon == pytest.approx(recon, abs=1e-15)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    config = HyperConfig(lambda_a=0.1, lambda_n=0.01, r_n=1.0 / 3.0,
                         variant="DA-cAE", sgd=SgdConfig(learning_rate=0.05, seed=9))
    params = init_params(7, 6, config, seed=9)
    rng = make_rng(9)
    z = rng.standard_normal((40, 15))
    y = rng.integers(0, 4, size=40)
    clf = classifiers.fit("logreg", z, y)
    norm = (rng.standard_normal(7), np.abs(rng.standard_normal(7)) + 0.1)

    path = tmp_path / "model.npz"
    save_checkpoint(path, params, config, normalization=norm, classifier=clf)
    params2, config2, norm2, clf2 = load_checkpoint(path)

    assert config2 == config
    for g in params.groups():
        for la, lb in zip(params.groups()[g].layers, params2.groups()[g].layers):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
    assert np.array_equal(norm[0], norm2[0]) and np.array_equal(norm[1], norm2[1])
    probe = rng.standard_normal((6, 15))
    assert np.array_equal(clf.decision_scores(probe), clf2.decision_scores(probe))


def test_checkpoint_roundtrip_without_extras(tmp_path):
    config = HyperConfig.for_variant("cAE")
    params = init_params(7, 6, config, seed=1)
    path = tmp_path / "bare.npz"
    save_checkpoint(path, params, config)
    params2, config2, norm2, clf2 = load_checkpoint(path)
    assert norm2 is None and clf2 is None
    assert config2.variant == "cAE"
    x = make_rng(1).standard_normal((3, 7))
    assert np.array_equal(params.encoder.forward(x), params2.encoder.forward(x))


def test_all_variants_share_parameter_shapes():
    shapes = set()
    for variant in VARIANTS:
        config = HyperConfig.for_variant(variant, r_n=1.0 / 3.0)
        params = init_params(7, 6, config, seed=0)
        shapes.add(tuple(l.weight.shape for net in params.groups().values()
                         for l in net.layers))
    assert len(shapes) == 1
