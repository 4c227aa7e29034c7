"""Autoencoder variants: latent split, joint loss, checkpointing."""

import gc
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacae import (
    ConfigError,
    DacaeParams,
    HyperConfig,
    SgdConfig,
    VARIANTS,
    ExperimentConfig,
    build_mlp,
    dacae_loss,
    decoder_input,
    encode,
    init_params,
    load_checkpoint,
    make_rng,
    mse_loss,
    nuisance_dim,
    one_hot_subjects,
    save_checkpoint,
    softmax_cross_entropy,
)
from helpers import copy_params


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


def test_unset_r_n_takes_variant_default():
    defaults = {"AE": 0.0, "cAE": 0.0, "A-cAE": 0.0, "D-cAE": 1.0 / 3.0, "DA-cAE": 1.0 / 3.0}
    for variant in VARIANTS:
        assert HyperConfig(variant=variant).r_n == defaults[variant]
        assert ExperimentConfig().hyper(variant, 0).r_n == defaults[variant]
    assert HyperConfig(variant="DA-cAE").d_n == 5
    assert HyperConfig(variant="DA-cAE").d_a == 10
    # an explicit zero is kept, so None and 0.0 stay distinct
    assert HyperConfig(variant="DA-cAE", r_n=0.0).r_n == 0.0
    with pytest.raises(ConfigError):
        HyperConfig(variant="VAE")


def test_config_validation():
    with pytest.raises(ConfigError):
        HyperConfig(lambda_a=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            HyperConfig(lambda_a=bad)
        with pytest.raises(ConfigError):
            HyperConfig(lambda_n=bad)
    with pytest.raises(ConfigError):
        HyperConfig(r_n=1.0)
    with pytest.raises(ConfigError):
        HyperConfig(latent_dim=0)


@pytest.mark.parametrize("cls, field", [
    (SgdConfig, "batch_size"), (SgdConfig, "epochs"), (SgdConfig, "seed"),
    (HyperConfig, "latent_dim")])
@pytest.mark.parametrize("bad", [True, "4", None, 2.5, np.float64(4.0)],
                         ids=["bool", "str", "none", "fraction", "np-float"])
def test_int_config_fields_reject_other_types(cls, field, bad):
    with pytest.raises(ConfigError, match=f"^{field} must be an int, got "):
        cls(**{field: bad})


@pytest.mark.parametrize("cls, field", [
    (SgdConfig, "learning_rate"), (HyperConfig, "lambda_a"), (HyperConfig, "lambda_n"),
    (HyperConfig, "r_n")])
@pytest.mark.parametrize("bad", [True, "0.1", [0.1]], ids=["bool", "str", "list"])
def test_float_config_fields_reject_other_types(cls, field, bad):
    with pytest.raises(ConfigError, match=f"^{field} must be a number, got "):
        cls(**{field: bad})


def test_config_numeric_fields_take_ints_and_numpy_scalars():
    sgd = SgdConfig(learning_rate=1, batch_size=np.int64(8), epochs=np.int32(2), seed=np.uint8(3))
    assert sgd == SgdConfig(learning_rate=1.0, batch_size=8, epochs=2, seed=3)
    config = HyperConfig(lambda_a=1, lambda_n=np.float64(0.5), r_n=0, latent_dim=np.int64(6),
                         sgd=sgd)
    assert (config.lambda_a, config.lambda_n, config.r_n, config.latent_dim) == (1, 0.5, 0, 6)
    with pytest.raises(ConfigError, match="^sgd must be an SgdConfig, got "):
        HyperConfig(sgd={"epochs": 2})


def test_init_params_shapes():
    config = HyperConfig(variant="DA-cAE", latent_dim=15, r_n=1.0 / 3.0)
    params = init_params(7, 20, config, seed=0)
    assert params.encoder.weights[0].shape == (15, 7)
    assert params.encoder.weights[1].shape == (15, 15)
    assert params.decoder.weights[0].shape == (15, 35)
    assert params.decoder.weights[1].shape == (7, 15)
    assert params.adversary.weights[0].shape == (20, 10)
    assert params.nuisance.weights[0].shape == (20, 5)


def test_init_params_deterministic():
    config = HyperConfig(variant="DA-cAE")
    a = init_params(7, 6, config, seed=3)
    b = init_params(7, 6, config, seed=3)
    for g in a.groups():
        for wa, wb in zip(a.groups()[g].weights, b.groups()[g].weights, strict=True):
            assert np.array_equal(wa, wb)


def test_one_hot_subjects():
    out = one_hot_subjects([2, 0], 4)
    assert np.array_equal(out, [[0, 0, 1, 0], [1, 0, 0, 0]])
    with pytest.raises(ValueError):
        one_hot_subjects([4], 4)
    assert one_hot_subjects(np.zeros(0, dtype=int), 4).shape == (0, 4)
    with pytest.raises(ValueError, match="^subject ids must be whole numbers"):
        one_hot_subjects([2.5, 0.0], 4)  # a cast to intp would set column 2


@pytest.mark.parametrize("s", [[0, -1], [3, 0]], ids=["negative", "not-below-count"])
def test_one_hot_subjects_rejects_out_of_range_ids(s):
    with pytest.raises(ValueError, match=r"^subject index out of range \[0, 3\)$"):
        one_hot_subjects(s, 3)


def test_encode_splits_batch():
    config = HyperConfig(variant="DA-cAE")
    params = init_params(7, 6, config, seed=1)
    x = make_rng(1).standard_normal((8, 7))
    z = encode(params, x)
    assert z[:, : params.d_a].shape == (8, 10)
    assert z[:, params.d_a:].shape == (8, 5)
    assert np.array_equal(z, params.encoder.forward(x))


def test_conditioned_decode_depends_on_subject():
    config = HyperConfig(variant="DA-cAE")
    params = init_params(7, 6, config, seed=2)
    x = make_rng(2).standard_normal((1, 7))
    z = encode(params, x)

    def decode(s, conditioned):
        return params.decoder.forward(decoder_input(z, s, params.n_subjects, conditioned))

    a = decode([0], conditioned=True)
    b = decode([3], conditioned=True)
    assert not np.allclose(a, b)
    ua = decode([0], conditioned=False)
    ub = decode([3], conditioned=False)
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
    z = encode(params, x)
    recon, _ = mse_loss(params.decoder.forward(decoder_input(z, s, 6, True)), x)
    adv, _ = softmax_cross_entropy(params.adversary.forward(z[:, : params.d_a]), s)
    nui, _ = softmax_cross_entropy(params.nuisance.forward(z[:, params.d_a:]), s)
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
        for param in net.weights + net.biases:
            param[:] = 0.0
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
    z = params.encoder.forward(x)
    x_hat = params.decoder.forward(decoder_input(z, s, 4, True))
    _, gx = mse_loss(x_hat, x)
    dec_grads = params.decoder.backward(gx)
    dz = dec_grads.wrt_input[:, :6].copy()
    _, ga = softmax_cross_entropy(params.adversary.forward(z[:, : params.d_a]), s)
    dz[:, : params.d_a] -= config.lambda_a * params.adversary.backward(ga).wrt_input
    _, gn = softmax_cross_entropy(params.nuisance.forward(z[:, params.d_a:]), s)
    dz[:, params.d_a:] += config.lambda_n * params.nuisance.backward(gn).wrt_input
    params.encoder.forward(x)
    enc_grads = params.encoder.backward(dz)

    for li, w in enumerate(params.encoder.weights):
        for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
            orig = w[idx]
            w[idx] = orig + step
            up = loss()
            w[idx] = orig - step
            down = loss()
            w[idx] = orig
            fd = (up - down) / (2 * step)
            assert enc_grads.weights[li][idx] == pytest.approx(fd, abs=1e-6)


def test_variant_loss_matches_plain_autoencoder():
    config = HyperConfig(variant="AE", latent_dim=8)
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
    norm = (rng.standard_normal(7), np.abs(rng.standard_normal(7)) + 0.1)

    path = tmp_path / "model.npz"
    save_checkpoint(path, params, config, normalization=norm)
    params2, config2, norm2 = load_checkpoint(path)

    assert config2 == config
    for g in params.groups():
        net, net2 = params.groups()[g], params2.groups()[g]
        for a, b in zip(net.weights + net.biases, net2.weights + net2.biases, strict=True):
            assert np.array_equal(a, b)
    assert np.array_equal(norm[0], norm2[0]) and np.array_equal(norm[1], norm2[1])


def test_checkpoint_roundtrip_without_extras(tmp_path):
    config = HyperConfig(variant="cAE")
    params = init_params(7, 6, config, seed=1)
    path = tmp_path / "bare.npz"
    save_checkpoint(path, params, config)
    params2, config2, norm2 = load_checkpoint(path)
    assert norm2 is None
    assert config2.variant == "cAE"
    # the variant default was resolved before saving, so a number comes back
    assert isinstance(config2.r_n, float) and config2.r_n == 0.0
    x = make_rng(1).standard_normal((3, 7))
    assert np.array_equal(params.encoder.forward(x), params2.encoder.forward(x))


def test_params_read_dims_off_networks():
    params = init_params(7, 6, HyperConfig(variant="DA-cAE", latent_dim=9), seed=0)
    dims = (params.n_channels, params.latent_dim, params.d_a, params.d_n, params.n_subjects)
    assert dims == (7, 9, 6, 3, 6)
    twin = copy_params(params)
    assert (twin.n_channels, twin.latent_dim, twin.d_a, twin.d_n, twin.n_subjects) == dims
    assert twin.encoder is not params.encoder


@pytest.mark.parametrize("group, dims, message", [
    ("nuisance", [6, 6], "head input dims must split the encoder output dim"),
    ("adversary", [9, 6], "head input dims must split the encoder output dim"),
    ("nuisance", [5, 7], "heads must predict the same subjects"),
    ("decoder", [15, 15, 7], r"decoder input dim must equal latent_dim \+ n_subjects"),
], ids=["nuisance-too-wide", "adversary-too-narrow", "subject-counts-differ",
        "decoder-input-without-condition"])
def test_params_reject_inconsistent_networks(group, dims, message):
    # DA-cAE defaults: 15-wide code split 10 + 5, 6 subjects, 7 channels
    nets = init_params(7, 6, HyperConfig(variant="DA-cAE"), seed=0).groups()
    nets[group] = build_mlp(dims, make_rng(0))
    with pytest.raises(ValueError, match=message):
        DacaeParams(**nets)


def _checkpoint_with_meta(tmp_path, edit, drop=()):
    """A saved DA-cAE checkpoint whose JSON meta has gone through edit(meta), without
    the arrays named in drop."""
    config = HyperConfig(variant="DA-cAE")
    path = tmp_path / "model.npz"
    save_checkpoint(path, init_params(7, 6, config, seed=0), config)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    for name in drop:
        del arrays[name]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return path


@pytest.mark.parametrize("key", ["n_channels", "n_subjects", "latent_dim", "d_n"])
def test_checkpoint_dims_must_match_networks(tmp_path, key):
    def edit(meta):
        meta["dims"][key] += 1

    with pytest.raises(ValueError, match="do not match its networks"):
        load_checkpoint(_checkpoint_with_meta(tmp_path, edit))


def test_all_variants_share_parameter_shapes():
    shapes = set()
    for variant in VARIANTS:
        config = HyperConfig(variant=variant, r_n=1.0 / 3.0)
        params = init_params(7, 6, config, seed=0)
        shapes.add(tuple(w.shape for net in params.groups().values() for w in net.weights))
    assert len(shapes) == 1


@pytest.mark.parametrize("group, layer, activation", [
    ("adversary", 0, "relu"),
    ("encoder", 0, None),
], ids=["relu-on-head-output", "linear-encoder-hidden"])
def test_checkpoint_rejects_other_activations(tmp_path, group, layer, activation):
    def edit(meta):
        stored = meta["layers"][group][layer]["activation"]
        assert stored == ("relu" if activation is None else None)
        meta["layers"][group][layer] = {"activation": activation}

    with pytest.raises(ValueError, match=f"checkpoint group '{group}'"):
        load_checkpoint(_checkpoint_with_meta(tmp_path, edit))


def _empty(tmp_path):
    path = tmp_path / "model.npz"
    path.write_bytes(b"")
    return path


def _truncated(tmp_path):
    path = _checkpoint_with_meta(tmp_path, lambda meta: None)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    return path


def _lone_array(tmp_path):
    path = tmp_path / "model.npy"
    np.save(path, np.zeros(3))
    return path


def _edited(edit=lambda meta: None, drop=()):
    return lambda tmp_path: _checkpoint_with_meta(tmp_path, edit, drop)


@pytest.mark.parametrize("make", [
    _empty, _truncated, _lone_array,
    _edited(drop=("encoder_w0",)),
    _edited(drop=("meta",)),
    _edited(lambda meta: meta.pop("layers")),
    _edited(lambda meta: meta["config"].update(latent_dimension=15)),
    _edited(lambda meta: meta["config"].update(latent_dim="15")),
    _edited(lambda meta: meta["config"]["sgd"].update(epochs=1.5)),
], ids=["empty", "truncated", "lone-npy-array", "missing-array", "missing-meta",
        "missing-layers-key", "unknown-config-field", "string-latent-dim", "fractional-epochs"])
def test_unreadable_checkpoint_raises_value_error_naming_the_path(tmp_path, make):
    path = make(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^bad model checkpoint {re.escape(str(path))}: "):
            load_checkpoint(path)
        gc.collect()  # an unclosed handle warns when it is collected
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
