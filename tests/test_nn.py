"""Dense-network engine: layers, losses, SGD, RNG, gradient checking."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacae import (
    ConfigError,
    HyperConfig,
    Mlp,
    SgdConfig,
    TrainingDiverged,
    build_mlp,
    grad_check,
    init_params,
    job_seed,
    make_rng,
    mse_loss,
    sgd_step,
    softmax,
    softmax_cross_entropy,
    train_step,
)
from dacae.nn import _ce_in_place, _ids, _row_max, _row_sum, ce_step, minibatches
from helpers import copy_mlp, copy_params


def test_make_rng_reproducible():
    a = make_rng(7, 1, 2).standard_normal(8)
    b = make_rng(7, 1, 2).standard_normal(8)
    assert np.array_equal(a, b)


def test_make_rng_streams_differ():
    a = make_rng(7, 1).standard_normal(8)
    b = make_rng(7, 2).standard_normal(8)
    assert not np.array_equal(a, b)


def test_job_seed_deterministic_and_distinct():
    assert job_seed(3, 1, 4) == job_seed(3, 1, 4)
    assert job_seed(3, 1, 4) != job_seed(3, 4, 1)
    assert 0 <= job_seed(3, 1, 4) < 2**63


def test_sgd_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SgdConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        SgdConfig(batch_size=0)
    with pytest.raises(ConfigError):
        SgdConfig(epochs=-1)


def test_sgd_config_rejects_a_negative_seed():
    # SeedSequence takes no negative entropy; the config names the field instead
    with pytest.raises(ConfigError, match="^sgd field 'seed' must be >= 0, got -1$"):
        SgdConfig(seed=-1)
    assert SgdConfig(seed=0).seed == 0


def test_build_mlp_glorot_bounds():
    net = build_mlp([30, 20, 5], make_rng(0))
    for (fan_in, fan_out), w, b in zip([(30, 20), (20, 5)], net.weights, net.biases):
        assert w.shape == (fan_out, fan_in)
        assert np.all(np.abs(w) <= np.sqrt(6.0 / (fan_in + fan_out)))
        assert np.all(b == 0.0)


def test_relu_after_every_layer_but_the_last():
    net = build_mlp([1, 1], make_rng(0))
    net.weights[0][:] = [[2.0]]
    net.biases[0][:] = [1.0]
    # a lone layer is the output layer, so it stays linear
    assert np.array_equal(net.forward(np.array([[-3.0]])), [[-5.0]])
    net = build_mlp([1, 1, 1], make_rng(0))
    net.weights[0][:] = [[2.0]]
    net.biases[0][:] = [1.0]
    net.weights[1][:] = [[-1.0]]
    net.biases[1][:] = [0.5]
    assert np.array_equal(net.forward(np.array([[-3.0], [3.0]])), [[0.5], [-6.5]])


def test_mlp_is_batch_only():
    net = build_mlp([3, 4, 2], make_rng(0))
    with pytest.raises(ValueError, match=r"input shape \(3,\)"):
        net.forward(np.zeros(3))
    net.forward(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="upstream grad shape"):
        net.backward(np.zeros(2))
    with pytest.raises(ValueError, match="logits must be"):
        softmax_cross_entropy(np.zeros(2), 0)


@pytest.mark.parametrize("weights, biases, message", [
    ([], [], "0 weights and 0 biases"),
    ([np.zeros((2, 3))], [], "1 weights and 0 biases"),
    ([np.zeros(3)], [np.zeros(3)], r"layer 0: weight shape \(3,\)"),
    ([np.zeros((2, 3))], [np.zeros(3)], r"layer 0: weight shape \(2, 3\) and bias shape \(3,\)"),
    ([np.zeros((2, 3)), np.zeros((1, 4))], [np.zeros(2), np.zeros(1)], "dims mismatch: 2 -> 4"),
], ids=["no-layers", "missing-bias", "flat-weight", "bias-width", "unchained-dims"])
def test_mlp_rejects_inconsistent_arrays(weights, biases, message):
    with pytest.raises(ValueError, match=message):
        Mlp(weights, biases)


def test_forward_deterministic_given_seed():
    x = make_rng(5).standard_normal((4, 6))
    a = build_mlp([6, 15, 3], make_rng(11)).forward(x)
    b = build_mlp([6, 15, 3], make_rng(11)).forward(x)
    assert np.array_equal(a, b)


def test_softmax_cross_entropy_uniform_logits():
    loss, _ = softmax_cross_entropy(np.zeros((1, 20)), np.array([0]))
    assert loss == pytest.approx(2.995732273553991, abs=1e-12)


def test_softmax_cross_entropy_confident_correct():
    loss, _ = softmax_cross_entropy(np.array([[10.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(4.539889921686465e-05, rel=1e-9)


def test_mse_loss_unit_example():
    loss, grad = mse_loss(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]]))
    assert loss == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(grad, [[1.0, 1.0]])


def test_mse_loss_zero_at_target():
    x = make_rng(3).standard_normal((5, 4))
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_sgd_step_hand_example():
    net = build_mlp([1, 1], make_rng(0))
    net.weights[0][:] = [[1.0]]
    net.forward(np.array([[1.0]]))
    net.backward(np.array([[0.5]]))
    assert net.weight_grads[0][0, 0] == pytest.approx(0.5)
    sgd_step(net, SgdConfig(learning_rate=0.1))
    assert net.weights[0][0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_step_zero_gradients_noop():
    net = build_mlp([3, 4, 2], make_rng(2))
    before = [w.copy() for w in net.weights]
    net.forward(np.zeros((1, 3)))
    net.backward(np.zeros((1, 2)))
    sgd_step(net, SgdConfig(learning_rate=0.5))
    for b, w in zip(before, net.weights):
        assert np.array_equal(b, w)


def test_sgd_step_before_any_backward_leaves_params_bitwise():
    # a network's gradient buffer starts at zero, so a step with nothing in it is a no-op
    net = build_mlp([3, 4, 2], make_rng(3))
    stack = Mlp.stack([net, build_mlp([3, 4, 2], make_rng(4))])
    for fresh in (net, stack):
        before = fresh.params.tobytes()
        sgd_step(fresh, SgdConfig(learning_rate=0.5))
        assert fresh.params.tobytes() == before


def _fd_param_grad(net, loss_fn, arr, idx, step=1e-6):
    orig = arr[idx]
    arr[idx] = orig + step
    up = loss_fn(net)
    arr[idx] = orig - step
    down = loss_fn(net)
    arr[idx] = orig
    return (up - down) / (2.0 * step)


def test_backward_matches_finite_differences():
    rng = make_rng(9)
    net = build_mlp([5, 7, 3], make_rng(19))
    x = rng.standard_normal((6, 5))
    target = rng.standard_normal((6, 3))

    def loss_fn(n):
        return mse_loss(n.forward(x), target)[0]

    _, grad = mse_loss(net.forward(x), target)
    net.backward(grad)
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        fd = _fd_param_grad(net, loss_fn, w, (0, 0))
        assert net.weight_grads[li][0, 0] == pytest.approx(fd, abs=1e-6)
        fd = _fd_param_grad(net, loss_fn, b, (b.size - 1,))
        assert net.bias_grads[li][-1] == pytest.approx(fd, abs=1e-6)


def test_grad_check_passes_fresh_net():
    net = build_mlp([4, 15, 3], make_rng(1))
    x = make_rng(1, 1).standard_normal((5, 4))
    y = np.array([0, 1, 2, 0, 1])

    def loss_fn(n):
        return softmax_cross_entropy(n.forward(x), y)[0]

    _, grad = softmax_cross_entropy(net.forward(x), y)
    net.backward(grad)
    report = grad_check(net, loss_fn, tolerance=1e-4)
    assert report.passed
    assert report.max_rel_error < 1e-4


def test_grad_check_catches_sign_flip():
    net = build_mlp([3, 4, 2], make_rng(4))
    x = make_rng(4, 1).standard_normal((5, 3))
    y = np.array([0, 1, 0, 1, 0])

    def loss_fn(n):
        return softmax_cross_entropy(n.forward(x), y)[0]

    _, grad = softmax_cross_entropy(net.forward(x), y)
    net.backward(grad)
    np.negative(net.weight_grads[0], out=net.weight_grads[0])
    report = grad_check(net, loss_fn, tolerance=1e-4)
    assert not report.passed
    assert report.worst_param.startswith("layer0.w")


def test_grad_check_zero_net_zero_error():
    net = build_mlp([2, 2], make_rng(0))
    net.weights[0][:] = 0.0
    x = np.zeros((3, 2))

    def loss_fn(n):
        return mse_loss(n.forward(x), np.zeros((3, 2)))[0]

    _, grad = mse_loss(net.forward(x), np.zeros((3, 2)))
    net.backward(grad)
    report = grad_check(net, loss_fn, tolerance=1e-4)
    assert report.passed
    assert report.max_rel_error == 0.0


def test_grad_check_rejects_a_stack():
    # a stack's layers are strided views of its buffer: perturbing a reshaped copy of
    # one would leave the loss unchanged
    stack = Mlp.stack([build_mlp([3, 2], make_rng(5, r)) for r in range(2)])
    x = make_rng(5, 2).standard_normal((4, 3))
    _, grad = mse_loss(stack.forward(x), np.zeros((2, 4, 2)))
    stack.backward(grad)
    with pytest.raises(ValueError, match=r"^grad_check takes a 2-D network, not a stack with "
                                         r"replica axis \(2,\)$"):
        grad_check(stack, lambda n: 0.0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_softmax_grad_rows_sum_to_zero(seed):
    rng = make_rng(seed)
    logits = rng.standard_normal((4, 6)) * 10.0
    y = rng.integers(0, 6, size=4)
    _, grad = softmax_cross_entropy(logits, y)
    assert np.all(np.abs(grad.sum(axis=1)) < 1e-12)
    onehot = np.zeros((4, 6))
    onehot[np.arange(4), y] = 1.0
    assert np.array_equal(grad, (softmax(logits) - onehot) / 4)


@pytest.mark.parametrize("n, batch_size", [(10, 3), (9, 3), (4, 8), (1, 1)])
def test_minibatches_cover_each_index_once_per_pass_in_permutation_order(n, batch_size):
    rng, replay = make_rng(5, 500), make_rng(5, 500)
    full, short = divmod(n, batch_size)
    x = make_rng(6).standard_normal((n, 3))
    for _ in range(2):
        batches = list(minibatches(rng, batch_size, np.arange(n), x))
        order = replay.permutation(n)
        assert np.array_equal(np.concatenate([ids for ids, _ in batches]), order)
        assert [ids.size for ids, _ in batches] == [batch_size] * full + ([short] if short else [])
        for ids, rows in batches:  # every column's batch holds the same rows
            assert rows.flags.c_contiguous and np.array_equal(rows, x[ids])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_relu_hidden_output_nonnegative(seed):
    net = build_mlp([5, 8, 8, 3], make_rng(seed))
    (w0, w1, w2), (b0, b1, b2) = net.weights, net.biases
    x = make_rng(seed, 1).standard_normal((10, 5)) * 5.0
    h0 = np.maximum(x @ w0.T + b0, 0.0)
    h1 = np.maximum(h0 @ w1.T + b1, 0.0)
    assert np.all(h1 >= 0.0)
    assert np.array_equal(net.forward(x), h1 @ w2.T + b2)


def test_repeated_steps_decrease_fixed_batch_loss():
    rng = make_rng(17)
    x = rng.standard_normal((32, 6))
    y = rng.integers(0, 3, size=32)
    net = build_mlp([6, 15, 3], make_rng(17))
    config = SgdConfig(learning_rate=1e-3)
    losses = []
    for _ in range(10):
        loss, grad = softmax_cross_entropy(net.forward(x), y)
        losses.append(loss)
        net.backward(grad)
        sgd_step(net, config)
    loss, _ = softmax_cross_entropy(net.forward(x), y)
    losses.append(loss)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_training_bit_identical_across_runs():
    def run():
        rng = make_rng(23)
        x = rng.standard_normal((16, 4))
        y = rng.integers(0, 2, size=16)
        net = build_mlp([4, 8, 2], make_rng(23, 1))
        config = SgdConfig(learning_rate=0.01)
        for _ in range(20):
            _, grad = softmax_cross_entropy(net.forward(x), y)
            net.backward(grad)
            sgd_step(net, config)
        return [w.copy() for w in net.weights]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("targets", [[0, -1], [0, 3]], ids=["negative", "not-below-k"])
def test_softmax_cross_entropy_rejects_out_of_range_targets(targets):
    with pytest.raises(ValueError, match="^target class out of range$"):
        softmax_cross_entropy(np.zeros((2, 3)), np.array(targets))


def test_softmax_cross_entropy_rejects_targets_that_are_not_whole_numbers():
    # a cast to intp would truncate them to [0, 2] and return a loss
    with pytest.raises(ValueError, match="^targets must be whole numbers"):
        softmax_cross_entropy(np.zeros((2, 3)), [0.5, 2.7])


def test_ids_pass_an_intp_array_through_and_convert_only_whole_numbers():
    ids = np.arange(4)
    assert _ids(ids, "ids") is ids  # no copy on the per-step path
    for whole in ([0.0, 3.0, -2.0], [2.0**53 - 1], np.array([0, 3], dtype=np.uint8),
                  np.array([0, 2**63 - 1], dtype=np.uint64), np.array([1, 2], dtype=np.float32),
                  [], [[1, 2]]):
        out = _ids(whole, "ids")
        assert out.dtype == np.intp and out.tolist() == np.asarray(whole).tolist()
    for bad in ([0.5], [np.nan], [np.inf], [-np.inf], [True, False], [2**63],
                np.array([2**63], dtype=np.uint64), [2**64], [-1, 2**63], [2.0**63],
                [0.0, 2**53 + 1],  # the list's float64 array rounds the int to 2**53
                ["1"], [None], [1j],
                [10**5000]):  # past Python's 4300-digit limit on int to str
        with pytest.raises(ValueError, match="^ids"):
            _ids(bad, "ids")


def test_losses_reject_an_empty_batch():
    with pytest.raises(ValueError, match="^empty batch$"):
        softmax_cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError, match="^empty batch$"):
        mse_loss(np.zeros((0, 4)), np.zeros((0, 4)))


# -- bitwise oracle ------------------------------------------------------------
# The primitives as they stood before the in-place forward cache, kept verbatim:
# a fresh array per layer and per ReLU, (input, pre-activation) cached per layer,
# the ReLU mask read off z, and np.mean for both losses.

def reference_forward(net, x):
    a, cache = x, []
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        cache.append((a, z))
        a = np.maximum(z, 0.0) if k < len(net.weights) - 1 else z
    return a, cache


def reference_backward(net, cache, g):
    last = len(net.weights) - 1
    w_grads, b_grads = [], []
    for k in range(last, -1, -1):
        a_prev, z = cache[k]
        if k < last:
            g = g * (z > 0)
        w_grads.append(g.T @ a_prev)
        b_grads.append(g.sum(axis=0))
        g = g @ net.weights[k]
    return w_grads[::-1], b_grads[::-1], g


def reference_softmax_ce(logits, t):
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(norm[:, 0]) - shifted[np.arange(n), t]))
    grad = e / norm
    grad[np.arange(n), t] -= 1.0
    grad /= n
    return loss, grad


def reference_mse(x_hat, x):
    diff = x_hat - x
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def reference_sgd(net, w_grads, b_grads, lr):
    for w, b, dw, db in zip(net.weights, net.biases, w_grads, b_grads):
        w -= lr * dw
        b -= lr * db


def reference_ce_step(net, x, t, lr):
    out, cache = reference_forward(net, x)
    loss, grad = reference_softmax_ce(out, t)
    w_grads, b_grads, _ = reference_backward(net, cache, grad)
    reference_sgd(net, w_grads, b_grads, lr)
    return loss


def reference_train_step(params, x, s, config):
    """train_step's three sub-updates, spelled out with the reference primitives."""
    lr, d_a = config.sgd.learning_rate, params.d_a
    z, enc_cache = reference_forward(params.encoder, x)
    adv_ce = reference_ce_step(params.adversary, z[:, :d_a], s, lr)
    nui_ce = reference_ce_step(params.nuisance, z[:, d_a:], s, lr)
    cond = np.zeros((len(s), params.n_subjects))
    cond[np.arange(len(s)), s] = 1.0
    x_hat, dec_cache = reference_forward(params.decoder, np.concatenate([z, cond], axis=1))
    recon, gx = reference_mse(x_hat, x)
    dec_w, dec_b, dec_in = reference_backward(params.decoder, dec_cache, gx)
    dz = dec_in[:, : params.latent_dim].copy()
    out, cache = reference_forward(params.adversary, z[:, :d_a])
    _, ga = reference_softmax_ce(out, s)
    dz[:, :d_a] -= config.lambda_a * reference_backward(params.adversary, cache, ga)[2]
    out, cache = reference_forward(params.nuisance, z[:, d_a:])
    _, gn = reference_softmax_ce(out, s)
    dz[:, d_a:] += config.lambda_n * reference_backward(params.nuisance, cache, gn)[2]
    enc_w, enc_b, _ = reference_backward(params.encoder, enc_cache, dz)
    reference_sgd(params.encoder, enc_w, enc_b, lr)
    reference_sgd(params.decoder, dec_w, dec_b, lr)
    return recon + config.lambda_n * nui_ce - config.lambda_a * adv_ce


@pytest.mark.parametrize("width", [3, 8, 12])
def test_softmax_cross_entropy_matches_reference_in_any_layout(width):
    # numpy's row sum depends on the layout from 8 columns up; the loss keeps the
    # logits' own layout, as the reference's out-of-place arithmetic does
    rng = make_rng(37, width)
    logits = rng.standard_normal((40, width)) * 4.0
    t = rng.integers(0, width, size=40)
    wide = np.zeros((40, 2 * width))
    wide[:, ::2] = logits
    for lg in (logits, np.asfortranarray(logits), wide[:, ::2]):
        loss, grad = softmax_cross_entropy(lg, t)
        want_loss, want_grad = reference_softmax_ce(lg, t)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()


def _assert_same_arrays(net, ref):
    for a, b in zip(net.weights + net.biases, ref.weights + ref.biases, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dims, batch", [([15, 15, 4], 32), ([6, 8, 8, 3], 32), ([10, 6], 64)],
                         ids=["dims0", "dims1", "dims2"])
def test_ce_step_matches_reference_primitives_bitwise(dims, batch):
    # 200 rows: every pass ends on a short batch (8 rows)
    rng = make_rng(31, 7)
    x = rng.standard_normal((200, dims[0])) * 2.0
    y = rng.integers(0, dims[-1], size=200)
    net = build_mlp(dims, make_rng(31, 8))
    ref = copy_mlp(net)
    sgd = SgdConfig(learning_rate=0.05, batch_size=batch)
    batches = make_rng(31, 9)
    steps = 0
    while steps < 200:
        for (idx,) in minibatches(batches, batch, np.arange(len(y))):
            assert ce_step(net, x[idx], y[idx], sgd) == reference_ce_step(ref, x[idx], y[idx], 0.05)
            steps += 1
    _assert_same_arrays(net, ref)


@pytest.mark.parametrize("dims", [[4, 3], [4, 6, 3]])
def test_ce_step_non_finite_gradient_raises_before_any_update(dims):
    net = build_mlp(dims, make_rng(32))
    before = copy_mlp(net)
    x = make_rng(33).standard_normal((8, 4))
    x[2, 1] = np.inf
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged, match="^non-finite gradient in sgd_step$"):
        ce_step(net, x, np.arange(8) % 3, SgdConfig(learning_rate=0.1))
    _assert_same_arrays(net, before)


def test_ce_step_drops_the_forward_cache():
    # a probe's forward pass caches its whole batch; the step must not keep it alive
    net = build_mlp([4, 3], make_rng(34))
    net.forward(make_rng(35).standard_normal((500, 4)))
    ce_step(net, make_rng(36).standard_normal((8, 4)), np.arange(8) % 3, SgdConfig())
    with pytest.raises(RuntimeError, match=r"^backward\(\) called before forward\(\)$"):
        net.backward(np.zeros((8, 3)))


# -- the parameter buffer ------------------------------------------------------
# a network holds its parameters in one flat buffer, with its layers as fixed views
# of it, and steps on gradient and mask buffers of its own.

def _assert_same_params(net, ref):
    for a, b in zip(net.weights + net.biases, ref.weights + ref.biases, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_network_layers_are_fixed_views_of_its_own_buffer():
    rng = make_rng(81)
    x = rng.standard_normal((32, 5)) * 2.0
    t = rng.integers(0, 3, size=32)
    weights = [rng.standard_normal((7, 5)), rng.standard_normal((3, 7))]
    biases = [rng.standard_normal(7), rng.standard_normal(3)]
    kept = [a.copy() for a in weights + biases]
    net = Mlp(weights, biases)
    ref = copy_mlp(net)
    sgd = SgdConfig(learning_rate=0.1)
    for name in ("weights", "biases"):
        with pytest.raises(AttributeError):
            setattr(net, name, [np.zeros_like(a) for a in getattr(net, name)])
        with pytest.raises(TypeError):
            getattr(net, name)[0] = np.zeros_like(getattr(net, name)[0])
    for layer in net.weights + net.biases:
        assert np.shares_memory(layer, net.params)
    for _ in range(2):
        assert ce_step(net, x, t, sgd) == reference_ce_step(ref, x, t, 0.1)
        _assert_same_params(net, ref)
    # the network copied the arrays it was built from: its steps leave them alone
    for a, b in zip(weights + biases, kept, strict=True):
        assert a.tobytes() == b.tobytes()
    # a deep copy and a pickle round trip, of a 2-D network and of a stack, each
    # step a buffer of their own and leave the original's bits alone
    stack = Mlp.stack([net, build_mlp([5, 7, 3], make_rng(83))])
    for original, batch in ((net, x), (stack, np.stack([x, x[::-1]]))):
        for twin in (copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
            before, want = copy_mlp(original), copy_mlp(original)
            assert not np.shares_memory(twin.params, original.params)
            for _ in range(2):
                got = ce_step(twin, batch, t, sgd)
                assert np.array_equal(got, ce_step(want, batch, t, sgd))
                _assert_same_params(twin, want)
            _assert_same_params(original, before)


def test_step_caches_never_share_a_buffer():
    rng = make_rng(84)
    nets = [build_mlp([5, 6, 3], make_rng(85, r)) for r in range(3)]
    stack = Mlp.stack([copy_mlp(net) for net in nets])
    replicas = list(stack.replicas())  # 2-D copies of the stack's rows
    x = rng.standard_normal((3, 16, 5))
    t = rng.integers(0, 3, size=16)
    sgd = SgdConfig(learning_rate=0.1)
    ce_step(stack, x, t, sgd)
    for net, x_r in zip(nets, x):
        ce_step(net, x_r, t, sgd)
    for r in range(3):
        _assert_replica(stack, r, nets[r])
    buffers = [b for net in [stack, *nets, *replicas]
               for b in (net.params, net._grads, net._finite)]
    for i, a in enumerate(buffers):
        for b in buffers[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("replicas", [None, 3], ids=["2d", "R3"])
def test_ce_step_alternating_full_and_short_batches_matches_reference(replicas):
    nets = [build_mlp([6, 8, 4], make_rng(86, r)) for r in range(replicas or 1)]
    refs = [copy_mlp(net) for net in nets]
    net = nets[0] if replicas is None else Mlp.stack(nets)
    rng = make_rng(87)
    sgd = SgdConfig(learning_rate=0.05)
    for n in [32, 5, 32, 1, 32, 31] * 4:
        x = rng.standard_normal((replicas or 1, n, 6)) * 2.0
        t = rng.integers(0, 4, size=n)
        loss = ce_step(net, x[0] if replicas is None else x, t, sgd, np.eye(4)[t])
        want = [reference_ce_step(ref, x_r, t, 0.05) for ref, x_r in zip(refs, x)]
        assert np.atleast_1d(loss).tolist() == want
    if replicas is None:
        _assert_same_params(net, refs[0])
    for r, ref in enumerate(refs if replicas else []):
        _assert_replica(net, r, ref)


@pytest.mark.parametrize("width", [2, 4, 8, 20])  # both branches of _row_max and _row_sum
@pytest.mark.parametrize("replicas", [None, 3], ids=["2d", "R3"])
def test_loss_free_ce_step_matches_the_loss_step_bitwise(replicas, width):
    nets = [build_mlp([6, 8, width], make_rng(88, r)) for r in range(replicas or 1)]
    net = nets[0] if replicas is None else Mlp.stack(nets)
    ref = copy_mlp(net)
    rng = make_rng(89, width)
    sgd = SgdConfig(learning_rate=0.05)
    for n in [32, 5, 32, 1, 31] * 3:
        x = rng.standard_normal((n, 6) if replicas is None else (replicas, n, 6)) * 2.0
        t = rng.integers(0, width, size=n)
        onehot = np.eye(width)[t]
        assert ce_step(net, x, None, sgd, onehot) is None
        ce_step(ref, x, t, sgd, onehot)
        for a, b in zip(net.weights + net.biases, ref.weights + ref.biases, strict=True):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("width", range(1, 21))
def test_ce_in_place_without_targets_leaves_the_same_gradient(width):
    rng = make_rng(90, width)
    logits = rng.standard_normal((2, 40, width)) * 4.0
    t = rng.integers(0, width, size=40)
    onehot = np.eye(width)[t]
    for lg in (logits[0], logits):
        with_loss, without = lg.copy(), lg.copy()
        _ce_in_place(with_loss, t, onehot)
        assert _ce_in_place(without, None, onehot) is None
        assert without.tobytes() == with_loss.tobytes()


@pytest.mark.parametrize("replicas", [None, 3], ids=["2d", "R3"])
def test_loss_free_ce_step_checks_the_gradient_before_any_update(replicas):
    nets = [build_mlp([4, 6, 3], make_rng(91, r)) for r in range(replicas or 1)]
    net = nets[0] if replicas is None else Mlp.stack(nets)
    before = copy_mlp(net)
    x = make_rng(92).standard_normal((replicas or 1, 8, 4))
    x[-1, 1, 0] = np.nan  # only the last replica's batch
    t = np.arange(8) % 3
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged, match="^non-finite gradient in sgd_step$"):
        ce_step(net, x[0] if replicas is None else x, None, SgdConfig(learning_rate=0.1),
                np.eye(3)[t])
    _assert_same_arrays(net, before)


def test_train_step_matches_reference_primitives_bitwise():
    config = HyperConfig(lambda_a=0.2, lambda_n=0.5, latent_dim=6, variant="DA-cAE",
                         sgd=SgdConfig(learning_rate=0.1, batch_size=64))
    params = init_params(5, 4, config, seed=13)
    ref = copy_params(params)
    rng = make_rng(13, 1)
    for _ in range(50):
        x = rng.standard_normal((64, 5)) * 2.0
        s = rng.integers(0, 4, size=64)
        total, _ = train_step(params, x, s, config)
        assert total == reference_train_step(ref, x, s, config)
    for name, net in params.groups().items():
        _assert_same_arrays(net, ref.groups()[name])


@pytest.mark.parametrize("dims", [[4, 3], [4, 6, 6, 3]])
def test_forward_and_backward_leave_their_inputs_unchanged(dims):
    rng = make_rng(41)
    x = rng.standard_normal((9, 4)) * 3.0
    x[2, 1] = np.nan  # relu(nan) is nan, so the mask is 0 there exactly as z > 0 is
    upstream = rng.standard_normal((9, 3))
    x0, upstream0 = x.copy(), upstream.copy()
    net = build_mlp(dims, make_rng(42))
    out = net.forward(x)
    want_out, cache = reference_forward(net, x0)
    want = reference_backward(net, cache, upstream0)
    for _ in range(2):  # the cache survives a backward pass
        wrt_input = net.backward(upstream)
        assert np.array_equal(x, x0, equal_nan=True)
        assert np.array_equal(upstream, upstream0)
        assert np.array_equal(out, want_out, equal_nan=True)
        for a, b in zip([*net.weight_grads, *net.bias_grads, wrt_input],
                        [*want[0], *want[1], want[2]], strict=True):
            assert np.array_equal(a, b, equal_nan=True)
    # the cross-entropy works on its own copy of the logits, in either layout
    for logits in (out, np.asfortranarray(out)):
        before = logits.copy()
        softmax_cross_entropy(logits, np.arange(9) % 3)
        assert np.array_equal(logits, before, equal_nan=True)


# -- column-wise softmax -------------------------------------------------------
# softmax runs class-major, as the linear fits do; these pin it and the row
# reductions to numpy's own and to the broadcast form on every width a head can have.

def reference_softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _special_rows(width, rng):
    """Rows of NaN, +-inf and +-0 mixed with finite values of every magnitude."""
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])
    rows = rng.choice(special, size=(400, width))
    finite = rng.standard_normal((100, width)) * 10.0 ** rng.integers(-300, 300, (100, 1))
    return np.vstack([rows, finite, np.full((1, width), -0.0), np.full((1, width), 0.0)])


def _assert_same_bits(got, want):
    """Equal bit patterns, except that a NaN may be either NaN."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@pytest.mark.parametrize("width", range(1, 21))
def test_row_max_matches_np_max_bitwise(width):
    rng = make_rng(51, width)
    a = _special_rows(width, rng)
    for layout in (a, np.asfortranarray(a)):
        got, want = _row_max(layout), np.max(layout, axis=-1)
        assert np.array_equal(got, want, equal_nan=True)
        if width < 8:  # from 8 up numpy's 8-lane max may give a zero max either sign
            _assert_same_bits(got, want)
        else:
            _assert_same_bits(got[want != 0.0], want[want != 0.0])


@pytest.mark.parametrize("width", range(1, 21))
def test_row_sum_matches_np_sum_bitwise(width):
    rng = make_rng(52, width)
    logits = _special_rows(width, rng)
    with np.errstate(invalid="ignore", over="ignore"):
        # 0, +inf, NaN and everything between
        e = np.exp(logits - 300.0 * rng.standard_normal(logits.shape))
    _assert_same_bits(_row_sum(e), e.sum(axis=-1))


@pytest.mark.parametrize("width", range(1, 21))
def test_softmax_matches_broadcast_form_bitwise(width):
    rng = make_rng(53, width)
    logits = rng.standard_normal((300, width)) * 10.0 ** rng.integers(-3, 4, (300, 1))
    _assert_same_bits(softmax(logits), reference_softmax(logits))
    special = _special_rows(width, rng)  # zero maxima of either sign included
    with np.errstate(invalid="ignore"):
        _assert_same_bits(softmax(special), reference_softmax(special))


@pytest.mark.parametrize("width", range(1, 21))
def test_softmax_of_class_major_logits_matches_row_major_bitwise(width):
    # from 8 columns up the row sum must be numpy's pairwise sum of C-ordered rows,
    # whatever the logits' layout
    rng = make_rng(54, width)
    finite = rng.standard_normal((300, width)) * 10.0 ** rng.integers(-3, 4, (300, 1))
    for logits in (finite, _special_rows(width, rng)):
        wide = np.zeros((logits.shape[0], 2 * width))
        wide[:, ::2] = logits
        with np.errstate(invalid="ignore"):
            want = softmax(logits)
            got = softmax(np.asfortranarray(logits))
            strided = softmax(wide[:, ::2])
        assert got.flags.f_contiguous
        _assert_same_bits(got, want)
        _assert_same_bits(strided, want)


@pytest.mark.parametrize("row", [[np.inf, 1.0], [-np.inf, -np.inf, -np.inf], [np.inf, np.inf]])
def test_softmax_raises_the_broadcast_forms_error(row):
    logits = np.array([[0.0] * len(row), row])
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError) as want:
            reference_softmax(logits)
        with pytest.raises(FloatingPointError, match=f"^{want.value}$"):
            softmax(logits)


def _class_axis_layouts(a):
    """a (C-ordered, 2-D or with a leading replica axis) as C-, F-ordered and strided arrays."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    wide[..., ::2] = a
    return {"C": a, "F": np.asfortranarray(a), "strided": wide[..., ::2]}


@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "R-n-k"])
@pytest.mark.parametrize("width", range(1, 21))
def test_class_axis_helpers_match_numpys_reduce_in_every_layout(width, stacked):
    # the column chains below 8 classes and numpy's reduce from 8 up, on the axis
    # softmax and _ce_in_place reduce, for every layout that reaches them
    rng = make_rng(55, width, stacked)
    a = _special_rows(width, rng)
    if stacked:
        a = a[: 500].reshape(5, 100, width)
    with np.errstate(invalid="ignore", over="ignore"):
        e = np.exp(a - 300.0 * rng.standard_normal(a.shape))  # 0, +inf, NaN and between
    for name, layout in _class_axis_layouts(a).items():
        got, want = _row_max(layout), np.maximum.reduce(layout, axis=-1)
        assert got.shape == want.shape, name
        _assert_same_bits(got, want)
    # then finite values of one magnitude, whose sum's bits show the order of the adds
    for values in (e, np.exp(rng.standard_normal(a.shape))):
        for name, layout in _class_axis_layouts(values).items():
            got, want = _row_sum(layout), np.add.reduce(layout, axis=-1)
            assert got.shape == want.shape, name
            _assert_same_bits(got, want)


@pytest.mark.parametrize("width", range(1, 21))
def test_ce_in_place_of_a_stack_matches_each_replicas_reference_bitwise(width):
    rng = make_rng(56, width)
    finite = rng.standard_normal((5, 64, width)) * 10.0 ** rng.integers(-3, 4, (5, 64, 1))
    special = _special_rows(width, rng)[:500].reshape(5, 100, width)
    for logits in (finite, special):
        t = rng.integers(0, width, size=logits.shape[1])
        grad = logits.copy()
        with np.errstate(invalid="ignore"):
            loss = _ce_in_place(grad, t, np.eye(width)[t])
            for r in range(len(logits)):
                want_loss, want_grad = reference_softmax_ce(logits[r], t)
                _assert_same_bits(loss[r:r + 1], np.array([want_loss]))
                _assert_same_bits(grad[r], want_grad)


def indexed_ce_in_place(logits, targets):
    """_ce_in_place as it stood before the one-hot: 1.0 subtracted at each target by index."""
    n = logits.shape[-2]
    rows = np.arange(n)
    logits -= _row_max(logits)[..., None]
    picked = logits[..., rows, targets]
    np.exp(logits, out=logits)
    norm = _row_sum(logits)
    loss = np.add.reduce(np.log(norm) - picked, axis=-1) / n
    logits /= norm[..., None]
    logits[..., rows, targets] -= 1.0
    logits /= n
    return loss


@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "R5"])
@pytest.mark.parametrize("width", range(1, 21))
def test_ce_in_place_with_the_one_hot_matches_the_indexed_form_bitwise(width, stacked):
    rng = make_rng(57, width, stacked)
    finite = rng.standard_normal((500, width)) * 10.0 ** rng.integers(-3, 4, (500, 1))
    special = _special_rows(width, rng)[:500]
    # the identity the one-hot rests on: x - 0.0 is x, bit for bit, signed zeros included
    values = np.append(special, [-0.0, 0.0, -np.nan, np.nan])
    assert (values - 0.0).tobytes() == values.tobytes()
    for logits in (finite, special):
        if stacked:
            logits = logits.reshape(5, 100, width)
        t = rng.integers(0, width, size=logits.shape[-2])
        got, want = logits.copy(), logits.copy()
        with np.errstate(invalid="ignore", over="ignore"):
            got_loss = _ce_in_place(got, t, np.eye(width)[t])
            want_loss = indexed_ce_in_place(want, t)
        assert got.tobytes() == want.tobytes()
        assert np.asarray(got_loss).tobytes() == np.asarray(want_loss).tobytes()


@pytest.mark.parametrize("row", [[np.inf, 1.0], [-np.inf, -np.inf, -np.inf], [np.inf, np.inf],
                                 [np.inf] + [1.0] * 9],
                         ids=["inf", "all-neg-inf", "two-inf", "wide"])
def test_ce_in_place_raises_the_reference_error(row):
    logits = np.array([[0.0] * len(row), row])
    t = np.array([0, 1])
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError) as want:
            reference_softmax_ce(logits, t)
        with pytest.raises(FloatingPointError, match=f"^{want.value}$"):
            _ce_in_place(logits.copy(), t, np.eye(len(row))[t])


@pytest.mark.parametrize("shape", [(), (4,), (2, 0), (0, 0), (2, 3, 4)])
def test_softmax_is_batch_only(shape):
    with pytest.raises(ValueError, match=rf"got shape \({', '.join(map(str, shape))},?\)"):
        softmax(np.zeros(shape))


# -- replica stacks ------------------------------------------------------------
# A stack's arrays carry a leading replica axis; replica r must compute exactly
# what its own 2-D network computes.

def _assert_replica(stack, r, net):
    for a, b in zip(stack.weights + stack.biases, net.weights + net.biases, strict=True):
        _assert_same_bits(a[r], b)


@pytest.mark.parametrize("dims, n", [([5, 15, 4], 64), ([6, 8, 8, 3], 1), ([3, 1], 7),
                                     ([1, 4, 2], 13)], ids=["head", "one-row", "one-out", "one-in"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-input", "own-input"])
def test_stacked_primitives_match_each_replica_bitwise(dims, n, shared):
    replicas = 3
    nets = [build_mlp(dims, make_rng(61, r)) for r in range(replicas)]
    stack = Mlp.stack([copy_mlp(net) for net in nets])
    rng = make_rng(62, n)
    x = rng.standard_normal((n, dims[0]) if shared else (replicas, n, dims[0]))
    xs = [x if shared else x[r] for r in range(replicas)]
    t = rng.integers(0, dims[-1], size=n)
    target = rng.standard_normal((n, dims[-1]))
    sgd = SgdConfig(learning_rate=0.1)

    out = stack.forward(x)
    ce, ce_grad = softmax_cross_entropy(out, t)
    mse, mse_grad = mse_loss(out, target)
    wrt_input = stack.backward(ce_grad + mse_grad)
    grads = [g.copy() for g in [*stack.weight_grads, *stack.bias_grads, wrt_input]]
    sgd_step(stack, sgd)
    assert ce.shape == mse.shape == (replicas,)
    for r, net in enumerate(nets):
        out_r = net.forward(xs[r])
        _assert_same_bits(out[r], out_r)
        ce_r, ce_grad_r = softmax_cross_entropy(out_r, t)
        mse_r, mse_grad_r = mse_loss(out_r, target)
        assert (ce[r], mse[r]) == (ce_r, mse_r)
        _assert_same_bits(ce_grad[r], ce_grad_r)
        _assert_same_bits(mse_grad[r], mse_grad_r)
        wrt_input_r = net.backward(ce_grad_r + mse_grad_r)
        for a, b in zip(grads, [*net.weight_grads, *net.bias_grads, wrt_input_r], strict=True):
            _assert_same_bits(a[r], b)
        sgd_step(net, sgd)
        _assert_replica(stack, r, net)

    for _ in range(3):
        losses = ce_step(stack, x, t, sgd)
        assert [ce_step(net, x_r, t, sgd) for net, x_r in zip(nets, xs)] == list(losses)
    for r, net in enumerate(nets):
        _assert_replica(stack, r, net)


def test_stacked_steps_check_every_replica_before_any_update():
    nets = [build_mlp([4, 6, 3], make_rng(63, r)) for r in range(3)]
    stack = Mlp.stack(nets)
    before = copy_mlp(stack)
    x = make_rng(64).standard_normal((3, 8, 4))
    x[2, 1, 0] = np.inf  # only the last replica's batch
    t = np.arange(8) % 3
    sgd = SgdConfig(learning_rate=0.1)
    with np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged, match="^non-finite gradient in sgd_step$"):
        ce_step(stack, x, t, sgd)
    _assert_same_arrays(stack, before)
    # sgd_step likewise checks every layer of every replica before it updates the first
    _, grad = softmax_cross_entropy(stack.forward(x[:, :1]), t[:1])
    stack.backward(grad)
    stack.bias_grads[-1][2, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="^non-finite gradient in sgd_step$"):
        sgd_step(stack, sgd)
    _assert_same_arrays(stack, before)


@pytest.mark.parametrize("replicas", [1, 3])
def test_stack_splits_back_into_fresh_copies_of_its_networks(replicas):
    nets = [build_mlp([5, 7, 3], make_rng(93, r)) for r in range(replicas)]
    stack = Mlp.stack(nets)
    before = copy_mlp(stack)
    # one flat run per replica, in a 2-D network's layout
    assert [row.tobytes() for row in stack.params] == [net.params.tobytes() for net in nets]
    got = list(stack.replicas())
    assert [net.params.tobytes() for net in got] == [net.params.tobytes() for net in nets]
    for net in got + nets:  # the stack and its replicas are copies: writes stay put
        assert net.params.shape == nets[0].params.shape
        net.params[...] = 0.0
    _assert_same_params(stack, before)
    # a 2-D network is its own single replica
    assert [net is nets[0] for net in nets[0].replicas()] == [True]


def test_stack_layers_share_one_replica_axis():
    with pytest.raises(ValueError, match=r"layer 1: replica axis \(2,\), not layer 0's \(3,\)"):
        Mlp([np.zeros((3, 2, 4)), np.zeros((2, 1, 2))], [np.zeros((3, 2)), np.zeros((2, 1))])
    with pytest.raises(ValueError, match=r"^cannot stack networks of weight shapes "
                                         r"\[\(\(2, 4\),\), \(\(3, 4\),\)\]$"):
        Mlp.stack([build_mlp([4, 2], make_rng(65)), build_mlp([4, 3], make_rng(65))])
    with pytest.raises(ValueError, match=r"^cannot stack networks of weight shapes \[\]$"):
        Mlp.stack([])
    with pytest.raises(ValueError, match=r"input shape \(2, 5, 3, 4\)"):
        Mlp.stack([build_mlp([4, 2], make_rng(65))] * 2).forward(np.zeros((2, 5, 3, 4)))
    with pytest.raises(ValueError, match=r"input shape \(2, 5, 4\)"):
        build_mlp([4, 2], make_rng(65)).forward(np.zeros((2, 5, 4)))


def test_stack_backward_shares_a_2d_upstream_grad_across_replicas():
    nets = [build_mlp([4, 6, 3], make_rng(66, r)) for r in range(2)]
    stack = Mlp.stack([copy_mlp(net) for net in nets])
    x = make_rng(67).standard_normal((5, 4))
    upstream = make_rng(68).standard_normal((5, 3))
    stack.forward(x)
    wrt_input = stack.backward(upstream)
    for r, net in enumerate(nets):
        net.forward(x)
        wrt_input_r = net.backward(upstream)
        for a, b in zip([*stack.weight_grads, *stack.bias_grads, wrt_input],
                        [*net.weight_grads, *net.bias_grads, wrt_input_r], strict=True):
            _assert_same_bits(a[r], b)
    sgd_step(stack, SgdConfig())  # every gradient has its parameter's shape
