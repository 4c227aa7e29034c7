"""Dense-network engine: layers, losses, SGD, RNG, gradient checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dacae import (
    ConfigError,
    SgdConfig,
    build_mlp,
    grad_check,
    init_dense,
    job_seed,
    make_rng,
    mse_loss,
    sgd_step,
    softmax,
    softmax_cross_entropy,
)
from dacae.nn import minibatches


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


def test_init_dense_glorot_bounds():
    layer = init_dense(30, 20, make_rng(0))
    bound = np.sqrt(6.0 / 50.0)
    assert layer.weight.shape == (20, 30)
    assert np.all(np.abs(layer.weight) <= bound)
    assert np.all(layer.bias == 0.0)


def test_single_layer_relu_forward():
    net = build_mlp([1, 1], make_rng(0))
    net.layers[0].weight[:] = [[2.0]]
    net.layers[0].bias[:] = [1.0]
    net.layers[0].activation = "relu"
    assert np.array_equal(net.forward(np.array([[-3.0]])), [[0.0]])
    assert np.array_equal(net.forward(np.array([[3.0]])), [[7.0]])


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
    net.layers[0].weight[:] = [[1.0]]
    net.forward(np.array([[1.0]]))
    grads = net.backward(np.array([[0.5]]))
    assert grads.weights[0][0, 0] == pytest.approx(0.5)
    sgd_step(net, grads, SgdConfig(learning_rate=0.1))
    assert net.layers[0].weight[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_step_zero_gradients_noop():
    net = build_mlp([3, 4, 2], make_rng(2))
    before = [l.weight.copy() for l in net.layers]
    net.forward(np.zeros((1, 3)))
    grads = net.backward(np.zeros((1, 2)))
    sgd_step(net, grads, SgdConfig(learning_rate=0.5))
    for b, l in zip(before, net.layers):
        assert np.array_equal(b, l.weight)


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
    grads = net.backward(grad)
    for li, layer in enumerate(net.layers):
        fd = _fd_param_grad(net, loss_fn, layer.weight, (0, 0))
        assert grads.weights[li][0, 0] == pytest.approx(fd, abs=1e-6)
        fd = _fd_param_grad(net, loss_fn, layer.bias, (layer.bias.size - 1,))
        assert grads.biases[li][-1] == pytest.approx(fd, abs=1e-6)


def test_grad_check_passes_fresh_net():
    net = build_mlp([4, 15, 3], make_rng(1))
    x = make_rng(1, 1).standard_normal((5, 4))
    y = np.array([0, 1, 2, 0, 1])

    def loss_fn(n):
        return softmax_cross_entropy(n.forward(x), y)[0]

    _, grad = softmax_cross_entropy(net.forward(x), y)
    report = grad_check(net, loss_fn, net.backward(grad), tolerance=1e-4)
    assert report.passed
    assert report.max_rel_error < 1e-4


def test_grad_check_catches_sign_flip():
    net = build_mlp([3, 4, 2], make_rng(4))
    x = make_rng(4, 1).standard_normal((5, 3))
    y = np.array([0, 1, 0, 1, 0])

    def loss_fn(n):
        return softmax_cross_entropy(n.forward(x), y)[0]

    _, grad = softmax_cross_entropy(net.forward(x), y)
    grads = net.backward(grad)
    grads.weights[0] = -grads.weights[0]
    report = grad_check(net, loss_fn, grads, tolerance=1e-4)
    assert not report.passed
    assert report.worst_param.startswith("layer0.w")


def test_grad_check_zero_net_zero_error():
    net = build_mlp([2, 2], make_rng(0))
    net.layers[0].weight[:] = 0.0
    x = np.zeros((3, 2))

    def loss_fn(n):
        return mse_loss(n.forward(x), np.zeros((3, 2)))[0]

    _, grad = mse_loss(net.forward(x), np.zeros((3, 2)))
    report = grad_check(net, loss_fn, net.backward(grad), tolerance=1e-4)
    assert report.passed
    assert report.max_rel_error == 0.0


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
    for _ in range(2):
        batches = list(minibatches(rng, n, batch_size))
        assert np.array_equal(np.concatenate(batches), replay.permutation(n))
        assert [b.size for b in batches] == [batch_size] * full + ([short] if short else [])


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_relu_hidden_output_nonnegative(seed):
    net = build_mlp([5, 8, 8], make_rng(seed))
    net.layers[-1].activation = "relu"
    x = make_rng(seed, 1).standard_normal((10, 5)) * 5.0
    assert np.all(net.forward(x) >= 0.0)


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
        sgd_step(net, net.backward(grad), config)
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
            sgd_step(net, net.backward(grad), config)
        return [l.weight.copy() for l in net.layers]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)
