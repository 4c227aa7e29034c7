"""Check every analytic gradient in the model against finite differences."""

import numpy as np

from dacae import (HyperConfig, build_mlp, dacae_loss, decoder_input, grad_check,
                   init_params, make_rng, mse_loss, softmax_cross_entropy)

# -- each network on its own loss ------------------------------------------------

rng = make_rng(0, 1)
x = rng.standard_normal((8, 7))
target = rng.standard_normal((8, 7))

encoder = build_mlp((7, 15, 15), rng)
code = encoder.forward(x)
head = build_mlp((15, 6), rng)
labels = rng.integers(0, 6, size=8)

loss, grad = mse_loss(encoder.forward(x), np.zeros((8, 15)))
encoder.backward(grad)  # fills the encoder's gradient buffer, which grad_check reads
report = grad_check(encoder, lambda n: mse_loss(n.forward(x), np.zeros((8, 15)))[0])
print(f"encoder    max rel error {report.max_rel_error:.2e}  passed={report.passed}")

loss, grad = softmax_cross_entropy(head.forward(code), labels)
head.backward(grad)
report = grad_check(head, lambda n: softmax_cross_entropy(n.forward(code), labels)[0])
print(f"head       max rel error {report.max_rel_error:.2e}  passed={report.passed}")

# -- the joint loss, all four parameter groups at once -----------------------------

config = HyperConfig(lambda_a=0.2, lambda_n=0.05, r_n=1.0 / 3.0, variant="DA-cAE")
params = init_params(7, 6, config, seed=0)
s = rng.integers(0, 6, size=8)

z = params.encoder.forward(x)
x_hat = params.decoder.forward(decoder_input(z, s, 6, True))
_, gx = mse_loss(x_hat, x)
dz = params.decoder.backward(gx)[:, :15].copy()
_, ga = softmax_cross_entropy(params.adversary.forward(z[:, : params.d_a]), s)
dz[:, : params.d_a] -= config.lambda_a * params.adversary.backward(ga)
_, gn = softmax_cross_entropy(params.nuisance.forward(z[:, params.d_a:]), s)
dz[:, params.d_a:] += config.lambda_n * params.nuisance.backward(gn)
params.encoder.forward(x)
params.encoder.backward(dz)

# every network's buffer holds its own gradient; a head's enters the loss times its weight
for head, weight in ((params.adversary, -config.lambda_a), (params.nuisance, config.lambda_n)):
    for g in head.weight_grads + head.bias_grads:
        g *= weight
for name, net in params.groups().items():
    report = grad_check(net, lambda _n: dacae_loss(params, x, s, config)[0])
    print(f"joint/{name:<9} max rel error {report.max_rel_error:.2e}  "
          f"passed={report.passed}")
