"""Train an autoencoder and a DA-cAE on synthetic trials, then probe the codes.

The generator mixes a task template and a subject offset into every sample,
so a good feature extractor should keep the task part while the adversary
weight squeezes subject identity out of z_a and the nuisance weight herds
it into z_n.
"""

import numpy as np

from dacae import (HyperConfig, SgdConfig, SyntheticSpec, encode, fit_feature_extractor,
                   generate_synthetic, holdout_split, normalize, probe_accuracies)

spec = SyntheticSpec(n_subjects=6, n_classes=4, n_channels=7,
                     samples_per_cell=100, sigma=0.3, seed=0)
dataset, T, U = generate_synthetic(spec)
print(f"{dataset.x.shape[0]} samples, {spec.n_subjects} subjects, "
      f"{spec.n_classes} classes, chance for subject id "
      f"{1.0 / spec.n_subjects:.3f}")

train_ids, val_ids = holdout_split(dataset, 0.1, seed=0)
dataset = normalize(dataset, train_ids)
train, val = dataset.subset(train_ids), dataset.subset(val_ids)
sgd = SgdConfig(learning_rate=0.1, batch_size=32, epochs=50, seed=0)

for variant, lambda_a, lambda_n in (("AE", 0.0, 0.0), ("DA-cAE", 0.1, 0.01)):
    config = HyperConfig(variant=variant, lambda_a=lambda_a, lambda_n=lambda_n, sgd=sgd)
    params, log = fit_feature_extractor(train, config, val=val)
    adv, nui = probe_accuracies(params, encode(params, val.x), val.s)
    print(f"\n{variant}: lambda_a={lambda_a} lambda_n={lambda_n} "
          f"r_n={config.r_n:.3f}")
    print(f"  final recon loss      {log.rows[-1].recon_loss:.4f}")
    print(f"  adversary probe (val) {adv:.3f}   <- low is good")
    print(f"  nuisance probe (val)  {nui:.3f}   <- high is good")
    print(f"  task readout (val)    {log.rows[-1].val_task_acc:.3f}")
