"""Accuracy versus training-set size, with splits and seeds held fixed.

Fraction 1.0 reproduces the plain LOSO numbers; smaller fractions drop
whole trials from each training split only, so every variant sees the
same shrunken data.
"""

import tempfile

from dacae import ExperimentConfig, SyntheticSpec, run_datasize

spec = SyntheticSpec(n_subjects=4, n_classes=3, n_channels=7,
                     samples_per_cell=40, trials_per_cell=8,
                     alpha=1.0, beta=2.0, sigma=0.3, seed=1)
with tempfile.TemporaryDirectory(prefix="datasize_demo_") as out:
    config = ExperimentConfig(
        synthetic=spec, variants=("AE", "DA-cAE"), classifiers=("lda",),
        lambda_a=0.1, lambda_n=0.01, latent_dim=4,
        learning_rate=0.15, batch_size=16, epochs=20,
        fractions=(0.5, 0.75, 1.0),
        seed=1, out=out)

    curve, _ = run_datasize(config)
    print(f"curve.csv under {config.out}/datasize\n")
    print(f"{'fraction':>8} {'variant':<8} {'mean acc':>8}")
    for row in curve:
        print(f"{row.fraction:>8.2f} {row.variant:<8} {row.mean_acc:>8.3f}")
