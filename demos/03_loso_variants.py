"""Leave-one-subject-out comparison of the five extractor variants.

Every subject takes one turn as the unseen test user. A tight latent width
forces the autoencoder to waste capacity on subject offsets, which is where
decoder conditioning plus the two heads earn their keep.
"""

import tempfile

import numpy as np

from dacae import ExperimentConfig, SyntheticSpec, run_loso

spec = SyntheticSpec(n_subjects=6, n_classes=4, n_channels=7,
                     samples_per_cell=60, trials_per_cell=2,
                     alpha=1.0, beta=2.0, sigma=0.3, seed=0)
with tempfile.TemporaryDirectory(prefix="loso_demo_") as out:
    config = ExperimentConfig(
        synthetic=spec,
        variants=("AE", "cAE", "A-cAE", "D-cAE", "DA-cAE"),
        classifiers=("mlp",),
        lambda_a=0.1, lambda_n=0.01, latent_dim=4,
        learning_rate=0.15, batch_size=16, epochs=30,
        seed=0, out=out)

    results, summary = run_loso(config)
    print(f"results under {config.out}/loso\n")
    print(f"{'variant':<8} {'mean':>6} {'median':>7} {'min':>6} {'max':>6}")
    for row in summary:
        print(f"{row.variant:<8} {row.mean:>6.3f} {row.median:>7.3f} "
              f"{row.min:>6.3f} {row.max:>6.3f}")

    per_subject = {r.subject: r.test_acc for r in results if r.variant == "DA-cAE"}
    print("\nDA-cAE accuracy per held-out subject:",
          {s: round(a, 3) for s, a in sorted(per_subject.items())})
