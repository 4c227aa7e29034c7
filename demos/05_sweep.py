"""Two-stage hyperparameter sweep: pick lambda_n with the adversary off,
then freeze it and sweep lambda_a.

Ties within half a point of the best validation accuracy go to the setting
with the wider nuisance-minus-adversary gap, favoring disentangled codes.
"""

import tempfile

from dacae import ExperimentConfig, SyntheticSpec, run_sweep

spec = SyntheticSpec(n_subjects=6, n_classes=4, n_channels=7,
                     samples_per_cell=50, sigma=0.3, seed=0)
with tempfile.TemporaryDirectory(prefix="sweep_demo_") as out:
    config = ExperimentConfig(
        synthetic=spec, sweep_classifier="lda",
        sweep_lambda_n=(0.0, 0.005, 0.01, 0.2),
        sweep_lambda_a=(0.0, 0.01, 0.1, 0.5),
        latent_dim=15, learning_rate=0.1, batch_size=32, epochs=25,
        seed=0, out=out)

    result = run_sweep(config)
    print(f"sweep.csv under {config.out}/sweep\n")
    print(f"{'stage':>5} {'lambda_a':>8} {'lambda_n':>8} {'val acc':>8} "
          f"{'adv':>6} {'nui':>6}")
    for row in result.rows:
        print(f"{row.stage:>5} {row.lambda_a:>8.3f} {row.lambda_n:>8.3f} "
              f"{row.val_task_acc:>8.3f} {row.adversary_acc:>6.3f} "
              f"{row.nuisance_acc:>6.3f}")
    sel = result.selected
    print(f"\nselected: lambda_a={sel.lambda_a} lambda_n={sel.lambda_n} "
          f"val acc {sel.val_task_acc:.3f}")
