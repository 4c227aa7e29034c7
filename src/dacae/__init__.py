"""Disentangled adversarial conditional autoencoders for subject-invariant features.

A feature extractor learns a latent code split into a task part z_a, trained
against an adversary that tries to identify the subject, and a nuisance part
z_n that is encouraged to absorb subject identity. Downstream classifiers
trained on the code transfer across subjects; experiments evaluate this
leave-one-subject-out.
"""

from .classifiers import KINDS, accuracy, canonical_kind, fit
from .data import (Dataset, IngestionError, RawTrial, SyntheticSpec, generate_synthetic, ingest,
                   load_csv, load_synthetic_sidecar, loso_splits, normalize, resample_channel,
                   save_csv, save_synthetic, subsample_trials)
from .experiments import (ExperimentConfig, FoldResult, ReportError, holdout_split,
                          load_dataset, report, run_datasize, run_loso, run_sweep, run_table3,
                          summarize)
from .model import (VARIANTS, DacaeParams, HyperConfig, dacae_loss, decoder_input, encode,
                    init_params, load_checkpoint, nuisance_dim, one_hot_subjects,
                    save_checkpoint)
from .nn import (ConfigError, Mlp, MlpGrads, SgdConfig, TrainingDiverged, build_mlp,
                 grad_check, job_seed, make_rng, mse_loss, sgd_step, softmax,
                 softmax_cross_entropy)
from .training import (LAMBDA_A_GRID, LAMBDA_N_GRID, SweepRow, TrainLog, TrainLogRow,
                       fit_feature_extractor, probe_accuracies, train_step, two_stage_sweep)

__version__ = "0.1.0"
