"""Experiment orchestration: LOSO evaluation, parameter tables, size curves, reports.

Every run is a list of independent fold jobs executed inline or in a process
pool; job seeds derive from the master seed and the job's grid position, and
outputs are written in fixed job order, so the emitted tree is byte-identical
for any worker count. A fold whose extractor or classifier fails is recorded
as failed and the run continues; the caller decides the exit status from the
failure count.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import classifiers
from .data import (Dataset, SplitPlan, SyntheticSpec, generate_synthetic, holdout_split,
                   load_csv, loso_splits, normalize, subsample_trials, write_csv)
from .model import VARIANTS, HyperConfig, encode
from .nn import ConfigError, SgdConfig, TrainingDiverged, job_seed
from .training import (LAMBDA_A_GRID, LAMBDA_N_GRID, SweepResult, TrainLog,
                       fit_feature_extractor, probe_accuracies, two_stage_sweep)


class ReportError(RuntimeError):
    """Missing or corrupt result files during report generation."""


# Parameter-impact row set: two unregularized baselines, a nuisance-weight
# column, then an adversary-weight column at the winning nuisance weight.
TABLE3_ROWS: tuple[tuple[str, float, float], ...] = (
    ("AE", 0.0, 0.0),
    ("cAE", 0.0, 0.0),
    ("D-cAE", 0.0, 0.005),
    ("D-cAE", 0.0, 0.01),
    ("D-cAE", 0.0, 0.2),
    ("D-cAE", 0.0, 0.5),
    ("DA-cAE", 0.01, 0.005),
    ("DA-cAE", 0.1, 0.005),
    ("DA-cAE", 0.2, 0.005),
    ("DA-cAE", 0.5, 0.005),
)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; a nested dataclass checks its own object."""
    if isinstance(hint, UnionType):
        return any(_has_type(value, arm) for arm in get_args(hint))
    if get_origin(hint) is tuple:  # tuple[X, ...] arrives as a JSON array
        return isinstance(value, list) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if is_dataclass(hint):
        return True
    if hint is float:  # finite only: JSON's NaN and Infinity literals and 1e999 parse too
        return isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= sys.float_info.max
    return isinstance(value, hint) and not isinstance(value, bool)  # no field is a bool


def _from_object(cls, raw, what: str):
    """Build the dataclass cls from a JSON object, rejecting keys that are not its fields
    and values that do not fit their field types."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}")
    for name, hint in get_type_hints(cls).items():
        if name in raw and not _has_type(raw[name], hint):
            expected = (hint.__name__ if type(hint) is type else str(hint)).replace(
                "float", "finite float")
            raise ConfigError(f"{what} field {name!r} must be {expected}, got {raw[name]!r}")
    return cls(**raw)


@dataclass
class ExperimentConfig:
    """Everything one experiment needs: data source, model grid, optimizer, I/O."""

    dataset: str | None = None          # interchange CSV; None generates synthetic data
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    variants: tuple[str, ...] = VARIANTS
    classifiers: tuple[str, ...] = classifiers.KINDS
    lambda_a: float = 0.1
    lambda_n: float = 0.01
    r_n: float | None = None            # None: per-variant default ratio
    latent_dim: int = 15
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 50
    val_fraction: float = 0.1
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    sweep_classifier: str = "mlp"
    sweep_lambda_n: tuple[float, ...] = LAMBDA_N_GRID
    sweep_lambda_a: tuple[float, ...] = LAMBDA_A_GRID
    seed: int = 0
    jobs: int = 1
    out: str = "out"

    def __post_init__(self) -> None:
        if not isinstance(self.synthetic, SyntheticSpec):
            self.synthetic = _from_object(SyntheticSpec, self.synthetic, "synthetic")
        self.variants = tuple(self.variants)
        self.classifiers = tuple(classifiers.canonical_kind(k) for k in self.classifiers)
        self.sweep_classifier = classifiers.canonical_kind(self.sweep_classifier)
        self.fractions = tuple(float(f) for f in self.fractions)
        if not self.fractions or any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ConfigError(f"fractions must be in (0, 1], got {self.fractions}")
        self.sweep_lambda_n = tuple(float(v) for v in self.sweep_lambda_n)
        self.sweep_lambda_a = tuple(float(v) for v in self.sweep_lambda_a)
        # each entry names an output directory or a sweep point, so a repeat would
        # merge or overwrite results, or train the same point twice, and an empty
        # list would run nothing
        for name in ("variants", "classifiers", "fractions", "sweep_lambda_n", "sweep_lambda_a"):
            values = getattr(self, name)
            if not values and name != "fractions":
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"duplicate {name} in {values}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for v in self.variants:  # validates every extractor field eagerly
            self.hyper(v, 0)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return _from_object(cls, raw, "config")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError as err:
            raise ConfigError(f"config file {path} does not exist") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
        return cls.from_dict(raw)

    def hyper(self, variant: str, seed: int) -> HyperConfig:
        """The one place an experiment becomes an extractor config; runs differ by replace()."""
        return HyperConfig(
            variant=variant, lambda_a=self.lambda_a, lambda_n=self.lambda_n, r_n=self.r_n,
            latent_dim=self.latent_dim,
            sgd=SgdConfig(learning_rate=self.learning_rate, batch_size=self.batch_size,
                          epochs=self.epochs, seed=seed))


def load_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset:
        path = Path(config.dataset)
        if not path.exists():
            raise ConfigError(f"dataset path {path} does not exist")
        return load_csv(path)
    return generate_synthetic(config.synthetic)[0]


@dataclass
class FoldResult:
    subject: int
    variant: str
    classifier: str
    status: str            # "done" or "failed"
    test_acc: float
    adversary_acc: float
    nuisance_acc: float
    lambda_a: float
    lambda_n: float
    r_n: float
    error: str = ""


FOLD_HEADER = tuple(f.name for f in fields(FoldResult))
_FOLD_TYPES = get_type_hints(FoldResult)  # every field is int, float or str


@dataclass
class SummaryRow:
    variant: str
    classifier: str
    mean: float
    median: float
    q1: float
    q3: float
    min: float
    max: float
    folds: int             # completed folds behind the statistics
    failed: int


SUMMARY_HEADER = tuple(f.name for f in fields(SummaryRow))


@dataclass
class _FoldJob:
    subdir: str                  # output directory under the experiment root
    variant: str
    hyper: HyperConfig
    plan: SplitPlan
    kinds: tuple[str, ...]
    clf_seeds: tuple[int, ...]


# what a fold records as failed and survives; a ConfigError (a ValueError) still ends the run
_FOLD_ERRORS = (TrainingDiverged, ValueError, ArithmeticError)


def _run_fold(dataset: Dataset, job: _FoldJob) -> tuple[list[FoldResult], TrainLog | None]:
    """A failed extractor stage fails every row of the fold, a failed classifier its own row."""
    h, nan = job.hyper, float("nan")

    def row(kind: str, acc: float, adv: float, nui: float, err: Exception | None = None):
        return FoldResult(job.plan.test_subject, job.variant, kind, "failed" if err else "done",
                          acc, adv, nui, h.lambda_a, h.lambda_n, h.r_n,
                          f"{type(err).__name__}: {err}" if err else "")

    try:
        normed = normalize(dataset, job.plan.train_ids)
        train = normed.subset(job.plan.train_ids)
        val = normed.subset(job.plan.val_ids)
        test = normed.subset(job.plan.test_ids)
        params, log = fit_feature_extractor(train, h, val=val)
        adv, nui = probe_accuracies(params, val.x, val.s)
        z_train, z_test = encode(params, train.x), encode(params, test.x)
    except ConfigError:
        raise
    except _FOLD_ERRORS as err:
        return [row(kind, nan, nan, nan, err) for kind in job.kinds], None
    results = []
    for kind, clf_seed in zip(job.kinds, job.clf_seeds):
        try:
            clf = classifiers.fit(kind, z_train, train.y, seed=clf_seed)
            results.append(row(kind, classifiers.accuracy(clf, z_test, test.y), adv, nui))
        except ConfigError:
            raise
        except _FOLD_ERRORS as err:
            results.append(row(kind, nan, adv, nui, err))
    return results, log


def _execute(dataset: Dataset, jobs: list[_FoldJob],
             n_workers: int) -> list[tuple[list[FoldResult], TrainLog | None]]:
    if n_workers <= 1:
        return [_run_fold(dataset, job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_run_fold, repeat(dataset), jobs))


def _grid(config: ExperimentConfig, rows, plans: list[SplitPlan],
          kinds: tuple[str, ...]) -> list[_FoldJob]:
    """One fold job per (row, plan); a row is (index, subdir, variant, hyper overrides).

    Extractor and classifier seeds derive from the master seed, the row index
    and the held-out subject, so equal rows get equal seeds in every runner.
    """
    jobs = []
    for index, subdir, variant, overrides in rows:
        for plan in plans:
            subj = plan.test_subject
            jobs.append(_FoldJob(
                subdir, variant,
                replace(config.hyper(variant, job_seed(config.seed, index, subj)), **overrides),
                plan, kinds,
                tuple(job_seed(config.seed, index, subj, ci) for ci in range(len(kinds)))))
    return jobs


def _run_jobs(config: ExperimentConfig, dataset: Dataset, jobs: list[_FoldJob],
              root: Path) -> list[FoldResult]:
    """Execute the jobs and write their folds.csv files and training logs under root.

    Returns every job's results, flattened in job order.
    """
    outs = _execute(dataset, jobs, config.jobs)
    buckets: dict[tuple[str, str], list[tuple]] = {}
    for job, (results, log) in zip(jobs, outs):
        for result in results:
            buckets.setdefault((job.subdir, result.classifier), []).append(astuple(result))
        if log is not None:
            log.to_csv(root / job.subdir / f"trainlog_fold{job.plan.test_subject}.csv")
    for (subdir, kind), rows in buckets.items():
        write_csv(root / subdir / kind / "folds.csv", FOLD_HEADER, rows)
    return [r for results, _ in outs for r in results]


def summarize(results: list[FoldResult]) -> list[SummaryRow]:
    """Five-number summary plus mean per (variant, classifier), in first-seen order.

    Quartiles use midpoint (linear) interpolation. Failed folds are excluded
    from the statistics and surfaced in the failed count.
    """
    order: list[tuple[str, str]] = []
    done: dict[tuple[str, str], list[float]] = {}
    failed: dict[tuple[str, str], int] = {}
    for r in results:
        key = (r.variant, r.classifier)
        if key not in done:
            order.append(key)
            done[key] = []
            failed[key] = 0
        if r.status == "done":
            done[key].append(r.test_acc)
        else:
            failed[key] += 1
    rows = []
    for key in order:
        accs = np.array(done[key])
        if accs.size:
            q1, med, q3 = np.percentile(accs, [25, 50, 75])
            stats = (float(accs.mean()), float(med), float(q1), float(q3),
                     float(accs.min()), float(accs.max()))
        else:
            stats = (float("nan"),) * 6
        rows.append(SummaryRow(key[0], key[1], *stats, accs.size, failed[key]))
    return rows


def failed_count(results: list[FoldResult]) -> int:
    return sum(r.status != "done" for r in results)


def run_loso(config: ExperimentConfig, dataset: Dataset | None = None
             ) -> tuple[list[FoldResult], list[SummaryRow]]:
    """Leave-one-subject-out evaluation of every (variant, classifier) pair.

    Writes <out>/loso/<variant>/<classifier>/folds.csv, per-fold
    training logs beside the classifier directories, and a summary.csv.
    """
    if dataset is None:
        dataset = load_dataset(config)
    plans = loso_splits(dataset, config.val_fraction, seed=config.seed)
    rows = [(vi, variant, variant, {}) for vi, variant in enumerate(config.variants)]
    root = Path(config.out) / "loso"
    results = _run_jobs(config, dataset, _grid(config, rows, plans, config.classifiers), root)
    summary = summarize(results)
    write_csv(root / "summary.csv", SUMMARY_HEADER, map(astuple, summary))
    return results, summary


@dataclass
class Table3Row:
    variant: str
    lambda_a: float
    lambda_n: float
    r_n: float
    task_acc: float
    adversary_acc: float
    nuisance_acc: float
    chance: float
    folds: int
    failed: int


TABLE3_HEADER = tuple(f.name for f in fields(Table3Row))


def run_table3(config: ExperimentConfig, dataset: Dataset | None = None
               ) -> tuple[list[FoldResult], list[Table3Row]]:
    """Parameter-impact table: LOSO means of task/adversary/nuisance accuracy.

    Always evaluates the fixed TABLE3_ROWS grid with the MLP classifier; the
    chance column is the uniform subject-guessing baseline 1/S.
    """
    if dataset is None:
        dataset = load_dataset(config)
    plans = loso_splits(dataset, config.val_fraction, seed=config.seed)
    rows = [(ri, f"row{ri:02d}_{variant}", variant, {"lambda_a": lambda_a, "lambda_n": lambda_n})
            for ri, (variant, lambda_a, lambda_n) in enumerate(TABLE3_ROWS)]
    jobs = _grid(config, rows, plans, ("mlp",))
    root = Path(config.out) / "table3"
    results = _run_jobs(config, dataset, jobs, root)
    chance = 1.0 / dataset.n_subjects
    n_folds = len(plans)  # one mlp result per fold job
    table = []
    for ri, (variant, lambda_a, lambda_n) in enumerate(TABLE3_ROWS):
        fold_results = results[ri * n_folds: (ri + 1) * n_folds]
        done = [r for r in fold_results if r.status == "done"]
        if done:
            task = float(np.mean([r.test_acc for r in done]))
            adv = float(np.mean([r.adversary_acc for r in done]))
            nui = float(np.mean([r.nuisance_acc for r in done]))
        else:
            task = adv = nui = float("nan")
        table.append(Table3Row(variant, lambda_a, lambda_n, jobs[ri * n_folds].hyper.r_n,
                               task, adv, nui, chance, len(done), len(fold_results) - len(done)))
    write_csv(root / "table3.csv", TABLE3_HEADER, map(astuple, table))
    return results, table


@dataclass
class CurveRow:
    fraction: float
    variant: str
    classifier: str
    mean_acc: float
    folds: int
    failed: int


CURVE_HEADER = tuple(f.name for f in fields(CurveRow))


def run_datasize(config: ExperimentConfig, dataset: Dataset | None = None
                 ) -> tuple[list[CurveRow], dict[float, list[FoldResult]]]:
    """Accuracy versus training-set fraction, holding splits and seeds fixed.

    Trials are dropped from each fold's training split only; validation and
    test splits stay intact. Fraction 1.0 reuses the exact run_loso seeds and
    splits, so its numbers reproduce the full run. The subsample draw is
    shared across variants at a given (fraction, fold) for paired comparison.
    """
    if dataset is None:
        dataset = load_dataset(config)
    plans = loso_splits(dataset, config.val_fraction, seed=config.seed)
    jobs: list[_FoldJob] = []
    for fi, fraction in enumerate(config.fractions):
        sub_plans = [SplitPlan(p.test_subject,
                               subsample_trials(dataset, p.train_ids, fraction,
                                                seed=job_seed(config.seed, 7, fi, p.test_subject)),
                               p.val_ids, p.test_ids)
                     for p in plans]
        rows = [(vi, f"frac{fraction}/{variant}", variant, {})
                for vi, variant in enumerate(config.variants)]
        jobs += _grid(config, rows, sub_plans, config.classifiers)
    root = Path(config.out) / "datasize"
    results = _run_jobs(config, dataset, jobs, root)
    block = len(results) // len(config.fractions)  # every fraction runs the same grid
    curve: list[CurveRow] = []
    by_fraction: dict[float, list[FoldResult]] = {}
    for fi, fraction in enumerate(config.fractions):
        by_fraction[fraction] = results[fi * block: (fi + 1) * block]
        for s in summarize(by_fraction[fraction]):
            curve.append(CurveRow(fraction, s.variant, s.classifier, s.mean,
                                  s.folds, s.failed))
    write_csv(root / "curve.csv", CURVE_HEADER, map(astuple, curve))
    return curve, by_fraction


def run_sweep(config: ExperimentConfig, dataset: Dataset | None = None) -> SweepResult:
    """Two-stage hyperparameter sweep on a 90/10 split; writes sweep.csv."""
    if dataset is None:
        dataset = load_dataset(config)
    train_ids, val_ids = holdout_split(dataset, config.val_fraction, config.seed)
    normed = normalize(dataset, train_ids)
    result = two_stage_sweep(normed.subset(train_ids), normed.subset(val_ids),
                             config.hyper("DA-cAE", config.seed),
                             classifier=config.sweep_classifier,
                             lambda_n_grid=config.sweep_lambda_n,
                             lambda_a_grid=config.sweep_lambda_a)
    result.to_csv(Path(config.out) / "sweep" / "sweep.csv")
    return result


def _parse_folds_csv(path: Path) -> list[FoldResult]:
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = set(FOLD_HEADER) - set(reader.fieldnames or [])
            if missing:
                raise ReportError(f"corrupt results file {path}: missing columns {sorted(missing)}")
            return [FoldResult(**{name: cast(row[name]) for name, cast in _FOLD_TYPES.items()})
                    for row in reader]
    except (ValueError, TypeError, KeyError, OSError) as err:
        raise ReportError(f"corrupt results file {path}: {err}") from err


def report(results_dir: str | Path, out_dir: str | Path | None = None
           ) -> tuple[list[SummaryRow], list[list]]:
    """Aggregate fold CSVs into box-plot statistics and an accuracy matrix.

    Emits report_summary.csv (per variant and classifier: mean, median,
    quartiles, extremes) and report_matrix.csv (classifier rows by variant
    columns of mean accuracy). Raises ReportError naming any unreadable file.
    """
    root = Path(results_dir)
    if not root.is_dir():
        raise ReportError(f"missing results directory {root}")
    paths = sorted(root.rglob("folds.csv"))
    if not paths:
        raise ReportError(f"no folds.csv files under {root}")
    results: list[FoldResult] = []
    for path in paths:
        results.extend(_parse_folds_csv(path))
    summary = summarize(results)

    variant_order = [v for v in VARIANTS if any(s.variant == v for s in summary)]
    variant_order += sorted({s.variant for s in summary} - set(variant_order))
    kind_order = [k for k in classifiers.KINDS if any(s.classifier == k for s in summary)]
    kind_order += sorted({s.classifier for s in summary} - set(kind_order))
    means = {(s.variant, s.classifier): s.mean for s in summary}
    matrix = [["classifier", *variant_order]]
    for kind in kind_order:
        matrix.append([kind] + [means.get((v, kind), "") for v in variant_order])

    out_root = Path(out_dir) if out_dir is not None else root
    write_csv(out_root / "report_summary.csv", SUMMARY_HEADER, map(astuple, summary))
    write_csv(out_root / "report_matrix.csv", matrix[0], matrix[1:])
    return summary, matrix
