"""Experiment orchestration: LOSO evaluation, parameter tables, size curves, reports.

The loso, table3 and datasize runners hand `_run_grid` their rows and get each
row's fold results back. Each (row, split plan) pair is a fold job. Fold jobs
run in groups of consecutive jobs (`_groups`), inline or on a process pool of
at most one worker per group; within a group, the MLP classifiers of the folds
that share a code shape train as one stack of networks, and every other kind
fits fold by fold. Job seeds derive from the master seed, the row index and the
held-out subject, every replica of a stack equals its solo fit, and outputs are
written in job order, so the tree is byte-identical for any worker count. A
fold whose extractor or classifier fails (any exception but a ConfigError, an
overflow in a classifier included) is recorded as failed and the run continues;
the caller decides the exit status from the failure count. The sweep runs no
fold jobs: each of its two stages trains as one stack of networks in this
process.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import classifiers
from .data import (Dataset, SplitPlan, SyntheticSpec, generate_synthetic, holdout_split,
                   load_csv, loso_splits, normalize, subsample_trials, write_csv)
from .model import VARIANTS, HyperConfig, encode
from .nn import ConfigError, SgdConfig, _check_fields, _from_object, _type_hints, job_seed
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
    val_fraction: float = field(default=0.1, metadata={">": 0, "<": 1})
    fractions: tuple[float, ...] = field(default=(0.25, 0.5, 0.75, 1.0), metadata={">": 0, "<=": 1})
    sweep_classifier: str = "mlp"
    sweep_lambda_n: tuple[float, ...] = field(default=LAMBDA_N_GRID, metadata={">=": 0})
    sweep_lambda_a: tuple[float, ...] = field(default=LAMBDA_A_GRID, metadata={">=": 0})
    seed: int = 0
    jobs: int = field(default=1, metadata={">=": 1})
    out: str = "out"

    def __post_init__(self) -> None:
        _check_fields(self, "config")
        if self.dataset == "":
            raise ConfigError("dataset must not be empty; leave it out for synthetic data")
        self.variants = tuple(self.variants)
        self.classifiers = tuple(classifiers.canonical_kind(k) for k in self.classifiers)
        self.sweep_classifier = classifiers.canonical_kind(self.sweep_classifier)
        self.fractions = tuple(float(f) for f in self.fractions)
        self.sweep_lambda_n = tuple(float(v) for v in self.sweep_lambda_n)
        self.sweep_lambda_a = tuple(float(v) for v in self.sweep_lambda_a)
        # each entry names an output directory or a sweep point, so a repeat would
        # merge or overwrite results, or train the same point twice, and an empty
        # list would run nothing
        for name in ("variants", "classifiers", "fractions", "sweep_lambda_n", "sweep_lambda_a"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ConfigError(f"duplicate {name} in {values}")
        for v in self.variants:  # validates every extractor field eagerly, seed included
            self.hyper(v, self.seed)

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
        except (ValueError, RecursionError) as err:  # bad JSON or UTF-8, huge int, deep nesting
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
    if config.dataset is not None:
        path = Path(config.dataset)
        if not path.exists():
            raise ConfigError(f"dataset path {path} does not exist")
        return load_csv(path)
    return generate_synthetic(config.synthetic)[0]


def load_holdout(config: ExperimentConfig) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """The config's dataset normalized on the training rows of its holdout split, with
    the split's training and validation row ids. Outside a fold, a channel statistic
    that is not finite is bad input, and raises ConfigError."""
    dataset = load_dataset(config)
    train_ids, val_ids = holdout_split(dataset, config.val_fraction, config.seed)
    try:
        return normalize(dataset, train_ids), train_ids, val_ids
    except ValueError as err:
        raise ConfigError(f"cannot normalize {config.dataset or 'the synthetic data'}: "
                          f"{err}") from err


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
_FOLD_TYPES = _type_hints(FoldResult)  # every field is int, float or str


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
    hyper: HyperConfig
    plan: SplitPlan
    kinds: tuple[str, ...]
    clf_seeds: tuple[int, ...]


def _row(job: _FoldJob, kind: str, acc: float, adv: float, nui: float,
         err: Exception | None = None) -> FoldResult:
    h = job.hyper
    return FoldResult(job.plan.test_subject, h.variant, kind, "failed" if err else "done",
                      acc, adv, nui, h.lambda_a, h.lambda_n, h.r_n,
                      f"{type(err).__name__}: {err}" if err else "")


def _encode_fold(dataset: Dataset, job: _FoldJob) -> tuple[tuple, TrainLog]:
    """The fold's codes, (training codes, their labels, test codes, their labels,
    adversary and nuisance probe accuracies), and its training log. Its normalized
    datasets go on return."""
    normed = normalize(dataset, job.plan.train_ids)
    train = normed.subset(job.plan.train_ids)
    val = normed.subset(job.plan.val_ids)
    test = normed.subset(job.plan.test_ids)
    params, log = fit_feature_extractor(train, job.hyper, val=val)
    adv, nui = probe_accuracies(params, encode(params, val.x), val.s)
    return (encode(params, train.x), train.y, encode(params, test.x), test.y, adv, nui), log


def _classify(job: _FoldJob, ci: int, codes: tuple, clf=None) -> FoldResult:
    """Row ci of a fold: its classifier, fit here unless given, scored on the test codes."""
    z_train, y_train, z_test, y_test, adv, nui = codes
    try:
        with np.errstate(over="raise", invalid="raise"):
            if clf is None:
                clf = classifiers.fit(job.kinds[ci], z_train, y_train, seed=job.clf_seeds[ci])
            acc = classifiers.accuracy(clf, z_test, y_test)
    except ConfigError:
        raise
    except Exception as err:  # any other failure fails this row alone
        return _row(job, job.kinds[ci], float("nan"), adv, nui, err)
    return _row(job, job.kinds[ci], acc, adv, nui)


def _run_fold(dataset: Dataset, group: list[_FoldJob]
              ) -> list[tuple[list[FoldResult], TrainLog | None]]:
    """Each job's fold results and training log, in group order.

    A failed extractor stage fails every row of its fold, a failed classifier its own
    row; any Exception but a ConfigError counts (KeyboardInterrupt and SystemExit are
    not Exceptions, so they end the run). The MLP classifiers of folds whose codes
    share (rows, width, class count) fit as one stack, in one classifiers.fit call; if
    that call raises, its folds refit one by one, so each row records its solo
    outcome. Every other kind fits fold by fold.
    """
    nan = float("nan")
    rows, folds, logs, stacks = [], [], [], {}
    for i, job in enumerate(group):
        try:
            codes, log = _encode_fold(dataset, job)
        except ConfigError:
            raise
        except Exception as err:  # any other failure fails this fold alone
            codes, log = None, None
            rows.append([_row(job, kind, nan, nan, nan, err) for kind in job.kinds])
        else:
            rows.append(None)
            if "mlp" in job.kinds:
                stacks.setdefault((*codes[0].shape, np.unique(codes[1]).size), []).append(i)
        folds.append(codes)
        logs.append(log)
    mlps = {}
    for members in stacks.values():
        if len(members) > 1:  # a lone fold fits alone, in _classify
            seeds = [group[i].clf_seeds[group[i].kinds.index("mlp")] for i in members]
            try:
                with np.errstate(over="raise", invalid="raise"):
                    mlps.update(zip(members, classifiers.fit(
                        "mlp", np.stack([folds[i][0] for i in members]),
                        np.stack([folds[i][1] for i in members]), seeds)))
            except ConfigError:
                raise
            except Exception:  # the folds refit one by one, in _classify
                pass
    for i, job in enumerate(group):
        if rows[i] is None:
            rows[i] = [_classify(job, ci, folds[i], mlps.get(i) if kind == "mlp" else None)
                       for ci, kind in enumerate(job.kinds)]
    return list(zip(rows, logs))


# fold jobs whose MLP classifiers fit as one stack, at most
_GROUP = 8


def _groups(jobs: list[_FoldJob], n_workers: int) -> list[list[_FoldJob]]:
    """The jobs cut into runs of consecutive jobs, their sizes differing by at most one.

    With an mlp among the kinds, G = min(N, w * ceil(N / (8 w))) groups for N jobs on w
    workers: groups of at most 8, and a multiple of w of them while that allows. With
    none every job is its own group, since only the MLP stacks, and single jobs keep
    the pool's dynamic balance.
    """
    n = len(jobs)
    g = min(n, n_workers * math.ceil(n / (_GROUP * n_workers))) \
        if any("mlp" in job.kinds for job in jobs) else n
    size, extra = divmod(n, g)
    cuts = [i * size + min(i, extra) for i in range(g + 1)]
    return [jobs[a:b] for a, b in zip(cuts, cuts[1:])]


def _execute(dataset: Dataset, jobs: list[_FoldJob],
             n_workers: int) -> list[tuple[list[FoldResult], TrainLog | None]]:
    """Every job's fold results in job order, run in _groups of consecutive jobs, inline
    or on a pool of at most one worker per group.

    Prints `fold i/N` on stderr for each job as its group's results arrive, in job order.
    """
    groups = _groups(jobs, n_workers)
    n_workers = min(n_workers, len(groups))
    with ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1 else nullcontext() as pool:
        outs = (pool.map if pool else map)(_run_fold, repeat(dataset), groups)
        done = []
        for out in outs:
            for result in out:
                done.append(result)
                print(f"fold {len(done)}/{len(jobs)}", file=sys.stderr, flush=True)
        return done


def _run_grid(config: ExperimentConfig, dataset: Dataset, name: str, rows,
              kinds: tuple[str, ...]) -> list[list[FoldResult]]:
    """Run one fold job per (row, plan) and return each row's results in plan order.

    A row is (index, subdir, variant, hyper overrides, plans). Extractor and
    classifier seeds derive from the master seed, the row index and the
    held-out subject, so equal rows get equal seeds in every runner. Each row
    writes <out>/<name>/<subdir>/<kind>/folds.csv and a training log per fold.
    """
    jobs = []
    for index, subdir, variant, overrides, plans in rows:
        for plan in plans:
            subj = plan.test_subject
            jobs.append(_FoldJob(
                subdir,
                replace(config.hyper(variant, job_seed(config.seed, index, subj)), **overrides),
                plan, kinds,
                tuple(job_seed(config.seed, index, subj, ci) for ci in range(len(kinds)))))
    root = Path(config.out) / name
    by_subdir: dict[str, list[FoldResult]] = {subdir: [] for _, subdir, *_ in rows}
    for job, (results, log) in zip(jobs, _execute(dataset, jobs, config.jobs)):
        by_subdir[job.subdir] += results
        if log is not None:
            log.to_csv(root / job.subdir / f"trainlog_fold{job.plan.test_subject}.csv")
    for subdir, results in by_subdir.items():
        for kind in kinds:
            write_csv(root / subdir / kind / "folds.csv", FOLD_HEADER,
                      [astuple(r) for r in results if r.classifier == kind])
    return list(by_subdir.values())


def summarize(results: list[FoldResult]) -> list[SummaryRow]:
    """Five-number summary plus mean per (variant, classifier), in first-seen order.

    Quartiles use midpoint (linear) interpolation. Failed folds are excluded
    from the statistics and surfaced in the failed count.
    """
    groups: dict[tuple[str, str], list[FoldResult]] = {}  # keys in first-seen order
    for r in results:
        groups.setdefault((r.variant, r.classifier), []).append(r)
    rows = []
    for (variant, kind), group in groups.items():
        accs = np.array([r.test_acc for r in group if r.status == "done"])
        if accs.size:
            q1, med, q3 = np.percentile(accs, [25, 50, 75])
            stats = (float(accs.mean()), float(med), float(q1), float(q3),
                     float(accs.min()), float(accs.max()))
        else:
            stats = (float("nan"),) * 6
        rows.append(SummaryRow(variant, kind, *stats, accs.size, len(group) - accs.size))
    return rows


def failed_count(results: list[FoldResult]) -> int:
    return sum(r.status != "done" for r in results)


def run_loso(config: ExperimentConfig) -> tuple[list[FoldResult], list[SummaryRow]]:
    """Leave-one-subject-out evaluation of every (variant, classifier) pair.

    Writes <out>/loso/<variant>/<classifier>/folds.csv, per-fold
    training logs beside the classifier directories, and a summary.csv.
    """
    dataset = load_dataset(config)
    plans = loso_splits(dataset, config.val_fraction, seed=config.seed)
    rows = [(vi, variant, variant, {}, plans) for vi, variant in enumerate(config.variants)]
    results = [r for row in _run_grid(config, dataset, "loso", rows, config.classifiers)
               for r in row]
    summary = summarize(results)
    write_csv(Path(config.out) / "loso" / "summary.csv", SUMMARY_HEADER, map(astuple, summary))
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


def run_table3(config: ExperimentConfig) -> tuple[list[FoldResult], list[Table3Row]]:
    """Parameter-impact table: LOSO means of task/adversary/nuisance accuracy.

    Always evaluates the fixed TABLE3_ROWS grid with the MLP classifier; the
    chance column is the uniform subject-guessing baseline 1/S.
    """
    dataset = load_dataset(config)
    plans = loso_splits(dataset, config.val_fraction, seed=config.seed)
    rows = [(ri, f"row{ri:02d}_{variant}", variant,
             {"lambda_a": lambda_a, "lambda_n": lambda_n}, plans)
            for ri, (variant, lambda_a, lambda_n) in enumerate(TABLE3_ROWS)]
    per_row = _run_grid(config, dataset, "table3", rows, ("mlp",))
    chance = 1.0 / dataset.n_subjects
    table = []
    for (variant, lambda_a, lambda_n), results in zip(TABLE3_ROWS, per_row):
        (r_n,) = {r.r_n for r in results}  # one extractor config per row
        done = [r for r in results if r.status == "done"]
        if done:
            task = float(np.mean([r.test_acc for r in done]))
            adv = float(np.mean([r.adversary_acc for r in done]))
            nui = float(np.mean([r.nuisance_acc for r in done]))
        else:
            task = adv = nui = float("nan")
        table.append(Table3Row(variant, lambda_a, lambda_n, r_n, task, adv, nui, chance,
                               len(done), len(results) - len(done)))
    write_csv(Path(config.out) / "table3" / "table3.csv", TABLE3_HEADER, map(astuple, table))
    return [r for results in per_row for r in results], table


@dataclass
class CurveRow:
    fraction: float
    variant: str
    classifier: str
    mean_acc: float
    folds: int
    failed: int


CURVE_HEADER = tuple(f.name for f in fields(CurveRow))


def run_datasize(config: ExperimentConfig) -> tuple[list[CurveRow], dict[float, list[FoldResult]]]:
    """Accuracy versus training-set fraction, holding splits and seeds fixed.

    Trials are dropped from each fold's training split only; validation and
    test splits stay intact. Fraction 1.0 reuses the exact run_loso seeds and
    splits, so its numbers reproduce the full run. The subsample draw is
    shared across variants at a given (fraction, fold) for paired comparison.
    """
    dataset = load_dataset(config)
    plans = loso_splits(dataset, config.val_fraction, seed=config.seed)
    grid = []  # (fraction, row)
    for fi, fraction in enumerate(config.fractions):
        sub_plans = [SplitPlan(p.test_subject,
                               subsample_trials(dataset, p.train_ids, fraction,
                                                seed=job_seed(config.seed, 7, fi, p.test_subject)),
                               p.val_ids, p.test_ids)
                     for p in plans]
        grid += [(fraction, (vi, f"frac{fraction}/{variant}", variant, {}, sub_plans))
                 for vi, variant in enumerate(config.variants)]
    per_row = _run_grid(config, dataset, "datasize", [row for _, row in grid], config.classifiers)
    by_fraction: dict[float, list[FoldResult]] = {fraction: [] for fraction in config.fractions}
    for (fraction, _), results in zip(grid, per_row):
        by_fraction[fraction] += results
    curve = [CurveRow(fraction, s.variant, s.classifier, s.mean, s.folds, s.failed)
             for fraction, results in by_fraction.items() for s in summarize(results)]
    write_csv(Path(config.out) / "datasize" / "curve.csv", CURVE_HEADER, map(astuple, curve))
    return curve, by_fraction


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Two-stage hyperparameter sweep on a 90/10 split; writes sweep.csv."""
    normed, train_ids, val_ids = load_holdout(config)
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
    except (ValueError, TypeError, KeyError, OSError, csv.Error) as err:
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
