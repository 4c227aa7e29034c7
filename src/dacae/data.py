"""Dataset ingestion, preprocessing, splits and synthetic data generation.

Datasets are columnar: one float64 matrix of channel values plus integer
columns for task label, subject and trial, one row per 1 Hz instance. Raw
multi-rate recordings are aligned to a common 1 Hz grid on ingestion
(window means when downsampling, sample-and-hold when upsampling), surplus
relaxation trials are dropped so every subject keeps one trial per class,
and z-scoring always uses training-fold statistics only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .nn import ConfigError, _check_fields, _from_object, _ids, make_rng

RELAX_LABEL = 0
CSV_HEADER = ["subject", "trial", "label", "t"]


class IngestionError(ValueError):
    """Raw recordings that cannot be turned into a dataset."""


@dataclass
class Dataset:
    """Immutable-by-convention sample collection: its rows, and the subject count."""

    x: np.ndarray          # (n, C) float64
    y: np.ndarray          # (n,) intp, task labels >= 0
    s: np.ndarray          # (n,) intp, subject ids in [0, S)
    trial: np.ndarray      # (n,) intp, globally unique trial ids
    t: np.ndarray          # (n,) float64, seconds on the 1 Hz grid
    n_subjects: int
    # per-channel (mean, std); keyword-only, so no stale positional count lands in it
    normalization: tuple[np.ndarray, np.ndarray] | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        self.x = _reals(self.x, "x")
        if self.x.ndim != 2:
            raise ValueError("x must be (n, channels)")
        n = self.x.shape[0]
        self.y, self.s, self.trial = (_ids(getattr(self, k), k) for k in ("y", "s", "trial"))
        self.t = _reals(self.t, "t")
        for name in ("y", "s", "trial", "t"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("non-finite channel values")
        if not np.all(np.isfinite(self.t)):
            raise ValueError("non-finite time values")
        if n and self.y.min() < 0:
            raise ValueError("task label out of range")
        if n and (self.s.min() < 0 or self.s.max() >= self.n_subjects):
            raise ValueError("subject id out of range")
        _, first, inverse = np.unique(self.trial, return_index=True, return_inverse=True)
        bad = (self.s != self.s[first][inverse]) | (self.y != self.y[first][inverse])
        if bad.any():  # name the first row whose (subject, label) differs from its trial's
            raise ValueError(f"trial id {self.trial[bad.argmax()]} is shared across "
                             "(subject, label) pairs")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n_channels(self) -> int:
        return self.x.shape[1]

    def subset(self, ids: np.ndarray) -> "Dataset":
        ids = _row_ids(ids, len(self))
        return Dataset(self.x[ids], self.y[ids], self.s[ids], self.trial[ids], self.t[ids],
                       self.n_subjects, normalization=self.normalization)


def _reals(values, name: str) -> np.ndarray:
    """values as a float64 array. Raises ValueError for complex or non-numeric values,
    where a plain cast would drop an imaginary part or raise a bare TypeError."""
    a = np.asarray(values)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real numbers, got {a.dtype} values")
    try:
        return a.astype(np.float64, copy=False)
    except TypeError as err:  # e.g. an object array holding a complex or None
        raise ValueError(f"{name} must be real numbers: {err}") from None


def _row_ids(ids, n: int) -> np.ndarray:
    """ids as a 1-D intp array of row numbers in [0, n)."""
    ids = _ids(ids, "row ids")
    if ids.ndim != 1 or (ids.size and (ids.min() < 0 or ids.max() >= n)):
        raise ValueError(f"row ids must be one list of rows in [0, {n})")
    return ids


# -- raw ingestion -------------------------------------------------------------

@dataclass
class RawTrial:
    """One recorded trial: per-channel (timestamps, values) at arbitrary rates."""
    subject: int
    trial: int
    label: int | None
    channels: dict[str, tuple[np.ndarray, np.ndarray]]


def resample_channel(times: np.ndarray, values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Align one channel to the 1 Hz grid.

    Grid second k takes the mean of samples with timestamp in [k, k+1) when
    any exist (downsampling); otherwise it holds the nearest earlier sample,
    falling back to the first sample before the recording starts.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.size == 0:
        raise IngestionError("channel has no samples")
    order = np.argsort(times, kind="stable")
    times, values = times[order], values[order]
    out = np.empty(grid.size)
    for i, k in enumerate(grid):
        lo = np.searchsorted(times, k, side="left")
        hi = np.searchsorted(times, k + 1.0, side="left")
        if hi > lo:
            out[i] = values[lo:hi].mean()
        elif lo > 0:
            out[i] = values[lo - 1]
        else:
            out[i] = values[0]
    return out


def _subject_gap(present: set[int]) -> str | None:
    """The error naming the lowest id below the largest that no row carries, if any."""
    missing = next(i for i in range(len(present) + 1) if i not in present)
    if missing < max(present):
        return f"subject id {missing} is missing; ids must run 0..S-1"
    return None


def ingest(trials: list[RawTrial], channel_map: list[str]) -> Dataset:
    """Build a dataset from raw recordings.

    channel_map fixes the channel order of the output matrix. Trials must all
    carry a label; a subject's relaxation trials beyond the first are dropped
    so each subject contributes exactly one trial per class. Raw trial numbers
    may repeat across subjects, so kept trials get fresh globally unique ids.
    Subjects, raw trial numbers and labels must be whole numbers, and the
    subject ids must run 0..S-1, as in load_csv.
    """
    if not trials:
        raise IngestionError("no trials to ingest")
    for tr in trials:
        if tr.label is None:
            raise IngestionError(f"unlabeled trial {tr.trial} of subject {tr.subject}")
    try:  # whole-number ids, checked before they order the trials
        subject = _ids([tr.subject for tr in trials], "subject ids")
        number = _ids([tr.trial for tr in trials], "trial numbers")
        label = _ids([tr.label for tr in trials], "labels")
    except ValueError as err:
        raise IngestionError(str(err)) from err
    kept: list[int] = []
    seen_relax: set[int] = set()
    for i in np.lexsort((number, subject)).tolist():  # by subject, then trial number
        if label[i] == RELAX_LABEL:
            if subject[i] in seen_relax:
                continue
            seen_relax.add(subject[i])
        kept.append(i)
    present = set(subject.tolist())
    if gap := _subject_gap(present):
        raise IngestionError(gap)

    xs, ys, ss, trs, ts = [], [], [], [], []
    for uid, i in enumerate(kept):
        tr = trials[i]
        for name in channel_map:
            if name not in tr.channels:
                raise IngestionError(
                    f"missing channel {name!r} in trial {tr.trial} of subject {tr.subject}")
        start = min(float(np.min(tr.channels[name][0])) for name in channel_map)
        end = max(float(np.max(tr.channels[name][0])) for name in channel_map)
        n_seconds = max(1, int(math.floor(end - start)) + 1)
        grid = start + np.arange(n_seconds, dtype=np.float64)
        cols = [resample_channel(*tr.channels[name], grid) for name in channel_map]
        xs.append(np.column_stack(cols))
        ys.append(np.full(n_seconds, label[i]))
        ss.append(np.full(n_seconds, subject[i]))
        trs.append(np.full(n_seconds, uid, dtype=np.intp))
        ts.append(grid - start)

    return Dataset(np.concatenate(xs), np.concatenate(ys), np.concatenate(ss),
                   np.concatenate(trs), np.concatenate(ts), max(present) + 1)


# -- normalization -------------------------------------------------------------

def normalize(dataset: Dataset, train_ids: np.ndarray) -> Dataset:
    """Z-score every sample with per-channel statistics of the training rows only.

    Channels that are constant on the training rows are centered but not
    scaled (std is kept at 1) to avoid dividing by zero. A statistic or a z-score
    that overflows raises ValueError, with no numpy warning.
    """
    train_ids = _row_ids(train_ids, len(dataset))
    if train_ids.size == 0:
        raise ConfigError("empty training set for normalization")
    rows = dataset.x[train_ids]
    with np.errstate(over="ignore", invalid="ignore"):  # Dataset rejects non-finite z-scores
        mean, std = rows.mean(axis=0), rows.std(axis=0)
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("non-finite channel values")
        std = np.where(std > 1e-12, std, 1.0)
        return Dataset((dataset.x - mean) / std, dataset.y, dataset.s, dataset.trial,
                       dataset.t, dataset.n_subjects, normalization=(mean, std))


# -- splits --------------------------------------------------------------------

@dataclass
class SplitPlan:
    test_subject: int
    train_ids: np.ndarray
    val_ids: np.ndarray
    test_ids: np.ndarray


def _draw_trials(trials: np.ndarray, fraction: float, rng: np.random.Generator,
                 spare: int) -> np.ndarray:
    """Seeded share of the given trials: round(n * fraction) of them, ties rounding half
    up, kept in [1, n - spare], taken from the front of one rng.permutation(n)."""
    perm = rng.permutation(trials.size)
    n_draw = min(max(int(math.floor(trials.size * fraction + 0.5)), 1), trials.size - spare)
    return trials[perm[:n_draw]]


def loso_splits(dataset: Dataset, val_fraction: float = 0.1, seed: int = 0) -> list[SplitPlan]:
    """One leave-one-subject-out plan per subject present in the dataset.

    The held-out subject's samples form the test set; trials of the remaining
    subjects are shuffled with a fold-derived seed and split train/validation
    at trial granularity, so no trial straddles the boundary.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"validation fraction must be in (0, 1), got {val_fraction}")
    subjects = np.unique(dataset.s)
    if subjects.size < 2:
        raise ConfigError("need at least 2 subjects for leave-one-subject-out")
    plans = []
    for fold, subj in enumerate(subjects):
        test_mask = dataset.s == subj
        others = np.unique(dataset.trial[~test_mask])
        if others.size < 2:  # one trial cannot fill both a training and a validation split
            raise ConfigError(f"holding out subject {subj} leaves {others.size} trial for "
                              "training and validation; need at least 2")
        val_trials = _draw_trials(others, val_fraction, make_rng(seed, 100, fold), spare=1)
        val_mask = np.isin(dataset.trial, val_trials) & ~test_mask
        train_mask = ~test_mask & ~val_mask
        plans.append(SplitPlan(int(subj), np.flatnonzero(train_mask),
                               np.flatnonzero(val_mask), np.flatnonzero(test_mask)))
    return plans


def holdout_split(dataset: Dataset, val_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded trial-granularity train/validation split over all subjects."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"validation fraction must be in (0, 1), got {val_fraction}")
    trials = np.unique(dataset.trial)
    if trials.size < 2:
        raise ConfigError("need at least 2 trials to split")
    val_trials = _draw_trials(trials, val_fraction, make_rng(seed, 600), spare=1)
    val_mask = np.isin(dataset.trial, val_trials)
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def subsample_trials(dataset: Dataset, ids: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Keep a seeded fraction of the trials behind the given sample ids.

    Selection is by trial; the surviving ids keep their original order so a
    fraction of 1.0 returns ids unchanged. Raises if any (subject, class)
    cell present in ids would vanish.
    """
    ids = _row_ids(ids, len(dataset))
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"training fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return ids
    kept = _draw_trials(np.unique(dataset.trial[ids]), fraction, make_rng(seed, 200), spare=0)
    out = ids[np.isin(dataset.trial[ids], kept)]
    before = {(int(a), int(b)) for a, b in zip(dataset.s[ids], dataset.y[ids])}
    after = {(int(a), int(b)) for a, b in zip(dataset.s[out], dataset.y[out])}
    missing = sorted(before - after)
    if missing:
        raise ConfigError(f"training fraction {fraction} drops (subject, class) cells {missing}")
    return out


# -- synthetic data ------------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Factorized generator: x = alpha * T[y] + beta * U[s] + noise.

    T holds one unit-norm template row per task class, U one unit-norm offset
    row per subject; both are drawn once from the seed. Every (subject, class)
    cell contributes samples_per_cell consecutive 1 Hz samples, split across
    trials_per_cell trials so trial-granular subsampling has room to move.
    """

    n_subjects: int = field(default=6, metadata={">=": 1})
    n_classes: int = field(default=4, metadata={">=": 1})
    n_channels: int = field(default=7, metadata={">=": 1})
    samples_per_cell: int = field(default=200, metadata={">=": 1})
    trials_per_cell: int = field(default=1, metadata={">=": 1})
    alpha: float = field(default=1.0, metadata={">=": 0})
    beta: float = field(default=1.0, metadata={">=": 0})
    sigma: float = field(default=0.3, metadata={">=": 0})
    seed: int = field(default=0, metadata={">=": 0})

    def __post_init__(self) -> None:
        _check_fields(self, "synthetic")
        if self.trials_per_cell > self.samples_per_cell:
            raise ConfigError("trials_per_cell must be in [1, samples_per_cell]")


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Dataset with known task/subject factors; returns (dataset, T, U)."""
    rng = make_rng(spec.seed, 300)
    T = _unit_rows(rng, spec.n_classes, spec.n_channels)
    U = _unit_rows(rng, spec.n_subjects, spec.n_channels)
    n = spec.n_subjects * spec.n_classes * spec.samples_per_cell
    x = np.empty((n, spec.n_channels))
    y = np.empty(n, dtype=np.intp)
    s = np.empty(n, dtype=np.intp)
    trial = np.empty(n, dtype=np.intp)
    t = np.empty(n)
    row = 0
    for subj in range(spec.n_subjects):
        for cls in range(spec.n_classes):
            k = spec.samples_per_cell
            noise = rng.standard_normal((k, spec.n_channels)) * spec.sigma
            x[row: row + k] = spec.alpha * T[cls] + spec.beta * U[subj] + noise
            y[row: row + k] = cls
            s[row: row + k] = subj
            cell = subj * spec.n_classes + cls
            # cell samples divide into trials_per_cell near-equal consecutive runs
            bounds = np.linspace(0, k, spec.trials_per_cell + 1).astype(np.intp)
            for j in range(spec.trials_per_cell):
                lo, hi = row + bounds[j], row + bounds[j + 1]
                trial[lo:hi] = cell * spec.trials_per_cell + j
                t[lo:hi] = np.arange(hi - lo, dtype=np.float64)
            row += k
    dataset = Dataset(x, y, s, trial, t, spec.n_subjects)
    return dataset, T, U


# -- CSV files -----------------------------------------------------------------

def write_csv(path: str | Path, header, rows) -> None:
    """Write one result table, creating its directory; default dialect (CRLF endings)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(path: str | Path, dataset: Dataset) -> None:
    """Write the interchange CSV: subject,trial,label,t,ch0..chN; LF endings."""
    header = CSV_HEADER + [f"ch{i}" for i in range(dataset.n_channels)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(dataset)):
            row = [int(dataset.s[i]), int(dataset.trial[i]), int(dataset.y[i]),
                   repr(float(dataset.t[i]))]
            row += [repr(float(v)) for v in dataset.x[i]]
            writer.writerow(row)


def load_csv(path: str | Path) -> Dataset:
    """Read the interchange CSV back into a dataset.

    The subject count S is one past the largest subject id, and the ids must be
    contiguous, 0..S-1, since every head and the decoder's condition are S wide.
    Raises IngestionError naming the file (and the line, for a malformed row)
    when the file is not UTF-8 CSV, a row has the wrong width, a cell does not
    parse, the subject ids skip one (naming the first missing id), or the rows
    do not form a valid dataset.
    """
    x, y, s, trial, t = [], [], [], [], []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[: len(CSV_HEADER)] != CSV_HEADER:
                raise IngestionError(f"bad interchange header in {path}")
            n_channels = len(header) - len(CSV_HEADER)
            if n_channels < 1:
                raise IngestionError(f"no channel columns in {path}")
            for row in reader:
                if len(row) != len(header):
                    raise IngestionError(f"{path}:{reader.line_num}: expected "
                                         f"{len(header)} columns, got {len(row)}")
                try:
                    s.append(int(row[0]))
                    trial.append(int(row[1]))
                    y.append(int(row[2]))
                    t.append(float(row[3]))
                    x.append([float(v) for v in row[4:]])
                except ValueError as err:
                    raise IngestionError(f"{path}:{reader.line_num}: {err}") from err
    except (UnicodeDecodeError, csv.Error) as err:
        raise IngestionError(f"{path}: {err}") from err
    n = len(y)
    try:
        dataset = Dataset(np.array(x, dtype=np.float64).reshape(n, n_channels), y, s, trial, t,
                          max(s) + 1 if n else 1)
    except ValueError as err:
        raise IngestionError(f"{path}: {err}") from err
    # the dataset has checked that every id is in [0, n_subjects)
    if n and (gap := _subject_gap(set(s))):
        raise IngestionError(f"{path}: {gap}")
    return dataset


def save_synthetic(csv_path: str | Path, dataset: Dataset, spec: SyntheticSpec,
                   T: np.ndarray, U: np.ndarray) -> None:
    """Synthetic CSV plus a JSON sidecar holding the generator spec and factors."""
    save_csv(csv_path, dataset)
    sidecar = Path(str(csv_path) + ".factors.json")
    payload = {
        "spec": asdict(spec),
        "task_templates": T.tolist(),
        "subject_offsets": U.tolist(),
    }
    sidecar.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_synthetic_sidecar(csv_path: str | Path) -> tuple[SyntheticSpec, np.ndarray, np.ndarray]:
    """The spec, task templates and subject offsets save_synthetic wrote beside csv_path.

    A sidecar that is not one (not UTF-8 JSON, nested too deep to parse, without one
    of the three keys, or with ragged factors) raises ValueError naming its path; a
    file that cannot be opened raises OSError, and a spec that SyntheticSpec rejects
    raises ConfigError.
    """
    path = Path(str(csv_path) + ".factors.json")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        spec = payload["spec"]
        factors = np.asarray(payload["task_templates"]), np.asarray(payload["subject_offsets"])
    except (KeyError, TypeError, ValueError, RecursionError) as err:
        reason = err if isinstance(err, ValueError) else f"{type(err).__name__}: {err}"
        raise ValueError(f"bad synthetic sidecar {path}: {reason}") from err
    return _from_object(SyntheticSpec, spec, "synthetic"), *factors
