"""Workload definitions and output checks for the LOSO benchmark.

A workload is one `dacae` subcommand with a JSON config derived from the
benchmark seed. Each workload also knows which result files the run must
leave behind, so the benchmark can check the tree before it trusts a timing.

This module imports neither numpy nor dacae: the parent benchmark process
stays light, and all numeric work happens in the fresh per-unit processes.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# Result-file layouts the program promises. A change to any of them changes
# the result tree and must show up here as a failed check.
FOLD_HEADER = ["subject", "variant", "classifier", "status", "test_acc", "adversary_acc",
               "nuisance_acc", "lambda_a", "lambda_n", "r_n", "error"]
SUMMARY_HEADER = ["variant", "classifier", "mean", "median", "q1", "q3", "min", "max",
                  "folds", "failed"]
TRAINLOG_HEADER = ["epoch", "total_loss", "recon_loss", "adversary_ce", "nuisance_ce",
                   "adversary_acc", "nuisance_acc", "val_task_acc"]
SWEEP_HEADER = ["stage", "lambda_a", "lambda_n", "r_n", "val_task_acc", "adversary_acc",
                "nuisance_acc"]
SWEEP_FITS = 10  # default grids: five lambda_n values, then five lambda_a values

ALL_KINDS = ("mlp", "knn", "tree", "lda", "svm", "logreg")


@dataclass(frozen=True)
class Workload:
    command: str                   # dacae subcommand
    epochs: int
    n_subjects: int
    samples_per_cell: int
    trials_per_cell: int = 1
    kinds: tuple[str, ...] = ALL_KINDS
    jobs: int = 1
    csv_input: bool = False        # write the data as interchange CSV during set-up

    def synthetic(self, seed: int) -> dict:
        return {"n_subjects": self.n_subjects, "samples_per_cell": self.samples_per_cell,
                "trials_per_cell": self.trials_per_cell, "seed": seed}

    def config(self, seed: int, out: Path, dataset: Path | None) -> dict:
        cfg = {"seed": seed, "epochs": self.epochs, "jobs": self.jobs, "out": str(out),
               "synthetic": self.synthetic(seed)}
        if self.command == "sweep":
            cfg["sweep_classifier"] = "lda"
        else:
            cfg["variants"] = ["DA-cAE"]
            cfg["classifiers"] = list(self.kinds)
        if dataset is not None:
            cfg["dataset"] = str(dataset)
        return cfg

    @property
    def fits(self) -> int:
        """Extractor fits per run: the operations counted as attempted."""
        return SWEEP_FITS if self.command == "sweep" else self.n_subjects


# Sizes keep one cli.main call at 3-7 s on two cores, so a measured run holds
# six to twelve calls and reports their median.
WORKLOADS = {
    # Ten back-to-back extractor fits on one 90/10 split at synthetic default
    # data size: the nn/training SGD loop and per-epoch evaluation dominate;
    # classifiers are LDA only and there is no process pool.
    "sweep-train": Workload("sweep", epochs=6, n_subjects=6, samples_per_cell=200),
    # LOSO with all six classifiers on a short extractor fit: classifier fit and
    # predict dominate (tree, MLP, kNN) and kNN's distance temporary sets peak RSS.
    "loso-clf": Workload("loso", epochs=5, n_subjects=4, samples_per_cell=60),
    # Twenty folds read from CSV on a two-worker pool with full-batch linear
    # classifiers: the real-data load path, per-fold data prep and the pool.
    "loso-wide": Workload("loso", epochs=2, n_subjects=20, samples_per_cell=40,
                          trials_per_cell=4, kinds=("lda", "svm", "logreg"), jobs=2,
                          csv_input=True),
}

# Tiny sizes for the smoke mode and the benchmark's own tests.
SMOKE = {
    "sweep-train": Workload("sweep", epochs=1, n_subjects=3, samples_per_cell=12),
    "loso-clf": Workload("loso", epochs=1, n_subjects=3, samples_per_cell=12),
    "loso-wide": Workload("loso", epochs=1, n_subjects=4, samples_per_cell=12,
                          trials_per_cell=4, kinds=("lda", "svm", "logreg"), jobs=2,
                          csv_input=True),
}


def tree_digest(root: Path) -> str:
    """SHA-256 over the sorted relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class OutputError(Exception):
    """The result tree is missing a file, has a wrong header or row count, or a bad value."""


def _read(path: Path, header: list[str], n_rows: int) -> list[dict]:
    if not path.is_file():
        raise OutputError(f"missing {path.name} at {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise OutputError(f"{path}: header {rows[0] if rows else None} != {header}")
    if len(rows) - 1 != n_rows:
        raise OutputError(f"{path}: {len(rows) - 1} rows, expected {n_rows}")
    return [dict(zip(header, r)) for r in rows[1:]]


def _unit_interval(path: Path, rows: list[dict], columns: tuple[str, ...]) -> None:
    for row in rows:
        for col in columns:
            value = float(row[col])
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise OutputError(f"{path}: {col}={row[col]} is not in [0, 1]")


def check_outputs(workload: Workload, out: Path) -> float:
    """Check the result tree of one run and return its task accuracy.

    LOSO: the mean test accuracy over every (fold, classifier) row. Sweep: the
    selected row's validation task accuracy. Raises OutputError on any defect,
    including a failed fold or a file the run should not have written.
    """
    if workload.command == "sweep":
        path = out / "sweep" / "sweep.csv"
        rows = _read(path, SWEEP_HEADER, SWEEP_FITS + 1)
        _unit_interval(path, rows, ("val_task_acc", "adversary_acc", "nuisance_acc"))
        if rows[-1]["stage"] != "selected":
            raise OutputError(f"{path}: last row is not the selected row")
        expected = {path}
        acc = float(rows[-1]["val_task_acc"])
    else:
        root = out / "loso"
        subjects = [str(s) for s in range(workload.n_subjects)]
        expected = {root / "summary.csv"}
        summary = _read(root / "summary.csv", SUMMARY_HEADER, len(workload.kinds))
        _unit_interval(root / "summary.csv", summary, ("mean", "median", "q1", "q3"))
        accs = []
        for kind in workload.kinds:
            path = root / "DA-cAE" / kind / "folds.csv"
            expected.add(path)
            rows = _read(path, FOLD_HEADER, workload.n_subjects)
            if [r["subject"] for r in rows] != subjects:
                raise OutputError(f"{path}: subjects {[r['subject'] for r in rows]}")
            failed = [r["subject"] for r in rows if r["status"] != "done"]
            if failed:
                raise OutputError(f"{path}: failed folds for subjects {failed}")
            _unit_interval(path, rows, ("test_acc", "adversary_acc", "nuisance_acc"))
            accs += [float(r["test_acc"]) for r in rows]
        for subject in subjects:
            path = root / "DA-cAE" / f"trainlog_fold{subject}.csv"
            expected.add(path)
            rows = _read(path, TRAINLOG_HEADER, workload.epochs)
            _unit_interval(path, rows, ("adversary_acc", "nuisance_acc", "val_task_acc"))
        acc = sum(accs) / len(accs)
    found = {p for p in out.rglob("*") if p.is_file()}
    if found != expected:
        extra = sorted(str(p) for p in found - expected)
        missing = sorted(str(p) for p in expected - found)
        raise OutputError(f"unexpected result tree: extra {extra}, missing {missing}")
    return acc
