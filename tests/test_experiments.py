"""Experiment harness: config, LOSO runs, ablations, reporting."""

import filecmp
import json
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from dacae import (
    ConfigError,
    ExperimentConfig,
    FoldResult,
    HyperConfig,
    ReportError,
    SyntheticSpec,
    generate_synthetic,
    holdout_split,
    load_dataset,
    report,
    run_datasize,
    run_loso,
    run_sweep,
    run_table3,
    summarize,
)
from dacae.data import SplitPlan
from dacae.experiments import TABLE3_ROWS, _FoldJob, _groups, _parse_folds_csv
from dacae.nn import make_rng


# four trials per cell, so a fraction of 0.5 leaves every cell two trials
FOUR_TRIALS = SyntheticSpec(n_subjects=3, n_classes=2, n_channels=4, samples_per_cell=12,
                            trials_per_cell=4, seed=1)


def tiny_config(out, **kw):
    defaults = dict(
        synthetic=SyntheticSpec(n_subjects=3, n_classes=2, n_channels=4,
                                samples_per_cell=12, trials_per_cell=2, seed=0),
        variants=("AE", "DA-cAE"),
        classifiers=("lda",),
        learning_rate=0.05, batch_size=16, epochs=2,
        seed=0, jobs=1, out=str(out))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# -- configuration ----------------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"latent_dimension": 15})


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, variants=("VAE",))
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, classifiers=("forest",))
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, fractions=(0.0,))
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, jobs=0)
    with pytest.raises(ConfigError):
        tiny_config(tmp_path, learning_rate=-1.0)
    with pytest.raises(ConfigError, match="^sgd field 'seed' must be >= 0, got -1$"):
        tiny_config(tmp_path, seed=-1)


def test_config_from_json_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "synthetic": {"n_subjects": 3, "n_classes": 2, "samples_per_cell": 5},
        "variants": ["AE"],
        "classifiers": ["nearest-neighbors"],
        "epochs": 1,
    }), encoding="utf-8")
    cfg = ExperimentConfig.from_json(path)
    assert cfg.synthetic.n_subjects == 3
    assert cfg.classifiers == ("knn",)


def test_config_from_json_errors(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        ExperimentConfig.from_json(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        ExperimentConfig.from_json(arr)


def test_load_dataset_missing_path(tmp_path):
    cfg = tiny_config(tmp_path, dataset=str(tmp_path / "absent.csv"))
    with pytest.raises(ConfigError, match="does not exist"):
        load_dataset(cfg)


def test_hyper_respects_variant_defaults(tmp_path):
    cfg = tiny_config(tmp_path)
    h = cfg.hyper("DA-cAE", seed=5)
    assert h.lambda_a == cfg.lambda_a and h.lambda_n == cfg.lambda_n
    assert h.r_n == pytest.approx(1.0 / 3.0)
    assert h.sgd.seed == 5
    ae = cfg.hyper("AE", seed=5)
    assert ae.lambda_a == 0.0 and ae.lambda_n == 0.0 and ae.r_n == 0.0


# -- LOSO ------------------------------------------------------------------------

def test_run_loso_layout_and_accounting(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    results, summary = run_loso(cfg)
    # every (variant, subject, classifier) exactly once
    seen = {(r.variant, r.subject, r.classifier) for r in results}
    assert len(results) == len(seen) == 2 * 3 * 1
    assert all(r.status == "done" for r in results)
    root = tmp_path / "out" / "loso"
    for variant in ("AE", "DA-cAE"):
        folds = root / variant / "lda" / "folds.csv"
        assert folds.is_file()
        lines = folds.read_text().splitlines()
        assert lines[0].startswith("subject,variant,classifier,status,test_acc")
        assert len(lines) == 4
        for subj in range(3):
            assert (root / variant / f"trainlog_fold{subj}.csv").is_file()
    assert (root / "summary.csv").is_file()
    assert {s.variant for s in summary} == {"AE", "DA-cAE"}
    assert all(s.folds == 3 and s.failed == 0 for s in summary)


@pytest.mark.parametrize("runner", [run_loso, run_table3, run_datasize, run_sweep],
                         ids=lambda f: f.__name__)
def test_runners_byte_identical_across_worker_counts(tmp_path, runner):
    for out, jobs in (("one", 1), ("two", 2)):
        runner(tiny_config(tmp_path / out, synthetic=FOUR_TRIALS, seed=1, jobs=jobs,
                           fractions=(0.5, 1.0)))
    a_root, b_root = tmp_path / "one", tmp_path / "two"
    a_files = sorted(p.relative_to(a_root) for p in a_root.rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(b_root) for p in b_root.rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert filecmp.cmp(a_root / rel, b_root / rel, shallow=False), rel


def test_pool_has_at_most_one_worker_per_job(tmp_path, monkeypatch):
    import dacae.experiments as experiments
    sizes = []

    class StubPool:  # records its size and runs inline, so no process starts
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", StubPool)
    run_loso(tiny_config(tmp_path / "five", variants=("AE",), jobs=5))  # 3 fold jobs
    assert sizes == [3]
    run_loso(tiny_config(tmp_path / "two", variants=("AE",), jobs=2))
    assert sizes == [3, 2]
    # with an mlp the 6 jobs run in min(jobs, groups) workers: 5 groups on 5 workers,
    # 2 on 2, and one group, inline, on 1
    for jobs in (5, 2, 1):
        run_loso(tiny_config(tmp_path / f"mlp{jobs}", classifiers=("mlp",), jobs=jobs))
    assert sizes == [3, 2, 5, 2]
    monkeypatch.setattr(experiments, "_run_fold",
                        lambda dataset, group: [(job.subdir, None) for job in group])
    only, a, b = (_FoldJob(name, None, None, ("mlp",), ()) for name in ("only", "a", "b"))
    assert experiments._execute(None, [only], 4) == [("only", None)]  # one job runs inline
    assert experiments._execute(None, [a, b], 1) == [("a", None), ("b", None)]
    assert sizes == [3, 2, 5, 2]


@pytest.mark.parametrize("n_jobs, n_workers, sizes", [
    (4, 1, [4]), (30, 1, [8, 8, 7, 7]), (30, 2, [8, 8, 7, 7]), (20, 2, [5, 5, 5, 5]),
    (3, 5, [1, 1, 1]), (6, 4, [2, 2, 1, 1])])
def test_fold_jobs_run_in_groups_of_at_most_eight(n_jobs, n_workers, sizes):
    jobs = [_FoldJob(str(i), None, None, ("lda", "mlp"), ()) for i in range(n_jobs)]
    groups = _groups(jobs, n_workers)
    assert [len(g) for g in groups] == sizes
    assert [job for g in groups for job in g] == jobs  # consecutive, in job order
    # only the MLP stacks: with no mlp among any job's kinds, every job is its own group
    jobs = [_FoldJob(str(i), None, None, ("lda", "tree"), ()) for i in range(n_jobs)]
    assert [g for g in _groups(jobs, n_workers)] == [[job] for job in jobs]


def test_overflowing_mlp_fit_in_a_stack_fails_only_its_fold(monkeypatch):
    # fold 1's training codes overflow its MLP fit; the group's stacked fit raises
    # (overflow in matmul), its folds refit one by one, and every row equals the row
    # the fold records alone, fold 1's error text included (its 2-D fit's np.dot)
    import dacae.experiments as experiments
    rng = make_rng(7, 12)
    codes = {}
    for subject in range(4):
        z = rng.standard_normal((40, 3)) * (1e100 if subject == 1 else 1.0)
        codes[subject] = (z, np.arange(40) % 2, rng.standard_normal((10, 3)),
                          np.arange(10) % 2, 0.5, 0.25)
    monkeypatch.setattr(experiments, "_encode_fold",
                        lambda dataset, job: (codes[job.plan.test_subject], None))
    empty = np.arange(0)
    jobs = [_FoldJob("DA-cAE", ExperimentConfig().hyper("DA-cAE", 0),
                     SplitPlan(subject, empty, empty, empty), ("mlp", "lda"), (11 + subject, 0))
            for subject in range(4)]
    real_fit, stacked = experiments.classifiers.fit, []

    def fit(kind, z, *args, **kwargs):
        try:
            return real_fit(kind, z, *args, **kwargs)
        except FloatingPointError as err:
            stacked.append((z.ndim, str(err)))
            raise

    monkeypatch.setattr(experiments.classifiers, "fit", fit)
    group = experiments._run_fold(None, jobs)
    alone = [out for job in jobs for out in experiments._run_fold(None, [job])]
    assert [str(results) for results, _ in group] == [str(results) for results, _ in alone]
    assert stacked == [(3, "overflow encountered in matmul"), (2, "overflow encountered in dot"),
                       (2, "overflow encountered in dot")]  # the stack, its refit, the solo fit
    (mlp, lda) = group[1][0]
    assert (mlp.status, mlp.error) == ("failed", "FloatingPointError: overflow encountered in dot")
    assert lda.status == "done"
    assert all(r.status == "done" for i, (results, _) in enumerate(group) if i != 1
               for r in results)


def test_healthy_group_fits_its_mlps_in_one_stacked_call(monkeypatch):
    # four healthy folds share one code shape and a fifth has one more row: the four
    # MLPs fit in one call on a (4, n, d) stack with no 2-D refit, the fifth fits alone,
    # lda fits fold by fold, and every row equals the row its fold records alone
    import dacae.experiments as experiments
    rng = make_rng(8, 12)
    rows = [40, 40, 40, 40, 41]
    codes = {subject: (rng.standard_normal((n, 3)), np.arange(n) % 2,
                       rng.standard_normal((10, 3)), np.arange(10) % 2, 0.5, 0.25)
             for subject, n in enumerate(rows)}
    monkeypatch.setattr(experiments, "_encode_fold",
                        lambda dataset, job: (codes[job.plan.test_subject], None))
    empty = np.arange(0)
    jobs = [_FoldJob("AE", ExperimentConfig().hyper("AE", 0),
                     SplitPlan(subject, empty, empty, empty), ("lda", "mlp"), (0, 11 + subject))
            for subject in range(5)]
    real_fit, calls = experiments.classifiers.fit, []
    monkeypatch.setattr(experiments.classifiers, "fit", lambda kind, z, *args, **kwargs: (
        calls.append((kind, z.shape)) or real_fit(kind, z, *args, **kwargs)))
    group = experiments._run_fold(None, jobs)
    assert calls == [("mlp", (4, 40, 3))] + [("lda", (40, 3))] * 4 + [("lda", (41, 3)),
                                                                      ("mlp", (41, 3))]
    alone = [out for job in jobs for out in experiments._run_fold(None, [job])]
    assert [str(results) for results, _ in group] == [str(results) for results, _ in alone]
    assert all(r.status == "done" for results, _ in group for r in results)


def test_run_loso_rerun_byte_identical(tmp_path):
    cfg1 = tiny_config(tmp_path / "a", seed=3)
    cfg2 = tiny_config(tmp_path / "b", seed=3)
    run_loso(cfg1)
    run_loso(cfg2)
    for rel in ("loso/summary.csv", "loso/AE/lda/folds.csv"):
        assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False)


def test_run_loso_diverged_folds_marked_failed(tmp_path):
    cfg = tiny_config(tmp_path / "out", learning_rate=1e9, epochs=1)
    results, summary = run_loso(cfg)
    assert all(r.status == "failed" for r in results)
    assert all(np.isnan(r.test_acc) for r in results)
    assert all(r.error for r in results)
    assert all(s.folds == 0 and s.failed == 3 for s in summary)
    assert all(np.isnan(s.mean) for s in summary)


# -- summaries ----------------------------------------------------------------------

def _fold(acc, variant="AE", classifier="lda", status="done", subject=0):
    return FoldResult(subject, variant, classifier, status, acc, 0.5, 0.5,
                      0.0, 0.0, 0.0)


def test_summarize_quartile_oracle():
    rows = summarize([_fold(a, subject=i)
                      for i, a in enumerate((0.6, 0.7, 0.8, 0.9))])
    row = rows[0]
    assert row.q1 == pytest.approx(0.675)
    assert row.median == pytest.approx(0.75)
    assert row.q3 == pytest.approx(0.825)
    assert row.mean == pytest.approx(0.75)
    assert row.min == 0.6 and row.max == 0.9
    assert row.folds == 4 and row.failed == 0


def test_summarize_single_fold_degenerate():
    row = summarize([_fold(0.8)])[0]
    assert row.mean == row.median == row.q1 == row.q3 == row.min == row.max == 0.8


def test_summarize_separates_failed():
    rows = summarize([_fold(0.6), _fold(float("nan"), status="failed", subject=1)])
    assert rows[0].folds == 1 and rows[0].failed == 1
    assert rows[0].mean == pytest.approx(0.6)


# -- table3 ---------------------------------------------------------------------------

def test_run_table3_rows_and_chance(tmp_path):
    cfg = tiny_config(tmp_path / "out", variants=("AE",))  # variants ignored by design
    results, table = run_table3(cfg)
    assert len(table) == len(TABLE3_ROWS) == 10
    assert [t.variant for t in table] == [v for v, _, _ in TABLE3_ROWS]
    assert all(t.chance == pytest.approx(1.0 / 3.0) for t in table)
    assert all(t.folds == 3 and t.failed == 0 for t in table)
    assert all(r.classifier == "mlp" for r in results)
    d_rows = [t for t in table if t.variant == "D-cAE"]
    assert [t.lambda_n for t in d_rows] == [0.005, 0.01, 0.2, 0.5]
    assert all(t.r_n == pytest.approx(1.0 / 3.0) for t in d_rows)
    csv_path = tmp_path / "out" / "table3" / "table3.csv"
    assert csv_path.is_file()
    assert len(csv_path.read_text().splitlines()) == 11


def test_table3_rows_match_their_own_folds_csv(tmp_path):
    _, table = run_table3(tiny_config(tmp_path / "out", synthetic=FOUR_TRIALS, seed=1))
    root = tmp_path / "out" / "table3"
    assert len({t.task_acc for t in table}) > 1  # rows differ, so a mix-up would show
    for ri, (row, (variant, lambda_a, lambda_n)) in enumerate(zip(table, TABLE3_ROWS)):
        (path,) = root.glob(f"row{ri:02d}_{variant}/mlp/folds.csv")
        folds = _parse_folds_csv(path)
        done = [r for r in folds if r.status == "done"]
        (written,) = {(r.variant, r.lambda_a, r.lambda_n, r.r_n) for r in folds}
        assert (row.variant, row.lambda_a, row.lambda_n, row.r_n) == written
        assert written[:3] == (variant, lambda_a, lambda_n)
        assert row.task_acc == np.mean([r.test_acc for r in done])
        assert row.adversary_acc == np.mean([r.adversary_acc for r in done])
        assert row.nuisance_acc == np.mean([r.nuisance_acc for r in done])
        assert (row.folds, row.failed) == (len(done), len(folds) - len(done))


# -- datasize ----------------------------------------------------------------------------

def test_run_datasize_full_fraction_reproduces_loso(tmp_path):
    spec = SyntheticSpec(n_subjects=3, n_classes=2, n_channels=4,
                         samples_per_cell=12, trials_per_cell=4, seed=5)
    cfg = tiny_config(tmp_path / "out", synthetic=spec, seed=5,
                      fractions=(0.5, 1.0))
    loso_results, _ = run_loso(cfg)
    curve, by_fraction = run_datasize(cfg)
    assert set(by_fraction) == {0.5, 1.0}
    full = {(r.variant, r.subject): r.test_acc for r in by_fraction[1.0]}
    base = {(r.variant, r.subject): r.test_acc for r in loso_results}
    assert full == base
    fracs = {c.fraction for c in curve}
    assert fracs == {0.5, 1.0}
    assert (tmp_path / "out" / "datasize" / "curve.csv").is_file()
    assert (tmp_path / "out" / "datasize" / "frac1.0" / "AE" / "lda" / "folds.csv").is_file()


def test_datasize_curve_matches_each_fractions_folds_csv(tmp_path):
    cfg = tiny_config(tmp_path / "out", synthetic=FOUR_TRIALS, seed=1, classifiers=("lda", "knn"),
                      fractions=(0.5, 1.0))
    curve, by_fraction = run_datasize(cfg)
    root = tmp_path / "out" / "datasize"
    means = {}
    for fraction in cfg.fractions:
        files = [r for path in sorted((root / f"frac{fraction}").rglob("folds.csv"))
                 for r in _parse_folds_csv(path)]
        assert sorted(map(astuple, by_fraction[fraction])) == sorted(map(astuple, files))
        expected = {(s.variant, s.classifier): (s.mean, s.folds, s.failed)
                    for s in summarize(files)}
        got = {(c.variant, c.classifier): (c.mean_acc, c.folds, c.failed)
               for c in curve if c.fraction == fraction}
        assert got == expected
        means[fraction] = [m for m, _, _ in got.values()]
    assert means[0.5] != means[1.0]  # fractions differ, so a mix-up would show


def test_run_datasize_rejects_unsplittable_cells(tmp_path):
    # one trial per cell: any fraction below 1.0 must name the vanished cells
    cfg = tiny_config(tmp_path / "out", fractions=(0.5,))
    with pytest.raises(ConfigError, match="cells"):
        run_datasize(cfg)


# -- sweep and holdout ---------------------------------------------------------------------

def test_holdout_split_trial_integrity():
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=3, n_classes=2,
                                                samples_per_cell=10,
                                                trials_per_cell=2, seed=6))
    train_ids, val_ids = holdout_split(ds, 0.25, seed=6)
    assert not set(train_ids) & set(val_ids)
    assert len(train_ids) + len(val_ids) == len(ds)
    assert not set(ds.trial[train_ids]) & set(ds.trial[val_ids])
    assert len(np.unique(ds.trial[val_ids])) == 3  # 12 trials x 0.25


def test_holdout_split_validation():
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=2, n_classes=2,
                                                samples_per_cell=4, seed=7))
    with pytest.raises(ConfigError):
        holdout_split(ds, 1.5, seed=0)


def test_run_sweep_writes_csv(tmp_path):
    cfg = tiny_config(tmp_path / "out", sweep_classifier="lda",
                      sweep_lambda_n=(0.0, 0.01), sweep_lambda_a=(0.0, 0.1),
                      epochs=1)
    result = run_sweep(cfg)
    assert len(result.rows) == 4
    path = tmp_path / "out" / "sweep" / "sweep.csv"
    assert path.is_file()
    assert path.read_text().splitlines()[-1].startswith("selected,")


def test_run_sweep_trains_configured_extractor(tmp_path, monkeypatch):
    import dacae.training as training
    seen = []
    real = training.fit_feature_extractor

    def spy(dataset, config, val=None, **kw):  # counts configs trained, one run or a stack
        seen.extend([config] if isinstance(config, HyperConfig) else config)
        return real(dataset, config, val=val, **kw)

    monkeypatch.setattr(training, "fit_feature_extractor", spy)
    cfg = tiny_config(tmp_path / "out", sweep_classifier="lda", latent_dim=4, r_n=0.25,
                      sweep_lambda_n=(0.0, 0.01), sweep_lambda_a=(0.1,), epochs=1)
    run_sweep(cfg)
    assert len(seen) == 3
    assert all(c.latent_dim == 4 and c.r_n == 0.25 and c.variant == "DA-cAE"
               and c.sgd == cfg.hyper("DA-cAE", cfg.seed).sgd for c in seen)


# -- report -----------------------------------------------------------------------------

def test_report_aggregates_and_matrix(tmp_path):
    out = tmp_path / "out"
    cfg = tiny_config(out, classifiers=("lda", "knn"))
    run_loso(cfg)
    summary, matrix = report(out / "loso")
    assert (out / "loso" / "report_summary.csv").is_file()
    assert (out / "loso" / "report_matrix.csv").is_file()
    assert matrix[0] == ["classifier", "AE", "DA-cAE"]
    assert [row[0] for row in matrix[1:]] == ["knn", "lda"]
    for row in matrix[1:]:
        assert all(isinstance(v, float) for v in row[1:])
    keys = {(s.variant, s.classifier) for s in summary}
    assert keys == {("AE", "lda"), ("AE", "knn"), ("DA-cAE", "lda"), ("DA-cAE", "knn")}


def test_report_missing_directory_raises(tmp_path):
    with pytest.raises(ReportError, match="missing results directory"):
        report(tmp_path / "absent")


def test_report_no_folds_raises(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ReportError, match="no folds.csv"):
        report(tmp_path / "empty")


def test_report_corrupt_file_named(tmp_path):
    bad_dir = tmp_path / "res" / "AE" / "lda"
    bad_dir.mkdir(parents=True)
    (bad_dir / "folds.csv").write_text("subject,bogus\n1,2\n", encoding="utf-8")
    with pytest.raises(ReportError, match="folds.csv"):
        report(tmp_path / "res")


@pytest.mark.parametrize("cell, message", [
    ("abc", "could not convert string to float: 'abc'"),
    (None, "float\\(\\) argument must be a string or a real number, not 'NoneType'"),
    ("x" * 200_000, r"field larger than field limit \(131072\)"),
], ids=["bad-cell", "short-row", "oversized-cell"])
def test_report_bad_row_names_file(tmp_path, cell, message):
    out = tmp_path / "out"
    run_loso(tiny_config(out, variants=("AE",)))
    path = out / "loso" / "AE" / "lda" / "folds.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("test_acc")
    cells = lines[1].split(",")
    row = cells[:col] if cell is None else [*cells[:col], cell, *cells[col + 1:]]
    path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n", encoding="utf-8")
    with pytest.raises(ReportError, match=r"folds\.csv: " + message):
        report(out / "loso")


def test_report_reads_back_fold_results(tmp_path):
    out = tmp_path / "out"
    results, _ = run_loso(tiny_config(out))
    parsed = [r for path in sorted((out / "loso").rglob("folds.csv"))
              for r in _parse_folds_csv(path)]
    assert parsed == results
    assert all(type(r.subject) is int and type(r.test_acc) is float for r in parsed)


def test_report_separate_output_dir(tmp_path):
    out = tmp_path / "out"
    run_loso(tiny_config(out))
    dest = tmp_path / "pub"
    report(out / "loso", out_dir=dest)
    assert (dest / "report_summary.csv").is_file()
    assert (dest / "report_matrix.csv").is_file()
