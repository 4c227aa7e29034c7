"""Command-line interface: subcommands, overrides, exit codes."""

import csv
import filecmp
import json

import numpy as np
import pytest

from dacae import (HyperConfig, SyntheticSpec, classifiers, generate_synthetic, load_checkpoint,
                   load_csv, load_synthetic_sidecar, save_csv)
from dacae.cli import main


def write_config(tmp_path, **kw):
    cfg = {
        "synthetic": {"n_subjects": 3, "n_classes": 2, "n_channels": 4,
                      "samples_per_cell": 12, "trials_per_cell": 2, "seed": 0},
        "variants": ["AE", "DA-cAE"],
        "classifiers": ["lda"],
        "learning_rate": 0.05,
        "batch_size": 16,
        "epochs": 2,
        "out": str(tmp_path / "out"),
    }
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_synth_writes_csv_and_sidecar(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    csv_path = tmp_path / "out" / "synthetic.csv"
    assert csv_path.is_file()
    ds = load_csv(csv_path)
    assert len(ds) == 3 * 2 * 12
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "subject,trial,label,t,ch0,ch1,ch2,ch3"
    spec, T, U = load_synthetic_sidecar(csv_path)
    assert spec.n_subjects == 3 and T.shape == (2, 4) and U.shape == (3, 4)
    assert "wrote" in capsys.readouterr().out


def test_synth_seed_override_changes_data(tmp_path):
    cfg = write_config(tmp_path)
    main(["synth", "--config", str(cfg)])
    base = (tmp_path / "out" / "synthetic.csv").read_bytes()
    main(["synth", "--config", str(cfg), "--seed", "9"])
    assert (tmp_path / "out" / "synthetic.csv").read_bytes() != base


def test_train_writes_loadable_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, variants=["DA-cAE"])
    assert main(["train", "--config", str(cfg)]) == 0
    root = tmp_path / "out" / "train"
    params, hyper, norm = load_checkpoint(root / "model.npz")
    assert hyper.variant == "DA-cAE"
    assert params.n_channels == 4 and params.n_subjects == 3
    assert norm is not None
    log_lines = (root / "trainlog.csv").read_text().splitlines()
    assert log_lines[0].startswith("epoch,total_loss,")
    assert len(log_lines) == 3
    assert "val task accuracy" in capsys.readouterr().out


def test_loso_success_and_rerun_identical(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["loso", "--config", str(cfg)]) == 0
    first = capsys.readouterr().out
    assert "mean=" in first
    out2 = tmp_path / "out2"
    assert main(["loso", "--config", str(cfg), "--out", str(out2)]) == 0
    for rel in ("summary.csv", "AE/lda/folds.csv", "DA-cAE/lda/folds.csv"):
        assert filecmp.cmp(tmp_path / "out" / "loso" / rel,
                           out2 / "loso" / rel, shallow=False), rel


def test_loso_variant_flag_overrides(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["loso", "--config", str(cfg), "--variant", "cAE"]) == 0
    root = tmp_path / "out" / "loso"
    assert (root / "cAE" / "lda" / "folds.csv").is_file()
    assert not (root / "AE").exists()


def test_loso_diverged_exit_code(tmp_path):
    cfg = write_config(tmp_path, learning_rate=1e9, epochs=1, variants=["AE"])
    assert main(["loso", "--config", str(cfg)]) == 2


def test_sweep_divergence_matches_the_diverging_point_fit_alone(tmp_path, monkeypatch, capsys):
    # stage 1 trains as one stack. After a healthy point, lambda_n=1000 diverges at batch 2
    # and lambda_n=1e6 at batch 0, so the stack stops on the later grid point first. The
    # sweep must still fail as fitting lambda_n=1000 alone fails, and stage 2 never trains
    import dacae.training as training
    trained = []
    real = training.fit_feature_extractor

    def spy(dataset, config, val=None, **kw):
        trained.extend([config] if isinstance(config, HyperConfig) else config)
        return real(dataset, config, val=val, **kw)

    monkeypatch.setattr(training, "fit_feature_extractor", spy)
    cfg = write_config(tmp_path, sweep_classifier="lda", sweep_lambda_n=[0.01, 1000.0, 1e6],
                       sweep_lambda_a=[0.0, 0.1], epochs=1)
    assert main(["sweep", "--config", str(cfg)]) == 2
    sweep_err = capsys.readouterr().err
    assert {c.lambda_a for c in trained} == {0.0}
    assert not (tmp_path / "out" / "sweep").exists()

    solo = write_config(tmp_path, variants=["DA-cAE"], lambda_a=0.0, lambda_n=1000.0, epochs=1)
    assert main(["train", "--config", str(solo)]) == 2
    assert sweep_err == capsys.readouterr().err
    assert sweep_err.startswith("training diverged: epoch 0, batch 2: joint loss ")


def test_unknown_config_key_exit_code(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"latent_dimension": 12}), encoding="utf-8")
    assert main(["loso", "--config", str(path)]) == 1


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["loso", "--config", str(tmp_path / "absent.json")]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, overrides, message", [
    ("loso", {"variants": ["AE", "AE"]}, "duplicate variants in ('AE', 'AE')"),
    ("loso", {"classifiers": ["lda", "linear-discriminant"]},
     "duplicate classifiers in ('lda', 'lda')"),
    ("datasize", {"fractions": [0.5, 1.0, 0.5]}, "duplicate fractions in (0.5, 1.0, 0.5)"),
    ("loso", {"synthetic": {"n_subjects": 3, "sampels": 4}},
     "unknown synthetic keys ['sampels']"),
    ("loso", {"synthetic": [3]}, "synthetic must be a JSON object"),
    ("sweep", {"epochs": "2"}, "config field 'epochs' must be int, got '2'"),
    ("sweep", {"synthetic": {"n_subjects": "3"}},
     "synthetic field 'n_subjects' must be int, got '3'"),
    ("loso", {"epochs": True}, "config field 'epochs' must be int, got True"),
    ("sweep", {"sweep_lambda_n": [0.01, 0.01]}, "duplicate sweep_lambda_n in (0.01, 0.01)"),
    ("sweep", {"sweep_lambda_a": [0.1, 0.5, 0.1]}, "duplicate sweep_lambda_a in (0.1, 0.5, 0.1)"),
    ("loso", {"variants": []}, "variants must not be empty"),
    ("loso", {"classifiers": []}, "classifiers must not be empty"),
    ("sweep", {"sweep_lambda_n": []}, "sweep_lambda_n must not be empty"),
    ("sweep", {"sweep_lambda_a": []}, "sweep_lambda_a must not be empty"),
    ("sweep", {"latent_dim": 0}, "latent_dim must be >= 1"),
    ("train", {}, "train fits exactly one variant, got ['AE', 'DA-cAE']; pass --variant NAME"),
    ("loso", {"lambda_a": float("nan")}, "config field 'lambda_a' must be finite float, got nan"),
    ("loso", {"lambda_n": float("inf")}, "config field 'lambda_n' must be finite float, got inf"),
    ("loso", {"synthetic": {"sigma": float("nan")}},
     "synthetic field 'sigma' must be finite float, got nan"),
], ids=["repeated-variant", "repeated-classifier-alias", "repeated-fraction",
        "unknown-synthetic-key", "synthetic-not-object", "string-epochs",
        "string-synthetic-int", "bool-epochs", "repeated-sweep-lambda-n",
        "repeated-sweep-lambda-a", "empty-variants", "empty-classifiers",
        "empty-sweep-lambda-n", "empty-sweep-lambda-a", "sweep-zero-latent-dim",
        "train-two-variants", "nan-lambda-a", "infinite-lambda-n", "nan-synthetic-sigma"])
def test_bad_config_exit_code(tmp_path, capsys, command, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_non_finite_fold_fails_alone(tmp_path, capsys):
    # subject 2's rows overflow every channel sum that includes them: the folds that
    # train on them fail at normalization; the fold that holds them out trains on finite
    # rows, but its test codes near 1e307 overflow the LDA scores, which fails that row only
    ds, _, _ = generate_synthetic(SyntheticSpec(n_subjects=3, n_classes=2, n_channels=4,
                                                samples_per_cell=12, trials_per_cell=2))
    ds.x *= 10.0
    ds.x[ds.s == 2, 0] = 1.7e308
    ds.x[ds.s == 2, 1] = -1.7e308
    save_csv(tmp_path / "huge.csv", ds)
    cfg = write_config(tmp_path, dataset=str(tmp_path / "huge.csv"), classifiers=["lda", "mlp"])
    assert main(["loso", "--config", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    for variant in ("AE", "DA-cAE"):
        root = tmp_path / "out" / "loso" / variant
        lda, mlp = (_csv_rows(root / kind / "folds.csv") for kind in ("lda", "mlp"))
        assert [(r["subject"], r["status"]) for r in lda] == [
            ("0", "failed"), ("1", "failed"), ("2", "failed")]
        assert [(r["subject"], r["status"]) for r in mlp] == [
            ("0", "failed"), ("1", "failed"), ("2", "done")]
        for rows in (lda, mlp):
            assert rows[0]["error"] == rows[1]["error"] == "ValueError: non-finite channel values"
        assert lda[2]["error"] == "ValueError: non-finite scores: features too large"
        assert lda[2]["test_acc"] == "nan"
        assert mlp[2]["error"] == ""


def test_classifier_failure_fails_only_its_row(tmp_path, monkeypatch, capsys):
    real_fit, calls = classifiers.fit, []

    def fit(kind, *args, **kwargs):
        calls.append(kind)
        if kind == "svm" and calls.count("svm") == 2:  # the second fold of the first variant
            raise np.linalg.LinAlgError("singular matrix")
        return real_fit(kind, *args, **kwargs)

    monkeypatch.setattr(classifiers, "fit", fit)
    cfg = write_config(tmp_path, classifiers=["lda", "svm"])
    assert main(["loso", "--config", str(cfg)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    root = tmp_path / "out" / "loso"
    svm = _csv_rows(root / "AE" / "svm" / "folds.csv")
    assert [r["status"] for r in svm] == ["done", "failed", "done"]
    assert svm[1]["error"] == "LinAlgError: singular matrix"
    assert svm[1]["test_acc"] == "nan"
    for rel in ("AE/lda", "DA-cAE/svm"):
        assert [r["status"] for r in _csv_rows(root / rel / "folds.csv")] == ["done"] * 3
    summary = {(r["variant"], r["classifier"]): r for r in _csv_rows(root / "summary.csv")}
    assert (summary["AE", "svm"]["folds"], summary["AE", "svm"]["failed"]) == ("2", "1")


@pytest.mark.parametrize("kinds", [["lda", "tree"], ["tree", "mlp"]],
                         ids=["one-job-groups", "stacked-group"])
def test_memory_error_in_one_tree_fit_fails_only_its_row(tmp_path, monkeypatch, capfd, kinds):
    # the MemoryError hits the tree fit on the second fold's training codes, in a run of
    # one-job groups and in one group of six whose MLP classifiers fit as one stack
    real_train, seen = classifiers.TreeClassifier.train, []

    def record(cls, z, y, **kw):
        seen.append(z.tobytes())
        return real_train(z, y, **kw)

    def poisoned(cls, z, y, **kw):
        if z.tobytes() == seen[1]:
            raise MemoryError("tree fit out of memory")
        return real_train(z, y, **kw)

    trees = {}
    for name, train in (("healthy", record), ("poisoned", poisoned)):
        monkeypatch.setattr(classifiers.TreeClassifier, "train", classmethod(train))
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, classifiers=kinds)
        assert main(["loso", "--config", str(cfg), "--jobs", "1"]) == (0 if name == "healthy"
                                                                        else 2)
        assert "Traceback" not in capfd.readouterr().err
        root = tmp_path / name / "out" / "loso"
        trees[name] = {p.relative_to(root): p.read_bytes() for p in root.rglob("*.csv")
                       if p.name != "summary.csv"}
    assert trees["healthy"].keys() == trees["poisoned"].keys()
    for rel, healthy in trees["healthy"].items():
        if rel.as_posix() != "AE/tree/folds.csv":
            assert trees["poisoned"][rel] == healthy, rel
    want = _csv_rows(tmp_path / "healthy" / "out" / "loso" / "AE" / "tree" / "folds.csv")
    got = _csv_rows(tmp_path / "poisoned" / "out" / "loso" / "AE" / "tree" / "folds.csv")
    want[1].update(status="failed", test_acc="nan", error="MemoryError: tree fit out of memory")
    assert got == want


def test_missing_dataset_exit_code(tmp_path):
    cfg = write_config(tmp_path, dataset=str(tmp_path / "absent.csv"))
    assert main(["loso", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("row, message", [
    ("1,5,0,0.0,abc,2.0", "data.csv:3: could not convert string to float: 'abc'"),
    ("1,5,0,0.0,nan,2.0", "data.csv: non-finite channel values"),
    ("1,5,0,0.0,1.0", "data.csv:3: expected 6 columns, got 5"),
    ("1,0,1,0.0,1.0,2.0", "data.csv: trial id 0 is shared across (subject, label) pairs"),
    ("-1,5,0,0.0,1.0,2.0", "data.csv: subject id out of range"),
    ("3,5,0,0.0,1.0,2.0", "data.csv: subject id 1 is missing; ids must run 0..S-1"),
    ("1,5,0,nan,1.0,2.0", "data.csv: non-finite time values"),
    ("1,5,0,0.0,\xff,2.0", "data.csv: 'utf-8' codec can't decode byte 0xff"),
    ("1,5,0,0.0,1" + "0" * 131072 + ",2.0", "data.csv: field larger than field limit"),
], ids=["unparsable", "non-finite", "short-row", "shared-trial", "negative-subject",
        "sparse-subjects", "non-finite-time", "not-utf8", "oversized-field"])
def test_bad_dataset_csv_exit_code(tmp_path, capsys, row, message):
    path = tmp_path / "data.csv"
    path.write_text(f"subject,trial,label,t,ch0,ch1\n0,0,0,0.0,1.0,2.0\n{row}\n",
                    encoding="latin-1")
    cfg = write_config(tmp_path, dataset=str(path))
    assert main(["loso", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and message in err
    assert "Traceback" not in err


def test_report_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["loso", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "out" / "loso")]) == 0
    assert (tmp_path / "out" / "loso" / "report_matrix.csv").is_file()
    assert "mean=" in capsys.readouterr().out


def test_report_missing_dir_exit_code(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent")]) == 3
    assert "report error" in capsys.readouterr().err


def test_sweep_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, epochs=1, sweep_classifier="lda",
                       sweep_lambda_n=[0.0, 0.01], sweep_lambda_a=[0.0, 0.1])
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "sweep" / "sweep.csv").is_file()
    assert "selected lambda_a=" in capsys.readouterr().out


def test_table3_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, epochs=1)
    assert main(["table3", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.count("lambda_a=") == 10
    assert (tmp_path / "out" / "table3" / "table3.csv").is_file()


def test_datasize_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, epochs=1, fractions=[0.5, 1.0])
    cfg_obj = json.loads(cfg.read_text())
    cfg_obj["synthetic"]["trials_per_cell"] = 4
    cfg.write_text(json.dumps(cfg_obj), encoding="utf-8")
    assert main(["datasize", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "datasize" / "curve.csv").is_file()
    assert "fraction=0.5" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command, n_jobs", [("loso", 6), ("table3", 30), ("datasize", 12)])
def test_fold_progress_on_stderr_in_job_order(tmp_path, capfd, command, n_jobs, jobs):
    # 3 subjects; loso runs 2 variants, table3 its 10 rows, datasize 2 fractions x 2 variants.
    # capfd, since pool workers would write to the process's own stderr
    cfg = write_config(tmp_path, epochs=1, fractions=[0.5, 1.0])
    cfg_obj = json.loads(cfg.read_text())
    cfg_obj["synthetic"]["trials_per_cell"] = 4
    cfg.write_text(json.dumps(cfg_obj), encoding="utf-8")
    assert main([command, "--config", str(cfg), "--jobs", str(jobs)]) == 0
    out, err = capfd.readouterr()
    assert err == "".join(f"fold {i}/{n_jobs}\n" for i in range(1, n_jobs + 1))
    assert "fold " not in out


def test_defaults_without_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--seed", "1"]) == 0
    assert (tmp_path / "out" / "synthetic.csv").is_file()
