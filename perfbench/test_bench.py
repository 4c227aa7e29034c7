"""Self-tests of the benchmark at smoke sizes. Run: python3 -m pytest perfbench"""

import json

import pytest

import run
from workloads import SMOKE, OutputError, check_outputs, tree_digest


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_spans_fire_metrics_are_emitted_and_tracing_keeps_the_result_tree(name):
    assert run.smoke_problems(name, seed=3) == []


def test_output_check_rejects_damaged_trees(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from dacae import cli
    workload = SMOKE["loso-clf"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(5, tmp_path / "out", None)))
    assert cli.main([workload.command, "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert 0.0 <= check_outputs(workload, out) <= 1.0
    digest = tree_digest(out)

    folds = out / "loso" / "DA-cAE" / "tree" / "folds.csv"
    lines = folds.read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = "1.5"  # test_acc
    folds.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    with pytest.raises(OutputError, match="not in"):
        check_outputs(workload, out)
    assert tree_digest(out) != digest

    folds.unlink()
    with pytest.raises(OutputError, match="missing"):
        check_outputs(workload, out)
    (out / "loso" / "stray.csv").write_text("x\n")
    folds.write_text("\n".join(lines) + "\n")
    with pytest.raises(OutputError, match="unexpected"):
        check_outputs(workload, out)


def test_coverage_counts_orchestration_self_time_as_uncovered():
    def span(total, self_):
        return {"total_s": total, "self_s": self_}

    # one fold of 10 s: 9 s in layer spans, 1 s untraced inside the fold
    serial = {"cli.main": span(10.2, 0.1), "experiments.run": span(10.1, 0.05),
              "experiments.execute": span(10.05, 0.05), "experiments.fold": span(10.0, 1.0),
              "classifiers.tree.fit": span(9.0, 9.0)}
    assert run.coverage(serial, jobs=1) == pytest.approx(9.0 / 10.2)
    # untraced work inside training.fit is uncovered too
    serial["training.fit"] = span(4.0, 4.0)
    serial["classifiers.tree.fit"] = span(5.0, 5.0)
    assert run.coverage(serial, jobs=1) == pytest.approx(5.0 / 10.2)
    # two workers: the parent's wait in the pool is not traced time
    pooled = {"cli.main": span(5.2, 0.1), "experiments.run": span(5.1, 0.1),
              "experiments.execute": span(5.0, 5.0), "experiments.fold": span(10.0, 2.0),
              "classifiers.svm.fit": span(8.0, 8.0)}
    assert run.coverage(pooled, jobs=2) == pytest.approx(8.0 / 10.2)
