"""LOSO benchmark for dacae: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-golden 0-31 [--workload NAME]

Run from the repository root. Each unit is a fresh process (perfbench/unit.py)
that imports dacae from ./src, prepares its config and data from the seed,
and makes one closed-loop `dacae.cli.main([...])` call with
OPENBLAS_NUM_THREADS=1, so jobs x BLAS threads stays within two cores. Units
repeat until the next one would end past --seconds; timings are medians over
units. A unit's timing is its wall time divided by that of a fixed reference
kernel timed next to it (reference.py), so the host's drifting speed cancels.
Every unit's result tree is checked (exit code, files, headers, row
counts, accuracies in [0, 1]) and hashed; all units of a run must agree on
the digest, and so must the digest recorded in golden.json for this seed
when the numeric environment matches the one it was recorded in.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 the run alternates untraced and traced units and reports the
per-layer metrics of the traced ones, the tracing overhead and the share of
traced time spent in layer spans rather than orchestration. --smoke runs every workload at tiny sizes, traced
and untraced, and checks metric names, units, span firing and digests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))

from workloads import (ALL_KINDS, SMOKE, WORKLOADS, OutputError,  # noqa: E402
                       check_outputs, tree_digest)

RUN_BUDGET_S = 165     # a run must end within 180 s, whatever --seconds says
MIN_UNITS = 3          # untraced units per run; a traced run takes this many of each

# Spans every workload must fire; a layer that stops firing is a broken trace.
_TRAINING = ("nn.forward", "nn.backward", "nn.sgd_step", "nn.softmax_ce", "model.encode",
             "model.dacae_loss", "training.train_step", "training.fit", "data.normalize",
             "data.subset", "classifiers.lda.fit", "classifiers.lda.predict", "cli.main",
             "experiments.run")
_LOSO = ("data.loso_splits", "experiments.execute", "experiments.fold",
         "training.readout.lda.fit", "training.readout.lda.predict")
# Spans that only orchestrate: their self time is work no layer span accounts for.
ORCHESTRATION = ("cli.main", "experiments.run", "experiments.execute", "experiments.fold",
                 "training.sweep", "training.fit")

REQUIRED_SPANS = {
    "sweep-train": _TRAINING + ("data.generate_synthetic", "experiments.holdout_split",
                                "training.sweep"),
    "loso-clf": _TRAINING + _LOSO + ("data.generate_synthetic",) + tuple(
        f"classifiers.{k}.{op}" for k in ALL_KINDS for op in ("fit", "predict")),
    "loso-wide": _TRAINING + _LOSO + ("data.load_csv",) + tuple(
        f"classifiers.{k}.{op}" for k in ("svm", "logreg") for op in ("fit", "predict")),
}

MANIFEST_CODE = """
import json, platform, numpy, dacae
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas['name']} {blas['version']}",
                  "machine": platform.machine(),
                  "cpu_features": sorted(k for k, v in __cpu_features__.items() if v)}))
"""
FINGERPRINT_KEYS = ("numpy", "blas", "machine", "cpu_features")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                    else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def manifest() -> dict:
    """Environment of this run. Also imports dacae once, untimed, so bytecode is cached."""
    if not (SRC / "dacae" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no dacae package under {SRC}")
    proc = subprocess.run([sys.executable, "-c", MANIFEST_CODE], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: cannot import dacae:\n{proc.stderr}")
    info = json.loads(proc.stdout)
    info.update({
        "OPENBLAS_NUM_THREADS": child_env()["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    })
    return info


@dataclass
class Unit:
    """Outcome of one unit: timings from the unit process, rusage and output checks."""

    traced: bool
    timings: dict | None = None    # unit.json; None when the unit process failed
    peak_rss_mb: float = 0.0
    digest: str = ""
    task_acc: float = float("nan")
    error: str = ""                # why the unit failed a check; empty when it passed


def run_unit(name: str, seed: int, traced: bool, size: str, deadline: float) -> Unit:
    workload = (SMOKE if size == "smoke" else WORKLOADS)[name]
    unit = Unit(traced)
    unit_dir = WORK / "units" / f"{name}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    unit_dir.mkdir(parents=True)
    try:
        with open(unit_dir / "stdout.txt", "wb") as out, \
                open(unit_dir / "stderr.txt", "wb") as err:
            spawn_ns = time.monotonic_ns()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "unit.py"), name, str(seed), str(unit_dir),
                 str(spawn_ns), "1" if traced else "0", size],
                cwd=ROOT, env=child_env(), stdout=out, stderr=err, start_new_session=True)
            rc, maxrss_kb = _reap(proc, deadline)
        # ru_maxrss of a reaped child is the larger of its own peak and that of
        # its reaped descendants, so pool workers are included.
        unit.peak_rss_mb = maxrss_kb / 1024.0
        result_path = unit_dir / "unit.json"
        if rc != 0 or not result_path.is_file():
            tail = (unit_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            unit.error = f"unit process exited with {rc}: {tail}"
            return unit
        unit.timings = json.loads(result_path.read_text(encoding="utf-8"))
        if unit.timings["rc"] != 0:
            unit.error = f"dacae exited with {unit.timings['rc']}"
            return unit
        try:
            unit.task_acc = check_outputs(workload, unit_dir / "out")
        except (OutputError, ValueError) as exc:
            unit.error = f"output check: {exc}"
        unit.digest = tree_digest(unit_dir / "out")
        return unit
    finally:
        shutil.rmtree(unit_dir, ignore_errors=True)


def _reap(proc: subprocess.Popen, deadline: float) -> tuple[int, int]:
    """Wait for proc with a deadline; kill its whole process group if it overruns."""
    killed = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss
            if not killed and time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                killed = True
            time.sleep(0.01)
    except BaseException:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        raise


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def failed_fits(workload, units: list[Unit]) -> int:
    """A unit that fails any check counts every extractor fit it attempted as failed."""
    return workload.fits * sum(1 for u in units if u.error)


def wall_ref(t: dict) -> float:
    """The cli.main wall time of one unit over the reference kernel's time in that unit."""
    return t["wall_s"] / t["ref_s"]


def end_to_end(name: str, units: list[Unit], size: str) -> dict:
    workload = (SMOKE if size == "smoke" else WORKLOADS)[name]
    timed = [u.timings for u in units if u.timings]
    attempted = workload.fits * len(units)
    failed = failed_fits(workload, units)
    return {
        "wall_ref": (_median(wall_ref(t) for t in timed), "ratio"),
        "setup_s": (_median(t["setup_s"] for t in timed), "s"),
        "peak_rss_mb": (_median(u.peak_rss_mb for u in units if u.timings), "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }


def task_acc(units: list[Unit]) -> float:
    return _median(u.task_acc for u in units if not u.error)


def _layer(t: dict, jobs: int) -> dict:
    spans = t["spans"]

    def get(span: str, key: str) -> float:
        return spans.get(span, {}).get(key, 0)

    def total(*names: str, key: str = "total_s") -> float:
        return sum(get(name, key) for name in names)

    m = {}
    for prim in ("forward", "backward", "sgd_step", "softmax_ce"):
        m[f"nn.{prim}_us_p50"] = (get(f"nn.{prim}", "p50_us"), "us")
        m[f"nn.{prim}_us_p99"] = (get(f"nn.{prim}", "p99_us"), "us")
        m[f"nn.{prim}_calls"] = (get(f"nn.{prim}", "calls"), "count")
    m["training.train_step_us_p50"] = (get("training.train_step", "p50_us"), "us")
    m["training.train_step_us_p99"] = (get("training.train_step", "p99_us"), "us")
    m["training.train_step_calls"] = (get("training.train_step", "calls"), "count")
    m["training.fit_s"] = (get("training.fit", "total_s"), "s")
    m["training.epoch_eval_s"] = (get("training.fit", "total_s")
                                  - get("training.train_step", "total_s"), "s")
    m["model.encode_s"] = (get("model.encode", "total_s"), "s")
    m["model.encode_calls"] = (get("model.encode", "calls"), "count")
    m["model.dacae_loss_s"] = (get("model.dacae_loss", "total_s"), "s")
    # Each classifier kind, and each of the load and split paths, runs on only
    # some workloads; a listed metric must be measured on all of them, so these
    # are sums. span_table() prints the per-span breakdown. The extractor's own
    # LDA readout is traced as training.readout.* and is not summed here.
    fits = [f"classifiers.{kind}.fit" for kind in ALL_KINDS]
    predicts = [f"classifiers.{kind}.predict" for kind in ALL_KINDS]
    m["classifiers.fit_s"] = (total(*fits), "s")
    m["classifiers.fit_calls"] = (total(*fits, key="calls"), "count")
    m["classifiers.predict_s"] = (total(*predicts), "s")
    m["data.load_s"] = (total("data.load_csv", "data.generate_synthetic"), "s")
    m["data.split_s"] = (total("data.loso_splits", "experiments.holdout_split"), "s")
    m["data.normalize_s"] = (get("data.normalize", "total_s"), "s")
    m["data.subset_s"] = (get("data.subset", "total_s"), "s")
    m["data.subset_calls"] = (get("data.subset", "calls"), "count")
    m["experiments.self_s"] = (get("experiments.run", "self_s"), "s")
    # job work (LOSO folds, or the whole sweep) over the time the workers had
    m["experiments.parallel_eff"] = (total("experiments.fold", "training.sweep")
                                     / (jobs * t["wall_s"]), "frac")
    m["cli.self_s"] = (get("cli.main", "self_s"), "s")
    m["setup.import_s"] = (t["import_s"], "s")
    m["setup.data_s"] = (t["data_s"], "s")
    m["trace.coverage"] = (coverage(spans, jobs), "frac")
    return m


def coverage(spans: dict, jobs: int) -> float:
    """Share of the traced time spent in layer spans rather than orchestration.

    The self times of all spans add up to the time each process spent inside
    a span: the cli.main call, plus the fold time of any pool workers. When
    folds run in a pool, the parent's self time in experiments.execute is its
    wait for the workers (and the pickling of their inputs); the workers' fold
    time stands in for it, so it is left out, and the pool's cost shows in
    experiments.parallel_eff instead.
    """
    orchestration = [n for n in ORCHESTRATION if jobs <= 1 or n != "experiments.execute"]
    spanned = sum(s["self_s"] for s in spans.values())
    if jobs > 1:
        spanned -= spans.get("experiments.execute", {}).get("self_s", 0.0)
    uncovered = sum(spans.get(n, {}).get("self_s", 0.0) for n in orchestration)
    return 1.0 - uncovered / spanned


def per_layer(name: str, units: list[Unit], size: str) -> dict:
    jobs = (SMOKE if size == "smoke" else WORKLOADS)[name].jobs
    traced = [u.timings for u in units if u.traced and u.timings]
    plain = [u.timings for u in units if not u.traced and u.timings]
    per_unit = [_layer(t, jobs) for t in traced]
    metrics = {"task_acc": (task_acc(units), "frac")}
    if per_unit:
        metrics.update({key: (_median(m[key][0] for m in per_unit), unit)
                        for key, (_, unit) in per_unit[0].items()})
    metrics["host.wall_s"] = (_median(t["wall_s"] for t in plain), "s")
    metrics["host.ref_s"] = (_median(t["ref_s"] for t in plain), "s")
    metrics["trace.wall_s"] = (_median(t["wall_s"] for t in traced), "s")
    metrics["trace.overhead_ratio"] = (_median(wall_ref(t) for t in traced)
                                       / _median(wall_ref(t) for t in plain), "ratio")
    return metrics


def raw_timings(name: str, units: list[Unit]) -> dict:
    """Wall-clock figures of the untraced units, which drift with the host's speed."""
    plain = [u.timings for u in units if not u.traced and u.timings]
    fits = WORKLOADS[name].fits
    return {"wall_s": (_median(t["wall_s"] for t in plain), "s"),
            "fits_per_s": (_median(fits / t["wall_s"] for t in plain), "1/s"),
            "ref_s": (_median(t["ref_s"] for t in plain), "s")}


def span_table(units: list[Unit]) -> list[str]:
    """Median calls and seconds per span over the traced units, one line per span."""
    traced = [u.timings["spans"] for u in units if u.traced and u.timings]
    lines = []
    for name in sorted({name for spans in traced for name in spans}):
        calls = _median(spans.get(name, {}).get("calls", 0) for spans in traced)
        seconds = _median(spans.get(name, {}).get("total_s", 0.0) for spans in traced)
        lines.append(f"# span {name:32s} calls {calls:9.0f} total {seconds:10.6f} s")
    return lines


def fingerprint(info: dict) -> dict:
    return {k: info[k] for k in FINGERPRINT_KEYS}


def golden_digest(name: str, seed: int, info: dict) -> str | None:
    if not GOLDEN.is_file():
        return None
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden.get("fingerprint") != fingerprint(info):
        return None
    return golden.get("digests", {}).get(name, {}).get(str(seed))


def measure(name: str, seed: int, seconds: float, trace: bool) -> list[Unit]:
    """Run units of one workload until the next would end after `seconds`."""
    start = time.monotonic()
    hard_deadline = start + RUN_BUDGET_S
    units: list[Unit] = []
    while True:
        traced = trace and len(units) % 2 == 1
        unit = run_unit(name, seed, traced, "full", hard_deadline)
        units.append(unit)
        status = unit.error or "ok"
        t = unit.timings or {"wall_s": float("nan"), "ref_s": float("nan")}
        print(f"  unit {len(units)} {'traced' if traced else 'plain '} wall={t['wall_s']:.3f}s "
              f"ref={t['ref_s']:.3f}s digest={unit.digest[:12]} {status}", file=sys.stderr,
              flush=True)
        if unit.timings is None:
            break  # the program cannot run; more units would fail the same way
        elapsed = time.monotonic() - start
        per_unit = elapsed / len(units)
        if elapsed + per_unit > RUN_BUDGET_S - 5:
            break
        if len(units) >= MIN_UNITS * (2 if trace else 1) and elapsed + per_unit > seconds:
            break
    return units


def check_digests(units: list[Unit], expected: str | None) -> None:
    """Mark units whose digest differs from the golden one, or from the run's first unit."""
    reference = expected or next((u.digest for u in units if u.digest), "")
    for u in units:
        if u.digest and u.digest != reference and not u.error:
            u.error = (f"result digest {u.digest[:12]} differs from "
                       f"{'golden' if expected else 'first unit'} {reference[:12]}")


def _format(metrics: dict) -> list[str]:
    return [f"{key:32s} {value:14.6f} {unit}" for key, (value, unit) in metrics.items()]


def run(args) -> int:
    info = manifest()
    expected = golden_digest(args.workload, args.seed, info)
    print(f"benchmark {args.workload} seed={args.seed} trace={args.trace} "
          f"golden={'yes' if expected else 'not recorded for this seed/environment'}",
          file=sys.stderr, flush=True)
    units = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    check_digests(units, expected)
    metrics = (per_layer if args.trace else end_to_end)(args.workload, units, "full")
    # a metric with no valid sample (every unit failed) is left out, not sent as NaN
    reported = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()
                if math.isfinite(v)}
    workload = WORKLOADS[args.workload]
    digests = sorted({u.digest for u in units if u.digest})
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "manifest": info, "digests": digests, "golden": expected,
              "task_acc": task_acc(units),
              "units": [{"traced": u.traced, "timings": u.timings, "error": u.error,
                         "peak_rss_mb": u.peak_rss_mb, "digest": u.digest}
                        for u in units],
              "metrics": reported}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for u in units:
        if u.error:
            print(f"FAILED unit: {u.error}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(units)} units "
          f"({sum(u.traced for u in units)} traced); timings are medians over units")
    print(f"# environment: {json.dumps(info)}")
    print(f"# result digest: {', '.join(digests) or 'none'}; task_acc {task_acc(units):.6f}")
    if not args.trace:  # a traced run reports these as host.wall_s and host.ref_s
        print("# wall clock (drifts with the host's speed, see README.md):")
        for line in _format(raw_timings(args.workload, units)):
            print(f"#   {line}")
    for line in _format(metrics) + (span_table(units) if args.trace else []):
        print(line)
    correct = bool(units) and not any(u.error for u in units)
    print(json.dumps({
        "correct": correct,
        "attempted": workload.fits * len(units),
        "failed": failed_fits(workload, units),
        "metrics": reported,
    }))
    return 0


def smoke_problems(name: str, seed: int = 1) -> list[str]:
    """One untraced and one traced unit at tiny size, with every check.

    Both must pass the output checks and agree on the result digest; every
    span in REQUIRED_SPANS must fire; every metric BENCHMARK.json names must
    be emitted with its unit.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = [run_unit(name, seed, traced, "smoke", time.monotonic() + 120)
             for traced in (False, True)]
    problems = [u.error for u in units if u.error]
    if any(u.timings is None for u in units):
        return problems
    if units[0].digest != units[1].digest:
        problems.append(f"traced digest {units[1].digest[:12]} != "
                        f"untraced {units[0].digest[:12]}")
    fired = set(units[1].timings["spans"])
    problems += [f"span {s} never fired" for s in REQUIRED_SPANS[name] if s not in fired]
    for key, metrics in (("end_to_end", end_to_end(name, units[:1], "smoke")),
                         ("per_layer", per_layer(name, units, "smoke"))):
        for entry in spec[key]:
            got = metrics.get(entry["name"])
            if got is None or got[1] != entry["unit"]:
                problems.append(f"{key} metric {entry['name']} [{entry['unit']}] "
                                f"not emitted, got {got}")
    return problems


def smoke() -> int:
    manifest()
    problems = [f"{name}: {p}" for name in SMOKE for p in smoke_problems(name)]
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def record_golden(seeds: list[int], names: list[str]) -> int:
    """Record into golden.json one digest per (workload, seed), from a checked full-size unit.

    Workloads not named keep their recorded digests; a different numeric
    environment starts the file afresh.
    """
    info = manifest()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    digests = golden.get("digests", {}) if golden.get("fingerprint") == fingerprint(info) else {}
    for name in names:
        digests[name] = {}
        for seed in seeds:
            unit = run_unit(name, seed, False, "full", time.monotonic() + RUN_BUDGET_S)
            if unit.error:
                print(f"{name} seed {seed}: {unit.error}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = unit.digest
            print(f"{name} seed {seed}: {unit.digest} task_acc={unit.task_acc:.4f}",
                  file=sys.stderr, flush=True)
    GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(info), "digests": digests},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    parser.add_argument("--record-golden", type=_seed_range, metavar="LO-HI",
                        help="record result digests for a range of seeds "
                             "(of --workload only, when given)")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.record_golden:
        return record_golden(args.record_golden,
                             [args.workload] if args.workload else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
