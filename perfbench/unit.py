"""One measured unit of a workload, run in a fresh process by run.py.

Set-up is process start, `import dacae`, writing the config and preparing
the data; then a single `dacae.cli.main([...])` call runs the workload, with
the reference kernel (reference.py) timed just before and just after it. The
unit writes its timings (and, when traced, its span summary) to unit.json in
its directory. Usage:

    python3 perfbench/unit.py WORKLOAD SEED UNIT_DIR SPAWN_NS TRACE SIZE

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process; CLOCK_MONOTONIC is shared by every process on the machine.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    name, seed, unit_dir, spawn_ns, traced, size = sys.argv[1:]
    spawn_ns, seed, traced = int(spawn_ns), int(seed), traced == "1"

    import dacae
    from dacae import cli
    imported_ns = time.monotonic_ns()

    import reference
    from workloads import SMOKE, WORKLOADS
    workload = (SMOKE if size == "smoke" else WORKLOADS)[name]
    unit_dir = Path(unit_dir)
    dataset = None
    if workload.csv_input:
        data, _, _ = dacae.generate_synthetic(dacae.SyntheticSpec(**workload.synthetic(seed)))
        dataset = unit_dir / "data.csv"
        dacae.save_csv(dataset, data)
    config = unit_dir / "config.json"
    config.write_text(json.dumps(workload.config(seed, unit_dir / "out", dataset)),
                      encoding="utf-8")
    ready_ns = time.monotonic_ns()

    reference.time_reference(1)  # warm-up: first-touch of the kernel's arrays
    ref_before = reference.time_reference(jobs=workload.jobs)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.install(unit_dir / "spans")
    start = time.perf_counter()
    rc = cli.main([workload.command, "--config", str(config)])
    wall = time.perf_counter() - start
    ref_after = reference.time_reference(jobs=workload.jobs)

    result = {"rc": rc, "wall_s": wall, "ref_s": (ref_before + ref_after) / 2,
              "import_s": (imported_ns - spawn_ns) / 1e9,
              "data_s": (ready_ns - imported_ns) / 1e9,
              "setup_s": (ready_ns - spawn_ns) / 1e9,
              "spans": tracer.summary() if tracer else None}
    (unit_dir / "unit.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
