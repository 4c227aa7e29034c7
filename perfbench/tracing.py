"""Opt-in span tracing of dacae's layers, installed from outside the package.

`install()` wraps the layer entry points named in SPANS. A function that other
modules import by name (``from .nn import sgd_step``) is replaced in every
dacae module that holds it, because callers look the name up in their own
module. Methods are replaced on their class.

Each wrapped call records its duration and, through a stack of open spans,
charges that duration to its caller, so a span's self time is its duration
minus the time of the spans it opened. A classifier call made inside an
extractor fit (its per-epoch LDA readout) is recorded as
``training.readout.<kind>.<op>`` rather than ``classifiers.<kind>.<op>``, so
the downstream classifiers and the extractor's evaluation are not mixed.
Durations stay in memory. Fold jobs
that run in a forked pool worker write their worker's spans to a file in
`spans_dir` when the fold ends; `summary()` merges those files back.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps
from pathlib import Path


def _kind_fit(kind, *args, **kwargs) -> str:
    from dacae.classifiers import canonical_kind
    return f"classifiers.{canonical_kind(kind)}.fit"


def _kind_predict(self, *args, **kwargs) -> str:
    return f"classifiers.{self.kind}.predict"


# (module, attribute or Class.method, span name or a function of the call's arguments)
SPANS = (
    ("dacae.nn", "Mlp.forward", "nn.forward"),
    ("dacae.nn", "Mlp.backward", "nn.backward"),
    ("dacae.nn", "sgd_step", "nn.sgd_step"),
    ("dacae.nn", "softmax_cross_entropy", "nn.softmax_ce"),
    ("dacae.model", "encode", "model.encode"),
    ("dacae.model", "dacae_loss", "model.dacae_loss"),
    ("dacae.training", "train_step", "training.train_step"),
    ("dacae.training", "fit_feature_extractor", "training.fit"),
    ("dacae.training", "two_stage_sweep", "training.sweep"),
    ("dacae.classifiers", "fit", _kind_fit),
    ("dacae.classifiers", "_Fitted.predict", _kind_predict),
    ("dacae.data", "generate_synthetic", "data.generate_synthetic"),
    ("dacae.data", "load_csv", "data.load_csv"),
    ("dacae.data", "loso_splits", "data.loso_splits"),
    ("dacae.data", "normalize", "data.normalize"),
    ("dacae.data", "Dataset.subset", "data.subset"),
    ("dacae.experiments", "holdout_split", "experiments.holdout_split"),
    ("dacae.experiments", "run_loso", "experiments.run"),
    ("dacae.experiments", "run_sweep", "experiments.run"),
    ("dacae.experiments", "_execute", "experiments.execute"),
    ("dacae.experiments", "_run_fold", "experiments.fold"),
    ("dacae.cli", "main", "cli.main"),
)

FOLD_SPAN = "experiments.fold"
FIT_SPAN = "training.fit"
READOUT_PREFIX = "training.readout."


class Tracer:
    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.durations: dict[str, array] = defaultdict(lambda: array("q"))
        self.self_ns: dict[str, int] = defaultdict(int)
        self.stack: list[list] = [[0, ""]]  # [time charged by child spans, name]
        self.flushes = 0

    def wrap(self, fn, label):
        clock = time.perf_counter_ns
        is_fold = label == FOLD_SPAN

        @wraps(fn)
        def traced(*args, **kwargs):
            if is_fold and os.getpid() != self.pid:
                self._reset()  # first fold in a forked worker: drop the parent's spans
            name = label if isinstance(label, str) else label(*args, **kwargs)
            if name.startswith("classifiers.") and any(f[1] == FIT_SPAN for f in self.stack):
                name = READOUT_PREFIX + name[len("classifiers."):]
            frame = [0, name]
            self.stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.stack.pop()
                self.stack[-1][0] += elapsed
                self.durations[name].append(elapsed)
                self.self_ns[name] += elapsed - frame[0]
                if is_fold and self.pid != self.main_pid:
                    self._flush()

        return traced

    def _flush(self) -> None:
        path = self.spans_dir / f"{os.getpid()}-{self.flushes}.json"
        payload = {"durations": {k: v.tolist() for k, v in self.durations.items()},
                   "self_ns": dict(self.self_ns)}
        path.write_text(json.dumps(payload), encoding="utf-8")
        self.flushes += 1
        self.durations.clear()
        self.self_ns.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, p50_us and p99_us over every process."""
        durations = defaultdict(list)
        self_ns = defaultdict(int)
        parts = [{"durations": self.durations, "self_ns": self.self_ns}]
        for path in sorted(self.spans_dir.glob("*.json")):
            parts.append(json.loads(path.read_text(encoding="utf-8")))
        for part in parts:
            for name, values in part["durations"].items():
                durations[name].extend(values)
            for name, value in part["self_ns"].items():
                self_ns[name] += value
        out = {}
        for name, values in durations.items():
            values.sort()
            n = len(values)
            out[name] = {"calls": n, "total_s": sum(values) / 1e9,
                         "self_s": self_ns[name] / 1e9,
                         "p50_us": _rank(values, 0.50) / 1e3,
                         "p99_us": _rank(values, 0.99) / 1e3}
        return out


def _rank(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def install(spans_dir: Path) -> Tracer:
    """Wrap every entry point in SPANS and return the tracer that records them."""
    import dacae  # noqa: F401  (loads every submodule that holds a wrapped name)

    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spans_dir)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dacae"]
    for module, attr, label in SPANS:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapped = tracer.wrap(original, label)
        if owner in modules:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        else:
            setattr(owner, name, wrapped)
    return tracer
