"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a few vCPUs of a shared machine, and its speed drifts
by a quarter or more over tens of seconds as other tenants load it: the same
unit of work takes 2.5 s in one minute and 3.5 s in the next. Every unit
times this kernel just before and just after its `cli.main` call, and the
end-to-end timing is the call's wall time divided by the kernel's time.
Drift that slows both cancels; a change to dacae moves only the numerator.

A workload that runs on a pool of workers times the kernel on as many cores
at once. The kernel mixes the three kinds of work dacae does: batch-64 MLP
matrix products and a softmax (the `nn` layer), a full-batch linear softmax
on 2000 rows (the linear classifiers), and an interpreted per-row split scan
(the tree). It imports nothing from dacae, and its inputs
come from a fixed seed, so no change to the program can change its cost.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

REPS = 30  # passes per timing, about 0.3 s on one 2.1 GHz Xeon vCPU

_rng = np.random.default_rng(0)
_BATCH = _rng.standard_normal((64, 40))
_HIDDEN = _rng.standard_normal((40, 32))
_ROWS = _rng.standard_normal((2000, 16))
_COEF = _rng.standard_normal((16, 4))
_FEATURE = _rng.standard_normal((300, 2))
_LABELS = _rng.integers(0, 4, 300)


def _softmax(scores: np.ndarray) -> np.ndarray:
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _one_pass() -> float:
    acc = 0.0
    for _ in range(40):
        p = _softmax(np.tanh(_BATCH @ _HIDDEN))
        acc += float((_BATCH.T @ p)[0, 0])
    for _ in range(10):
        p = _softmax(_ROWS @ _COEF)
        acc += float((_ROWS.T @ p)[0, 0])
    for f in range(_FEATURE.shape[1]):
        labels = _LABELS[np.argsort(_FEATURE[:, f], kind="stable")]
        left = np.zeros(4)
        for i in range(1, labels.size):
            left[labels[i - 1]] += 1
            share = left / i
            acc += 1.0 - float(np.sum(share * share))
    return acc


def _time(reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        _one_pass()
    return time.perf_counter() - start


def time_reference(reps: int = REPS, jobs: int = 1) -> float:
    """Seconds for `reps` passes of the kernel.

    With jobs > 1, that many forked processes run it at once and the
    harmonic mean of their times is returned. A workload that runs its folds
    on a pool of `jobs` workers uses that many cores, and each core drifts on
    its own. The pool hands the next fold to whichever worker is free, so its
    throughput is the sum of the cores' speeds, which the harmonic mean
    matches: with one core at half speed it reads 4/3 of the even time.
    """
    if jobs == 1:
        return _time(reps)
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        times = pool.map(_time, [reps] * jobs, chunksize=1)
        pool.close()
        pool.join()
    return len(times) / sum(1.0 / t for t in times)
