"""Test-only helpers: deep copies of networks and parameter sets, a dataset's trial table,
the Gini impurity that the tree's split scan must reproduce."""

import numpy as np

from dacae import DacaeParams, Dataset, Mlp


def copy_mlp(net: Mlp) -> Mlp:
    return Mlp([w.copy() for w in net.weights], [b.copy() for b in net.biases])


def copy_params(params: DacaeParams) -> DacaeParams:
    return DacaeParams(*(copy_mlp(net) for net in params.groups().values()))


def trial_table(ds: Dataset) -> list[tuple[int, int, int]]:
    """Sorted unique (trial, subject, label) triples."""
    trials, first = np.unique(ds.trial, return_index=True)
    return list(zip(trials.tolist(), ds.s[first].tolist(), ds.y[first].tolist()))


def gini_impurity(counts: np.ndarray) -> np.ndarray | float:
    """Gini impurity 1 - sum(p^2) of class counts along the last axis; 0 where all are 0.

    This is the arithmetic classifiers.best_split does in place for every cut.
    """
    n = counts.sum(axis=-1, keepdims=True)
    p = counts / np.where(n > 0, n, 1.0)
    g = np.where(n[..., 0] > 0, 1.0 - np.sum(p * p, axis=-1), 0.0)
    return float(g) if g.ndim == 0 else g
