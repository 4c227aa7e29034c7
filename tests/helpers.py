"""Test-only helpers: deep copies of networks and parameter sets, a dataset's trial table."""

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
