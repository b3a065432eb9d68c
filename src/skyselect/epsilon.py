"""Relaxed dominance with an additive slack on weighted attributes.

A tuple epsilon-dominates another when every weighted attribute is within
epsilon of beating the rival's and at least one raw attribute is strictly
better. Positive epsilon makes dominance easier (smaller skyline); negative
epsilon makes it harder (larger skyline). Attributes must be normalized to
[0, 1] so a single epsilon scale is meaningful.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .arrangement import _blocks
from .dataset import Dataset, Tuple
from .queries import check_weights


def _check_eps(eps: float) -> None:
    if not -1.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [-1, 1]")


def epsilon_dominates(r1: Tuple, r2: Tuple, w: Sequence[float], eps: float) -> bool:
    """Componentwise weighted slack test plus one strict raw improvement."""
    if r1.dim != r2.dim:
        raise ValueError("tuples have different dimensions")
    wv = check_weights(w, r1.dim)
    _check_eps(eps)
    for a, b in zip(r1.attrs, r2.attrs):
        if not 0.0 <= a <= 1.0 or not 0.0 <= b <= 1.0:
            raise ValueError("epsilon dominance needs attributes in [0, 1]")
    slack_ok = all(
        wi * a <= wi * b + eps for wi, a, b in zip(wv, r1.attrs, r2.attrs)
    )
    return slack_ok and any(a < b for a, b in zip(r1.attrs, r2.attrs))


def epsilon_skyline(ds: Dataset, w: Sequence[float], eps: float) -> set[str]:
    """Ids not epsilon-dominated by any other tuple.

    Requires a normalized dataset; raises ValueError otherwise.
    """
    wv = check_weights(w, ds.dim)
    _check_eps(eps)
    if not ds.normalized:
        raise ValueError("epsilon skyline requires a normalized dataset")
    n = len(ds)
    a = ds.attr_array()
    scaled = a * wv
    survivors = np.zeros(n, dtype=bool)
    for cols in _blocks(n, n):
        # dom[i, j]: i epsilon-dominates j; never i = j, which beats itself
        # nowhere. One pass per attribute: reducing a short last axis is slow.
        slack = np.ones((n, cols.stop - cols.start), dtype=bool)
        better = np.zeros_like(slack)
        for j in range(ds.dim):
            slack &= scaled[:, None, j] <= scaled[None, cols, j] + eps
            better |= a[:, None, j] < a[None, cols, j]
        survivors[cols] = ~(slack & better).any(axis=0)
    ids = ds.ids()
    return {ids[i] for i in np.flatnonzero(survivors)}
