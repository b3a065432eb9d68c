"""Representative subsets of the skyline.

Two notions of a good k-subset:

* dominance representativeness: maximize how many non-skyline tuples are
  dominated by at least one chosen member (a monotone submodular coverage
  objective, so the greedy rule carries the classic 1 - 1/e guarantee);
* distance representativeness: minimize the largest Euclidean distance from
  an unchosen skyline member to its nearest chosen one (the k-center
  objective, where farthest-point greedy is a 2-approximation).

Distances are taken in raw attribute space; normalize first when attribute
scales differ. Exact modes enumerate subsets and break ties toward the
lexicographically first id combination.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .arrangement import _blocks, _dominates, _width, _workspace
from .dataset import Dataset
from .queries import _skyline_rows

EXACT_BUDGET = 1_000_000


def _sky_by_id(ds: Dataset) -> list[int]:
    """Row indices of the skyline, in ascending id order."""
    return sorted(_skyline_rows(ds.attr_array()), key=ds.ids().__getitem__)


def _covered(a: np.ndarray, rows: list[int]) -> np.ndarray:
    """Mask of whether tuple ``rows[p]`` Pareto-dominates tuple j, (len(rows), n).

    No tuple dominates a skyline row, so for those every covered tuple is off it."""
    q = a[rows]
    out = np.zeros((len(q), len(a)), dtype=bool)
    work = _workspace(len(q) * min(_width(len(q)), len(a)), 3, 2)
    for cols in _blocks(len(q), len(a)):
        out[:, cols] = _dominates(q, a[cols], 0.0, work)
    return out


def coverage(ds: Dataset, chosen: set[str]) -> int:
    """Non-skyline tuples dominated by at least one chosen skyline member."""
    ids = ds.ids()
    sky = _sky_by_id(ds)
    extra = chosen - {ids[i] for i in sky}
    if extra:
        raise ValueError(f"chosen ids not on the skyline: {sorted(extra)}")
    picked = [i for i in sky if ids[i] in chosen]
    return int(_covered(ds.attr_array(), picked).any(axis=0).sum())


def dominance_representative(ds: Dataset, k: int, mode: str = "greedy") -> list[str]:
    """k skyline ids maximizing coverage of dominated non-skyline tuples.

    Greedy mode returns ids in selection order (each step takes the largest
    marginal gain, ties to the smallest id), so prefixes are themselves
    greedy solutions. Exact mode enumerates combinations when the count fits
    the budget and returns the lexicographically first maximizer.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("greedy", "exact"):
        raise ValueError("mode must be 'greedy' or 'exact'")
    ids = ds.ids()
    sky = _sky_by_id(ds)
    sky_ids = [ids[i] for i in sky]
    kk = min(k, len(sky))
    if kk == len(sky):
        return sky_ids
    covered = _covered(ds.attr_array(), sky)
    if mode == "exact":
        if math.comb(len(sky), kk) > EXACT_BUDGET:
            raise ValueError("exact search exceeds the enumeration budget")
        best_val, best_combo = -1, None
        for combo in combinations(range(len(sky)), kk):
            val = int(covered[list(combo)].any(axis=0).sum())
            if val > best_val:
                best_val, best_combo = val, combo
        return [sky_ids[p] for p in best_combo]
    chosen: list[int] = []
    have = np.zeros(len(ds), dtype=bool)
    for _ in range(kk):
        gain = (covered & ~have).sum(axis=1)
        gain[chosen] = -1
        pick = int(np.argmax(gain))  # the first largest: the smallest id
        chosen.append(pick)
        have |= covered[pick]
    return [sky_ids[p] for p in chosen]


def distance_representative(ds: Dataset, k: int, mode: str = "greedy") -> list[str]:
    """k skyline ids minimizing the worst distance to the nearest chosen one.

    Greedy mode seeds with the best single center and then repeatedly adds
    the skyline member farthest from the current picks (ties to the smallest
    id), returning ids in selection order. Exact mode enumerates within the
    budget, lexicographically first among minimizers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("greedy", "exact"):
        raise ValueError("mode must be 'greedy' or 'exact'")
    ids = ds.ids()
    sky = _sky_by_id(ds)
    sky_ids = [ids[i] for i in sky]
    kk = min(k, len(sky))
    if kk == len(sky):
        return sky_ids
    pts = ds.attr_array()[sky]
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if mode == "exact":
        if math.comb(len(sky), kk) > EXACT_BUDGET:
            raise ValueError("exact search exceeds the enumeration budget")
        best_val, best_combo = math.inf, None
        for combo in combinations(range(len(sky)), kk):
            # a chosen member's own distance is 0, below every other
            val = d[:, list(combo)].min(axis=1).max()
            if val < best_val:
                best_val, best_combo = val, combo
        return [sky_ids[i] for i in best_combo]
    # seed: the single center with the least worst-case distance, ties by id
    picked = [int(np.argmin(d.max(axis=1)))]
    while len(picked) < kk:
        near = d[:, picked].min(axis=1)
        near[picked] = -1.0
        picked.append(int(np.argmax(near)))  # the first farthest: the smallest id
    return [sky_ids[i] for i in picked]
