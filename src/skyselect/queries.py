"""Baseline operators: Pareto dominance, skyline, k-skyband, linear top-k.

Scores are ``w . r`` with smaller meaning better. Ranked output orders by
ascending score and breaks exact score ties by ascending id.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Tuple

SCORE_TOL = 1e-9


@dataclass(frozen=True)
class RankedResult:
    """Scored tuples ordered best-first: (id, score) pairs."""

    entries: tuple[tuple[str, float], ...]

    def ids(self) -> tuple[str, ...]:
        return tuple(e[0] for e in self.entries)

    def scores(self) -> tuple[float, ...]:
        return tuple(e[1] for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _dominates_attrs(a: Sequence[float], b: Sequence[float]) -> bool:
    le = True
    lt = False
    for x, y in zip(a, b):
        if x > y:
            le = False
            break
        if x < y:
            lt = True
    return le and lt


def pareto_dominates(t: Tuple, r: Tuple) -> bool:
    """True when t is no worse than r everywhere and strictly better somewhere."""
    if t.dim != r.dim:
        raise ValueError(f"dimension mismatch: {t.dim} vs {r.dim}")
    return _dominates_attrs(t.attrs, r.attrs)


def _skyline_rows(a: np.ndarray) -> list[int]:
    """Row indices of the Pareto-optimal rows of ``a``, by block-nested-loops."""
    rows = a.tolist()
    window: list[int] = []
    for i, t in enumerate(rows):
        dominated = False
        survivors: list[int] = []
        for s in window:
            if _dominates_attrs(rows[s], t):
                dominated = True
                survivors = window
                break
            if not _dominates_attrs(t, rows[s]):
                survivors.append(s)
        window = survivors
        if not dominated:
            window.append(i)
    return window


def skyline(ds: Dataset) -> set[str]:
    """Pareto-optimal ids via block-nested-loops.

    Tuples with identical attribute vectors do not dominate each other, so
    duplicated skyline points are all retained.
    """
    ids = ds.ids()
    return {ids[i] for i in _skyline_rows(ds.attr_array())}


def k_skyband(ds: Dataset, k: int) -> set[str]:
    """Ids of tuples Pareto-dominated by fewer than k others."""
    from .arrangement import dominator_counts  # arrangement imports this module

    if k < 1:
        raise ValueError("k must be >= 1")
    ids = ds.ids()
    return {ids[i] for i in np.flatnonzero(dominator_counts(ds.attr_array(), 0.0) < k)}


def check_weights(w: Sequence[float], dim: int) -> np.ndarray:
    """Validate that w is a dim-length vector on the probability simplex."""
    v = np.asarray(w, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"weight vector must have length {dim}")
    if not np.isfinite(v).all():
        raise ValueError("weight vector must be finite")
    if (v < -SCORE_TOL).any() or abs(float(v.sum()) - 1.0) > SCORE_TOL:
        raise ValueError("weight vector must be on the probability simplex")
    return v


def _scores(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scores of every row of ``a`` at one weight vector or at each of many.

    ``v`` of shape (d,) gives an (n,) array; ``v`` of shape (m, d) gives an
    (m, n) array whose row i scores against ``v[i]``. The sum of products runs
    left to right in plain elementwise arithmetic, never through BLAS, so a
    score does not depend on how many rows or vectors are scored together:
    ``top_k``, ``top_k_threshold`` and the 2-d arrangement labels agree bit
    for bit.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        s = a[:, 0] * v[0]
        for j in range(1, a.shape[1]):
            s = s + a[:, j] * v[j]
        return s
    s = v[:, 0:1] * a[None, :, 0]
    for j in range(1, a.shape[1]):
        s = s + v[:, j : j + 1] * a[None, :, j]
    return s


def _best_k(scores: np.ndarray, ids: Sequence[str], k: int) -> np.ndarray:
    """Column indices of the k best entries of each row of an (m, n) score matrix.

    Best means ascending score, then ascending id. Only columns scoring at or
    below some row's k-th smallest score can be chosen, so the id sort runs
    over that pool alone; a stable sort on score over the pool, laid out in id
    order, then breaks score ties by id. Returns an (m, min(k, n)) array.
    """
    m, n = scores.shape
    k = min(k, n)
    if k < n:
        kth = np.partition(scores, k - 1, axis=1)[:, k - 1 : k]
        pool = np.flatnonzero((scores <= kth).any(axis=0))
    else:
        pool = np.arange(n)
    pool = np.array(sorted(pool.tolist(), key=ids.__getitem__), dtype=np.intp)
    order = np.argsort(scores[:, pool], axis=1, kind="stable")[:, :k]
    return pool[order]


def top_k(ds: Dataset, w: Sequence[float], k: int) -> RankedResult:
    """Best k tuples by linear score, ties broken by ascending id.

    k larger than the dataset returns everything.
    """
    wv = check_weights(w, ds.dim)
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = _scores(ds.attr_array(), wv)
    ids = ds.ids()
    best = _best_k(scores[None, :], ids, k)[0]
    return RankedResult(tuple((ids[i], float(scores[i])) for i in best))


def top_k_threshold(
    ds: Dataset, w: Sequence[float], k: int
) -> tuple[RankedResult, int]:
    """Top-k via per-attribute sorted lists with a score threshold halt.

    Returns the same set and order as :func:`top_k` plus the number of tuples
    that were fully scored. The halt comparison is strict against the list
    frontier so a never-seen tuple tied with the k-th candidate cannot be
    missed.
    """
    wv = check_weights(w, ds.dim)
    if k < 1:
        raise ValueError("k must be >= 1")
    a = ds.attr_array()
    ids = ds.ids()
    columns = [np.argsort(a[:, j], kind="stable") for j in range(ds.dim)]

    seen: dict[int, float] = {}
    worst_of_best: list[float] = []  # max-heap (negated) of the k best scores
    for depth in range(len(a)):
        fresh: list[int] = []
        for col in columns:
            idx = int(col[depth])
            if idx not in seen and idx not in fresh:
                fresh.append(idx)
        # the rows read at this depth are scored together, by the same
        # primitive as top_k, so both return bit-identical scores
        for idx, s in zip(fresh, _scores(a[fresh], wv).tolist()):
            seen[idx] = s
            heapq.heappush(worst_of_best, -s)
            if len(worst_of_best) > k:
                heapq.heappop(worst_of_best)
        threshold = float(sum(wv[j] * a[columns[j][depth], j] for j in range(ds.dim)))
        if len(seen) >= k and -worst_of_best[0] < threshold - SCORE_TOL:
            break

    order = sorted(seen, key=lambda i: (seen[i], ids[i]))[:k]
    result = RankedResult(tuple((ids[i], seen[i]) for i in order))
    return result, len(seen)
