"""Independent numpy answers and invariants that the benchmark checks against.

Everything here works on plain ``(n, d)`` float arrays and id lists and uses
no ``skyselect`` code, so a fault in the package cannot hide itself. Pairwise
tests run in row blocks so that memory stays O(block * n) at any n.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_ELEMS = 1 << 22  # elements of one (block, n, d) comparison cube
SCORE_TOL = 1e-12


def _block_rows(n: int, d: int) -> int:
    return max(1, BLOCK_ELEMS // max(1, n * d))


def _dominated_by(cand: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Mask over ``pts``: some row of ``cand`` Pareto-dominates it."""
    if not len(cand) or not len(pts):
        return np.zeros(len(pts), dtype=bool)
    out = np.zeros(len(pts), dtype=bool)
    step = _block_rows(len(cand), pts.shape[1])
    for s in range(0, len(pts), step):
        blk = pts[s : s + step, None, :]
        le = (cand[None, :, :] <= blk).all(axis=2)
        lt = (cand[None, :, :] < blk).any(axis=2)
        out[s : s + step] = (le & lt).any(axis=1)
    return out


def skyline_mask(a: np.ndarray) -> np.ndarray:
    """Pareto-optimal rows, by a presorted window in blocks.

    Rows are visited in ascending (sum, attributes) order; a dominator always
    comes earlier in that order, even when float sums tie, so each block only
    needs the skyline found so far plus itself.
    """
    n, d = a.shape
    order = np.lexsort(tuple(a[:, j] for j in reversed(range(d))) + (a.sum(axis=1),))
    keep = np.zeros(n, dtype=bool)
    window = np.empty((0, d))
    step = max(64, _block_rows(n, d) // 4)
    for s in range(0, n, step):
        idx = order[s : s + step]
        blk = a[idx]
        alive = ~_dominated_by(window, blk) & ~_dominated_by(blk, blk)
        keep[idx[alive]] = True
        window = np.vstack([window, blk[alive]])
    return keep


def dominator_counts(a: np.ndarray) -> np.ndarray:
    """For every row, how many rows Pareto-dominate it."""
    n, d = a.shape
    out = np.zeros(n, dtype=np.int64)
    step = _block_rows(n, d)
    for s in range(0, n, step):
        blk = a[s : s + step, None, :]
        le = (a[None, :, :] <= blk).all(axis=2)
        lt = (a[None, :, :] < blk).any(axis=2)
        out[s : s + step] = (le & lt).sum(axis=1)
    return out


def epsilon_survivors(a: np.ndarray, w: np.ndarray, eps: float) -> np.ndarray:
    """Rows no other row epsilon-dominates (weighted slack, one raw win)."""
    n, d = a.shape
    scaled = a * w
    out = np.zeros(n, dtype=bool)
    step = _block_rows(n, d)
    for s in range(0, n, step):
        cols = np.arange(s, min(n, s + step))
        slack = (scaled[:, None, :] <= scaled[None, cols, :] + eps).all(axis=2)
        better = (a[:, None, :] < a[None, cols, :]).any(axis=2)
        dom = slack & better
        dom[cols, np.arange(len(cols))] = False
        out[cols] = ~dom.any(axis=0)
    return out


def minmax(a: np.ndarray) -> np.ndarray:
    """Column min-max scaling to [0, 1]; constant columns map to 0."""
    lo = a.min(axis=0)
    span = a.max(axis=0) - lo
    out = np.zeros_like(a)
    pos = span > 0
    out[:, pos] = (a[:, pos] - lo[pos]) / span[pos]
    return out


def top_k_ids(a: np.ndarray, ids: list[str], w, k: int) -> list[str]:
    """Best k ids by ascending score, ties by ascending id."""
    scores = a @ np.asarray(w, dtype=float)
    k = min(k, len(ids))
    if k < len(ids):
        # every row tied with the k-th score stays in play for the id tie-break
        kth = np.partition(scores, k - 1)[k - 1]
        pool = np.flatnonzero(scores <= kth + SCORE_TOL * (1.0 + abs(kth)))
    else:
        pool = np.arange(len(ids))
    pool = sorted(pool, key=lambda i: (scores[i], ids[i]))
    return [ids[i] for i in pool[:k]]


def top_k_problem(a, ids, w, k, got) -> str | None:
    """None when ``got`` is a correct top-k answer, else a message.

    An exact match with the argsort-and-id oracle passes at once. Otherwise
    the answer still passes when it differs only among scores equal to
    within rounding, since the package scores row by row and the oracle
    with one matrix product.
    """
    want = top_k_ids(a, ids, w, k)
    got = list(got)
    if got == want:
        return None
    if len(got) != len(want) or len(set(got)) != len(got):
        return f"top-k size {len(got)}, expected {len(want)}"
    scores = a @ np.asarray(w, dtype=float)
    pos = {tid: i for i, tid in enumerate(ids)}
    if any(g not in pos for g in got):
        return "top-k returned an unknown id"
    gs = np.array([scores[pos[g]] for g in got])
    tol = SCORE_TOL * (1.0 + float(np.abs(scores).max()))
    rest = np.ones(len(ids), dtype=bool)
    rest[[pos[g] for g in got]] = False
    if np.any(np.diff(gs) < -tol):
        return "top-k not in score order"
    if rest.any() and gs.max() > scores[rest].min() + tol:
        return f"top-k {got[:3]}... differs from oracle {want[:3]}..."
    return None


def cell_problem(a, ids, lo: float, hi: float, k: int, label) -> str | None:
    """An exact 2-d utk2 cell must carry the top-k set at its midpoint."""
    mid = 0.5 * (lo + hi)
    v = (mid, 1.0 - mid)
    scores = a @ np.asarray(v)
    pos = {tid: i for i, tid in enumerate(ids)}
    if any(t not in pos for t in label):
        return f"utk2 cell [{lo:.6g}, {hi:.6g}]: unknown id"
    ranked = sorted(label, key=lambda t: (scores[pos[t]], t))
    bad = top_k_problem(a, ids, v, k, ranked)
    return f"utk2 cell [{lo:.6g}, {hi:.6g}]: {bad}" if bad else None


def set_problem(name: str, got, want) -> str | None:
    got, want = set(got), set(want)
    if got == want:
        return None
    return (
        f"{name}: {len(got)} ids vs {len(want)} expected "
        f"(missing {sorted(want - got)[:3]}, extra {sorted(got - want)[:3]})"
    )


def subset_problem(name: str, small, big) -> str | None:
    extra = set(small) - set(big)
    return f"{name}: {sorted(extra)[:3]} not contained" if extra else None


def oss_problem(ids, rho_star, m, allowed) -> str | None:
    """ord/oru contract: exactly m distinct ids from ``allowed``, rho in range."""
    ids = list(ids)
    if len(ids) != m or len(set(ids)) != m:
        return f"expected {m} distinct ids, got {len(ids)}"
    if not set(ids) <= set(allowed):
        return f"ids {sorted(set(ids) - set(allowed))[:3]} outside the allowed band"
    if not 0.0 <= rho_star <= math.sqrt(2.0) + 1e-12:
        return f"rhoStar {rho_star} outside [0, sqrt 2]"
    return None


def generated(dist: str, n: int, d: int, seed: int) -> np.ndarray:
    """The attribute array ``skyselect.generate`` documents for these inputs."""
    rng = np.random.default_rng(seed)
    if dist == "independent":
        return rng.random((n, d))
    if dist == "correlated":
        base = rng.random((n, 1))
        return np.clip(base + rng.normal(0.0, 0.05, (n, d)), 0.0, 1.0)
    u = rng.random((n, d))
    level = rng.normal(0.5, 0.05, (n, 1))
    return np.clip(u - u.mean(axis=1, keepdims=True) + level, 0.0, 1.0)
