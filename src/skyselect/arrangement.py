"""Exact two-dimensional kernel: tuples as lines over the first weight.

In two dimensions every weight vector is (t, 1 - t) with t = w1 in [0, 1], so
tuple i scores along the line s_i(t) = a_i2 + (a_i1 - a_i2) t. Every region
is an interval of t, and a ball of radius rho around w is the interval
[w1 - rho/sqrt2, w1 + rho/sqrt2] clipped to [0, 1], as
:func:`regions.region_interval_d2` computes it. The radius-driven functions
below therefore work in the half-width h = rho/sqrt2 of that interval.

The kernel answers five questions about this arrangement of lines:

* dominance over the ends of an interval (:func:`dominator_counts`), shared
  by ``nd``, ``non_rho_dominated`` and the ``ord`` certificate; the same
  predicate serves ``nd`` over a polytope's vertices in any dimension;
* the half-widths at which each tuple is dominated by fewer than k others
  (:func:`survival_spans`), which make the least ``ord`` radius an order
  statistic;
* where each tuple is beaten by fewer than k rivals on [0, 1]
  (:func:`beaten_below`, :func:`reach`), which gives ``oru`` membership at
  any radius and each tuple's exact entry radius;
* pairwise order breakpoints and the top-k label of each cell
  (:func:`breakpoints`, :func:`cell_labels`) for ``utk1``/``utk2``; the
  labels serve sampled weight vectors in any dimension as well;
* a minimizer of the upper envelope of lines on an interval
  (:func:`envelope_argmin`) for ``exists_weak_optimum``.

Pairwise steps are vectorized over blocks of columns, so memory stays
O(block * n) rather than O(n^2). Scores and the (score, id) tie-break come
from the same primitives as :func:`queries.top_k`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .queries import _best_k, _scores

# elements per pairwise block: 256 KB per float temporary. A fresh
# temporary of that size on every block pays a page fault per 4 KB page
# whenever glibc has handed the freed memory back to the system: 52,000
# minor faults in 12 rounds of the benchmark's 2-d mix, almost all in ord,
# once no scipy import had grown the heap first. So the 2-d dominance and
# span kernels compute into one workspace per call (:func:`_workspace`).
# Halving the blocks avoids the faults too, but slows the 3-d kernels that
# still allocate per block (in-process bulk, 2-5 % fewer queries a second).
_BLOCK_ELEMS = 1 << 15


def _width(rows: int) -> int:
    return max(1, _BLOCK_ELEMS // max(rows, 1))


def _blocks(rows: int, cols: int) -> Iterator[slice]:
    """Column slices whose (rows x width) temporaries stay near _BLOCK_ELEMS."""
    width = _width(rows)
    for start in range(0, cols, width):
        yield slice(start, min(start + width, cols))


def _workspace(size: int, floats: int, masks: int):
    """Flat float and bool buffers of ``size`` elements for one kernel call.

    Sized at the call's largest block, they are viewed at each block's shape
    by :func:`_shaped`, so a call touches its pages once instead of once per
    block.
    """
    return [np.empty(size) for _ in range(floats)], [
        np.empty(size, dtype=bool) for _ in range(masks)
    ]


def _shaped(buffers: list[np.ndarray], rows: int, cols: int) -> list[np.ndarray]:
    """C-contiguous (rows, cols) views of the front of each flat buffer."""
    return [b[: rows * cols].reshape(rows, cols) for b in buffers]


def _at(t: float) -> np.ndarray:
    return np.array([t, 1.0 - t])


def _dominates(q: np.ndarray, s: np.ndarray, tol: float, work=None) -> np.ndarray:
    """Mask of whether row i of ``q`` dominates row j of ``s`` at the support points.

    D = q_i - s_j is <= tol at every point and < -tol at one; Pareto at tol = 0.
    ``work`` is a :func:`_workspace` of three floats and two masks to
    compute in; the mask returned is then one of its buffers.
    """
    floats, masks = work or _workspace(len(q) * len(s), 3, 2)
    hi, lo, diff = _shaped(floats, len(q), len(s))
    below, above = _shaped(masks, len(q), len(s))
    np.subtract(q[:, None, 0], s[None, :, 0], out=hi)
    np.copyto(lo, hi)
    for c in range(1, s.shape[1]):
        np.subtract(q[:, None, c], s[None, :, c], out=diff)
        np.maximum(hi, diff, out=hi)
        np.minimum(lo, diff, out=lo)
    np.less_equal(hi, tol, out=below)
    np.less(lo, -tol, out=above)
    return np.logical_and(below, above, out=below)


def dominator_counts(
    scores: np.ndarray, tol: float, dominators: np.ndarray | None = None
) -> np.ndarray:
    """For each tuple j, how many tuples i dominate it over a finite support set.

    ``scores`` is (n, s): each tuple's score at the s support points, such as
    the two ends of an interval, the vertices of a polytope in any dimension
    or, for Pareto dominance, the d attributes themselves. The predicate is
    that of :func:`_dominates`. ``dominators`` restricts the candidate i's
    to the given row indices.
    """
    n = scores.shape[0]
    q = scores if dominators is None else scores[dominators]
    counts = np.zeros(n, dtype=int)
    work = _workspace(len(q) * min(_width(len(q)), n), 3, 2)
    for cols in _blocks(len(q), n):
        np.sum(_dominates(q, scores[cols], tol, work), axis=0, out=counts[cols])
    return counts


def _rise_past(
    d_w: np.ndarray, s: np.ndarray, w1: float, tol: float, out=None, work=None
) -> np.ndarray:
    """Half-width h at which max(D) over the ball interval passes tol, elementwise.

    D(t) = d_w + s (t - w1); its larger end value d_w + |s| h rises with h
    until the simplex clips the interval on that side. Returns a negative
    value when max(D) > tol already at h = 0 and inf when the clip comes
    first (or s = 0 and d_w <= tol). The result goes to ``out``, computed
    in ``work``: one float buffer and two masks of the same shape. Fresh
    ones are made when these are absent.
    """
    if out is None:
        out = np.empty(np.shape(d_w))
    if work is None:
        work = np.empty_like(out), np.empty(out.shape, dtype=bool), np.empty(out.shape, dtype=bool)
    num, clipped, other = work
    np.subtract(tol, d_w, out=num)
    # the clip comes first when num reaches |s| times the distance from w1
    # to the clip on the side where D rises, max(s (1 - w1), -s w1)
    np.greater_equal(num, np.multiply(s, 1.0 - w1, out=out), out=clipped)
    np.greater_equal(num, np.multiply(s, -w1, out=out), out=other)
    np.logical_and(clipped, other, out=clipped)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(num, np.abs(s, out=out), out=out)
    np.copyto(out, np.inf, where=clipped)
    return out


def _pair_spans(d_w: np.ndarray, s: np.ndarray, w1: float, tol: float):
    """Half-widths (on, off) bounding when pairs ball-dominate, elementwise.

    A pair is given by D(t) = d_w + s (t - w1), the score of the dominator
    minus that of the dominated tuple. Under the :func:`dominator_counts`
    predicate on the ball interval it dominates exactly for on < h <= off:
    ``off`` is where the larger end of D passes tol, and ``on`` where the
    smaller end passes -tol, that is where the larger end of -D passes tol
    (-inf when already past at h = 0). Pairs that never dominate get an
    empty span (on = off = -inf).
    """
    off = _rise_past(d_w, s, w1, tol)
    on = _rise_past(-d_w, -s, w1, tol)
    on[on < 0.0] = -np.inf
    empty = (off < 0.0) | (on >= off)
    return np.where(empty, -np.inf, on), np.where(empty, -np.inf, off)


def _sweep_spans(top: np.ndarray, on: np.ndarray, off: np.ndarray, k: int):
    """Survival spans of one tuple that some pair starts dominating at h > 0.

    ``top`` holds the largest (at most k) stop values of the pairs that
    dominate from h = 0; ``on``/``off`` bound the pairs that start later.
    The dominator count is constant on h = 0 and on each piece (r, r'] of
    consecutive event points, so one pass over the points finds the pieces
    with fewer than k dominators.
    """
    points = np.unique(np.concatenate(([0.0], top, on, off)))
    spans: list[tuple[float, float]] = []
    start = -1.0 if len(top) < k else None  # -1: the span includes h = 0
    for r in points[np.isfinite(points)]:
        alive = int((top > r).sum()) + int(((on <= r) & (off > r)).sum()) < k
        if alive and start is None:
            start = float(r)
        elif not alive and start is not None:
            spans.append((start, float(r)))
            start = None
    if start is not None:
        spans.append((start, np.inf))
    return spans


def survival_spans(
    a: np.ndarray, w1: float, k: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spans (x, y] of the half-width h in which a tuple has < k ball dominators.

    Returns arrays ``x`` and ``y``: for every h >= 0 the number of tuples
    ball-dominated by fewer than k others is #{x < h <= y} (a span starting
    at x = -1 includes h = 0). A tuple dominated from h = 0 onward by pairs
    with stop radii f_1 >= f_2 >= ... survives exactly for h > f_k, so in the
    common case its single span is (f_k, inf); only tuples with a pair inside
    the tolerance band (dominance that starts at some h > 0) are swept.
    """
    n = a.shape[0]
    p = _scores(a, _at(w1))
    # only rows scoring below a column at w, or tied with it within tol, can
    # ever dominate it, so with tuples in score order each column block
    # pairs with a prefix of the rows; the spans are the same in any order
    order = np.argsort(p, kind="stable")
    p = p[order]
    slope = (a[:, 0] - a[:, 1])[order]
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    # the row prefix grows from block to block, up to all n rows
    floats, masks = _workspace(n * min(_width(n), n), 4, 3)
    for cols in _blocks(n, n):
        rows = int(np.searchsorted(p, p[cols.stop - 1] + tol, "right"))
        d_w, s, stops, num = _shaped(floats, rows, cols.stop - cols.start)
        tied, far, spare = _shaped(masks, rows, cols.stop - cols.start)
        np.subtract(p[:rows, None], p[None, cols], out=d_w)
        np.subtract(slope[:rows, None], slope[None, cols], out=s)
        # pairs dominating from h = 0 stop where D at its rising end passes tol
        _rise_past(d_w, s, w1, tol, stops, (num, tied, spare))
        np.copyto(stops, -np.inf, where=np.greater_equal(d_w, -tol, out=far))
        if k <= rows:
            # in place: what is read of a column later is its k-th value and
            # the multiset of its values, which the partition keeps
            stops.partition(rows - k, axis=0)
            kth = stops[rows - k]
        else:
            kth = np.full(stops.shape[1], -np.inf)
        # pairs tied at w to within tol may start dominating at some h > 0
        np.less_equal(np.abs(d_w, out=num), tol, out=tied)
        np.logical_and(tied, np.not_equal(s, 0.0, out=far), out=tied)
        late = np.zeros(stops.shape[1], dtype=bool)
        for c in np.flatnonzero(tied.any(axis=0)):
            pairs = np.flatnonzero(tied[:, c])
            on, off = _pair_spans(d_w[pairs, c], s[pairs, c], w1, tol)
            live = on < off
            if not live.any():
                continue
            late[c] = True
            col_stops = stops[:, c]
            top = np.sort(col_stops[col_stops > -np.inf])[::-1][:k]
            for x, y in _sweep_spans(top, on[live], off[live], k):
                xs.append(np.array([x]))
                ys.append(np.array([y]))
        plain = ~late & (kth < np.inf)
        xs.append(np.where(kth[plain] == -np.inf, -1.0, kth[plain]))
        ys.append(np.full(int(plain.sum()), np.inf))
    if not xs:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(xs), np.concatenate(ys)


def _rivals(a: np.ndarray, cols: slice) -> np.ndarray:
    """(n, width) mask: row i has a different attribute vector than column j."""
    return (a[:, 0:1] != a[None, cols, 0]) | (a[:, 1:2] != a[None, cols, 1])


def beaten_below(a: np.ndarray, t: float, k: int) -> np.ndarray:
    """Whether each tuple is beaten by fewer than k rivals at the point t.

    A rival is a tuple with a different attribute vector; it beats j at t
    when s_i(t) <= s_j(t), so ties beat.
    """
    n = a.shape[0]
    p = _scores(a, _at(t))
    out = np.zeros(n, dtype=bool)
    for cols in _blocks(n, n):
        beats = _rivals(a, cols) & (p[:, None] <= p[None, cols])
        out[cols] = beats.sum(axis=0) < k
    return out


def reach(a: np.ndarray, w1: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The good points of each tuple nearest to w1, on either side.

    A good point of j is one inside an open cell of j's arrangement where
    fewer than k rivals beat it (see :func:`beaten_below`). Each rival's
    state just right of t = 0 and just left of t = 1 follows from exact
    comparisons, and it flips once, at its crossing, exactly when those two
    differ, so a sorted sweep of the crossings gives the beaten count on
    every cell. Returns ``(left, right)``: the supremum of good points at or
    below w1 (-inf when none) and the infimum of those at or above w1 (inf
    when none).
    """
    n = a.shape[0]
    left = np.full(n, -np.inf)
    right = np.full(n, np.inf)
    for cols in _blocks(n, n):
        d1 = a[:, 0:1] - a[None, cols, 0]
        d2 = a[:, 1:2] - a[None, cols, 1]
        rival = _rivals(a, cols)
        beat0 = rival & ((d2 < 0.0) | ((d2 == 0.0) & (d1 < 0.0)))
        beat1 = rival & ((d1 < 0.0) | ((d1 == 0.0) & (d2 < 0.0)))
        flip = beat0 != beat1
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.clip(-d2 / (d1 - d2), 0.0, 1.0)
        order = np.argsort(np.where(flip, root, np.inf), axis=0)
        cut = np.take_along_axis(np.where(flip, root, 1.0), order, axis=0)
        step = np.take_along_axis(np.where(flip, np.where(beat0, -1, 1), 0), order, axis=0)
        start = beat0.sum(axis=0, keepdims=True)
        counts = np.vstack([start, start + np.cumsum(step, axis=0)])
        lo = np.vstack([np.zeros_like(start, dtype=float), cut])
        hi = np.vstack([cut, np.ones_like(start, dtype=float)])
        good = (counts < k) & (hi > lo)
        left[cols] = np.where(good & (lo < w1), np.minimum(hi, w1), -np.inf).max(axis=0)
        right[cols] = np.where(good & (hi > w1), np.maximum(lo, w1), np.inf).min(axis=0)
    return left, right


def breakpoints(a: np.ndarray, lo: float, hi: float, dedup: float) -> list[float]:
    """Sorted crossings of pairs of lines strictly inside (lo, hi).

    Pairs with slopes within 1e-12 of each other never cross; a crossing
    within 1e-12 of an end is dropped, and a crossing within ``dedup`` of
    the last one kept is merged into it.
    """
    n = a.shape[0]
    found: list[np.ndarray] = []
    for rows in _blocks(n, n):
        i = np.arange(rows.start, rows.stop)[:, None]
        j = np.arange(n)[None, :]
        den = (a[i, 0] - a[j, 0]) - (a[i, 1] - a[j, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            root = (a[j, 1] - a[i, 1]) / den
        keep = (j > i) & (np.abs(den) > 1e-12) & (lo + 1e-12 < root) & (root < hi - 1e-12)
        found.append(root[keep])
    roots = np.sort(np.concatenate(found)) if found else np.zeros(0)
    close = np.flatnonzero(np.diff(roots) <= dedup)
    if not len(close):
        return roots.tolist()
    # every root up to the first close pair is kept; from there the merge
    # rule runs in order
    keep = np.ones(len(roots), dtype=bool)
    last = roots[close[0]]
    for idx in range(int(close[0]) + 1, len(roots)):
        if roots[idx] - last > dedup:
            last = roots[idx]
        else:
            keep[idx] = False
    return roots[keep].tolist()


def cell_labels(a: np.ndarray, ids: Sequence[str], k: int, weights: np.ndarray) -> np.ndarray:
    """Row indices of the top-k tuples at each row of ``weights`` (m, d), best first.

    Scoring and the (score, id) tie-break are those of :func:`queries.top_k`,
    so each label is exactly what ``top_k`` returns at that weight vector.
    """
    n = a.shape[0]
    out = np.zeros((len(weights), min(k, n)), dtype=np.intp)
    for cells in _blocks(n, len(weights)):
        out[cells] = _best_k(_scores(a, weights[cells]), ids, k)
    return out


def envelope_argmin(slopes: np.ndarray, offsets: np.ndarray, lo: float, hi: float) -> float:
    """A point of [lo, hi] minimizing the upper envelope max_i(slopes_i t + offsets_i).

    By linear-programming duality the minimum is the largest lower bound of
    three kinds: a line that does not fall, at lo; a line that does not
    rise, at hi; and the crossing height of a rising line with a falling
    one. The minimizers are then the t where every line stays at or below
    that value, an interval read off in one pass; its midpoint is returned.
    """
    if hi <= lo:
        return lo
    best = max(
        float(np.max(offsets + slopes * lo, where=slopes >= 0.0, initial=-np.inf)),
        float(np.max(offsets + slopes * hi, where=slopes <= 0.0, initial=-np.inf)),
    )
    up, dn = slopes > 0.0, slopes < 0.0
    p_s, p_o = slopes[up], offsets[up]
    q_s, q_o = slopes[dn], offsets[dn]
    for cols in _blocks(len(p_s), len(q_s)):
        t = (q_o[None, cols] - p_o[:, None]) / (p_s[:, None] - q_s[None, cols])
        if t.size:
            best = max(best, float((p_s[:, None] * t + p_o[:, None]).max()))
    t_hi = min(hi, float(np.min((best - p_o) / p_s, initial=np.inf)))
    t_lo = max(lo, float(np.max((best - q_o) / q_s, initial=-np.inf)))
    return min(max(0.5 * (t_lo + t_hi), lo), hi)
