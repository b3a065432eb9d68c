"""Output-size-specified selection around an estimated weight vector.

Both operators relax preference uncertainty as a closed ball of radius rho
around the estimate ``w`` (intersected with the simplex) and binary-search
the least radius whose result reaches the requested size m:

* ``ord_query`` keeps tuples ball-dominated by fewer than ``k_depth`` others;
* ``oru_query`` keeps tuples that enter some top-``k_depth`` result for at
  least one vector in the ball.

Growing the ball only shrinks dominance and only grows reachability, so both
cardinalities are non-decreasing in rho and the search is well posed.

In two dimensions the ball is an interval of w1 and both searches are exact
(see :mod:`.arrangement`): every tuple's radius of entry has a closed form,
the least radius is an order statistic of those, and ``rho_star`` is the
exact infimum; the answer is the result at any radius just above it. In
three or more dimensions ``rho_star`` is the midpoint of a bisection
bracket of width ``RHO_TOL``; each ``ord`` probe counts ball dominators
exactly (:func:`regions.simplex_ball_range`), while ``oru`` membership
there still rests on the numeric existence test.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import arrangement
from .dataset import Dataset, Tuple
from .queries import check_weights
from .regions import ball_region, exists_weak_optimum, grid_sample, region_interval_d2
from .flexible import DOM_TOL, _dominator_counts, f_dominates

RHO_MAX = math.sqrt(2.0)
RHO_TOL = 1e-6
_RADIUS_GROUP = 1e-5  # entry radii closer than the search tolerance tie
RADIUS_TIE = 1e-12  # exact 2-d entry radii this close (chained) tie


class UnreachableSizeError(ValueError):
    """Requested output size exceeds what any radius can produce."""

    def __init__(self, requested: int, achievable: int):
        super().__init__(
            f"m unreachable: requested {requested}, max achievable {achievable}"
        )
        self.requested = requested
        self.achievable = achievable


@dataclass(frozen=True)
class OssResult:
    """Chosen ids (already ranked), the radius found, and the depth used."""

    ids: tuple[str, ...]
    rho_star: float
    k_depth: int


def rho_dominates(r1: Tuple, r2: Tuple, w: Sequence[float], rho: float) -> bool:
    """Ball dominance: region dominance on the radius-rho ball around w.

    At rho = 0 this degenerates to a strict score comparison at w itself.
    """
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
    check_weights(w, r1.dim)
    return f_dominates(r1, r2, ball_region(tuple(w), rho))


def non_rho_dominated(
    ds: Dataset, w: Sequence[float], rho: float, k_depth: int = 1
) -> set[str]:
    """Ids ball-dominated by fewer than ``k_depth`` other tuples."""
    wv = check_weights(w, ds.dim)
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
    if k_depth < 1:
        raise ValueError("k_depth must be >= 1")
    ids = ds.ids()
    return {ids[i] for i in np.flatnonzero(_survivors(ds.attr_array(), wv, rho, k_depth))}


def _survivors(a: np.ndarray, w: np.ndarray, rho: float, k_depth: int) -> np.ndarray:
    """Whether each row is ball-dominated by fewer than ``k_depth`` others."""
    return _dominator_counts(a, ball_region(tuple(w), rho)) < k_depth


def _rank_by_score(ds: Dataset, w: np.ndarray, rows: np.ndarray) -> list[str]:
    """Ids of the chosen rows (a mask) by score at w, then id."""
    a, ids = ds.attr_array(), ds.ids()
    return [tid for _, tid in sorted((float(a[i] @ w), ids[i]) for i in np.flatnonzero(rows))]


def _bisect_least_radius(count_at, m: int, hi: float = RHO_MAX) -> tuple[float, float]:
    """Least rho in [0, hi] with count(rho) >= m; returns (reported midpoint, feasible hi)."""
    lo = 0.0
    while hi - lo > RHO_TOL:
        mid = 0.5 * (lo + hi)
        if count_at(mid) >= m:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), hi


def _tie_groups(radii: np.ndarray) -> np.ndarray:
    """Group number of each of a sorted array of exact 2-d radii.

    A radius within RADIUS_TIE of the one before it joins that one's group:
    the closed forms round, so radii that are equal in exact arithmetic can
    differ in the last bits, and such radii count as one.
    """
    with np.errstate(invalid="ignore"):  # inf - inf: unreachable tuples
        return np.concatenate(([0], np.cumsum(np.diff(radii) > RADIUS_TIE)))


def _least_radius_d2(ds: Dataset, w: np.ndarray, m: int, k_depth: int):
    """Exact 2-d ord search: (rho_star, survivors at a radius just above it).

    Works in the half-width h of the ball interval; rho = RHO_MAX * h, since
    RHO_MAX is sqrt 2. The survivor count is constant on h = 0 and between
    consecutive span ends of :func:`arrangement.survival_spans`, so the
    least radius reaching m is the first end after which m survive. The
    survivor set is then certified by one evaluation of the dominance
    predicate past that end's tie group; should rounding put the predicate
    on the other side of an end, the next group is tried, and finally the
    full simplex.
    """
    w1 = float(w[0])
    x, y = arrangement.survival_spans(ds.attr_array(), w1, k_depth, DOM_TOL)
    ends = np.unique(np.concatenate(([0.0], x[x >= 0.0], y[np.isfinite(y)])))
    # survivors just above each end: spans with x <= end < y
    alive = np.searchsorted(np.sort(x), ends, "right")
    alive -= np.searchsorted(np.sort(y), ends, "right")
    group = _tie_groups(RHO_MAX * ends)
    last = np.searchsorted(group, group, "right") - 1  # last end of each group
    beyond = np.append(ends[1:], max(w1, 1.0 - w1))  # the full simplex past the last
    reached = np.flatnonzero(alive >= m)

    def tries():
        """(h_star, half-width to certify at), in the order to try them."""
        if int((x < 0.0).sum()) >= m:
            yield 0.0, 0.0
        i = int(reached[0]) if len(reached) else len(ends)
        while i < len(ends):
            j = int(last[i])
            yield float(ends[i]), 0.5 * (ends[j] + beyond[j])
            i = j + 1

    a = ds.attr_array()
    for h_star, h_at in tries():
        survivors = _survivors(a, w, RHO_MAX * h_at, k_depth)
        if survivors.sum() >= m:
            return RHO_MAX * h_star, survivors
    survivors = _survivors(a, w, RHO_MAX, k_depth)
    if survivors.sum() < m:
        raise UnreachableSizeError(m, int(survivors.sum()))
    return RHO_MAX, survivors


def ord_query(ds: Dataset, w: Sequence[float], m: int, k_depth: int = 1) -> OssResult:
    """Least-radius ball-undominated set truncated to exactly m ids.

    Survivors are ranked by score at w (ties by id). When the survivor count
    jumps past m at the critical radius, the ranking decides which m stay.
    Raises :class:`UnreachableSizeError` when even the full simplex cannot
    reach m survivors.
    """
    wv = check_weights(w, ds.dim)
    n = len(ds)
    if not 1 <= m <= n:
        raise ValueError("m must satisfy 1 <= m <= n")
    if k_depth < 1:
        raise ValueError("k_depth must be >= 1")

    if ds.dim == 2:
        rho_star, survivors = _least_radius_d2(ds, wv, m, k_depth)
        ranked = _rank_by_score(ds, wv, survivors)[:m]
        return OssResult(tuple(ranked), rho_star, k_depth)

    a = ds.attr_array()

    def count_at(rho: float) -> int:
        return int(_survivors(a, wv, rho, k_depth).sum())

    if count_at(0.0) >= m:
        rho_star, at = 0.0, 0.0
    else:
        achievable = count_at(RHO_MAX)
        if achievable < m:
            raise UnreachableSizeError(m, achievable)
        rho_star, at = _bisect_least_radius(count_at, m)
    ranked = _rank_by_score(ds, wv, _survivors(a, wv, at, k_depth))[:m]
    return OssResult(tuple(ranked), rho_star, k_depth)


def _member_general(a: np.ndarray, i: int, w: np.ndarray, rho: float, k_depth: int) -> bool:
    reg = ball_region(tuple(w), rho)
    rivals = np.delete(a, i, axis=0)
    if k_depth == 1:
        ok, _ = exists_weak_optimum(reg, a[i], rivals, strict=True)
        return ok
    # depth > 1 beyond two dimensions: sampled approximation on the ball
    diffs = rivals[(rivals != a[i]).any(axis=1)] - a[i]
    if diffs.size == 0:
        return True
    for v in grid_sample(reg, 32):
        if int((diffs @ v <= 0.0).sum()) < k_depth:
            return True
    return False


def _members(a: np.ndarray, w: np.ndarray, rho: float, k_depth: int) -> np.ndarray:
    """Whether each row enters some top-``k_depth`` result on the ball."""
    if a.shape[1] == 2:
        # exact: beaten by fewer than k_depth rivals on an open cell of the
        # ball interval, or at its single point when it has no width
        lo, hi = region_interval_d2(ball_region(tuple(w), rho))
        if hi - lo <= 1e-15:
            return arrangement.beaten_below(a, lo, k_depth)
        left, right = arrangement.reach(a, float(w[0]), k_depth)
        return (left > lo) | (right < hi)
    return np.array([_member_general(a, i, w, rho, k_depth) for i in range(len(a))], dtype=bool)


def _membership(ds: Dataset, w: np.ndarray, rho: float, k_depth: int) -> set[str]:
    ids = ds.ids()
    return {ids[i] for i in np.flatnonzero(_members(ds.attr_array(), w, rho, k_depth))}


def _oru_d2(ds: Dataset, w: np.ndarray, m: int, k_depth: int) -> OssResult:
    """Exact 2-d oru, working in the half-width h of the ball interval.

    A tuple that is no member at w enters at the distance from w1 to its
    nearest good cell (see :func:`arrangement.reach`) and is a member at
    every larger half-width, so the least half-width reaching m members is
    the m-th smallest entry and rho_star is RHO_MAX (sqrt 2) times it.
    """
    a, ids = ds.attr_array(), ds.ids()
    at_w = _members(a, w, 0.0, k_depth)
    if at_w.sum() >= m:
        return OssResult(tuple(_rank_by_score(ds, w, at_w)[:m]), 0.0, k_depth)
    w1 = float(w[0])
    left, right = arrangement.reach(a, w1, k_depth)
    entry = np.minimum(w1 - left, right - w1)
    entry[at_w] = 0.0
    order = np.argsort(entry, kind="stable")
    h_star = float(entry[order[m - 1]])
    if not np.isfinite(h_star):
        raise UnreachableSizeError(m, int(np.isfinite(entry).sum()))
    # members: every tuple entering by the end of h_star's tie group
    group = _tie_groups(RHO_MAX * entry[order])
    chosen = order[group <= group[m - 1]]
    if len(chosen) <= m:
        members = np.isin(np.arange(len(a)), chosen)
        return OssResult(tuple(_rank_by_score(ds, w, members)[:m]), RHO_MAX * h_star, k_depth)
    # overshoot: rank by entry radius, tied radii by score at w, then id
    keyed = sorted((int(g), float(a[i] @ w), ids[i]) for g, i in zip(group, chosen))
    return OssResult(tuple(tid for _, _, tid in keyed[:m]), RHO_MAX * h_star, k_depth)


def oru_query(ds: Dataset, w: Sequence[float], m: int, k_depth: int = 1) -> OssResult:
    """Least-radius union of reachable top-``k_depth`` results, size exactly m.

    When the membership count jumps past m, survivors are ranked by their
    individual entry radius (the least rho at which they become reachable),
    then score at w, then id. In two dimensions entry radii are exact and
    radii within ``RADIUS_TIE`` of each other tie; in three or more they are
    bisected to ``RHO_TOL`` and grouped at ``_RADIUS_GROUP``. Raises
    :class:`UnreachableSizeError` when the full simplex cannot reach m
    members, reporting the maximum achievable.
    """
    wv = check_weights(w, ds.dim)
    n = len(ds)
    if not 1 <= m <= n:
        raise ValueError("m must satisfy 1 <= m <= n")
    if k_depth < 1:
        raise ValueError("k_depth must be >= 1")
    if ds.dim == 2:
        return _oru_d2(ds, wv, m, k_depth)

    a, ids = ds.attr_array(), ds.ids()

    def count_at(rho: float) -> int:
        return int(_members(a, wv, rho, k_depth).sum())

    if count_at(0.0) >= m:
        rho_star, at = 0.0, 0.0
    else:
        achievable = count_at(RHO_MAX)
        if achievable < m:
            raise UnreachableSizeError(m, achievable)
        rho_star, at = _bisect_least_radius(count_at, m)
    members = _members(a, wv, at, k_depth)

    if members.sum() <= m:
        ranked = _rank_by_score(ds, wv, members)[:m]
        return OssResult(tuple(ranked), rho_star, k_depth)

    # overshoot: order by entry radius, grouped at the search tolerance
    keyed = []
    for i in np.flatnonzero(members):
        member_fn = lambda r, i=i: _member_general(a, i, wv, r, k_depth)
        entry = 0.0 if member_fn(0.0) else _bisect_least_radius(member_fn, 1, at)[0]
        keyed.append((round(entry / _RADIUS_GROUP), float(a[i] @ wv), ids[i]))
    keyed.sort()
    return OssResult(tuple(tid for _, _, tid in keyed[:m]), rho_star, k_depth)
