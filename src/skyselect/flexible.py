"""Region-restricted dominance and the two flexible skyline operators.

A tuple r1 region-dominates r2 when its score is never worse anywhere in the
weight region and strictly better somewhere in it. The two operators:

* ``nd``: tuples not region-dominated by any other tuple;
* ``po``: tuples that are optimal for at least one weight vector.

Optimality semantics: ``po`` uses STRICT optimality by default, meaning the
tuple strictly beats every rival with a different attribute vector at the
witness weight. Under this reading ``po(ds, reg)`` is always a subset of
``nd(ds, reg)``. The weaker reading (ties allowed at the witness) is
available with ``strict=False``; it is not a subset of ``nd`` in general.
"""

from __future__ import annotations

import numpy as np

from .arrangement import _blocks, dominator_counts
from .dataset import Dataset, Tuple
from .queries import _skyline_rows
from .regions import (
    MAX_VERTEX_DIM,
    EmptyRegionError,
    LinearConstraint,
    WeightRegion,
    _as_attr_vector,
    _support_points,
    exists_weak_optimum,
    find_feasible_point,
    linear_range,
    maximize_linear,
    minimize_linear,
    simplex_ball_range,
)

DOM_TOL = 1e-12


def constraint_from_preference(preferred, other) -> LinearConstraint:
    """Linear weight constraint implied by ranking ``preferred`` above ``other``.

    Accepts tuples or raw attribute vectors. Scoring ``preferred`` strictly
    better means ``(preferred - other) . v < 0``. Identical attribute vectors
    carry no information and are rejected.
    """
    p, o = _as_attr_vector(preferred), _as_attr_vector(other)
    if p.shape != o.shape:
        raise ValueError("preference tuples must share a dimension")
    coeffs = tuple((p - o).tolist())
    if not any(coeffs):
        raise ValueError("uninformative preference: identical attribute vectors")
    return LinearConstraint(coeffs, 0.0, strict=True)


def f_dominates(r1: Tuple, r2: Tuple, reg: WeightRegion) -> bool:
    """True when r1 scores <= r2 across the region and < somewhere in it."""
    if r1.dim != r2.dim:
        raise ValueError("tuples must share a dimension")
    if r1.dim != reg.dim:
        raise ValueError("region dimension does not match tuples")
    c = np.asarray(r1.attrs, dtype=float) - np.asarray(r2.attrs, dtype=float)
    lo, hi = linear_range(reg, c)
    return hi <= DOM_TOL and lo < -DOM_TOL


def _beaten(reg: WeightRegion, diffs: np.ndarray) -> np.ndarray:
    """Whether i region-dominates j for each pair difference c = a_i - a_j.

    The predicate is max c . v <= DOM_TOL and min c . v < -DOM_TOL over a
    region without a finite support set, that is a ball in d >= 3.
    """
    n = len(diffs)
    if reg.dim <= MAX_VERTEX_DIM:
        lo, hi = simplex_ball_range(diffs, reg.ball)
        if not reg.constraints:
            return (hi <= DOM_TOL) & (lo < -DOM_TOL)
    else:
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    # numeric: the range over the ball alone, (lo, hi), holds the region's
    # range, which holds c . x0 at a feasible point x0; SLSQP settles only
    # the ends these leave open
    at = diffs @ find_feasible_point(reg)
    beaten = (hi <= DOM_TOL) & (at < -DOM_TOL)
    for i in np.flatnonzero(~beaten & (at <= DOM_TOL) & (lo < -DOM_TOL) & diffs.any(axis=1)):
        if hi[i] > DOM_TOL and maximize_linear(reg, diffs[i])[0] > DOM_TOL:
            continue
        beaten[i] = at[i] < -DOM_TOL or minimize_linear(reg, diffs[i])[0] < -DOM_TOL
    return beaten


def _dominator_counts(
    a: np.ndarray, reg: WeightRegion, dominators: np.ndarray | None = None
) -> np.ndarray:
    """For each row j of ``a``, how many rows i region-dominate it.

    One predicate everywhere: with (lo, hi) the range of (a_i - a_j) . v over
    the region, i dominates j when hi <= DOM_TOL and lo < -DOM_TOL. With a
    finite support set it is evaluated there (:func:`arrangement.
    dominator_counts`); otherwise over blocks of pair differences
    (:func:`_beaten`), exactly by the simplex-ball kernel when the region is
    a ball alone. ``dominators`` restricts the candidate i's to the given
    row indices.
    """
    support = _support_points(reg)
    if support is not None:
        return dominator_counts(a @ support.T, DOM_TOL, dominators)
    q = a if dominators is None else a[dominators]
    counts = np.zeros(len(a), dtype=int)
    for cols in _blocks(len(q), len(a)):
        diffs = (q[:, None, :] - a[None, cols, :]).reshape(-1, a.shape[1])
        counts[cols] = _beaten(reg, diffs).reshape(len(q), -1).sum(axis=0)
    return counts


def nd(ds: Dataset, reg: WeightRegion) -> set[str]:
    """Ids of tuples no other tuple region-dominates.

    Candidate dominators are restricted to the Pareto skyline: any
    region-dominator is itself weakly score-dominated by some skyline tuple
    at every weight, so the restriction never changes the result.
    """
    if reg.dim != ds.dim:
        raise ValueError("region dimension does not match dataset")
    if len(ds) == 0:
        return set()
    if _support_points(reg) is None and find_feasible_point(reg) is None:
        raise EmptyRegionError("empty region")
    a, ids = ds.attr_array(), ds.ids()
    sky = np.array(sorted(_skyline_rows(a)), dtype=np.intp)
    # the predicate non_rho_dominated uses, so the two agree on balls
    return {ids[i] for i in np.flatnonzero(_dominator_counts(a, reg, sky) == 0)}


def po(ds: Dataset, reg: WeightRegion, strict: bool = True) -> set[str]:
    """Ids of tuples optimal somewhere in the region.

    With ``strict=True`` (default) the tuple must strictly beat every rival
    with different attributes at the witness vector, which keeps the result
    inside ``nd``. Rival lists passed to the optimizer are pruned to tuples
    that are not weakly score-dominated by a kept rival, which cannot change
    any decision.
    """
    if reg.dim != ds.dim:
        raise ValueError("region dimension does not match dataset")
    n = len(ds)
    if n == 0:
        return set()
    a, ids = ds.attr_array(), ds.ids()
    kept = nd(ds, reg) if strict else set(ids)
    candidates = np.fromiter((tid in kept for tid in ids), dtype=bool, count=n)
    support = _support_points(reg)
    scores = a @ support.T if support is not None and strict else None
    out: set[str] = set()
    for i in np.flatnonzero(candidates):
        rivals = np.ones(n, dtype=bool)
        if scores is not None:  # nd candidates and rows no better than i at every support point
            rivals = candidates | ((scores[i] - scores).max(axis=1) <= DOM_TOL)
        rivals[i] = False
        ok, _ = exists_weak_optimum(reg, a[i], a[rivals], strict=strict)
        if ok:
            out.add(ids[i])
    return out
