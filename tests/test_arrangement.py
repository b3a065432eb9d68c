"""The exact 2-d kernel behind ord, oru, utk and 2-d exists_weak_optimum.

Each operator is checked against a second route that does not use the
kernel's closed forms: the dominance predicate evaluated at fixed radii,
``po`` on the ball, the brute-force top-k of ``tests/oracles.py``, or a
plain loop over pairwise crossings. Datasets on a coarse grid of values make
duplicate tuples, parallel lines and crossings exactly at interval ends
common, and weights at 0, 1 or near them make the simplex clip the ball.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyselect import (
    Dataset,
    LinearConstraint,
    Tuple,
    UnreachableSizeError,
    WeightRegion,
    ball_region,
    exists_weak_optimum,
    generate,
    non_rho_dominated,
    order_breakpoints,
    ord_query,
    oru_query,
    po,
    region_interval_d2,
    utk2,
)
from skyselect import arrangement
from skyselect.arrangement import dominator_counts, envelope_argmin, survival_spans
from skyselect.oss import _membership

from .oracles import brute_topk_at

EPS = 1e-6
QUARTER_ROOT2 = math.sqrt(2.0) / 4.0


def _ds(rows) -> Dataset:
    return Dataset(
        ("a1", "a2"), tuple(Tuple(str(i), tuple(map(float, r))) for i, r in enumerate(rows))
    )


def _band(lo, hi) -> WeightRegion:
    return WeightRegion(
        2, (LinearConstraint((-1.0, 0.0), -lo), LinearConstraint((1.0, 0.0), hi))
    )


# values on a grid of eighths: ties, duplicates and parallel lines are common
grid_rows = st.lists(
    st.lists(st.integers(0, 8), min_size=2, max_size=2), min_size=2, max_size=12
).map(lambda rows: [[x / 8.0 for x in r] for r in rows])
weights = st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 1e-3, 1.0 - 1e-3, 0.4])


def test_worked_fixture_radius_is_exact(d1):
    # b dominates a until w1 passes 3/4 and c until it drops below 1/4: both
    # need half-width 1/4, so rho* = sqrt(2)/4 (a bisection reaches 1e-6)
    for fn in (ord_query, oru_query):
        res = fn(d1, (0.5, 0.5), 3)
        assert res.ids == ("b", "a", "c")
        assert res.rho_star == pytest.approx(QUARTER_ROOT2, abs=1e-12)


@settings(max_examples=150)
@given(grid_rows, weights, st.integers(1, 3), st.integers(1, 12))
def test_ord_radius_is_least(rows, w1, k_depth, m):
    ds = _ds(rows)
    w = (w1, 1.0 - w1)
    m = min(m, len(ds))
    try:
        res = ord_query(ds, w, m, k_depth)
    except UnreachableSizeError as exc:
        assert exc.achievable == len(non_rho_dominated(ds, w, math.sqrt(2.0), k_depth)) < m
        return
    assert len(res.ids) == m
    at_w = non_rho_dominated(ds, w, 0.0, k_depth)
    if res.rho_star > 0.0:
        assert len(non_rho_dominated(ds, w, res.rho_star - EPS, k_depth)) < m
    elif len(at_w) >= m:
        # answered at w itself; a pair tied at w to within the dominance
        # tolerance can start dominating just above 0
        assert set(res.ids) <= at_w
        return
    assert set(res.ids) <= non_rho_dominated(ds, w, res.rho_star + EPS, k_depth)


@settings(max_examples=150)
@given(grid_rows, weights, st.integers(1, 12))
def test_oru_members_are_po_on_the_ball(rows, w1, m):
    ds = _ds(rows)
    w = (w1, 1.0 - w1)
    m = min(m, len(ds))
    try:
        res = oru_query(ds, w, m)
    except UnreachableSizeError as exc:
        assert exc.achievable == len(po(ds, ball_region(w, math.sqrt(2.0)))) < m
        return
    assert len(res.ids) == m
    if res.rho_star > EPS:
        assert len(po(ds, ball_region(w, res.rho_star - EPS))) < m
    above = res.rho_star + EPS
    members = _membership(ds, np.array(w), above, 1)
    assert members == po(ds, ball_region(w, above))
    assert set(res.ids) <= members


@settings(max_examples=100)
@given(grid_rows, weights, st.integers(1, 3), st.integers(1, 12))
def test_oru_depth_members_at_radius(rows, w1, k_depth, m):
    # a member at rho* + eps is beaten by fewer than k_depth rivals at some
    # grid point of the ball interval, and the answer is drawn from members
    ds = _ds(rows)
    w = (w1, 1.0 - w1)
    m = min(m, len(ds))
    try:
        res = oru_query(ds, w, m, k_depth)
    except UnreachableSizeError:
        return
    members = _membership(ds, np.array(w), res.rho_star + EPS, k_depth)
    assert set(res.ids) <= members
    lo, hi = region_interval_d2(ball_region(w, res.rho_star + EPS))
    a = ds.attr_array()
    for tid in members:
        i = int(tid)
        rivals = [j for j in range(len(ds)) if not np.array_equal(a[j], a[i])]
        ts = np.linspace(lo, hi, 2001)
        s = np.outer(ts, a[:, 0]) + np.outer(1.0 - ts, a[:, 1])
        beaten = (s[:, rivals] <= s[:, [i]]).sum(axis=1)
        assert beaten.min() < k_depth


@settings(max_examples=100)
@given(
    grid_rows,
    st.sampled_from([(0.25, 0.5), (0.0, 1.0), (0.125, 0.375), (0.5, 0.5), (0.3, 0.7), (0.0, 0.0)]),
    st.integers(1, 4),
)
def test_utk2_labels_match_brute_topk(rows, band, k):
    ds = _ds(rows)
    cells = utk2(ds, k, _band(*band))
    assert cells[0].lo == band[0] and cells[-1].hi == band[1]
    for c in cells:
        mid = 0.5 * (c.lo + c.hi)
        assert set(c.label) == {tid for tid, _ in brute_topk_at(ds, (mid, 1.0 - mid), k)}
    for before, after in zip(cells, cells[1:]):
        assert before.hi == after.lo and before.label != after.label


def _loop_breakpoints(ds, region):
    """The pairwise loop the vectorized breakpoints replaced."""
    lo, hi = region_interval_d2(region)
    a = ds.attr_array()
    roots = []
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            den = (a[i, 0] - a[j, 0]) - (a[i, 1] - a[j, 1])
            if abs(den) <= 1e-12:
                continue
            root = (a[j, 1] - a[i, 1]) / den
            if lo + 1e-12 < root < hi - 1e-12:
                roots.append(float(root))
    roots.sort()
    kept = []
    for r in roots:
        if not kept or r - kept[-1] > 1e-9:
            kept.append(r)
    return kept


def test_order_breakpoints_match_pair_loop():
    rng = np.random.default_rng(61)
    for trial in range(40):
        n = int(rng.integers(2, 40))
        rows = rng.uniform(size=(n, 2))
        if trial % 2:
            rows = np.round(rows * 8) / 8
        if trial % 5 == 0:
            # near-coincident crossings exercise the merge rule
            rows[: n // 2, 1] = rows[: n // 2, 0] + rng.uniform(-1e-10, 1e-10, n // 2)
            rows = np.abs(rows)
        ds = _ds(rows)
        lo = float(rng.uniform(0.0, 0.6))
        reg = _band(lo, lo + float(rng.uniform(0.0, 0.4)))
        assert order_breakpoints(ds, reg) == _loop_breakpoints(ds, reg)


def _envelope(alphas, betas, t):
    return float(np.max(alphas * t + betas))


def _brute_envelope_min(alphas, betas, lo, hi):
    """Min over [lo, hi] of the upper envelope: ends plus every pair crossing."""
    cand = [lo, hi]
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            den = alphas[i] - alphas[j]
            if den != 0.0:
                t = (betas[j] - betas[i]) / den
                if lo < t < hi:
                    cand.append(t)
    return min(_envelope(alphas, betas, t) for t in cand)


def test_envelope_argmin_matches_pairwise_minimum():
    rng = np.random.default_rng(67)
    for trial in range(200):
        m = int(rng.integers(1, 25))
        alphas = rng.normal(size=m)
        betas = rng.normal(size=m)
        if trial % 3 == 0:
            alphas = np.round(alphas * 2) / 2  # parallel and flat lines
        if trial % 4 == 0:
            alphas = np.abs(alphas)  # none falling: the minimum sits at lo
        lo = float(rng.uniform(0.0, 0.7))
        hi = lo + float(rng.uniform(0.0, 0.3)) * (trial % 7 != 0)
        t = envelope_argmin(alphas, betas, lo, hi)
        assert lo <= t <= hi
        want = _brute_envelope_min(alphas, betas, lo, hi)
        assert _envelope(alphas, betas, t) == pytest.approx(want, abs=1e-12)


def test_exists_weak_optimum_on_2d_ball_decides_by_the_minimum_gap():
    rng = np.random.default_rng(71)
    decided = 0
    for _ in range(150):
        n = int(rng.integers(2, 12))
        rows = rng.uniform(size=(n, 2))
        w1 = float(rng.choice([rng.uniform(), 0.0, 1.0, 0.02]))
        reg = ball_region((w1, 1.0 - w1), float(rng.uniform(0.0, 0.8)))
        lo, hi = region_interval_d2(reg)
        diffs = rows[0] - rows[1:]
        gap = _brute_envelope_min(diffs[:, 0] - diffs[:, 1], diffs[:, 1], lo, hi)
        if abs(gap) < 1e-9:
            continue  # too close to a tie for either route to be sure
        decided += 1
        ok, witness = exists_weak_optimum(reg, rows[0], list(rows[1:]), strict=True)
        assert ok == (gap < 0.0)
        if ok:
            assert reg.contains(witness) and float(np.max(diffs @ witness)) < -1e-12
    assert decided > 100


def test_clipped_balls_and_point_intervals():
    rows = [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.25, 0.75], [1.0, 1.0]]
    ds = _ds(rows)
    for w1 in (0.0, 1.0, 1e-9, 1.0 - 1e-9):
        w = (w1, 1.0 - w1)
        for rho in (0.0, 1e-9, 0.3, math.sqrt(2.0)):
            assert _membership(ds, np.array(w), rho, 1) == po(ds, ball_region(w, rho))
        for m in range(1, len(ds) + 1):
            for fn in (ord_query, oru_query):
                try:
                    res = fn(ds, w, m)
                except UnreachableSizeError:
                    continue
                assert len(res.ids) == m and 0.0 <= res.rho_star <= math.sqrt(2.0)


def test_memory_stays_bounded_at_n_5000():
    # pairwise temporaries are blocked: four n x n float arrays would be 800 MB
    ds = generate("anticorrelated", 5000, 2, 83)
    w = (0.4, 0.6)
    tracemalloc.start()
    try:
        survivors = non_rho_dominated(ds, w, 0.05)
        res = ord_query(ds, w, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(survivors) >= 1 and len(res.ids) == 12
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def _block_cases():
    """Tie-heavy rows on a grid of quarters, duplicates included, and a
    generated dataset; (rows, size giving a partial last block)."""
    rng = np.random.default_rng(17)
    quarters = rng.integers(0, 5, size=(37, 2)) / 4.0
    anti = generate("anticorrelated", 300, 2, 5).attr_array()
    # 37 rows at 5 columns a block, 300 rows at 7: both end in a partial block
    return [(quarters, 37 * 5), (np.vstack([anti, anti[:20]]), 320 * 7)]


@pytest.mark.parametrize("case", range(2))
def test_blocked_kernels_do_not_depend_on_the_block_size(case):
    # the kernels compute into one workspace viewed at each block's shape;
    # one column per block, the default and a partial last block must agree
    a, partial = _block_cases()[case]
    sky = np.flatnonzero(dominator_counts(a, 0.0) == 0)

    def run():
        out = []
        for w1 in (0.0, 0.3, 0.5, 1.0):
            scores = a @ np.array([[w1, 1.0 - w1], [1.0, 0.0]]).T
            for tol in (0.0, 1e-12):
                out.append(dominator_counts(scores, tol).tolist())
                out.append(dominator_counts(scores, tol, sky).tolist())
            for k in (1, 2, 3):
                x, y = survival_spans(a, w1, k, 1e-12)
                out.append(sorted(zip(x.tolist(), y.tolist())))
        return out

    default = run()
    for elems in (1, partial):
        with mock.patch.object(arrangement, "_BLOCK_ELEMS", elems):
            assert run() == default
