"""The exact simplex-ball kernel behind every ball question in d >= 3.

``simplex_ball_range`` (and ``minimize_linear``/``linear_range`` on a ball
alone, which go through it) is checked against routes that do not enumerate
faces: Dirichlet samples and lattice points of the region, and the SLSQP
path (``method="numeric"``) wherever SLSQP reports success. ``nd`` and
``non_rho_dominated`` on balls are checked against a lattice scan of the
ball and against ``linear_range`` taken one pair at a time.
"""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyselect import (
    Ball,
    Dataset,
    LinearConstraint,
    Tuple,
    WeightRegion,
    ball_region,
    f_dominates,
    generate,
    grid_sample,
    linear_range,
    maximize_linear,
    minimize_linear,
    nd,
    non_rho_dominated,
    skyline,
)
from skyselect import arrangement, regions
from skyselect.flexible import _dominator_counts
from skyselect.regions import simplex_ball_range

ROOT2 = math.sqrt(2.0)


@st.composite
def centers(draw, d):
    # lattice weights: zeros put the center on a face, one nonzero on a vertex
    parts = draw(st.lists(st.integers(0, 6), min_size=d, max_size=d).filter(any))
    return tuple(np.array(parts, dtype=float) / sum(parts))


radii = st.one_of(st.sampled_from([0.0, 1e-9, 0.5, ROOT2]), st.floats(0.0, ROOT2))


@st.composite
def objectives(draw, d):
    c = np.array(draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)), dtype=float) / 4
    # tie a subset of coordinates: c is constant on that face (on all, when all tie)
    tied = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    if tied.any():
        c[tied] = c[np.flatnonzero(tied)[0]]
    return c


@st.composite
def ball_cases(draw):
    d = draw(st.sampled_from([3, 4, 5]))
    return draw(centers(d)), draw(radii), draw(objectives(d))


def _region_points(reg, w, rho, d):
    """Dirichlet samples inside the ball, plus lattice points of the region."""
    rng = np.random.default_rng(0)
    pts = rng.dirichlet(np.full(d, 0.5), 4000)
    pts = pts[np.linalg.norm(pts - np.array(w), axis=1) <= rho]
    lattice = grid_sample(reg, 12) if d <= 4 else []
    return pts, np.array(lattice).reshape(-1, d)


def _numeric_minimum(reg, c):
    """SLSQP's minimum, and whether every SLSQP call reported success."""
    flags = []
    real = regions.optimize.minimize

    def minimize(*args, **kwargs):
        res = real(*args, **kwargs)
        flags.append(bool(res.success))
        return res

    with mock.patch.object(regions, "optimize", SimpleNamespace(minimize=minimize)):
        val, _ = minimize_linear(reg, c, method="numeric")
    return val, all(flags)


@settings(max_examples=200, deadline=None)
@given(ball_cases())
def test_kernel_optimum_is_attained_and_least(case):
    w, rho, c = case
    d = len(w)
    reg = ball_region(w, rho)
    val, arg = minimize_linear(reg, c)
    assert reg.contains(arg)
    assert float(c @ arg) == pytest.approx(val, abs=1e-12)
    lo, hi = linear_range(reg, c)
    assert lo == val
    top, top_arg = maximize_linear(reg, c)
    assert reg.contains(top_arg)
    assert hi == pytest.approx(top, abs=1e-15)
    assert lo <= hi

    samples, lattice = _region_points(reg, w, rho, d)
    for pts, slack in ((samples, 1e-12), (lattice, 1e-8)):  # lattice: contains() tolerance
        if len(pts):
            vals = pts @ c
            assert lo <= vals.min() + slack
            assert hi >= vals.max() - slack

    num, solved = _numeric_minimum(reg, c)
    if solved:
        assert num == pytest.approx(val, abs=1e-6)


def test_objective_constant_on_a_face():
    # On a face where c is constant, c . v is that constant on the face's
    # whole affine hull, and the section center p_F lies in the face whenever
    # the ball reaches it; so p_F carries the face's exact value and no
    # direction (c_F = 0) is needed.
    c = np.array([1.0, 1.0, 2.0])  # 1 on the edge v3 = 0, more elsewhere
    reach = ball_region((0.2, 0.2, 0.6), 0.8)  # reaches that edge
    val, arg = minimize_linear(reach, c)
    assert val == 1.0
    assert arg[2] == 0.0 and reach.contains(arg)
    # a smaller ball stops short of the edge: the optimum is inside the top face
    short = ball_region((0.2, 0.2, 0.6), 0.5)
    val, arg = minimize_linear(short, c)
    assert val == pytest.approx(1.6 - 0.5 * math.sqrt(2.0 / 3.0), abs=1e-15)
    assert short.contains(arg)
    # constant everywhere: min = max = the constant, attained at the center
    lo, hi = simplex_ball_range(np.full((1, 3), 0.7), reach.ball)
    assert lo[0] == pytest.approx(0.7, abs=1e-15) and hi[0] == pytest.approx(0.7, abs=1e-15)
    # a vertex center with radius 0 is a single point
    vertex = ball_region((0.0, 1.0, 0.0, 0.0), 0.0)
    val, arg = minimize_linear(vertex, np.array([3.0, -2.0, 1.0, 5.0]))
    assert val == -2.0 and tuple(arg) == (0.0, 1.0, 0.0, 0.0)


def test_kernel_rows_match_alone_and_in_blocks():
    rng = np.random.default_rng(3)
    for d in (3, 4, 5):
        ball = ball_region(tuple(rng.dirichlet(np.ones(d))), 0.7).ball
        c = rng.integers(-3, 4, size=(3000, d)) / 4.0
        lo, hi = simplex_ball_range(c, ball)
        for i in rng.integers(0, len(c), 25):
            one_lo, one_hi = simplex_ball_range(c[i : i + 1], ball)
            assert (one_lo[0], one_hi[0]) == (lo[i], hi[i])


def _ds(rows) -> Dataset:
    d = len(rows[0])
    return Dataset(
        tuple(f"a{k + 1}" for k in range(d)),
        tuple(Tuple(str(i), tuple(map(float, r))) for i, r in enumerate(rows)),
    )


@st.composite
def small_ball_datasets(draw):
    d = draw(st.sampled_from([3, 4]))
    # values on a grid of quarters: ties and duplicates are common
    rows = draw(
        st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d), min_size=2, max_size=9)
    )
    return _ds([[x / 4.0 for x in r] for r in rows]), draw(centers(d)), draw(radii)


@settings(max_examples=80, deadline=None)
@given(small_ball_datasets())
def test_blocked_predicate_equals_pairwise_linear_range(case):
    ds, w, rho = case
    reg = ball_region(w, rho)
    ts = ds.tuples
    pairwise = [
        sum(f_dominates(ts[i], ts[j], reg) for i in range(len(ts)) if i != j)
        for j in range(len(ts))
    ]
    assert _dominator_counts(ds.attr_array(), reg).tolist() == pairwise
    # the same with one pair per block and one row per kernel block
    with mock.patch.object(arrangement, "_BLOCK_ELEMS", 1):
        assert _dominator_counts(ds.attr_array(), reg).tolist() == pairwise
        assert nd(ds, reg) == {t.id for t, k in zip(ts, pairwise) if k == 0}
    assert non_rho_dominated(ds, w, rho) == {t.id for t, k in zip(ts, pairwise) if k == 0}


@pytest.mark.parametrize(
    "region",
    [
        # a ball and a constraint: the kernel and a feasible point bracket
        # each pair's range, SLSQP settles the rest
        WeightRegion(3, (LinearConstraint((1.0, -1.0, 0.0), 0.1),), Ball((0.3, 0.3, 0.4), 0.3)),
        # past MAX_VERTEX_DIM a ball alone is numeric too
        ball_region(tuple([1.0 / 8] * 8), 0.3),
    ],
)
def test_numeric_nd_matches_pairwise_f_dominates(region):
    for seed in range(3):
        ds = generate("independent", 16 if region.dim == 3 else 8, region.dim, 11 + seed)
        ts = ds.tuples
        expect = {
            t.id for t in ts if not any(f_dominates(s, t, region) for s in ts if s is not t)
        }
        assert nd(ds, region) == expect


@pytest.mark.parametrize("d", [3, 4])
def test_nd_drops_only_tuples_beaten_on_the_whole_ball(d):
    rng = np.random.default_rng(40 + d)
    for trial in range(4):
        ds = generate(("independent", "anticorrelated")[trial % 2], 40, d, 300 + trial)
        w = tuple(rng.dirichlet(np.ones(d)))
        reg = ball_region(w, float(rng.uniform(0.05, 0.6)))
        pts = np.array(grid_sample(reg, 64))
        assert len(pts)
        kept = nd(ds, reg)
        assert kept
        sky = skyline(ds)
        scores = ds.attr_array() @ pts.T
        dominators = [i for i, t in enumerate(ds.tuples) if t.id in sky]
        for j, t in enumerate(ds.tuples):
            if t.id in kept:
                continue
            # lattice points may sit outside the ball by the contains() tolerance
            assert any(
                (scores[i] <= scores[j] + 1e-8).all() for i in dominators if i != j
            ), f"{t.id} dropped, but no skyline tuple beats it at every lattice point"


def test_memory_stays_bounded_on_balls():
    # every face is reachable, so the pair blocks carry all 7 (d = 3) and all
    # 15 (d = 4) faces; unblocked, the pairs x faces x d temporaries would be
    # about 150 MB (nd) and 480 MB (non_rho_dominated) each
    ds3 = generate("anticorrelated", 5000, 3, 83)
    ds4 = generate("anticorrelated", 1000, 4, 84)
    reg3 = ball_region((0.2, 0.3, 0.5), 1.0)
    w4 = (0.1, 0.2, 0.3, 0.4)
    assert len(regions._ball_sections(reg3.ball)[0]) == 7
    assert len(regions._ball_sections(ball_region(w4, 1.1).ball)[0]) == 15
    tracemalloc.start()
    try:
        kept = nd(ds3, reg3)
        survivors = non_rho_dominated(ds4, w4, 1.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept and kept <= skyline(ds3)
    assert survivors and survivors <= skyline(ds4)
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"
