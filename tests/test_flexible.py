import numpy as np
import pytest

from skyselect import (
    Ball,
    Dataset,
    LinearConstraint,
    Tuple,
    WeightRegion,
    ball_region,
    constraint_from_preference,
    f_dominates,
    full_simplex,
    generate,
    grid_sample,
    nd,
    po,
    skyline,
)

from .oracles import grid_nd, grid_po

REG_A = WeightRegion(2, (LinearConstraint((-1.0, 3.0), 0.0),))  # v1 >= 3 v2


def test_constraint_from_preference():
    # preferring (2,3) over (1,6) encodes 2v1+3v2 < v1+6v2, i.e. v1 < 3 v2
    con = constraint_from_preference((2.0, 3.0), (1.0, 6.0))
    assert con.strict
    reg = WeightRegion(2, (con,))
    assert reg.contains((0.5, 0.5))
    assert not reg.contains((0.8, 0.2))
    with pytest.raises(ValueError):
        constraint_from_preference((1.0, 2.0), (1.0, 2.0))


def test_f_dominates_worked_examples(d1):
    ts = {t.id: t for t in d1.tuples}
    assert f_dominates(ts["a"], ts["b"], REG_A)
    assert not f_dominates(ts["b"], ts["a"], REG_A)
    assert not f_dominates(ts["a"], ts["b"], full_simplex(2))
    # Pareto dominance implies region dominance on any full region
    assert f_dominates(ts["b"], ts["d"], full_simplex(2))
    assert f_dominates(ts["b"], ts["d"], REG_A)
    with pytest.raises(ValueError):
        f_dominates(ts["a"], Tuple("x", (1.0, 2.0, 3.0)), REG_A)


def test_nd_po_worked_examples(d1):
    assert nd(d1, REG_A) == {"a"}
    assert po(d1, REG_A) == {"a"}
    assert nd(d1, full_simplex(2)) == {"a", "b", "c"}
    assert po(d1, full_simplex(2)) == {"a", "b", "c"}


def test_full_simplex_reduction_to_skyline():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        ds = generate("independent", int(rng.integers(2, 60)), d, int(rng.integers(1e6)))
        assert nd(ds, full_simplex(d)) == skyline(ds)


def test_po_weak_variant_is_larger(d1):
    # weak optimality admits ties, so it can only add tuples
    for reg in (REG_A, full_simplex(2), ball_region((0.5, 0.5), 0.2)):
        assert po(d1, reg) <= po(d1, reg, strict=False)


def test_po_weak_on_degenerate_point_region(d1):
    point = ball_region((0.5, 0.5), 0.0)
    # at w=(0.5,0.5) tuple b scores 2, everything else 3 or more
    assert po(d1, point) == {"b"}
    assert po(d1, point, strict=False) == {"b"}


def test_containment_chain_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        ds = generate("anticorrelated", 30, d, int(rng.integers(1e6)))
        p = rng.dirichlet(np.ones(d))
        c = rng.normal(size=d)
        reg = WeightRegion(
            d, (LinearConstraint(tuple(c), float(c @ p) + 0.02),)
        )
        po_ids, nd_ids, sky = po(ds, reg), nd(ds, reg), skyline(ds)
        assert po_ids <= nd_ids <= sky


def test_nd_po_match_grid_oracle_d2():
    from skyselect import grid_sample

    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(120):
        if checked >= 25:
            break
        n = int(rng.integers(4, 14))
        rows = rng.uniform(size=(n, 2))
        ds = Dataset(
            ("a1", "a2"),
            tuple(Tuple(str(i), tuple(map(float, rows[i]))) for i in range(n)),
        )
        lo = rng.uniform(0.0, 0.6)
        hi = lo + rng.uniform(0.1, 0.4)
        reg = WeightRegion(
            2,
            (
                LinearConstraint((-1.0, 0.0), -lo),
                LinearConstraint((1.0, 0.0), min(1.0, hi)),
            ),
        )
        # skip instances whose pairwise decisions sit near a boundary
        a = np.array([t.attrs for t in ds.tuples])
        tight = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                diff = a[i] - a[j]
                ends = (
                    diff[0] * lo + diff[1] * (1 - lo),
                    diff[0] * min(1.0, hi) + diff[1] * (1 - min(1.0, hi)),
                )
                if min(abs(ends[0]), abs(ends[1])) < 4e-3:
                    tight = True
        if tight:
            continue
        checked += 1
        samples = grid_sample(reg, 400)
        assert nd(ds, reg) == grid_nd(ds, samples)
        assert po(ds, reg) == grid_po(ds, samples)
    assert checked >= 20


def test_duplicate_attribute_tuples():
    ds = Dataset(
        ("a1", "a2"),
        (
            Tuple("x", (1.0, 2.0)),
            Tuple("y", (1.0, 2.0)),
            Tuple("z", (3.0, 3.0)),
        ),
    )
    # twins never strictly beat each other; both stay in nd and po
    assert nd(ds, full_simplex(2)) == {"x", "y"}
    assert po(ds, full_simplex(2)) == {"x", "y"}


# (seed, member, ball center, constraint, bound, radius): the data is
# generate("anticorrelated", 12, 4, seed) and the region is drawn from
# default_rng(seed) as w ~ Dirichlet(1), c ~ N(0, I), b = c . Dirichlet(3) + 0.02
# and rho ~ U(0.1, 0.4); in each, the ball's center breaks the constraint
PO_BALL_CASES = [
    (
        318,
        "8",
        (0.2969154842538411, 0.02198340572369694, 0.29948107601703344, 0.3816200340054286),
        (0.861564535022596, -1.922443628344717, 0.4495176091963612, 0.7948861398931771),
        0.018919741909314773,
        0.32792368878037614,
    ),
    (
        476,
        "1",
        (0.0137755314321459, 0.32575349873110054, 0.05742775012229577, 0.6030432197144577),
        (-0.700326072326751, 1.788780038577875, -0.3107769259568243, -0.2730257888278926),
        -0.02766364404455061,
        0.33625779605686634,
    ),
    (
        524,
        "3",
        (0.07249071724940381, 0.12357980314004656, 0.6567919686242769, 0.1471375109862728),
        (0.9143005494613984, 0.7076493642200856, 0.2533848773795351, -1.09775117119295),
        0.01978377672960798,
        0.24882441824487075,
    ),
]


@pytest.mark.parametrize(
    "seed, member, w, c, b, rho", PO_BALL_CASES, ids=[str(case[0]) for case in PO_BALL_CASES]
)
def test_po_on_a_ball_with_a_constraint_keeps_a_clear_member(seed, member, w, c, b, rho):
    ds = generate("anticorrelated", 12, 4, seed)
    reg = WeightRegion(4, (LinearConstraint(c, b),), Ball(w, rho))
    pts = np.array(grid_sample(reg, 100))
    scores = pts @ ds.attr_array().T
    i = ds.ids().index(member)
    margin = np.delete(scores, i, axis=1).min(axis=1) - scores[:, i]
    best = int(np.argmax(margin))
    # the witness: a point of the region where the member is strictly best
    assert margin[best] > 0.01 and reg.contains(pts[best])
    assert member in po(ds, reg)
