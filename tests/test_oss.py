import math

import numpy as np
import pytest

from skyselect import (
    Dataset,
    Tuple,
    UnreachableSizeError,
    ball_region,
    generate,
    nd,
    non_rho_dominated,
    ord_query,
    oru_query,
    po,
    rho_dominates,
    skyline,
)

W = (0.5, 0.5)
QUARTER_ROOT2 = math.sqrt(2.0) / 4.0  # 0.3535533...


def test_rho_dominates_examples(d1):
    ts = {t.id: t for t in d1.tuples}
    assert rho_dominates(ts["b"], ts["e"], W, 0.1)
    assert rho_dominates(ts["b"], ts["d"], W, 1.0)
    assert not rho_dominates(ts["b"], ts["a"], W, 0.5)  # a wins near v1=1
    assert rho_dominates(ts["b"], ts["a"], W, 0.3)
    with pytest.raises(ValueError):
        rho_dominates(ts["b"], ts["e"], W, -0.1)
    with pytest.raises(ValueError):
        rho_dominates(ts["b"], ts["e"], (0.6, 0.6), 0.1)


def test_non_rho_dominated_examples(d1):
    assert non_rho_dominated(d1, W, 0.1) == {"b"}
    assert non_rho_dominated(d1, W, 0.6) == {"a", "b", "c"}
    assert non_rho_dominated(d1, W, 0.1, k_depth=3) == {"a", "b", "c", "e"}
    with pytest.raises(ValueError):
        non_rho_dominated(d1, W, 0.1, k_depth=0)


def test_non_rho_matches_nd_on_ball(d1):
    for rho in (0.0, 0.1, 0.35, 0.6, 1.0):
        assert non_rho_dominated(d1, W, rho) == nd(d1, ball_region(W, rho))


def test_rho_monotonicity(d1):
    rng = np.random.default_rng(31)
    grid = (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.8, math.sqrt(2.0))
    for _ in range(30):
        ds = generate("independent", int(rng.integers(3, 40)), 2, int(rng.integers(1e6)))
        w1 = rng.uniform(0.1, 0.9)
        prev = -1
        for rho in grid:
            cur = len(non_rho_dominated(ds, (w1, 1.0 - w1), rho))
            assert cur >= prev
            prev = cur


def test_ord_worked_examples(d1):
    r1 = ord_query(d1, W, 1)
    assert r1.ids == ("b",) and r1.rho_star == 0.0
    r2 = ord_query(d1, W, 2)
    assert r2.ids == ("b", "a")
    r3 = ord_query(d1, W, 3)
    assert r3.ids == ("b", "a", "c")
    assert r3.rho_star == pytest.approx(QUARTER_ROOT2, abs=1e-5)
    assert r3.k_depth == 1


def test_ord_unreachable(d1):
    # only three tuples ever shed all dominators at depth 1
    with pytest.raises(UnreachableSizeError) as exc:
        ord_query(d1, W, 4)
    assert exc.value.requested == 4 and exc.value.achievable == 3
    assert "m unreachable" in str(exc.value)
    with pytest.raises(ValueError):
        ord_query(d1, W, 0)
    with pytest.raises(ValueError):
        ord_query(d1, W, 6)


def test_ord_deeper_depth(d1):
    r = ord_query(d1, W, 4, k_depth=3)
    assert len(r.ids) == 4 and r.rho_star == 0.0
    assert set(r.ids) == {"a", "b", "c", "e"}


def test_oru_worked_examples(d1):
    r3 = oru_query(d1, W, 3)
    assert r3.ids == ("b", "a", "c")
    assert r3.rho_star == pytest.approx(QUARTER_ROOT2, abs=1e-5)
    with pytest.raises(UnreachableSizeError) as exc:
        oru_query(d1, W, 5)
    assert exc.value.achievable == 3


def test_oru_entry_radius_ranking():
    # d needs a far larger ball than b/c before it can top any ranking
    ds = Dataset(
        ("a1", "a2"),
        (
            Tuple("b", (2.0, 2.0)),
            Tuple("c", (5.0, 1.0)),
            Tuple("d", (1.9, 2.2)),
        ),
    )
    r = oru_query(ds, W, 2)
    assert r.ids[0] == "b"
    assert set(r.ids) == {"b", "d"}


def test_oss_size_contract_random():
    rng = np.random.default_rng(37)
    for _ in range(25):
        ds = generate("anticorrelated", int(rng.integers(4, 50)), 2, int(rng.integers(1e6)))
        w1 = rng.uniform(0.15, 0.85)
        w = (w1, 1.0 - w1)
        max_ord = len(non_rho_dominated(ds, w, math.sqrt(2.0)))
        m = int(rng.integers(1, max_ord + 1))
        assert len(ord_query(ds, w, m).ids) == m
        max_oru = len(po(ds, ball_region(w, math.sqrt(2.0))))
        m = int(rng.integers(1, max_oru + 1))
        assert len(oru_query(ds, w, m).ids) == m


def test_ord_equals_nd_at_critical_radius():
    rng = np.random.default_rng(41)
    for _ in range(10):
        ds = generate("independent", 25, 2, int(rng.integers(1e6)))
        w1 = rng.uniform(0.2, 0.8)
        w = (w1, 1.0 - w1)
        sky_count = len(non_rho_dominated(ds, w, math.sqrt(2.0)))
        m = max(1, sky_count - 1)
        res = ord_query(ds, w, m)
        # survivors at a radius just past rho_star must contain the answer
        wide = non_rho_dominated(ds, w, res.rho_star + 2e-6)
        assert set(res.ids) <= wide


def test_oru_membership_matches_po_on_ball():
    # at depth 1, reachable-top-1 membership is exactly strict optimality
    rng = np.random.default_rng(43)
    for _ in range(15):
        ds = generate("independent", int(rng.integers(3, 25)), 2, int(rng.integers(1e6)))
        w1 = rng.uniform(0.2, 0.8)
        w = (w1, 1.0 - w1)
        rho = rng.uniform(0.05, 0.7)
        from skyselect.oss import _membership

        got = _membership(ds, np.array(w), rho, 1)
        assert got == po(ds, ball_region(w, rho))


def test_oss_d3_paths():
    ds = generate("independent", 12, 3, 5)
    w = (1 / 3, 1 / 3, 1 / 3)
    assert non_rho_dominated(ds, w, 0.2) == nd(ds, ball_region(w, 0.2))
    m = 3
    r = ord_query(ds, w, m)
    assert len(r.ids) == m
    u = oru_query(ds, w, 2)
    assert len(u.ids) == 2


def test_exact_flag_is_set_only_for_closed_form_radii(d1):
    # two dimensions: rhoStar is an order statistic of closed-form radii
    for m in (1, 3):
        assert ord_query(d1, W, m).exact and oru_query(d1, W, m).exact
    # three: the radius is bisected
    ds = generate("independent", 12, 3, 5)
    w = (1 / 3, 1 / 3, 1 / 3)
    for k_depth in (1, 2):
        assert not ord_query(ds, w, 3, k_depth).exact
        assert not oru_query(ds, w, 2, k_depth).exact


def test_ord_kdepth_relaxes_more(d1):
    rng = np.random.default_rng(47)
    for _ in range(10):
        ds = generate("independent", 20, 2, int(rng.integers(1e6)))
        w = (0.4, 0.6)
        for rho in (0.1, 0.4):
            d1_ids = non_rho_dominated(ds, w, rho, k_depth=1)
            d2_ids = non_rho_dominated(ds, w, rho, k_depth=2)
            assert d1_ids <= d2_ids


def test_dominance_tolerance_is_within_the_strict_margin():
    # oru membership in d >= 3 runs the existence test only on rows that no
    # other row ball-dominates. That drops no member because a dominated row
    # beats its dominator by at most DOM_TOL anywhere on the ball, while a
    # strict optimum must beat every rival by more than STRICT_MARGIN (up to
    # the CONTAIN_TOL by which an accepted witness may sit off the ball)
    from skyselect.flexible import DOM_TOL
    from skyselect.regions import STRICT_MARGIN

    assert DOM_TOL <= STRICT_MARGIN


@pytest.mark.parametrize("d", [3, 4])
def test_oru_members_filtered_by_ball_dominance_are_unchanged(d):
    # values on a grid of quarters: duplicates and ties at the ball's points
    from skyselect.oss import _member_general, _members

    rng = np.random.default_rng(50 + d)
    for _ in range(4):
        a = rng.integers(0, 5, size=(9, d)) / 4.0
        a[-1] = a[0]
        w = rng.dirichlet(np.ones(d) * 2.0)
        for rho in (0.0, 0.05, 0.2, 0.6):
            unfiltered = [_member_general(a, i, w, rho, 1) for i in range(len(a))]
            assert _members(a, w, rho, 1).tolist() == unfiltered
