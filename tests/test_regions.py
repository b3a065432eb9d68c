import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from skyselect import (
    Ball,
    EmptyRegionError,
    LinearConstraint,
    Tuple,
    UnsupportedDimensionError,
    WeightRegion,
    ball_region,
    exists_weak_optimum,
    find_feasible_point,
    full_simplex,
    grid_sample,
    is_empty,
    linear_range,
    maximize_linear,
    minimize_linear,
    parse_region,
    region_interval_d2,
    region_vertices,
)
from skyselect import regions

from .oracles import grid_min, interval_minimize, interval_of


def _v1_region(*cons):
    return WeightRegion(2, tuple(cons))


REG_A = _v1_region(LinearConstraint((-1.0, 3.0), 0.0))  # v1 >= 3 v2
REG_75 = _v1_region(LinearConstraint((-1.0, 0.0), -0.75))  # v1 >= 0.75


def test_contains_examples():
    assert full_simplex(2).contains((0.5, 0.5))
    assert not REG_A.contains((0.5, 0.5))
    assert REG_A.contains((0.75, 0.25))
    ball = ball_region((0.5, 0.5), 0.1)
    assert not ball.contains((0.4, 0.6))  # distance ~0.1414 > 0.1
    assert ball.contains((0.45, 0.55))
    with pytest.raises(ValueError):
        full_simplex(2).contains((0.5, 0.25, 0.25))


def test_strict_constraint_boundary():
    strict = _v1_region(LinearConstraint((1.0, -1.0), 0.0, strict=True))
    assert strict.contains((0.25, 0.75))
    assert not strict.contains((0.75, 0.25))
    # the boundary itself is excluded only up to the working tolerance
    assert strict.contains((0.5, 0.5))


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball((0.5, 0.5), -0.1)
    with pytest.raises(ValueError):
        Ball((0.6, 0.6), 0.1)


def test_vertices_examples():
    vs = {tuple(np.round(v, 9)) for v in region_vertices(full_simplex(2))}
    assert vs == {(1.0, 0.0), (0.0, 1.0)}
    vs = {tuple(np.round(v, 9)) for v in region_vertices(REG_75)}
    assert vs == {(0.75, 0.25), (1.0, 0.0)}
    reg3 = WeightRegion(3, (LinearConstraint((-1.0, 1.0, 0.0), 0.0),))  # v1 >= v2
    vs = {tuple(np.abs(np.round(v, 9))) for v in region_vertices(reg3)}
    assert vs == {(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)}


def test_vertices_errors():
    with pytest.raises(ValueError):
        region_vertices(ball_region((0.5, 0.5), 0.1))
    with pytest.raises(UnsupportedDimensionError):
        region_vertices(full_simplex(8))
    empty = _v1_region(
        LinearConstraint((1.0, 0.0), 0.2), LinearConstraint((-1.0, 0.0), -0.8)
    )
    with pytest.raises(EmptyRegionError):
        region_vertices(empty)


def test_interval_reduction():
    assert region_interval_d2(full_simplex(2)) == (0.0, 1.0)
    lo, hi = region_interval_d2(REG_A)
    assert (lo, hi) == pytest.approx((0.75, 1.0))
    lo, hi = region_interval_d2(ball_region((0.5, 0.5), 0.1))
    assert lo == pytest.approx(0.5 - 0.1 / math.sqrt(2))
    assert hi == pytest.approx(0.5 + 0.1 / math.sqrt(2))


def test_minimize_examples():
    val, arg = minimize_linear(full_simplex(2), np.array([1.0, -1.0]))
    assert val == pytest.approx(-1.0)
    assert tuple(arg) == pytest.approx((0.0, 1.0))

    val, arg = minimize_linear(REG_75, np.array([-1.0, 3.0]))
    assert val == pytest.approx(-1.0)
    assert tuple(arg) == pytest.approx((1.0, 0.0))
    mx, _ = maximize_linear(REG_75, np.array([-1.0, 3.0]))
    assert mx == pytest.approx(0.0, abs=1e-12)

    val, arg = minimize_linear(ball_region((0.5, 0.5), 0.1), np.array([-1.0, 3.0]))
    expect = 3.0 - 4.0 * (0.5 + 0.1 / math.sqrt(2.0))
    assert val == pytest.approx(expect, abs=1e-8)
    assert arg[0] == pytest.approx(0.5 + 0.1 / math.sqrt(2.0), abs=1e-7)


def test_minimize_numeric_matches_interval_oracle():
    # the ball path must stay within 1e-6 of the closed-form 1-d solution
    rng = np.random.default_rng(5)
    for _ in range(100):
        c = tuple(rng.uniform(-5, 5, size=2))
        w1 = rng.uniform(0.05, 0.95)
        rho = rng.uniform(0.0, 0.5)
        reg = ball_region((w1, 1.0 - w1), rho)
        val, arg = minimize_linear(reg, np.array(c), method="numeric")
        assert val == pytest.approx(interval_minimize(reg, c), abs=1e-6)
        assert reg.contains(arg)


def test_minimize_below_grid_oracle():
    rng = np.random.default_rng(6)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(d))
        cons = []
        for _ in range(int(rng.integers(1, 3))):
            c = rng.normal(size=d)
            cons.append(LinearConstraint(tuple(c), float(c @ p) + 0.05))
        reg = WeightRegion(d, tuple(cons))
        obj = tuple(rng.uniform(-3, 3, size=d))
        val, arg = minimize_linear(reg, np.array(obj))
        samples = grid_sample(reg, 100)
        assert samples, "anchored region should contain lattice points"
        assert val <= grid_min(samples, obj) + 1e-6
        assert reg.contains(arg)


def test_linear_range(d1=None):
    lo, hi = linear_range(REG_A, np.array([-1.0, 3.0]))
    assert hi == pytest.approx(0.0, abs=1e-12)  # at (0.75, 0.25)
    assert lo == pytest.approx(-1.0)  # at (1, 0)


def test_grid_sample_examples():
    pts = {tuple(v) for v in grid_sample(full_simplex(2), 2)}
    assert pts == {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)}
    pts = {tuple(v) for v in grid_sample(REG_75, 4)}
    assert pts == {(0.75, 0.25), (1.0, 0.0)}
    empty = _v1_region(
        LinearConstraint((1.0, 0.0), 0.2), LinearConstraint((-1.0, 0.0), -0.8)
    )
    assert grid_sample(empty, 10) == []
    with pytest.raises(UnsupportedDimensionError):
        grid_sample(full_simplex(5), 4)


@pytest.mark.parametrize(
    "reg",
    [
        full_simplex(1),
        full_simplex(3),
        full_simplex(4),
        REG_A,
        # constraints and a ball passing through lattice points, strict or not
        WeightRegion(3, (LinearConstraint((1.0, -1.0, 0.0), 0.25),)),
        WeightRegion(3, (LinearConstraint((1.0, -3.0, 0.0), 0.0, strict=True),)),
        WeightRegion(4, tuple(LinearConstraint(tuple(float(i == j) for j in range(4)), 0.375)
                              for i in range(4))),
        ball_region((0.25, 0.25, 0.5), 0.25),
        WeightRegion(4, (LinearConstraint((1.0, 2.0, -1.0, 0.5), 0.1),),
                     Ball((0.1, 0.2, 0.3, 0.4), 0.3)),
    ],
)
def test_grid_sample_is_the_filtered_lattice(reg):
    # the lattice in lexicographic order, each point tested on its own
    for res in (1, 8, 24):
        expect = [
            np.array(comp, dtype=float) / res
            for comp in itertools.product(range(res + 1), repeat=reg.dim)
            if sum(comp) == res and reg.contains(np.array(comp, dtype=float) / res)
        ]
        got = grid_sample(reg, res)
        assert np.array(got).tobytes() == np.array(expect).tobytes()
        assert len(got) == len(expect)


def test_feasibility_and_emptiness():
    assert not is_empty(full_simplex(3))
    assert not is_empty(ball_region((0.5, 0.5), 0.0))
    empty = _v1_region(
        LinearConstraint((1.0, 0.0), 0.2), LinearConstraint((-1.0, 0.0), -0.8)
    )
    assert is_empty(empty)
    assert find_feasible_point(empty) is None
    # ball clashing with a linear cut
    clash = WeightRegion(
        2, (LinearConstraint((1.0, 0.0), 0.2),), Ball((0.9, 0.1), 0.05)
    )
    assert is_empty(clash)
    ok = WeightRegion(
        3, (LinearConstraint((0.0, 1.0, 0.0), 0.5),), Ball((1 / 3, 1 / 3, 1 / 3), 0.2)
    )
    v = find_feasible_point(ok)
    assert v is not None and ok.contains(v)


def _d1_tuples():
    return {
        "a": Tuple("a", (1.0, 5.0)),
        "b": Tuple("b", (2.0, 2.0)),
        "c": Tuple("c", (5.0, 1.0)),
        "d": Tuple("d", (4.0, 4.0)),
        "e": Tuple("e", (3.0, 3.0)),
    }


def test_exists_weak_optimum_examples():
    ts = _d1_tuples()
    rest_b = [t for k, t in ts.items() if k != "b"]
    ok, w = exists_weak_optimum(full_simplex(2), ts["b"], rest_b, strict=True)
    assert ok and w is not None
    scores = {k: w[0] * t.attrs[0] + w[1] * t.attrs[1] for k, t in ts.items()}
    assert all(scores["b"] < scores[k] for k in ts if k != "b")

    rest_d = [t for k, t in ts.items() if k != "d"]
    ok, _ = exists_weak_optimum(full_simplex(2), ts["d"], rest_d, strict=False)
    assert not ok  # b beats d by 2 at every simplex vector

    ok, _ = exists_weak_optimum(REG_75, ts["b"], rest_b, strict=True)
    assert not ok  # a ties b at v1=0.75 and wins beyond


def test_exists_weak_optimum_ball_paths():
    ts = _d1_tuples()
    rest_b = [t for k, t in ts.items() if k != "b"]
    ok, w = exists_weak_optimum(
        ball_region((0.5, 0.5), 0.1), ts["b"], rest_b, strict=True
    )
    assert ok and ball_region((0.5, 0.5), 0.1).contains(w)
    # d=3 ball: pad the fixture into three dimensions
    t3 = [Tuple(t.id, t.attrs + (1.0,)) for t in ts.values()]
    reg = ball_region((1 / 3, 1 / 3, 1 / 3), 0.15)
    ok, w = exists_weak_optimum(reg, t3[1], [t3[0], t3[2], t3[3], t3[4]], strict=True)
    assert ok and reg.contains(w)


def test_exists_weak_optimum_duplicate_attrs():
    a = Tuple("a", (1.0, 1.0))
    twin = Tuple("twin", (1.0, 1.0))
    other = Tuple("o", (2.0, 2.0))
    # duplicates are exempt from the strict requirement
    ok, _ = exists_weak_optimum(full_simplex(2), a, [twin, other], strict=True)
    assert ok
    ok, _ = exists_weak_optimum(full_simplex(2), a, [twin, other], strict=False)
    assert ok


def test_exists_weak_optimum_agrees_with_grid_scan():
    rng = np.random.default_rng(9)
    agreeing = 0
    for _ in range(200):
        if agreeing >= 60:
            break
        n = int(rng.integers(2, 9))
        rows = rng.uniform(size=(n, 2))
        ts = [Tuple(str(i), tuple(map(float, rows[i]))) for i in range(n)]
        w1 = rng.uniform(0.1, 0.9)
        width = rng.uniform(0.05, 0.4)
        reg = _v1_region(
            LinearConstraint((-1.0, 0.0), -max(0.0, w1 - width)),
            LinearConstraint((1.0, 0.0), min(1.0, w1 + width)),
        )
        samples = grid_sample(reg, 400)
        target = ts[0]
        diffs = np.array([np.subtract(target.attrs, t.attrs) for t in ts[1:]])
        vals = [float(np.max(diffs @ v)) for v in samples]
        margin = min(abs(v) for v in vals + [min(vals)])
        if margin <= 1e-3:
            continue  # knife-edge instances are excluded by contract
        agreeing += 1
        expect = min(vals) < 0.0
        got, witness = exists_weak_optimum(reg, target, ts[1:], strict=False)
        assert got == expect
        if got:
            assert witness is not None and reg.contains(witness)
    assert agreeing >= 50


def test_parse_region():
    reg = parse_region("1 w1 - 3 w2 >= 0", 2)
    assert reg.contains((0.8, 0.2))
    assert not reg.contains((0.5, 0.5))
    reg = parse_region("# comment\nball 0.5 0.5 0.1\n", 2)
    assert reg.ball is not None
    assert reg.contains((0.5, 0.5))
    reg = parse_region("2 price - 1 weight < 0", 2, names=("price", "weight"))
    assert reg.constraints[0].strict
    assert reg.contains((0.2, 0.8))
    with pytest.raises(ValueError):
        parse_region("1 w9 >= 0", 2)
    with pytest.raises(ValueError):
        parse_region("nonsense here", 2)


def test_interval_oracle_agrees_with_library():
    # sanity-check the test-local oracle itself against the library reduction
    rng = np.random.default_rng(21)
    for _ in range(50):
        w1 = rng.uniform(0.2, 0.8)
        rho = rng.uniform(0.0, 0.4)
        reg = ball_region((w1, 1.0 - w1), rho)
        assert region_interval_d2(reg) == pytest.approx(interval_of(reg))


def _solver_spy(fail_first: bool):
    """Stand-in for ``scipy.optimize`` that records SLSQP starts; the first
    solve can be made to report failure without a point."""
    from types import SimpleNamespace

    from skyselect import regions

    real = regions.optimize
    starts = []

    def minimize(fun, x0, **kwargs):
        starts.append(np.array(x0))
        if fail_first and len(starts) == 1:
            return SimpleNamespace(x=None, success=False)
        return real.minimize(fun, x0, **kwargs)

    return SimpleNamespace(minimize=minimize, linprog=real.linprog), starts


def test_exists_weak_optimum_retries_a_failed_ball_solve():
    # tied at the center, strictly better where v1 > v2: only SLSQP decides
    reg = ball_region((1 / 3, 1 / 3, 1 / 3), 0.3)
    target, rival = Tuple("t", (0.0, 1.0, 0.5)), Tuple("r", (0.5, 0.5, 0.5))
    spy, starts = _solver_spy(fail_first=False)
    with mock.patch.object(regions, "optimize", spy):
        ok, w = exists_weak_optimum(reg, target, [rival], strict=True)
    assert ok and reg.contains(w) and len(starts) == 1

    spy, starts = _solver_spy(fail_first=True)
    with mock.patch.object(regions, "optimize", spy):
        ok, w = exists_weak_optimum(reg, target, [rival], strict=True)
    assert ok and reg.contains(w) and w[0] > w[1]
    # the retry starts where the mean rival difference (-0.5, 0.5, 0) is least
    assert len(starts) == 2
    _, best = minimize_linear(reg, np.array([-0.5, 0.5, 0.0]))
    assert starts[1][:3] == pytest.approx(best)


def test_exists_weak_optimum_raises_on_an_uncertified_linprog():
    reg = WeightRegion(3, (LinearConstraint((1.0, -1.0, 0.0), 0.0),))
    target, rival = Tuple("t", (0.0, 1.0, 0.5)), Tuple("r", (0.5, 0.5, 0.5))
    stalled = SimpleNamespace(
        linprog=lambda *a, **k: SimpleNamespace(status=1, x=None, message="iteration limit")
    )
    with mock.patch.object(regions, "optimize", stalled):
        with pytest.raises(RuntimeError, match="iteration limit"):
            exists_weak_optimum(reg, target, [rival], strict=True)


def test_non_finite_ball_and_constraint_are_rejected():
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError):
            Ball((0.5, 0.5), radius)
    with pytest.raises(ValueError):
        Ball((math.nan, 0.5), 0.1)
    with pytest.raises(ValueError):
        LinearConstraint((math.nan, 1.0), 0.5)
    with pytest.raises(ValueError):
        LinearConstraint((1.0, 1.0), math.inf)
    with pytest.raises(ValueError):
        parse_region("nan w1 + 1 w2 <= 0.5", 2)


def _constraint_counts(reg, target, rivals):
    """Lengths of the constraint lists SLSQP receives in one existence test."""
    real = regions.optimize
    counts = []

    def minimize(fun, x0, **kwargs):
        counts.append(len(kwargs["constraints"]))
        return real.minimize(fun, x0, **kwargs)

    spy = SimpleNamespace(minimize=minimize, linprog=real.linprog)
    with mock.patch.object(regions, "optimize", spy):
        exists_weak_optimum(reg, target, rivals, strict=True)
    return counts


@pytest.mark.parametrize(
    "reg",
    [
        ball_region((1 / 3, 1 / 3, 1 / 3), 0.3),
        WeightRegion(
            3,
            (LinearConstraint((1.0, -1.0, 0.0), 0.2), LinearConstraint((0.0, 1.0, -1.0), 0.3)),
            Ball((1 / 3, 1 / 3, 1 / 3), 0.3),
        ),
    ],
)
def test_slsqp_constraint_count_does_not_grow_with_rivals(reg):
    # tied with the first rival at the center, so only SLSQP decides
    target = np.array([0.0, 1.0, 0.5])
    rivals = np.array([[0.5, 0.5, 0.5]] + [[0.5 + 0.1 * i, 0.6, 0.7] for i in range(1, 9)])
    few = _constraint_counts(reg, target, rivals[:1])
    many = _constraint_counts(reg, target, rivals)
    # the simplex, the ball, the rivals, and all linear constraints as one
    assert few and many
    assert set(few) == set(many) == {3 + bool(reg.constraints)}


def test_exists_weak_optimum_rival_forms_agree():
    rng = np.random.default_rng(17)
    regs = [
        ball_region((0.4, 0.6), 0.2),
        WeightRegion(3, (LinearConstraint((1.0, -1.0, 0.0), 0.1),)),
        ball_region((0.3, 0.3, 0.4), 0.2),
    ]
    decisions = []
    for reg in regs:
        d = reg.dim
        for _ in range(6):
            rows = np.round(rng.uniform(size=(6, d)), 2)
            t = rows[0]
            rivals = np.vstack([rows[1:], t, t])  # copies of the target are exempt
            target = Tuple("t", tuple(t))
            for strict in (True, False):
                forms = [
                    rivals,
                    [Tuple(f"r{i}", tuple(r)) for i, r in enumerate(rivals)],
                    (tuple(map(float, r)) for r in rivals),
                    np.vstack([t, rows[1:]]),
                ]
                got = {exists_weak_optimum(reg, target, f, strict)[0] for f in forms}
                assert len(got) == 1
                decisions.append(got.pop())
        ok, w = exists_weak_optimum(reg, np.full(d, 0.5), np.empty((0, d)), strict=True)
        assert ok and reg.contains(w)
    assert 0 < sum(decisions) < len(decisions)  # both answers occur


def test_exists_weak_optimum_rejects_a_rival_of_another_dimension():
    reg = full_simplex(2)
    target = Tuple("t", (1.0, 2.0))
    for rivals in (
        np.ones((3, 3)),
        [Tuple("a", (2.0, 1.0)), Tuple("b", (1.0, 1.0, 1.0))],
        [(2.0, 1.0), (1.0,)],
    ):
        with pytest.raises(ValueError, match="rival dimension"):
            exists_weak_optimum(reg, target, rivals)
