import math

import numpy as np
import pytest

from skyselect import (
    Dataset,
    Tuple,
    coverage,
    distance_representative,
    dominance_representative,
    generate,
    skyline,
)

from .oracles import (
    brute_best_center,
    brute_best_coverage,
    brute_coverage,
    center_objective,
)


def test_coverage_worked_examples(d1):
    assert coverage(d1, {"b"}) == 2  # b dominates d and e
    assert coverage(d1, {"a"}) == 0
    assert coverage(d1, {"a", "b", "c"}) == 2
    with pytest.raises(ValueError):
        coverage(d1, {"d"})  # not a skyline member


def test_dominance_representative_worked_examples(d1):
    assert dominance_representative(d1, 1) == ["b"]
    assert dominance_representative(d1, 1, mode="exact") == ["b"]
    # greedy second pick is a zero-gain tie, lowest id wins
    assert dominance_representative(d1, 2) == ["b", "a"]
    # exact mode reports the lexicographically first optimum
    assert dominance_representative(d1, 2, mode="exact") == ["a", "b"]
    assert dominance_representative(d1, 7) == ["a", "b", "c"]


def test_distance_representative_worked_examples(d1):
    assert distance_representative(d1, 1) == ["b"]
    assert distance_representative(d1, 1, mode="exact") == ["b"]
    assert distance_representative(d1, 2, mode="exact") == ["a", "b"]
    assert distance_representative(d1, 7) == ["a", "b", "c"]


def test_mode_and_k_validation(d1):
    with pytest.raises(ValueError):
        dominance_representative(d1, 0)
    with pytest.raises(ValueError):
        distance_representative(d1, 2, mode="annealing")


def test_exact_matches_brute_enumeration():
    rng = np.random.default_rng(73)
    for _ in range(15):
        ds = generate("anticorrelated", int(rng.integers(6, 16)), 2, int(rng.integers(1e6)))
        k = int(rng.integers(1, 4))
        got = dominance_representative(ds, k, mode="exact")
        best_val, best_combo = brute_best_coverage(ds, k)
        assert brute_coverage(ds, set(got)) == best_val
        assert tuple(got) == best_combo

        got_d = distance_representative(ds, k, mode="exact")
        best_dist, best_combo_d = brute_best_center(ds, k)
        assert center_objective(ds, got_d) == pytest.approx(best_dist)
        assert tuple(sorted(got_d)) == best_combo_d


def test_greedy_coverage_bound():
    rng = np.random.default_rng(79)
    ratio_floor = 1.0 - 1.0 / math.e
    for _ in range(25):
        ds = generate("anticorrelated", int(rng.integers(8, 25)), 2, int(rng.integers(1e6)))
        k = int(rng.integers(1, 4))
        greedy = dominance_representative(ds, k)
        best_val, _ = brute_best_coverage(ds, k)
        got = brute_coverage(ds, set(greedy))
        assert got >= ratio_floor * best_val - 1e-9


def test_greedy_center_bound():
    rng = np.random.default_rng(83)
    for _ in range(25):
        ds = generate("anticorrelated", int(rng.integers(8, 25)), 2, int(rng.integers(1e6)))
        k = int(rng.integers(1, 4))
        if len(skyline(ds)) <= k:
            continue
        greedy = distance_representative(ds, k)
        best_val, _ = brute_best_center(ds, k)
        got = center_objective(ds, greedy)
        assert got <= 2.0 * best_val + 1e-9


def test_selection_order_is_greedy_ranking():
    rng = np.random.default_rng(89)
    for _ in range(10):
        ds = generate("anticorrelated", 30, 2, int(rng.integers(1e6)))
        picks = dominance_representative(ds, 3)
        # each prefix is itself the greedy answer for the smaller budget
        for kk in range(1, len(picks) + 1):
            assert dominance_representative(ds, kk) == picks[:kk]


def test_exact_budget_guard():
    ds = generate("anticorrelated", 2000, 2, 3)
    sky = skyline(ds)
    k = len(sky) // 2
    if math.comb(len(sky), k) > 1_000_000:
        with pytest.raises(ValueError):
            dominance_representative(ds, k, mode="exact")
    else:  # data too tame; force the guard with an explicit fixture
        big = Dataset(
            ("a1", "a2"),
            tuple(
                Tuple(str(i), (float(i), float(60 - i))) for i in range(60)
            ),
        )
        with pytest.raises(ValueError):
            dominance_representative(big, 15, mode="exact")


@pytest.mark.parametrize("elems", [1, 7, 1 << 15])
def test_covered_mask_is_pareto_dominance_at_any_block_size(elems):
    from unittest import mock

    from skyselect import arrangement
    from skyselect.representative import _covered

    a = generate("anticorrelated", 300, 3, 5).attr_array()
    rows = list(range(0, 300, 7))
    q = a[rows]
    below, above = q[:, None, :] <= a[None, :, :], q[:, None, :] < a[None, :, :]
    expect = below.all(axis=2) & above.any(axis=2)
    with mock.patch.object(arrangement, "_BLOCK_ELEMS", elems):
        assert np.array_equal(_covered(a, rows), expect)
