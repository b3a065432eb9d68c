import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from skyselect import (
    Dataset,
    Tuple,
    check_weights,
    epsilon_skyline,
    generate,
    k_skyband,
    pareto_dominates,
    skyline,
    top_k,
    top_k_threshold,
)

from .oracles import brute_skyband, brute_skyline, brute_topk


def test_pareto_dominates():
    assert pareto_dominates(Tuple("x", (1.0, 2.0)), Tuple("y", (1.0, 3.0)))
    assert not pareto_dominates(Tuple("x", (1.0, 3.0)), Tuple("y", (1.0, 3.0)))
    assert not pareto_dominates(Tuple("x", (1.0, 5.0)), Tuple("y", (2.0, 2.0)))
    with pytest.raises(ValueError):
        pareto_dominates(Tuple("x", (1.0,)), Tuple("y", (1.0, 2.0)))


def test_skyline_worked_example(d1):
    assert skyline(d1) == {"a", "b", "c"}


def test_skyline_keeps_duplicates():
    ds = Dataset(
        ("a1", "a2"),
        (Tuple("x", (1.0, 1.0)), Tuple("y", (1.0, 1.0)), Tuple("z", (2.0, 2.0))),
    )
    assert skyline(ds) == {"x", "y"}


def test_skyband_worked_examples(d1):
    assert k_skyband(d1, 1) == {"a", "b", "c"}
    assert k_skyband(d1, 2) == {"a", "b", "c", "e"}
    assert k_skyband(d1, 3) == {"a", "b", "c", "d", "e"}
    with pytest.raises(ValueError):
        k_skyband(d1, 0)


def test_top_k_worked_examples(d1):
    r = top_k(d1, (0.5, 0.5), 2)
    assert r.entries == (("b", 2.0), ("a", 3.0))
    # three way tie at score 3 resolved by id order
    r4 = top_k(d1, (0.5, 0.5), 4)
    assert r4.ids() == ("b", "a", "c", "e")
    full = top_k(d1, (0.5, 0.5), 10)
    assert len(full) == 5
    with pytest.raises(ValueError):
        top_k(d1, (0.5, 0.5), 0)
    with pytest.raises(ValueError):
        top_k(d1, (0.6, 0.6), 2)


def test_check_weights():
    w = check_weights((0.25, 0.75), 2)
    assert isinstance(w, np.ndarray)
    with pytest.raises(ValueError):
        check_weights((0.25, 0.25), 2)
    with pytest.raises(ValueError):
        check_weights((-0.1, 1.1), 2)
    with pytest.raises(ValueError):
        check_weights((1.0,), 2)


def test_non_finite_weights_are_rejected(d1):
    # every comparison with NaN is false, so NaN passed the range checks
    for w in ((math.nan, math.nan), (math.inf, -math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            check_weights(w, 2)
        with pytest.raises(ValueError):
            top_k(d1, w, 3)


def test_threshold_matches_plain_topk(d1):
    ranked, seen = top_k_threshold(d1, (0.5, 0.5), 2)
    assert ranked == top_k(d1, (0.5, 0.5), 2)
    assert seen <= len(d1)


def test_threshold_early_stop():
    # a clear winner lets the threshold halt before scanning everything
    ts = [Tuple("w", (0.0, 0.0))] + [
        Tuple(f"t{i}", (0.5 + i * 0.001, 0.5 + i * 0.001)) for i in range(200)
    ]
    ds = Dataset(("a1", "a2"), tuple(ts))
    ranked, seen = top_k_threshold(ds, (0.5, 0.5), 1)
    assert ranked.ids() == ("w",)
    assert seen < len(ds)


def _random_ds(rng, n, d):
    rows = rng.uniform(size=(n, d))
    return Dataset(
        tuple(f"a{j+1}" for j in range(d)),
        tuple(Tuple(str(i + 1), tuple(map(float, rows[i]))) for i in range(n)),
    )


def test_against_brute_force_oracles():
    rng = np.random.default_rng(3)
    for trial in range(30):
        d = int(rng.integers(2, 5))
        ds = _random_ds(rng, int(rng.integers(1, 40)), d)
        assert skyline(ds) == brute_skyline(ds)
        k = int(rng.integers(1, 5))
        assert k_skyband(ds, k) == brute_skyband(ds, k)
        w = rng.dirichlet(np.ones(d))
        kk = int(rng.integers(1, len(ds) + 1))
        got = top_k(ds, tuple(map(float, w)), kk)
        expect = brute_topk(ds, w, kk)
        assert list(got.ids()) == [tid for tid, _ in expect]
        assert got.scores() == pytest.approx([s for _, s in expect])


def test_threshold_equivalence_with_ties():
    # integer attributes force score ties, including at the halting boundary
    rng = np.random.default_rng(11)
    for trial in range(40):
        n, d = int(rng.integers(2, 25)), int(rng.integers(2, 4))
        rows = rng.integers(0, 4, size=(n, d)).astype(float)
        ds = Dataset(
            tuple(f"a{j+1}" for j in range(d)),
            tuple(Tuple(str(i + 1), tuple(rows[i])) for i in range(n)),
        )
        w = rng.dirichlet(np.ones(d))
        for k in (1, 2, n):
            a = top_k(ds, tuple(map(float, w)), k)
            b, _ = top_k_threshold(ds, tuple(map(float, w)), k)
            assert a == b


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=500))
def test_skyband_nesting(n, seed):
    ds = generate("independent", n, 3, seed)
    prev: set[str] = set()
    for k in (1, 2, 3, 4):
        cur = k_skyband(ds, k)
        assert prev <= cur
        prev = cur
    assert k_skyband(ds, 1) == skyline(ds)


def test_skyband_and_epsilon_skyline_memory_bounded():
    # both compare every pair in column blocks: an n x n x d boolean cube
    # at this size would be 75 MB
    ds = generate("anticorrelated", 5000, 3, 19)
    w = (0.2, 0.3, 0.5)
    tracemalloc.start()
    try:
        band = k_skyband(ds, 2)
        eskyline = epsilon_skyline(ds, w, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert skyline(ds) <= band and eskyline <= skyline(ds)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
