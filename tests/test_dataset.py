import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skyselect import (
    Dataset,
    IngestionError,
    Tuple,
    generate,
    load_csv,
    normalize,
    skyline,
    write_csv,
)


def test_tuple_invariants():
    t = Tuple("x", (0.0, 1.5))
    assert t.dim == 2
    with pytest.raises(ValueError):
        Tuple("x", (-1.0, 2.0))
    with pytest.raises(ValueError):
        Tuple("x", (math.nan, 2.0))
    with pytest.raises(ValueError):
        Tuple("x", (math.inf, 2.0))
    with pytest.raises(ValueError):
        Tuple("x", ())


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(("a1",), (Tuple("x", (1.0, 2.0)),))
    with pytest.raises(ValueError):
        Dataset(("a1",), (Tuple("x", (1.0,)), Tuple("x", (2.0,))))
    with pytest.raises(ValueError):
        Dataset(("a1",), (Tuple("x", (2.0,)),), normalized=True)


def test_attr_array_is_one_read_only_array(d1):
    a = d1.attr_array()
    assert d1.attr_array() is a
    assert a.shape == (5, 2) and a.dtype == np.float64 and a.flags.c_contiguous
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    g = generate("independent", 20, 3, 1)
    assert g.attr_array() is g.attr_array() and not g.attr_array().flags.writeable
    again = pickle.loads(pickle.dumps(g))
    assert again == g and not again.attr_array().flags.writeable
    # the tuple view is built once, from the array
    assert g.tuples is g.tuples
    assert [t.attrs for t in g.tuples] == [tuple(r) for r in g.attr_array().tolist()]


@pytest.mark.parametrize(
    "ids, values, normalized",
    [
        (["x", "y"], [[1.0, math.nan], [0.0, 0.0]], False),
        (["x", "y"], [[1.0, 2.0], [math.inf, 0.0]], False),
        (["x", "y"], [[1.0, 2.0], [-1.0, 0.0]], False),
        (["x", "x"], [[1.0, 2.0], [0.0, 0.0]], False),
        (["x", "y"], [[0.5, 0.5], [0.0, 1.5]], True),
    ],
)
def test_array_constructor_rejects(ids, values, normalized):
    with pytest.raises(ValueError):
        Dataset._from_array(("a1", "a2"), ids, np.array(values), normalized)


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,a1,a2\na,1,5\nb,2,2\n")
    ds = load_csv(p)
    assert ds.schema == ("a1", "a2")
    assert [t.id for t in ds.tuples] == ["a", "b"]
    assert ds.tuples[0].attrs == (1.0, 5.0)
    assert not ds.normalized


def test_load_csv_row_index_ids(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a1,a2\n1,5\n2,2\n")
    ds = load_csv(p)
    assert [t.id for t in ds.tuples] == ["1", "2"]


def test_load_csv_empty_data(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,a1,a2\n")
    ds = load_csv(p)
    assert len(ds) == 0 and ds.dim == 2


def test_load_csv_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,a1,a2\na,1\n")
    with pytest.raises(IngestionError, match="row 1: expected 2 attributes"):
        load_csv(p)
    p.write_text("id,a1,a2\na,1,zzz\n")
    with pytest.raises(IngestionError, match="row 1: malformed number"):
        load_csv(p)
    p.write_text("id,a1,a2\na,1,5\na,2,2\n")
    with pytest.raises(IngestionError, match="row 2: duplicate id"):
        load_csv(p)
    p.write_text("id,a1,a2\na,1,5\n\nb,-2,2\n")
    with pytest.raises(IngestionError, match="row 2: tuple 'b': attribute -2.0 must be"):
        load_csv(p)


def test_csv_round_trip(tmp_path, d1):
    p = tmp_path / "out.csv"
    write_csv(d1, p)
    again = load_csv(p)
    assert again == d1
    # round trip is bit exact text as well
    q = tmp_path / "twice.csv"
    write_csv(again, q)
    assert p.read_text() == q.read_text()


def test_csv_round_trip_quoted_fields(tmp_path):
    ds = Dataset(("a,1", 'a"2'), (Tuple("x,y", (1.0, 2.0)), Tuple('say "hi"', (0.5, 0.0))))
    p = tmp_path / "out.csv"
    write_csv(ds, p)
    assert load_csv(p) == ds


def test_round_trip_seventeen_digits(tmp_path):
    vals = (1.0 / 3.0, 0.1234567890123456789)
    ds = Dataset(("a1", "a2"), (Tuple("x", vals),))
    p = tmp_path / "out.csv"
    write_csv(ds, p)
    assert load_csv(p).tuples[0].attrs == vals


def test_normalize_worked_examples(d1, d1n):
    by_id = {t.id: t.attrs for t in d1n.tuples}
    assert by_id == {
        "a": (0.0, 1.0),
        "b": (0.25, 0.25),
        "c": (1.0, 0.0),
        "d": (0.75, 0.75),
        "e": (0.5, 0.5),
    }
    assert d1n.normalized and not d1.normalized


def test_normalize_constant_column():
    ds = Dataset(("a1", "a2"), (Tuple("x", (3.0, 1.0)), Tuple("y", (3.0, 2.0))))
    nds = normalize(ds)
    assert [t.attrs[0] for t in nds.tuples] == [0.0, 0.0]
    assert [t.attrs[1] for t in nds.tuples] == [0.0, 1.0]


def test_normalize_empty_and_idempotent(d1):
    with pytest.raises(ValueError):
        normalize(Dataset(("a1",), ()))
    once = normalize(d1)
    assert normalize(once) == once


def test_generate_shapes_and_determinism():
    empty = generate("independent", 0, 2, 7)
    assert len(empty) == 0 and empty.normalized
    g1 = generate("correlated", 50, 3, 11)
    g2 = generate("correlated", 50, 3, 11)
    assert g1 == g2
    assert g1.schema == ("a1", "a2", "a3")
    assert all(0.0 <= a <= 1.0 for t in g1.tuples for a in t.attrs)
    with pytest.raises(ValueError):
        generate("zipfian", 10, 2, 1)


def test_anticorrelated_inflates_skyline():
    anti = generate("anticorrelated", 1000, 2, 1)
    corr = generate("correlated", 1000, 2, 1)
    assert len(skyline(anti)) > len(skyline(corr))


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["independent", "correlated", "anticorrelated"]),
)
def test_generate_pure(n, d, seed, dist):
    assert generate(dist, n, d, seed) == generate(dist, n, d, seed)


@given(
    st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=2,
        ),
        min_size=1,
        max_size=12,
    )
)
@example(rows=[[0.0, 2.0], [0.0, 5e-324], [1.0, 0.0]])  # 5e-324 / 2 underflows to 0
def test_normalize_bounds_and_dominance(rows):
    ds = Dataset(
        ("a1", "a2"),
        tuple(Tuple(str(i), tuple(r)) for i, r in enumerate(rows)),
    )
    nds = normalize(ds)
    assert all(0.0 <= a <= 1.0 for t in nds.tuples for a in t.attrs)
    # rescaling can only merge near-equal values, never create new dominance
    assert skyline(nds) >= skyline(ds)


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=2),
        min_size=1,
        max_size=12,
    )
)
def test_normalize_preserves_skyline_on_separated_values(rows):
    ds = Dataset(
        ("a1", "a2"),
        tuple(Tuple(str(i), tuple(map(float, r))) for i, r in enumerate(rows)),
    )
    # well-separated values cannot collapse under min-max rescaling
    assert skyline(normalize(ds)) == skyline(ds)
