"""Dataset model, CSV ingestion, min-max normalization, synthetic generators.

Every operator in this package consumes the same immutable dataset shape:
ids plus one read-only (n, d) array of non-negative attribute values where
lower values are better. This is the only module that builds
:class:`Tuple` records; operators index the array and the ids.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DISTRIBUTIONS = ("independent", "correlated", "anticorrelated")


class IngestionError(ValueError):
    """Raised when a CSV file cannot be turned into a valid dataset."""


@dataclass(frozen=True)
class Tuple:
    """One record: an identifier plus d attribute values, lower is better.

    Attributes must be finite and non-negative. The dimension of a tuple is
    fixed at construction and must match its dataset.
    """

    id: str
    attrs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attrs", tuple(float(a) for a in self.attrs))
        if len(self.attrs) < 1:
            raise ValueError(f"tuple {self.id!r}: needs at least one attribute")
        for a in self.attrs:
            if not math.isfinite(a) or a < 0.0:
                raise ValueError(
                    f"tuple {self.id!r}: attribute {a!r} must be finite and >= 0"
                )

    @property
    def dim(self) -> int:
        return len(self.attrs)


def _validate(
    schema: tuple[str, ...], ids: tuple[str, ...], a: np.ndarray, normalized: bool
) -> None:
    """Raise on the first row (1-based) with a duplicate id or an invalid value."""
    if len(schema) < 1:
        raise ValueError("dataset needs at least one attribute column")
    n = len(ids)
    if a.shape != (n, len(schema)):
        raise ValueError(f"expected an array of shape {(n, len(schema))}, got {a.shape}")
    dup = np.zeros(n, dtype=bool)
    if len(set(ids)) < n:
        seen: set[str] = set()
        for i, tid in enumerate(ids):
            dup[i] = tid in seen
            seen.add(tid)
    bad = ~(np.isfinite(a) & (a >= 0.0))
    over = (a > 1.0) if normalized else np.zeros_like(bad)
    failing = np.flatnonzero(dup | bad.any(axis=1) | over.any(axis=1))
    if not len(failing):
        return
    i = int(failing[0])
    if dup[i]:
        problem = f"duplicate id {ids[i]!r}"
    elif bad[i].any():
        problem = f"tuple {ids[i]!r}: attribute {float(a[i][bad[i]][0])!r} must be finite and >= 0"
    else:
        problem = f"tuple {ids[i]!r}: normalized dataset requires attributes in [0, 1]"
    raise ValueError(f"row {i + 1}: {problem}")


class Dataset:
    """Immutable table: ``schema``, n ids, one read-only float64 (n, d) array.

    ``normalized`` records that all values lie in [0, 1]; :func:`normalize`
    and :func:`generate` set it and the epsilon-relaxed operators need it.
    ``tuples`` is a view of the rows as :class:`Tuple` records.
    """

    def __init__(
        self, schema: Sequence[str], tuples: Sequence[Tuple], normalized: bool = False
    ) -> None:
        tuples = tuple(tuples)
        d = len(schema)
        for t in tuples:
            if t.dim != d:
                raise ValueError(f"tuple {t.id!r}: expected {d} attributes, got {t.dim}")
        a = np.array([t.attrs for t in tuples], dtype=float).reshape(len(tuples), d)
        built = Dataset._from_array(schema, [t.id for t in tuples], a, normalized)
        vars(self).update(vars(built), tuples=tuples)

    @classmethod
    def _from_array(
        cls, schema: Sequence[str], ids: Sequence[str], a: np.ndarray, normalized: bool
    ) -> Dataset:
        """A dataset over ``a``, which it takes over and makes read-only."""
        schema, ids = tuple(str(s) for s in schema), tuple(ids)
        a = np.ascontiguousarray(a, dtype=float)
        _validate(schema, ids, a, normalized)
        a.flags.writeable = False
        ds = cls.__new__(cls)
        vars(ds).update(schema=schema, _ids=ids, _a=a, normalized=bool(normalized))
        return ds

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Dataset is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.schema, self._ids, self.normalized) == (
            other.schema, other._ids, other.normalized
        ) and np.array_equal(self._a, other._a)

    def __reduce__(self):  # copies and unpickled datasets keep a read-only array
        return (Dataset._from_array, (self.schema, self._ids, self._a, self.normalized))

    def __hash__(self) -> int:
        return hash((self.schema, self._ids, self.normalized))

    def __repr__(self) -> str:
        return f"Dataset(schema={self.schema!r}, n={len(self)}, normalized={self.normalized})"

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int:
        return len(self.schema)

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def attr_array(self) -> np.ndarray:
        """Attribute values as the dataset's own read-only (n, d) array."""
        return self._a

    @cached_property
    def tuples(self) -> tuple[Tuple, ...]:
        return tuple(Tuple(tid, row) for tid, row in zip(self._ids, self._a.tolist()))


def load_csv(path: str) -> Dataset:
    """Read a dataset from a CSV file.

    The first row is a header. When its first column is named ``id`` that
    column supplies tuple identifiers; otherwise identifiers are 1-based row
    indices rendered as text and every column is an attribute. Errors name
    the offending data row (1-based, header and blank lines excluded); a
    wrong column count or a malformed number anywhere is reported before a
    duplicate id or a negative or non-finite value.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise IngestionError("missing header row")
    header, body = rows[0], [row for row in rows[1:] if row]
    skip = 1 if header[:1] == ["id"] else 0
    schema = tuple(header[skip:])
    if len(schema) < 1:
        raise IngestionError("header declares no attribute columns")
    values: list[float] = []
    for i, row in enumerate(body, 1):
        if len(row) != len(schema) + skip:
            raise IngestionError(f"row {i}: expected {len(schema)} attributes")
        for cell in row[skip:]:
            try:
                values.append(float(cell))
            except ValueError:
                raise IngestionError(f"row {i}: malformed number {cell!r}") from None
    ids = [row[0] for row in body] if skip else [str(i) for i in range(1, len(body) + 1)]
    a = np.array(values).reshape(len(body), len(schema))
    try:
        return Dataset._from_array(schema, ids, a, False)
    except ValueError as exc:
        raise IngestionError(str(exc)) from None


def write_csv(ds: Dataset, path: str) -> None:
    """Write a dataset as CSV with an explicit id column.

    Fields are quoted as :func:`load_csv`'s reader expects, and values are
    rendered with 17 significant digits so that reading the file back
    reproduces each float bit for bit.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("id",) + ds.schema)
        cols = ([format(x, ".17g") for x in col] for col in ds.attr_array().T.tolist())
        out.writerows(zip(ds.ids(), *cols))


def normalize(ds: Dataset) -> Dataset:
    """Min-max rescale every attribute column to [0, 1].

    Constant columns map to 0. The map is strictly increasing per column:
    distinct values stay distinct even where the division rounds or
    underflows them together, so dominance between tuples is unchanged.
    Raises on an empty dataset because the column extremes are undefined
    there.
    """
    if len(ds) == 0:
        raise ValueError("cannot normalize an empty dataset")
    a = ds.attr_array()
    lo = a.min(axis=0)
    span = a.max(axis=0) - lo
    out = np.zeros_like(a)
    pos = span > 0
    out[:, pos] = (a[:, pos] - lo[pos]) / span[pos]
    for j in np.flatnonzero(pos):
        out[:, j] = _separate(a[:, j], out[:, j])
    return Dataset._from_array(ds.schema, ds.ids(), out, True)


def _separate(col: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """``scaled`` with values of distinct ``col`` entries pulled apart.

    Scaling is monotone, so it can only merge neighbours in sorted order.
    Each merged value moves up to the next float above its predecessor; if
    that pushes past the column maximum, which scales to exactly 1, the top
    of the column moves down instead. Both passes touch only the merged
    values and the runs they push.
    """
    values, inverse = np.unique(col, return_inverse=True)
    at = np.zeros(len(values), dtype=np.intp)
    at[inverse] = np.arange(len(col))
    mapped = scaled[at]
    merged = np.flatnonzero(np.diff(mapped) <= 0.0) + 1
    if not len(merged):
        return scaled
    for i in merged.tolist():
        while i < len(mapped) and mapped[i] <= mapped[i - 1]:
            mapped[i] = np.nextafter(mapped[i - 1], np.inf)
            i += 1
    if mapped[-1] > 1.0:
        mapped[-1] = 1.0
        i = len(mapped) - 2
        while i >= 0 and mapped[i] >= mapped[i + 1]:
            mapped[i] = np.nextafter(mapped[i + 1], -np.inf)
            i -= 1
    return mapped[inverse]


def generate(dist: str, n: int, d: int, seed: int) -> Dataset:
    """Build a synthetic dataset, deterministic in (dist, n, d, seed).

    Families follow the usual benchmark conventions: ``independent`` draws
    uniform attributes, ``correlated`` spreads small noise around a shared
    per-row level, ``anticorrelated`` scatters rows near a constant-sum
    plane so that many tuples are mutually non-dominated. All values lie in
    [0, 1] and the result is flagged normalized.
    """
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    if dist == "independent":
        a = rng.random((n, d))
    elif dist == "correlated":
        base = rng.random((n, 1))
        a = np.clip(base + rng.normal(0.0, 0.05, (n, d)), 0.0, 1.0)
    else:
        u = rng.random((n, d))
        level = rng.normal(0.5, 0.05, (n, 1))
        a = np.clip(u - u.mean(axis=1, keepdims=True) + level, 0.0, 1.0)
    schema = tuple(f"a{i + 1}" for i in range(d))
    return Dataset._from_array(schema, [str(i + 1) for i in range(n)], a, True)
