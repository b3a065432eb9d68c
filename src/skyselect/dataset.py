"""Dataset model, CSV ingestion, min-max normalization, synthetic generators.

Every operator in this package consumes the same immutable dataset shape:
records with non-negative numeric attributes where lower values are better.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of same-dimension tuples with named attributes.

    ``normalized`` records whether all attribute values are known to lie in
    [0, 1]; it is set by :func:`normalize` and :func:`generate` and required
    by the epsilon-relaxed operators.
    """

    schema: tuple[str, ...]
    tuples: tuple[Tuple, ...]
    normalized: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", tuple(str(s) for s in self.schema))
        object.__setattr__(self, "tuples", tuple(self.tuples))
        d = len(self.schema)
        if d < 1:
            raise ValueError("dataset needs at least one attribute column")
        seen: set[str] = set()
        for t in self.tuples:
            if t.dim != d:
                raise ValueError(f"tuple {t.id!r}: expected {d} attributes, got {t.dim}")
            if t.id in seen:
                raise ValueError(f"duplicate id {t.id!r}")
            seen.add(t.id)
            if self.normalized and any(a > 1.0 for a in t.attrs):
                raise ValueError(
                    f"tuple {t.id!r}: normalized dataset requires attributes in [0, 1]"
                )

    def __len__(self) -> int:
        return len(self.tuples)

    @property
    def dim(self) -> int:
        return len(self.schema)

    def ids(self) -> list[str]:
        return [t.id for t in self.tuples]

    def attr_array(self) -> np.ndarray:
        """Attribute values as an (n, d) float array."""
        return np.array(
            [t.attrs for t in self.tuples], dtype=float
        ).reshape(len(self.tuples), self.dim)

    def as_dict(self) -> dict[str, Tuple]:
        return {t.id: t for t in self.tuples}


def load_csv(path: str) -> Dataset:
    """Read a dataset from a CSV file.

    The first row is a header. When its first column is named ``id`` that
    column supplies tuple identifiers; otherwise identifiers are 1-based row
    indices rendered as text and every column is an attribute. Parse errors
    name the offending data row (1-based, header excluded).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise IngestionError("missing header row")
    header = rows[0]
    has_id = len(header) > 0 and header[0] == "id"
    schema = tuple(header[1:]) if has_id else tuple(header)
    if len(schema) < 1:
        raise IngestionError("header declares no attribute columns")

    tuples: list[Tuple] = []
    seen: set[str] = set()
    rownum = 0
    for row in rows[1:]:
        if not row:
            continue
        rownum += 1
        expected = len(schema) + (1 if has_id else 0)
        if len(row) != expected:
            raise IngestionError(f"row {rownum}: expected {len(schema)} attributes")
        tid = row[0] if has_id else str(rownum)
        if tid in seen:
            raise IngestionError(f"row {rownum}: duplicate id {tid!r}")
        seen.add(tid)
        vals: list[float] = []
        for cell in (row[1:] if has_id else row):
            try:
                vals.append(float(cell))
            except ValueError:
                raise IngestionError(f"row {rownum}: malformed number {cell!r}") from None
        try:
            tuples.append(Tuple(tid, tuple(vals)))
        except ValueError as exc:
            raise IngestionError(f"row {rownum}: {exc}") from None
    return Dataset(schema, tuple(tuples), normalized=False)


def write_csv(ds: Dataset, path: str) -> None:
    """Write a dataset as CSV with an explicit id column.

    Values are rendered with 17 significant digits so that reading the file
    back reproduces each float bit for bit.
    """
    lines = ["id," + ",".join(ds.schema)]
    for t in ds.tuples:
        lines.append(t.id + "," + ",".join(format(a, ".17g") for a in t.attrs))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    tuples = tuple(
        Tuple(t.id, tuple(float(x) for x in row)) for t, row in zip(ds.tuples, out)
    )
    return Dataset(ds.schema, tuples, normalized=True)


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
    tuples = tuple(
        Tuple(str(i + 1), tuple(float(x) for x in a[i])) for i in range(n)
    )
    return Dataset(schema, tuples, normalized=True)
