"""Uncertain top-k: which top-k results can a weight region produce.

``utk2`` partitions the region into cells that share a top-k set; ``utk1``
returns the union of those sets. Two-dimensional regions reduce to an
interval of the first weight, where consecutive pairwise order breakpoints
bound cells with a constant ranking, so the partition is exact; the
breakpoints and the top-k label of every cell come from
:mod:`.arrangement`, with the scoring and tie-break of ``top_k``. Three and
four dimensions fall back to labelling a deterministic sample cloud, every
point through the same :func:`arrangement.cell_labels`, and the results are
flagged as approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import arrangement
from .dataset import Dataset
from .regions import (
    EmptyRegionError,
    UnsupportedDimensionError,
    WeightRegion,
    find_feasible_point,
    grid_sample,
    region_interval_d2,
)

BREAK_DEDUP = 1e-9
GRID_RESOLUTION = 64


@dataclass(frozen=True)
class PartitionCell:
    """One cell of the region with a constant top-k answer.

    ``kind`` is "exactInterval" for 2-d cells carrying (lo, hi) bounds on the
    first weight, or "sampleCloud" for sampled higher-dimensional cells
    carrying the witnesses that produced the label.
    """

    kind: str
    label: frozenset[str]
    exact: bool
    lo: float | None = None
    hi: float | None = None
    samples: tuple[tuple[float, ...], ...] = field(default=())


@dataclass(frozen=True)
class UtkResult:
    ids: frozenset[str]
    exact: bool


def _check(ds: Dataset, k: int, region: WeightRegion) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if region.ball is not None:
        raise ValueError("utk requires a polytope region (no ball)")
    if region.dim != ds.dim:
        raise ValueError("region dimension does not match dataset")
    if region.dim > 4:
        raise UnsupportedDimensionError("utk supports at most 4 dimensions")


def order_breakpoints(ds: Dataset, region: WeightRegion) -> list[float]:
    """First-weight values inside the region where some pairwise order flips.

    Only crossings strictly inside the interval matter; a pair with equal
    score slopes never flips and is skipped.
    """
    if ds.dim != 2:
        raise UnsupportedDimensionError("order breakpoints need 2 dimensions")
    lo, hi = region_interval_d2(region)
    return arrangement.breakpoints(ds.attr_array(), lo, hi, BREAK_DEDUP)


def _utk2_interval(ds: Dataset, k: int, region: WeightRegion, ordered: bool):
    lo, hi = region_interval_d2(region)
    if hi - lo <= 1e-15:
        cuts = np.array([lo, hi])
        mids = np.array([lo])
    else:
        cuts = np.array([lo] + order_breakpoints(ds, region) + [hi])
        mids = 0.5 * (cuts[:-1] + cuts[1:])
    ids = ds.ids()
    labels = arrangement.cell_labels(ds.attr_array(), ids, k, np.stack([mids, 1.0 - mids], 1))
    # neighbouring cells with the same label merge
    key = labels if ordered else np.sort(labels, axis=1)
    change = np.flatnonzero((key[1:] != key[:-1]).any(axis=1)) + 1
    starts = np.concatenate(([0], change))
    ends = np.append(change, len(mids))
    cells = []
    for first, stop in zip(starts, ends):
        row = [ids[i] for i in labels[first]]
        label = tuple(row) if ordered else frozenset(row)
        cells.append((float(cuts[first]), float(cuts[stop]), label))
    return cells


def utk2(
    ds: Dataset, k: int, region: WeightRegion, order_sensitive: bool = False
) -> list[PartitionCell]:
    """Partition of the region by resulting top-k set.

    ``order_sensitive`` keeps cells apart when the same k ids appear in a
    different score order; the returned labels are still id sets.
    """
    _check(ds, k, region)
    if ds.dim == 2:
        cells = _utk2_interval(ds, k, region, order_sensitive)
        return [
            PartitionCell(
                kind="exactInterval",
                label=frozenset(label) if order_sensitive else label,
                exact=True,
                lo=lo,
                hi=hi,
            )
            for lo, hi, label in cells
        ]
    samples = grid_sample(region, GRID_RESOLUTION)
    if not samples:
        v = find_feasible_point(region)
        if v is None:
            raise EmptyRegionError("region is empty")
        samples = [v]
    ids = ds.ids()
    labels = arrangement.cell_labels(ds.attr_array(), ids, k, np.array(samples, dtype=float))
    groups: dict[object, list[tuple[float, ...]]] = {}
    for v, row in zip(samples, labels.tolist()):
        got = [ids[i] for i in row]
        label = tuple(got) if order_sensitive else frozenset(got)
        groups.setdefault(label, []).append(tuple(float(x) for x in v))
    return [
        PartitionCell(
            kind="sampleCloud",
            label=frozenset(label) if order_sensitive else label,
            exact=False,
            samples=tuple(pts),
        )
        for label, pts in groups.items()
    ]


def utk1(ds: Dataset, k: int, region: WeightRegion) -> UtkResult:
    """All ids appearing in some top-k result over the region."""
    cells = utk2(ds, k, region)
    ids: set[str] = set()
    for cell in cells:
        ids |= cell.label
    return UtkResult(frozenset(ids), all(c.exact for c in cells))
