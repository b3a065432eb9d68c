"""Convex weight regions on the preference simplex and linear optimization over them.

A region is the intersection of the probability simplex
``{v : v >= 0, sum(v) = 1}`` with optional linear constraints ``c . v <= b``
(strict ``<`` allowed) and an optional closed Euclidean ball. Regions are the
shared substrate for every preference-parameterized operator in the package.

Optimization strategy:

* polytope regions (no ball): exact, by enumerating the vertices of the
  bounded polytope and scanning them;
* any region in dimension 2: exact, because the region collapses to an
  interval of the first coordinate (the 2-d kernel in :mod:`.arrangement`
  decides ``exists_weak_optimum`` there);
* a ball without linear constraints in any other dimension up to
  ``MAX_VERTEX_DIM`` (simplex ∩ ball): exact, by :func:`simplex_ball_range`.
  The optimum of ``c . v`` lies in the relative interior of some face of the
  simplex; the ball meets that face's affine hull in a smaller ball, whose
  minimizer has a closed form, so enumerating the 2^d - 1 faces finds it.
  This serves ``nd``/``po`` on a ball, ``non_rho_dominated``, ``ord`` and
  every ``linear_range`` there;
* a ball intersected with linear constraints in dimension 3 up to
  ``MAX_VERTEX_DIM``, or a ball alone beyond it: numeric, by sequential
  quadratic programming started from the region's point nearest the ball
  center. That point is exact (:func:`find_feasible_point`), so emptiness is
  decided exactly; a ball with constraints beyond ``MAX_VERTEX_DIM`` is
  unsupported, as is the polytope without the ball. The existence test of
  ``exists_weak_optimum`` on a ball (``po``, ``oru``) is numeric too, and
  reads the solver's status.
"""

from __future__ import annotations

import importlib
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arrangement import _blocks, envelope_argmin
from .queries import _scores


class _LazyModule:
    """Stands in for a module and imports it on the first attribute access.

    Only the SLSQP and ``linprog`` paths need ``scipy.optimize``, and its
    import costs more than most queries, so ``import skyselect`` leaves
    scipy unloaded until a solver runs. ``optimize`` stays a plain module
    attribute that callers can replace.
    """

    def __init__(self, name: str) -> None:
        self._name = name

    def __getattr__(self, attr: str):
        return getattr(importlib.import_module(self._name), attr)


optimize = _LazyModule("scipy.optimize")

CONTAIN_TOL = 1e-9
STRICT_MARGIN = 1e-12
VERTEX_DEDUP = 1e-9
MAX_VERTEX_DIM = 7
MAX_GRID_DIM = 4
# grid_sample decides points this close to a bound with the scalar test
_GRID_EDGE = 1e-6
# a face candidate of the simplex-ball kernel may undershoot 0 by this much
# from rounding; it is then clipped onto the face
FACE_TOL = 1e-14


class EmptyRegionError(ValueError):
    """Raised when an operation needs a non-empty region but got none."""


class UnsupportedDimensionError(ValueError):
    """Raised when a combinatorial path would blow up at this dimension."""


@dataclass(frozen=True)
class LinearConstraint:
    """c . v <= rhs, or strictly < when ``strict`` is set."""

    coeffs: tuple[float, ...]
    rhs: float
    strict: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", float(self.rhs))
        if not np.isfinite(self.coeffs + (self.rhs,)).all():
            raise ValueError("constraint coefficients and bound must be finite")

    def value(self, v: Sequence[float]) -> float:
        return float(np.dot(self.coeffs, v))

    def holds(self, v: Sequence[float]) -> bool:
        # strict constraints reject only a clear violation of the boundary;
        # membership exactly on the boundary is accepted and re-checked by
        # the optimizers that need true interior witnesses
        g = self.value(v) - self.rhs
        if self.strict:
            return g < STRICT_MARGIN
        return g <= CONTAIN_TOL


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball with center on the simplex."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not 0.0 <= self.radius < math.inf:
            raise ValueError("ball radius must be finite and >= 0")
        c = np.asarray(self.center, dtype=float)
        if not np.isfinite(c).all():
            raise ValueError("ball center must be finite")
        if (c < -CONTAIN_TOL).any() or abs(float(c.sum()) - 1.0) > CONTAIN_TOL:
            raise ValueError("ball center must lie on the probability simplex")


@dataclass(frozen=True)
class WeightRegion:
    """Simplex cap: linear constraints plus an optional ball, all intersected."""

    dim: int
    constraints: tuple[LinearConstraint, ...] = ()
    ball: Ball | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.dim < 1:
            raise ValueError("region dimension must be >= 1")
        for con in self.constraints:
            if len(con.coeffs) != self.dim:
                raise ValueError("constraint dimension does not match region")
        if self.ball is not None and len(self.ball.center) != self.dim:
            raise ValueError("ball dimension does not match region")

    def contains(self, v: Sequence[float]) -> bool:
        x = np.asarray(v, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"vector must have length {self.dim}")
        if (x < -CONTAIN_TOL).any() or abs(float(x.sum()) - 1.0) > CONTAIN_TOL:
            return False
        if not all(con.holds(x) for con in self.constraints):
            return False
        if self.ball is not None:
            center = np.asarray(self.ball.center)
            if float(np.linalg.norm(x - center)) > self.ball.radius + CONTAIN_TOL:
                return False
        return True


def full_simplex(dim: int) -> WeightRegion:
    return WeightRegion(dim)


def ball_region(center: Sequence[float], radius: float) -> WeightRegion:
    return WeightRegion(len(tuple(center)), (), Ball(tuple(center), radius))


def _contains_closure(reg: WeightRegion, v: np.ndarray, tol: float) -> bool:
    if (v < -tol).any() or abs(float(v.sum()) - 1.0) > tol:
        return False
    for con in reg.constraints:
        if con.value(v) - con.rhs > tol:
            return False
    if reg.ball is not None:
        if float(np.linalg.norm(v - np.asarray(reg.ball.center))) > reg.ball.radius + tol:
            return False
    return True


@lru_cache(maxsize=512)
def _vertices_cached(reg: WeightRegion) -> tuple[tuple[float, ...], ...]:
    d = reg.dim
    planes: list[tuple[np.ndarray, float]] = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        planes.append((e, 0.0))
    for con in reg.constraints:
        planes.append((np.asarray(con.coeffs, dtype=float), con.rhs))

    found: list[np.ndarray] = []
    ones = np.ones(d)
    for combo in itertools.combinations(range(len(planes)), d - 1):
        m = np.vstack([ones] + [planes[i][0] for i in combo])
        rhs = np.array([1.0] + [planes[i][1] for i in combo])
        try:
            v = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(v).all():
            continue
        if (v < -CONTAIN_TOL).any():
            continue
        if any(con.value(v) - con.rhs > CONTAIN_TOL for con in reg.constraints):
            continue
        if any(np.max(np.abs(v - u)) <= VERTEX_DEDUP for u in found):
            continue
        found.append(v)
    return tuple(tuple(float(x) for x in v) for v in found)


def region_vertices(reg: WeightRegion) -> np.ndarray:
    """Vertices of a polytope region as an (m, dim) array.

    Works on the closure: strict constraints contribute their boundary
    hyperplane. Raises :class:`EmptyRegionError` when no vertex survives the
    feasibility filter, which for this bounded geometry means the region is
    empty.
    """
    if reg.ball is not None:
        raise ValueError("vertex enumeration requires a polytope-only region")
    if reg.dim > MAX_VERTEX_DIM:
        raise UnsupportedDimensionError(
            f"vertex enumeration supports dim <= {MAX_VERTEX_DIM}, got {reg.dim}"
        )
    verts = _vertices_cached(reg)
    if not verts:
        raise EmptyRegionError("empty region")
    return np.array(verts, dtype=float)


def region_interval_d2(reg: WeightRegion) -> tuple[float, float]:
    """Closure of a 2-d region as an interval [lo, hi] of the first weight."""
    if reg.dim != 2:
        raise ValueError("interval reduction requires dim == 2")
    lo, hi = 0.0, 1.0
    for con in reg.constraints:
        c0, c1 = con.coeffs
        alpha = c0 - c1
        beta = con.rhs - c1
        if abs(alpha) <= 1e-15:
            if beta < -CONTAIN_TOL:
                raise EmptyRegionError("empty region")
        elif alpha > 0:
            hi = min(hi, beta / alpha)
        else:
            lo = max(lo, beta / alpha)
    if reg.ball is not None:
        half = reg.ball.radius / math.sqrt(2.0)
        lo = max(lo, reg.ball.center[0] - half)
        hi = min(hi, reg.ball.center[0] + half)
    if lo > hi:
        if lo > hi + CONTAIN_TOL:
            raise EmptyRegionError("empty region")
        mid = 0.5 * (lo + hi)
        lo = hi = mid
    return lo, hi


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = int(idx[cond][-1])
    lam = (1.0 - css[rho - 1]) / rho
    return np.maximum(v + lam, 0.0)


def find_feasible_point(reg: WeightRegion) -> np.ndarray | None:
    """A point of the region closure, or None when the region is empty.

    A polytope gives its vertex mean and a 2-d region its interval midpoint.
    A ball gives the region's point nearest its center: the center projected
    onto the simplex when there are no constraints, else the nearest of
    :func:`_section_centers`.
    """
    if reg.ball is None:
        try:
            verts = region_vertices(reg)
        except EmptyRegionError:
            return None
        return verts.mean(axis=0)
    if reg.dim == 2:
        try:
            lo, hi = region_interval_d2(reg)
        except EmptyRegionError:
            return None
        mid = 0.5 * (lo + hi)
        return np.array([mid, 1.0 - mid])
    w = _project_simplex(np.asarray(reg.ball.center, dtype=float))
    if not reg.constraints:
        return w
    if reg.dim > MAX_VERTEX_DIM:
        raise UnsupportedDimensionError(
            f"a ball with constraints supports dim <= {MAX_VERTEX_DIM}, got {reg.dim}"
        )
    centers = _section_centers(reg)
    if not len(centers):
        return None
    return centers[int(np.argmin(((centers - w) ** 2).sum(axis=1)))].copy()


def is_empty(reg: WeightRegion) -> bool:
    return find_feasible_point(reg) is None


def _support_points(reg: WeightRegion) -> np.ndarray | None:
    """Points where every linear function takes its extremes over the region.

    In dimension 2 every region reduces to an interval whose two ends work,
    even with a ball; a polytope's vertices work at any dimension. Returns
    None when no finite support set exists (a ball in dimension >= 3).
    """
    if reg.dim == 2:
        lo, hi = region_interval_d2(reg)
        return np.array([[lo, 1.0 - lo], [hi, 1.0 - hi]])
    if reg.ball is None:
        return region_vertices(reg)
    return None


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, read-only: cached results are shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _faces(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Support masks of the 2^d - 1 faces of the simplex, and each face's first index."""
    masks = (np.arange(1, 1 << d)[:, None] >> np.arange(d)) & 1 == 1
    return _frozen(masks, masks.argmax(axis=1))


@lru_cache(maxsize=256)
def _ball_sections(ball: Ball):
    """Faces the ball reaches: their masks, first indices, section centers and radii.

    The ball meets the affine hull of face F in a ball around p_F, the
    projection of the center w onto that hull, of radius
    r_F = sqrt(rho^2 - |w - p_F|^2); faces where r_F^2 < 0 are dropped. The
    center is first projected onto the simplex (it may sit off it by
    CONTAIN_TOL); then 1 - sum_F(w) >= 0, so p_F >= 0 lies in its face. A
    radius short by no more than rounding counts as 0, so a face the ball
    only touches keeps its one point.
    """
    w = _project_simplex(np.asarray(ball.center, dtype=float))
    rho = ball.radius
    masks, first = _faces(len(w))
    shift = (1.0 - np.where(masks, w, 0.0).sum(axis=1)) / masks.sum(axis=1)
    p = np.where(masks, np.maximum(w + shift[:, None], 0.0), 0.0)
    r2 = rho * rho - ((w - p) ** 2).sum(axis=1)
    keep = r2 >= -(1e-28 + 1e-15 * rho * rho)
    return _frozen(masks[keep], first[keep], p[keep], np.sqrt(np.maximum(r2[keep], 0.0)))


def _face_values(c: np.ndarray, masks, first, p, r):
    """Per face F and row of ``c``: c . p_F, the in-plane direction c_F, |c_F|
    and whether the candidates p_F - r_F c_F/|c_F| (min) and p_F + r_F
    c_F/|c_F| (max) lie in F.

    c_F is c on F minus its mean over F. It is formed from differences to
    F's first coordinate, so c constant on F gives exactly c_F = 0, and then
    both candidates are p_F. Arrays are laid out (d, faces, rows) with the
    rows innermost; every sum runs over one row's own d entries, so a row
    gives the same bits alone as in any block.
    """
    ct = np.ascontiguousarray(c.T)
    on = masks.T[:, :, None]
    pt = np.ascontiguousarray(p.T)[:, :, None]
    delta = np.where(on, ct[:, None, :] - ct[first], 0.0)
    chat = np.where(on, delta - delta.sum(axis=0) / masks.sum(axis=1)[:, None], 0.0)
    nrm = np.sqrt((chat * chat).sum(axis=0))
    cp = (ct[:, None, :] * pt).sum(axis=0)
    # p_F -/+ r c_F/|c_F| >= -FACE_TOL  <=>  +/- r c_Fi / (p_Fi + FACE_TOL) <= |c_F|
    ratio = chat / (pt + FACE_TOL)
    low_ok = r[:, None] * ratio.max(axis=0) <= nrm
    high_ok = -r[:, None] * ratio.min(axis=0) <= nrm
    return cp, chat, nrm, low_ok, high_ok


@lru_cache(maxsize=256)
def _section_centers(reg: WeightRegion) -> np.ndarray:
    """Centers of the ball's sections by the faces of simplex ∩ constraints.

    For each face F the ball reaches (:func:`_ball_sections`) and each set K
    of fewer than |F| constraints, holding K at equality cuts F's affine hull
    in a flat. With G the rows of K and Ĝ those rows projected onto F's
    directions, the flat's point nearest the ball center w is
    p_F - Ĝᵀ(ĜĜᵀ)⁻¹(G p_F - h_K); K is skipped when ĜĜᵀ is singular, and
    the point is dropped when its step from p_F is longer than r_F or it lies
    outside the simplex or a constraint. The projection of w onto simplex ∩
    constraints lies inside one face of that polytope, whose hull is one of
    these flats, so the kept center nearest w is that projection, and none
    is kept exactly when the region is empty. There are
    sum_F sum_{k<|F|} C(m, k) flats, bounded like vertex enumeration.
    """
    masks, first, p, r = _ball_sections(reg.ball)
    coeffs, rhs = _constraint_arrays(reg)
    kept = []
    for mask, f, pf, rf in zip(masks, first, p, r):
        size = int(mask.sum())
        for k in range(min(size, len(rhs) + 1)):
            for rows in map(list, itertools.combinations(range(len(rhs)), k)):
                g = coeffs[rows]
                # differences to F's first coordinate: a row constant on F
                # projects to exactly 0, so its Gram matrix is singular
                delta = np.where(mask, g - g[:, f : f + 1], 0.0)
                ghat = np.where(mask, delta - delta.sum(axis=1, keepdims=True) / size, 0.0)
                try:
                    y = np.linalg.solve(ghat @ ghat.T, g @ pf - rhs[rows])
                except np.linalg.LinAlgError:
                    continue
                step = ghat.T @ y
                x = pf - step
                if (
                    float(np.linalg.norm(step)) <= rf
                    and (x >= -FACE_TOL).all()
                    and (coeffs @ x - rhs <= CONTAIN_TOL).all()
                ):
                    kept.append(np.maximum(x, 0.0))
    return _frozen(np.array(kept).reshape(-1, reg.dim))[0]


def simplex_ball_range(c: np.ndarray, ball: Ball) -> tuple[np.ndarray, np.ndarray]:
    """Exact (min, max) of ``c_j . v`` over simplex ∩ ball, for every row c_j of c.

    The optimum lies in the relative interior of some face F, where it is the
    optimum over the ball's section of F's affine hull: p_F -/+ r_F
    c_F/|c_F| (see :func:`_face_values`). Each face offers that point when it
    lies in F and p_F otherwise, so every candidate is a point of the region
    and the best one is the optimum. Rows go in blocks, so memory stays
    O(block * faces * d).
    """
    c = np.asarray(c, dtype=float)
    masks, first, p, r = _ball_sections(ball)
    lo = np.empty(len(c))
    hi = np.empty(len(c))
    for rows in _blocks(masks.size, len(c)):
        cp, _, nrm, low_ok, high_ok = _face_values(c[rows], masks, first, p, r)
        spread = r[:, None] * nrm
        lo[rows] = np.where(low_ok, cp - spread, cp).min(axis=0)
        hi[rows] = np.where(high_ok, cp + spread, cp).max(axis=0)
    return lo, hi


def _enumerable_ball(reg: WeightRegion) -> bool:
    """A ball alone, in few enough dimensions to enumerate its 2^d - 1 faces.

    Face enumeration shares the combinatorial bound of vertex enumeration;
    past it, a ball takes the numeric path.
    """
    return reg.ball is not None and not reg.constraints and reg.dim <= MAX_VERTEX_DIM


def _simplex_ball_argmin(c: np.ndarray, ball: Ball) -> tuple[float, np.ndarray]:
    """The minimum of :func:`simplex_ball_range` for one objective, with its point."""
    masks, first, p, r = _ball_sections(ball)
    cp, chat, nrm, low_ok, _ = _face_values(c[None, :], masks, first, p, r)
    vals = np.where(low_ok, cp - r[:, None] * nrm, cp)[:, 0]
    f = int(np.argmin(vals))
    x = p[f]
    if low_ok[f, 0] and nrm[f, 0] > 0.0:
        x = x - r[f] * chat[:, f, 0] / nrm[f, 0]
    return float(vals[f]), np.maximum(x, 0.0)


def _constraint_arrays(reg: WeightRegion) -> tuple[np.ndarray, np.ndarray]:
    """The region's linear constraints as a (k, dim) matrix C and bounds b: C v <= b."""
    coeffs = np.array([con.coeffs for con in reg.constraints], dtype=float)
    return coeffs.reshape(-1, reg.dim), np.array([con.rhs for con in reg.constraints])


def _slsqp_constraints(reg: WeightRegion, extra: int) -> list[dict]:
    """SLSQP constraints of a ball region on y = (v, extra free variables).

    The simplex equality, every linear constraint as one vector-valued
    inequality with a constant Jacobian, and the ball.
    """
    d = reg.dim
    w = np.asarray(reg.ball.center, dtype=float)
    rho = reg.ball.radius
    pad = np.zeros(extra)
    eq_jac = np.append(np.ones(d), pad)
    cons = [{"type": "eq", "fun": lambda y: float(y[:d].sum()) - 1.0, "jac": lambda y: eq_jac}]
    if reg.constraints:
        coeffs, rhs = _constraint_arrays(reg)
        jac = np.hstack([-coeffs, np.zeros((len(coeffs), extra))])
        cons.append(
            {"type": "ineq", "fun": lambda y: rhs - coeffs @ y[:d], "jac": lambda y: jac}
        )
    cons.append(
        {
            "type": "ineq",
            "fun": lambda y: rho * rho - float((y[:d] - w) @ (y[:d] - w)),
            "jac": lambda y: np.append(-2.0 * (y[:d] - w), pad),
        }
    )
    return cons


def _minimize_linear_numeric(reg: WeightRegion, c: np.ndarray) -> tuple[float, np.ndarray]:
    ball = reg.ball
    assert ball is not None
    d = reg.dim
    w = np.asarray(ball.center, dtype=float)
    rho = ball.radius
    if rho <= 1e-15:
        if _contains_closure(reg, w, CONTAIN_TOL):
            return float(c @ w), w.copy()
        raise EmptyRegionError("empty region")

    x0 = find_feasible_point(reg)
    if x0 is None:
        raise EmptyRegionError("empty region")
    res = optimize.minimize(
        lambda v: float(c @ v),
        x0,
        jac=lambda v: c,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * d,
        constraints=_slsqp_constraints(reg, 0),
        options={"ftol": 1e-14, "maxiter": 400},
    )
    best_val, best_x = float(c @ x0), x0
    if res.x is not None:
        # SLSQP may end just outside the ball: pull it back radially
        x = np.asarray(res.x, dtype=float)
        x = w + (x - w) * (rho / max(float(np.linalg.norm(x - w)), rho))
        if _contains_closure(reg, x, 1e-7) and float(c @ x) < best_val:
            best_val, best_x = float(c @ x), x
    return best_val, best_x


def minimize_linear(
    reg: WeightRegion, c: Sequence[float], method: str = "auto"
) -> tuple[float, np.ndarray]:
    """Minimize ``c . v`` over the region closure; returns (value, argmin).

    ``method`` picks the evaluation path: ``auto`` scans the finite support
    of :func:`_support_points` (the interval ends in 2-d, the vertices of a
    polytope), uses the exact face enumeration of :func:`simplex_ball_range`
    for a ball without constraints, and the numeric path otherwise; ``numeric``
    forces the solver path (the tests compare it against the exact routes).
    """
    cv = np.asarray(c, dtype=float)
    if cv.shape != (reg.dim,):
        raise ValueError(f"objective must have length {reg.dim}")
    if method not in ("auto", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "numeric":
        if reg.ball is None:
            raise ValueError("numeric path requires a ball region")
        return _minimize_linear_numeric(reg, cv)
    support = _support_points(reg)
    if support is not None:
        vals = _scores(support, cv)
        i = int(np.argmin(vals))
        return float(vals[i]), support[i]
    if _enumerable_ball(reg):
        return _simplex_ball_argmin(cv, reg.ball)
    return _minimize_linear_numeric(reg, cv)


def maximize_linear(
    reg: WeightRegion, c: Sequence[float], method: str = "auto"
) -> tuple[float, np.ndarray]:
    val, x = minimize_linear(reg, -np.asarray(c, dtype=float), method)
    return -val, x


def linear_range(reg: WeightRegion, c: Sequence[float]) -> tuple[float, float]:
    """(min, max) of ``c . v`` over the region closure."""
    cv = np.asarray(c, dtype=float)
    support = _support_points(reg)
    if support is not None:
        vals = _scores(support, cv)
        return float(vals.min()), float(vals.max())
    if _enumerable_ball(reg):
        lo, hi = simplex_ball_range(cv[None, :], reg.ball)
        return float(lo[0]), float(hi[0])
    mn, _ = _minimize_linear_numeric(reg, cv)
    neg, _ = _minimize_linear_numeric(reg, -cv)
    return mn, -neg


def _lattice_slices(resolution: int, dim: int) -> Iterator[np.ndarray]:
    """Compositions of ``resolution`` into ``dim`` non-negative parts.

    They come in lexicographic order, as one integer (count, dim) table per
    value of the first part, built from one table of the middle parts.
    """
    if dim == 1:
        yield np.array([[resolution]])
        return
    # every (c_2, ..., c_{d-1}) with sum <= resolution, in lexicographic order
    if dim == 2:
        middle = np.zeros((1, 0), dtype=np.int64)
    else:
        middle = np.indices((resolution + 1,) * (dim - 2)).reshape(dim - 2, -1).T
    total = middle.sum(axis=1)
    for head in range(resolution + 1):
        rest = resolution - head
        fits = total <= rest
        comp = np.empty((int(fits.sum()), dim), dtype=np.int64)
        comp[:, 0] = head
        comp[:, 1:-1] = middle[fits]
        comp[:, -1] = rest - total[fits]
        yield comp


def grid_sample(reg: WeightRegion, resolution: int) -> list[np.ndarray]:
    """Simplex lattice points (multiples of 1/resolution) inside the region.

    Used by the sampled UTK path and as a brute-force oracle in the test
    suite. An empty region yields an empty list. Points come in
    lexicographic order of their coordinates, and each is kept exactly when
    ``reg.contains`` accepts it.
    """
    if reg.dim > MAX_GRID_DIM:
        raise UnsupportedDimensionError(
            f"grid sampling supports dim <= {MAX_GRID_DIM}, got {reg.dim}"
        )
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    pts: list[np.ndarray] = []
    for comp in _lattice_slices(resolution, reg.dim):
        v = comp / resolution
        # lattice points are non-negative and sum to 1 within a few ulps, so
        # only the constraints and the ball can reject one. Margins computed
        # here may differ from ``contains`` in the last bits, so points
        # within _GRID_EDGE of a bound are decided by ``contains`` itself
        margin = np.full(len(v), np.inf)
        for con in reg.constraints:
            tol = STRICT_MARGIN if con.strict else CONTAIN_TOL  # as in ``holds``
            np.minimum(margin, tol - (v @ np.asarray(con.coeffs) - con.rhs), out=margin)
        if reg.ball is not None:
            dist = np.linalg.norm(v - np.asarray(reg.ball.center), axis=1)
            np.minimum(margin, reg.ball.radius + CONTAIN_TOL - dist, out=margin)
        keep = margin > _GRID_EDGE
        for i in np.flatnonzero(np.abs(margin) <= _GRID_EDGE):
            keep[i] = reg.contains(v[i])
        pts.extend(v[keep])
    return pts


def _as_attr_vector(x) -> np.ndarray:
    return np.asarray(getattr(x, "attrs", x), dtype=float)


def _exists_numeric_ball(reg: WeightRegion, diffs: np.ndarray) -> tuple[float, np.ndarray]:
    ball = reg.ball
    assert ball is not None
    d = reg.dim
    x0 = find_feasible_point(reg)
    if x0 is None:
        raise EmptyRegionError("empty region")
    if ball.radius <= 1e-15:
        return float(np.max(diffs @ x0)), x0

    rival_jac = np.hstack([-diffs, np.ones((len(diffs), 1))])
    cons = _slsqp_constraints(reg, 1) + [
        {"type": "ineq", "fun": lambda y: y[d] - diffs @ y[:d], "jac": lambda y: rival_jac}
    ]

    obj_jac = np.append(np.zeros(d), 1.0)

    def solve(start: np.ndarray) -> tuple[bool, np.ndarray | None]:
        res = optimize.minimize(
            lambda y: float(y[d]),
            np.append(start, float(np.max(diffs @ start)) + 1.0),
            jac=lambda y: obj_jac,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * d + [(None, None)],
            constraints=cons,
            options={"ftol": 1e-14, "maxiter": 400},
        )
        return bool(res.success), None if res.x is None else np.asarray(res.x[:d], dtype=float)

    ok, x = solve(x0)
    points = [x]
    if not ok and d <= MAX_VERTEX_DIM:
        # retry once from where the mean rival difference is least on the
        # ball alone; SLSQP accepts a start outside the constraints, and the
        # better certified witness wins
        start = _simplex_ball_argmin(diffs.mean(axis=0), ball)[1]
        points += [start, solve(start)[1]]
    best_val = float(np.max(diffs @ x0))
    best_x = x0
    for x in points:
        if x is not None and _contains_closure(reg, x, 1e-7):
            val = float(np.max(diffs @ x))
            if val < best_val:
                best_val, best_x = val, x
    return best_val, best_x


def exists_weak_optimum(
    reg: WeightRegion, target, rivals, strict: bool = False
) -> tuple[bool, np.ndarray | None]:
    """Decide whether some v in the region makes ``target`` beat every rival.

    ``rivals`` is an (m, d) array of attribute rows, or an iterable of
    :class:`Tuple` records or attribute sequences. Weak mode asks for
    ``v . target <= v . r`` against every rival; strict mode asks for ``<``
    against every rival whose attribute vector differs from the target's.
    Decisions are certified on an explicit witness: the
    returned vector achieves max-gap <= 1e-12 (weak) or < -1e-12 (strict).
    Witnesses violating a strict region constraint are nudged toward
    :func:`find_feasible_point` before being rejected.
    """
    t = _as_attr_vector(target)
    if not isinstance(rivals, np.ndarray):
        rivals = [getattr(x, "attrs", x) for x in rivals]
    try:
        r = np.asarray(rivals, dtype=float)
    except ValueError:  # ragged rows
        raise ValueError("rival dimension does not match target") from None
    if r.size == 0:
        r = r.reshape(0, t.size)
    if r.shape[1:] != t.shape:
        raise ValueError("rival dimension does not match target")
    diffs = np.unique(t - r[(r != t).any(axis=1)], axis=0)
    if not len(diffs):
        fp = find_feasible_point(reg)
        if fp is None:
            raise EmptyRegionError("empty region")
        return True, fp

    def admissible(v: np.ndarray) -> bool:
        g = float(np.max(diffs @ v))
        return g < -STRICT_MARGIN if strict else g <= STRICT_MARGIN

    def finish(v: np.ndarray) -> tuple[bool, np.ndarray | None]:
        if reg.contains(v):
            return True, v
        anchor = find_feasible_point(reg)
        for theta in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2):
            shifted = (1.0 - theta) * v + theta * anchor
            if reg.contains(shifted) and admissible(shifted):
                return True, shifted
        return False, None

    # cheap witness scan before any solver runs
    candidates: list[np.ndarray] = []
    if reg.dim == 2:
        lo, hi = region_interval_d2(reg)
        for tt in (lo, 0.5 * (lo + hi), hi):
            candidates.append(np.array([tt, 1.0 - tt]))
    elif reg.ball is None:
        verts = region_vertices(reg)
        candidates.extend(verts)
        candidates.append(verts.mean(axis=0))
    else:
        fp = find_feasible_point(reg)
        if fp is None:
            raise EmptyRegionError("empty region")
        candidates.append(fp)
    best_val = math.inf
    best_x: np.ndarray | None = None
    for v in candidates:
        g = float(np.max(diffs @ v))
        if g < best_val:
            best_val, best_x = g, v
    if best_x is not None and admissible(best_x):
        ok, witness = finish(best_x)
        if ok:
            return True, witness

    if reg.dim == 2:
        # exact: the max of the gap lines is convex in the first weight
        tt = envelope_argmin(diffs[:, 0] - diffs[:, 1], diffs[:, 1], lo, hi)
        x = np.array([tt, 1.0 - tt])
        val = float(np.max(diffs @ x))
        if val < best_val:
            best_val, best_x = val, x
    elif reg.ball is None:
        d = reg.dim
        coeffs, rhs = _constraint_arrays(reg)
        a_ub = np.block(
            [[diffs, -np.ones((len(diffs), 1))], [coeffs, np.zeros((len(coeffs), 1))]]
        )
        b_ub = np.concatenate([np.zeros(len(diffs)), rhs])
        res = optimize.linprog(
            c=np.append(np.zeros(d), 1.0),
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=np.append(np.ones(d), 0.0).reshape(1, -1),
            b_eq=np.array([1.0]),
            bounds=[(0.0, None)] * d + [(None, None)],
            method="highs",
        )
        if res.status == 2:
            raise EmptyRegionError("empty region")
        if res.status != 0:
            raise RuntimeError(f"linprog did not certify an optimum: {res.message}")
        if res.x is not None:
            x = np.asarray(res.x[:d], dtype=float)
            val = float(np.max(diffs @ x))
            if val < best_val:
                best_val, best_x = val, x
    else:
        val, x = _exists_numeric_ball(reg, diffs)
        if val < best_val:
            best_val, best_x = val, x

    if best_x is not None and admissible(best_x):
        ok, witness = finish(best_x)
        if ok:
            return True, witness
    return False, None


def parse_region(text: str, dim: int, names: Sequence[str] | None = None) -> WeightRegion:
    """Parse the region literal syntax into a :class:`WeightRegion`.

    One constraint per line, for example ``3 w1 - 1 w2 >= 0``; a line
    ``ball 0.5 0.5 0.1`` gives the center and radius. Weight names are
    ``w1 .. w<dim>`` plus any attribute names passed in ``names``. ``#``
    starts a comment.
    """
    name_to_idx = {f"w{i + 1}": i for i in range(dim)}
    if names is not None:
        for i, nm in enumerate(names):
            name_to_idx.setdefault(str(nm), i)

    constraints: list[LinearConstraint] = []
    ball: Ball | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "ball":
            nums = []
            for tok in tokens[1:]:
                try:
                    nums.append(float(tok))
                except ValueError:
                    raise ValueError(f"region line {lineno}: bad ball number {tok!r}") from None
            if len(nums) != dim + 1:
                raise ValueError(
                    f"region line {lineno}: ball needs {dim} center values and a radius"
                )
            ball = Ball(tuple(nums[:dim]), nums[dim])
            continue

        rel_idx = next(
            (i for i, tok in enumerate(tokens) if tok in ("<=", ">=", "<", ">")), None
        )
        if rel_idx is None or rel_idx == len(tokens) - 1:
            raise ValueError(f"region line {lineno}: expected '<coeffs> <rel> <rhs>'")
        rel = tokens[rel_idx]
        if len(tokens) != rel_idx + 2:
            raise ValueError(f"region line {lineno}: expected a single right-hand side")
        try:
            rhs = float(tokens[rel_idx + 1])
        except ValueError:
            raise ValueError(
                f"region line {lineno}: bad right-hand side {tokens[rel_idx + 1]!r}"
            ) from None

        coeffs = [0.0] * dim
        sign = 1.0
        pending: float | None = None
        for tok in tokens[:rel_idx]:
            if tok == "+":
                continue
            if tok == "-":
                sign = -sign
                continue
            if tok in name_to_idx:
                coeffs[name_to_idx[tok]] += sign * (1.0 if pending is None else pending)
                sign = 1.0
                pending = None
                continue
            try:
                pending = float(tok)
            except ValueError:
                raise ValueError(f"region line {lineno}: cannot parse term {tok!r}") from None
        if pending is not None:
            raise ValueError(f"region line {lineno}: dangling coefficient")

        arr = np.array(coeffs)
        if rel in (">=", ">"):
            arr = -arr
            rhs = -rhs
        constraints.append(LinearConstraint(tuple(arr), rhs, strict=rel in ("<", ">")))
    return WeightRegion(dim, tuple(constraints), ball)
