"""The four benchmark workloads: bulk, plane, solver and cli.

Each workload is a closed loop with one client: the worker issues one query,
waits for it, then issues the next. Queries come in rounds. A round is the
workload's fixed mix, drawn afresh from ``(seed, round number)``, and a run
always ends on a whole round so every run sees the same mix.

A workload builds its inputs in :meth:`Workload.setup` from the seed alone,
and :meth:`Workload.round` returns the round's queries. Every query carries
a check that runs after the timed loop against :mod:`oracles` or against the
other answers of its round; the package itself is never asked to confirm
its own answer.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import oracles as O

DISTS = ("independent", "anticorrelated")


@dataclass
class Query:
    """One request: ``call`` issues it, ``check`` judges the answer later.

    ``check(out, round_outputs)`` returns None when the answer is right, or
    a message. ``round_outputs`` maps the ``key`` of every query of the same
    round to its answer, for cross-operator invariants.
    """

    op: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]
    key: str = ""


def _anchored_polytope(S, dim: int, rng, quad: bool = False):
    """Random non-empty polytope; every constraint passes beside an interior point.

    With ``quad`` (3-d only) it is the simplex cut by one plane that removes
    exactly one simplex corner, so the region always has four vertices and
    the n x n x vertices arrays of ``po`` have the same size in every round.
    """
    while True:
        p = rng.dirichlet(np.ones(dim) * 3.0)
        count = 1 if quad else int(rng.integers(1, 4))
        cons = []
        for _ in range(count):
            c = rng.normal(size=dim)
            cons.append((c, float(c @ p) + 0.02))
        if quad:
            c, rhs = cons[0]
            if int((c > rhs).sum()) != 1:
                continue
        return S.WeightRegion(
            dim, tuple(S.LinearConstraint(tuple(map(float, c)), b) for c, b in cons)
        )


def _seed_with_skyline(n: int, d: int, size: int, seed: int) -> int:
    """The first seed from ``seed`` on whose independent n x d dataset has
    a skyline of ``size`` tuples."""
    while int(O.skyline_mask(O.generated("independent", n, d, seed)).sum()) != size:
        seed += 1
    return seed


def _nth(pool: list, i: int):
    """Item i of a pool that rounds rotate through."""
    return pool[i % len(pool)]


def _interval(S, lo: float, hi: float):
    """The 2-d region lo <= w1 <= hi."""
    return S.WeightRegion(
        2, (S.LinearConstraint((1.0, 0.0), hi), S.LinearConstraint((-1.0, 0.0), -lo))
    )


def _weights(rng, d: int) -> tuple[float, ...]:
    w = rng.dirichlet(np.ones(d) * 2.0)
    w[-1] = 1.0 - float(w[:-1].sum())
    return tuple(float(x) for x in w)


class Workload:
    """Inputs built from the seed, plus the fixed mix of one round."""

    name = ""
    tail_pct = 90.0

    def __init__(self, seed: int, scale: str, root: str) -> None:
        self.seed = seed
        self.scale = scale
        self.root = root
        self._arrays: dict[int, tuple[np.ndarray, list[str]]] = {}
        self._sky: dict[int, set[str]] = {}
        self._band: dict[tuple[int, int], set[str]] = {}

    def setup(self) -> None:
        self.S = importlib.import_module("skyselect")

    def warmup(self) -> None:
        """Run one small round so lazy imports and first-call costs are paid."""

    def round(self, r: int, in_process: bool = True) -> list[Query]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def rng(self, r: int):
        return np.random.default_rng([self.seed, r])

    def ask(self, op: str, fn: str, *args, check, key: str = "", **kwargs) -> Query:
        """A query calling ``skyselect.<fn>(*args)``.

        The arguments are bound now; the function is looked up when the query
        runs, so it goes through the tracer's wrapper when one is installed.
        """
        S = self.S
        return Query(op, lambda: getattr(S, fn)(*args, **kwargs), check, key)

    # -- oracle inputs, built from the tuples, never via the package --------

    def arr(self, ds) -> tuple[np.ndarray, list[str]]:
        key = id(ds)
        if key not in self._arrays:
            a = np.array([t.attrs for t in ds.tuples], dtype=float).reshape(len(ds), ds.dim)
            self._arrays[key] = (a, [t.id for t in ds.tuples])
        return self._arrays[key]

    def sky(self, ds) -> set[str]:
        if id(ds) not in self._sky:
            a, ids = self.arr(ds)
            self._sky[id(ds)] = {ids[i] for i in np.flatnonzero(O.skyline_mask(a))}
        return self._sky[id(ds)]

    def band(self, ds, k: int) -> set[str]:
        if (id(ds), k) not in self._band:
            a, ids = self.arr(ds)
            counts = O.dominator_counts(a)
            self._band[(id(ds), k)] = {ids[i] for i in np.flatnonzero(counts < k)}
        return self._band[(id(ds), k)]

    # -- reusable checks ----------------------------------------------------

    def is_skyline(self, ds):
        return lambda out, res: O.set_problem("skyline", out, self.sky(ds))

    def in_skyline(self, ds, name: str):
        return lambda out, res: O.subset_problem(name, out, self.sky(ds))

    def chain(self, ds, nd_key: str):
        """po result inside the nd result of the same round, inside the skyline."""

        def check(out, res):
            return O.subset_problem("po in nd", out, res[nd_key]) or O.subset_problem(
                "po in skyline", out, self.sky(ds)
            )

        return check

    def oss_check(self, ds, m: int, k_depth: int):
        def check(out, res):
            return O.oss_problem(out.ids, out.rho_star, m, self.band(ds, k_depth))

        return check


# ---------------------------------------------------------------------------


class Bulk(Workload):
    """Large n, data-bound: ingestion-free operators over 10^4 tuples in 3-d."""

    name = "bulk"
    tail_pct = 90.0
    # top_k and top_k_threshold pairs per distribution per round; with seven,
    # a round has 41 queries and its p90 falls among epsilon_skyline and
    # k_skyband, which cost about the same, rather than at the edge between
    # two operators of very different cost
    TOPK_WEIGHTS = 7
    # (big n, skyband/epsilon n, representative n, po n, top-k k, big pool, small pools)
    SIZES = {
        "full": (10_000, 2_000, 2_500, 1_500, 10, 3, 8),
        "toy": (400, 150, 120, 100, 5, 2, 2),
    }

    def setup(self) -> None:
        super().setup()
        S = self.S
        n, n_band, n_rep, n_po, self.k, big, small = self.SIZES[self.scale]
        base = 1000 * self.seed
        # rounds rotate through pools of datasets, so one run averages over
        # several draws of the data instead of resting on one
        self.big = {
            d: [S.generate(d, n, 3, base + 10 * i + j) for j in range(big)]
            for i, d in enumerate(DISTS)
        }
        self.band_ds = {d: S.generate(d, n_band, 3, base + 100 + i) for i, d in enumerate(DISTS)}
        self.rep = [S.generate("independent", n_rep, 3, base + 200 + j) for j in range(small)]
        self.po_ds = [S.generate("independent", n_po, 3, base + 300 + j) for j in range(small)]
        self.full = S.full_simplex(3)

    def warmup(self) -> None:
        S = self.S
        ds = S.generate("independent", 60, 3, 0)
        reg = _anchored_polytope(S, 3, np.random.default_rng(0), quad=True)
        S.skyline(ds)
        S.top_k(ds, (0.2, 0.3, 0.5), 3)
        S.top_k_threshold(ds, (0.2, 0.3, 0.5), 3)
        S.nd(ds, self.full)
        S.po(ds, reg)
        S.k_skyband(ds, 2)
        S.epsilon_skyline(ds, (0.2, 0.3, 0.5), 0.0)
        S.dominance_representative(ds, 2)
        S.distance_representative(ds, 2)

    def round(self, r: int, in_process: bool = True) -> list[Query]:
        S, rng, k = self.S, self.rng(r), self.k
        qs: list[Query] = []
        for dist in DISTS:
            ds = self.big[dist][r % len(self.big[dist])]
            qs.append(self.ask("skyline", "skyline", ds, check=self.is_skyline(ds)))
            for j in range(self.TOPK_WEIGHTS):
                w = _weights(rng, 3)
                key = f"topk-{dist}-{j}"
                qs.append(self.ask("top_k", "top_k", ds, w, k, check=self._topk(ds, w), key=key))
                qs.append(
                    self.ask(
                        "top_k_threshold", "top_k_threshold", ds, w, k,
                        check=self._threshold(ds, w, key),
                    )
                )
            qs.append(self.ask("nd.full", "nd", ds, self.full, check=self.is_skyline(ds)))
        ind = self.big["independent"][r % len(self.big["independent"])]
        reg = _anchored_polytope(S, 3, rng)
        qs.append(self.ask("nd.polytope", "nd", ind, reg, check=self.in_skyline(ind, "nd")))

        for j in range(2):
            ds = self.rep[(2 * r + j) % len(self.rep)]
            for fn in ("dominance_representative", "distance_representative"):
                qs.append(self.ask(fn, fn, ds, 5, check=self._rep(ds, 5)))

        anti, ind = self.band_ds["anticorrelated"], self.band_ds["independent"]
        qs.append(self.ask("k_skyband", "k_skyband", anti, 2, check=self._band_check(anti, 2)))
        w = _weights(rng, 3)
        eps = float(rng.uniform(-0.02, 0.01))
        qs.append(
            self.ask(
                "epsilon_skyline", "epsilon_skyline", ind, w, eps,
                check=self._eps_check(ind, w, eps),
            )
        )
        ds = self.po_ds[r % len(self.po_ds)]
        quad = _anchored_polytope(S, 3, rng, quad=True)
        qs.append(
            self.ask("nd.small", "nd", ds, quad, check=self.in_skyline(ds, "nd"), key="nd-small")
        )
        qs.append(self.ask("po", "po", ds, quad, check=self.chain(ds, "nd-small")))
        return qs

    def _topk(self, ds, w):
        def check(out, res):
            a, ids = self.arr(ds)
            return O.top_k_problem(a, ids, w, self.k, out.ids())

        return check

    def _threshold(self, ds, w, topk_key):
        def check(out, res):
            ranked, reads = out
            if ranked.entries != res[topk_key].entries:
                return "top_k_threshold differs from top_k"
            if not self.k <= reads <= len(ds):
                return f"read count {reads} outside [k, n]"
            a, ids = self.arr(ds)
            return O.top_k_problem(a, ids, w, self.k, ranked.ids())

        return check

    def _rep(self, ds, k):
        def check(out, res):
            sky = self.sky(ds)
            if len(out) != min(k, len(sky)) or len(set(out)) != len(out):
                return f"representative size {len(out)}, expected {min(k, len(sky))}"
            return O.subset_problem("representative", out, sky)

        return check

    def _band_check(self, ds, k):
        return lambda out, res: O.set_problem("k_skyband", out, self.band(ds, k))

    def _eps_check(self, ds, w, eps):
        def check(out, res):
            a, ids = self.arr(ds)
            keep = O.epsilon_survivors(a, np.asarray(w), eps)
            return O.set_problem("epsilon_skyline", out, {ids[i] for i in np.flatnonzero(keep)})

        return check


# ---------------------------------------------------------------------------


class Plane(Workload):
    """d = 2: every region is an interval of w1; bisection and arrangements."""

    name = "plane"
    tail_pct = 90.0
    # (ord n, oru n, utk n, nd/non_rho ball n, po ball n,
    #  datasets per pool of the large n, rounds the small-n pools cover)
    SIZES = {"full": (500, 30, 60, 1000, 200, 8, 16), "toy": (60, 12, 20, 80, 40, 2, 2)}
    UTK_WIDTHS = (0.2, 0.35)
    UTK2_PER_ROUND = 6

    def setup(self) -> None:
        super().setup()
        S = self.S
        n_ord, n_oru, n_utk, n_ball, n_po, big, small = self.SIZES[self.scale]
        base = 100_000 * self.seed

        def pools(n, offset, count):
            return {
                dist: [S.generate(dist, n, 2, base + offset + 1000 * i + j) for j in range(count)]
                for i, dist in enumerate(DISTS)
            }

        # rounds rotate through each pool, so a run averages over many datasets;
        # the small-n pools hold a dataset for every round a run makes, so the
        # queries whose cost varies most with the data (oru, utk2, po on a
        # ball) see a fresh draw in every round
        self.ord = pools(n_ord, 0, big)
        self.ball = pools(n_ball, 2000, big)
        self.oru = pools(n_oru, 4000, small)
        self.utk1_ds = [S.generate("independent", n_utk, 2, base + 6000 + j) for j in range(small)]
        self.utk2_ds = [
            S.generate("anticorrelated", n_utk, 2, base + 9000 + j)
            for j in range(self.UTK2_PER_ROUND * small)
        ]
        self.po_ball = pools(n_po, 8000, small)

    def warmup(self) -> None:
        S = self.S
        ds = S.generate("independent", 12, 2, 0)
        S.ord_query(ds, (0.4, 0.6), 1)
        S.oru_query(ds, (0.4, 0.6), 1)
        S.utk2(ds, 1, _interval(S, 0.3, 0.6))
        S.po(ds, S.ball_region((0.4, 0.6), 0.1))
        S.non_rho_dominated(ds, (0.4, 0.6), 0.1)

    def _envelope_size(self, ds) -> int:
        """A lower bound on |po(full simplex)|: distinct winners on a fine grid."""
        a, _ = self.arr(ds)
        t = np.linspace(0.0, 1.0, 4001)
        scores = np.outer(a[:, 0], t) + np.outer(a[:, 1], 1.0 - t)
        return len(np.unique(scores.argmin(axis=0)))

    def round(self, r: int, in_process: bool = True) -> list[Query]:
        S, rng = self.S, self.rng(r)
        qs: list[Query] = []
        # two weight vectors per (distribution, depth): eight ord queries, of a
        # cost between the cheap ball queries and utk2, so the round's median
        # falls inside a group of queries rather than at the edge of one. m
        # starts at 3: m <= k_depth is met at radius 0 without any bisection,
        # a query ten times cheaper that would split the group in two
        for dist, depth, _ in itertools.product(DISTS, (1, 2), range(2)):
            ds = _nth(self.ord[dist], r)
            w = _weights(rng, 2)
            cap = min(6, len(self.sky(ds)))
            m = int(rng.integers(min(3, cap), cap + 1))
            qs.append(
                self.ask(
                    f"ord.k{depth}", "ord_query", ds, w, m, k_depth=depth,
                    check=self.oss_check(ds, m, depth),
                )
            )
        for dist in DISTS:
            ds = _nth(self.oru[dist], r)
            w = _weights(rng, 2)
            m = int(rng.integers(1, min(3, self._envelope_size(ds)) + 1))
            qs.append(self.ask("oru", "oru_query", ds, w, m, check=self.oss_check(ds, m, 1)))

        # utk1(k=1) and po on one interval; then six utk2 queries, each on a
        # fresh dataset and interval of its own, k = 1, 2, 3 in turn, since the
        # cost of utk2 swings with the data and the interval; the interval
        # width alternates between narrow and wide, since it sets most of that cost
        ds_u = _nth(self.utk1_ds, r)
        lo = float(rng.uniform(0.05, 0.95 - self.UTK_WIDTHS[0]))
        reg = _interval(S, lo, lo + self.UTK_WIDTHS[0])
        qs.append(self.ask("utk1.k1", "utk1", ds_u, 1, reg, check=self._utk1_check()))
        qs.append(
            self.ask("po.interval", "po", ds_u, reg, check=self._po_interval(ds_u), key="po-int")
        )
        for j in range(self.UTK2_PER_ROUND):
            ds_a = _nth(self.utk2_ds, self.UTK2_PER_ROUND * r + j)
            width = self.UTK_WIDTHS[j % len(self.UTK_WIDTHS)]
            lo = float(rng.uniform(0.05, 0.95 - width))
            k = 1 + j % 3
            qs.append(self.ask(f"utk2.k{k}", "utk2", ds_a, k, _interval(S, lo, lo + width),
                               check=self._utk2_check(ds_a, k)))

        for dist in DISTS:
            w = _weights(rng, 2)
            rho = float(rng.uniform(0.05, 0.3))
            ball = S.ball_region(w, rho)
            # po on a ball runs an O(m^2) crossing scan per candidate in 2-d,
            # so it gets the smaller dataset
            ds = _nth(self.po_ball[dist], r)
            key = f"nd-small-{dist}"
            qs.append(self.ask("nd.ball", "nd", ds, ball, check=self.in_skyline(ds, "nd"), key=key))
            qs.append(self.ask("po.ball", "po", ds, ball, check=self.chain(ds, key)))
            ds = _nth(self.ball[dist], r)
            nd_key, nr_key = f"nd-{dist}", f"nonrho-{dist}"
            qs.append(
                self.ask("nd.ball", "nd", ds, ball, check=self.in_skyline(ds, "nd"), key=nd_key)
            )
            qs.append(
                self.ask(
                    "non_rho_dominated", "non_rho_dominated", ds, w, rho,
                    check=self._same_as(nd_key),
                )
            )
        return qs

    def _utk1_check(self):
        def check(out, res):
            if not out.exact:
                return "2-d utk1 reported a sampled answer"
            return O.set_problem("utk1(k=1) vs po", out.ids, res["po-int"])

        return check

    def _po_interval(self, ds):
        return lambda out, res: O.subset_problem("po", out, self.sky(ds))

    def _utk2_check(self, ds, k):
        def check(out, res):
            a, ids = self.arr(ds)
            for cell in out:
                if not cell.exact or cell.lo is None:
                    return "2-d utk2 reported a sampled cell"
                bad = O.cell_problem(a, ids, cell.lo, cell.hi, k, cell.label)
                if bad:
                    return bad
            return None

        return check

    def _same_as(self, key):
        return lambda out, res: O.set_problem("non_rho_dominated vs nd(ball)", out, res[key])


# ---------------------------------------------------------------------------


class Solver(Workload):
    """d = 3 and 4: ball regions through SLSQP, polytopes through linprog."""

    name = "solver"
    tail_pct = 90.0
    POOL_SEED = 2022
    # (ball n at d=3 and 4, datasets per ball per round at d=3 and 4,
    #  polytope n, non_rho n, ord/oru n, utk n at d=3 and 4, rounds the pools cover)
    SIZES = {
        "full": ((10, 8), (3, 2), 600, 8, 4, (60, 30), 6),
        "toy": ((10, 8), (1, 1), 60, 6, 4, (12, 6), 2),
    }
    # balls in the region pool per dimension, and the skyline sizes of the
    # ball datasets, in turn
    BALLS = {3: 8, 4: 4}
    BALL_SKYLINES = (4, 5, 6, 7)

    def setup(self) -> None:
        super().setup()
        S = self.S
        n_ball, self.reps, n_poly, n_nr, n_oss, n_utk, rounds = self.SIZES[self.scale]
        base = 100_000 * self.seed

        def gen(n, d, offset, count):
            return [S.generate("independent", n, d, base + offset + j) for j in range(count)]

        # Every ball query of a run gets a dataset of its own, drawn from the
        # seed. The cost of nd and po on a ball grows with the skyline of the
        # dataset (one SLSQP pair per skyline tuple and candidate), and at
        # n = 10 that skyline ranges from 1 to 9 tuples, so the datasets are
        # stratified: the k-th ball dataset of a round is the first draw whose
        # skyline has BALL_SKYLINES[k % 4] tuples. Every round then has the
        # same mix of skyline sizes and the runs of different seeds agree.
        self.ball_ds = {}
        for d, n, reps in zip((3, 4), n_ball, self.reps):
            slots = self.BALLS[d] * reps
            self.ball_ds[d] = [
                S.generate("independent", n, d, _seed_with_skyline(
                    n, d, self.BALL_SKYLINES[k % len(self.BALL_SKYLINES)],
                    100 * base + 1_000_000 * d + 1000 * k,
                ))
                for k in range(slots * rounds)
            ]
        self.poly_ds = {d: gen(n_poly, d, 100 * d, rounds) for d in (3, 4)}
        self.nr_ds = gen(n_nr, 3, 500, rounds)
        self.oss_ds = {d: gen(n_oss, d, 600 + 100 * d, 32) for d in (3, 4)}
        self.utk_ds = {
            d: S.generate("independent", n, d, base + 2000 + d) for d, n in zip((3, 4), n_utk)
        }
        # one fixed pool of 28 regions that every run reuses, so it fits the
        # vertex cache: balls reaching past the simplex boundary (so SLSQP
        # runs; 8 at d=3, 4 at d=4), 4 polytopes and 4 small boxes
        # w_i <= p_i + 0.06 per dimension, the boxes for the sampled utk,
        # which labels every lattice point inside its region
        rng = np.random.default_rng(self.POOL_SEED)
        self.balls, self.polys, self.boxes = {}, {}, {}
        for d in (3, 4):
            self.balls[d] = [
                (_weights(rng, d), float(rng.uniform(0.2, 0.45))) for _ in range(self.BALLS[d])
            ]
            self.polys[d] = [_anchored_polytope(S, d, rng) for _ in range(4)]
            self.boxes[d] = []
            for _ in range(4):
                p = rng.dirichlet(np.ones(d) * 3.0)
                cons = tuple(
                    S.LinearConstraint(tuple(float(i == j) for j in range(d)), float(p[i]) + 0.06)
                    for i in range(d)
                )
                self.boxes[d].append(S.WeightRegion(d, cons))

    def warmup(self) -> None:
        S = self.S
        for d in (3, 4):
            ds = S.generate("independent", 20, d, 0)
            w = tuple([1.0 / d] * d)
            S.po(ds, S.ball_region(w, 0.4))
            S.po(ds, _anchored_polytope(S, d, np.random.default_rng(0)))
        S.ord_query(S.generate("independent", 4, 3, 0), (0.3, 0.3, 0.4), 1)

    def _po_full_lower(self, ds) -> int:
        """A lower bound on |po(full simplex)|: distinct winners at sampled weights."""
        a, _ = self.arr(ds)
        w = np.random.default_rng(0).dirichlet(np.ones(ds.dim), 4000)
        return len(np.unique((a @ w.T).argmin(axis=0)))

    def round(self, r: int, in_process: bool = True) -> list[Query]:
        S, rng = self.S, self.rng(r)
        qs: list[Query] = []
        for d, reps in zip((3, 4), self.reps):
            pool = self.ball_ds[d]
            for i, (c, rho) in enumerate(self.balls[d]):
                ball = S.ball_region(c, rho)
                for j in range(reps):
                    ds = pool[((r * len(self.balls[d]) + i) * reps + j) % len(pool)]
                    key = f"nd-ball-{d}-{i}-{j}"
                    qs.append(self.ask(f"nd.ball.d{d}", "nd", ds, ball,
                                       check=self.in_skyline(ds, "nd"), key=key))
                    qs.append(self.ask(f"po.ball.d{d}", "po", ds, ball,
                                       check=self.chain(ds, key)))
            ds = self.poly_ds[d][r % len(self.poly_ds[d])]
            poly = self.polys[d][r % len(self.polys[d])]
            key = f"nd-polytope-{d}"
            qs.append(self.ask(f"nd.polytope.d{d}", "nd", ds, poly,
                               check=self.in_skyline(ds, "nd"), key=key))
            qs.append(self.ask(f"po.polytope.d{d}", "po", ds, poly, check=self.chain(ds, key)))
        c, rho = self.balls[3][r % len(self.balls[3])]
        nr_ds = self.nr_ds[r % len(self.nr_ds)]
        qs.append(
            self.ask(
                "non_rho_dominated", "non_rho_dominated", nr_ds, c, rho,
                check=self.in_skyline(nr_ds, "non_rho_dominated"),
            )
        )
        for op, fn, d in (("ord", "ord_query", 3), ("oru", "oru_query", 4)):
            ds = self.oss_ds[d][r % len(self.oss_ds[d])]
            cap = len(self.sky(ds)) if op == "ord" else self._po_full_lower(ds)
            m = min(2, cap)
            qs.append(self.ask(op, fn, ds, _weights(rng, d), m, check=self.oss_check(ds, m, 1)))
        for d in (3, 4):
            ds, box = self.utk_ds[d], self.boxes[d][r % len(self.boxes[d])]
            qs.append(
                self.ask(f"utk1.sampled.d{d}", "utk1", ds, 2, box, check=self._utk_sampled(ds, 2))
            )
        return qs

    def _utk_sampled(self, ds, k):
        """Invariants only, so an exact answer from a later version passes too."""

        def check(out, res):
            if len(out.ids) < min(k, len(ds)):
                return f"utk1 returned {len(out.ids)} ids, fewer than k"
            return O.subset_problem("utk1 in k-skyband", out.ids, self.band(ds, k))

        return check


# ---------------------------------------------------------------------------

_WRITE_INPUTS = """
import sys
from skyselect import generate, write_csv
for spec in sys.argv[1:]:
    dist, n, d, seed, path = spec.split(":")
    write_csv(generate(dist, int(n), int(d), int(seed)), path)
"""


def _id_list(text: str) -> list[str]:
    """The ids of a one-line CSV answer."""
    return [t for t in text.strip().split(",") if t]


@dataclass
class CliOut:
    code: int
    out: str
    err: str
    maxrss_kb: int = 0


class Cli(Workload):
    """``python -m skyselect`` subprocesses, one at a time, on CSV files.

    The untraced loop never imports the package into this process, so the
    memory of each child is its own.
    """

    name = "cli"
    # a run has about 22 requests of about 1 s each, so p90 would be the
    # second- or third-slowest request; p75 has five or six beyond it
    tail_pct = 75.0
    # (big n, mid n, ord n, utk n, compare n)
    SIZES = {"full": (10_000, 2_000, 200, 60, 40), "toy": (300, 100, 30, 15, 12)}
    TIMEOUT_S = 120.0

    def setup(self) -> None:
        n_big, n_mid, n_ord, n_utk, n_cmp = self.SIZES[self.scale]
        self.dir = os.path.join(self.root, ".perfbench_runs", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        base = 1000 * self.seed
        self.files = {
            "big": ("independent", n_big, 3, base + 1),
            "mid": ("independent", n_mid, 3, base + 2),
            "ord": ("anticorrelated", n_ord, 2, base + 3),
            "utk": ("independent", n_utk, 2, base + 4),
            "cmp": ("anticorrelated", n_cmp, 2, base + 5),
        }
        specs = [f"{d}:{n}:{k}:{s}:{self.path(name)}" for name, (d, n, k, s) in self.files.items()]
        done = subprocess.run(
            [sys.executable, "-c", _WRITE_INPUTS, *specs],
            env=self.env(), cwd=self.root, capture_output=True, text=True,
            timeout=self.TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"writing the input CSVs failed: {done.stderr.strip()}")
        self.data = {}
        for name in self.files:
            raw = np.loadtxt(self.path(name), delimiter=",", skiprows=1, dtype=str, ndmin=2)
            self.data[name] = (raw[:, 1:].astype(float), list(raw[:, 0]))
        self.main = None

    def path(self, name: str) -> str:
        return os.path.join(self.dir, f"{name}.csv")

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        return env

    def warmup(self) -> None:
        self._subprocess(["query", "skyline", "--data", self.path("cmp")])

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- issuing requests -----------------------------------------------------

    def _subprocess(self, argv: list[str]) -> CliOut:
        out_path = os.path.join(self.dir, "stdout.txt")
        err_path = os.path.join(self.dir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "skyselect", *argv],
                stdout=out, stderr=err, env=self.env(), cwd=self.root,
            )
            timer = threading.Timer(self.TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            err_text = fh.read()
        return CliOut(proc.returncode, text, err_text, usage.ru_maxrss)

    def _in_process(self, argv: list[str]) -> CliOut:
        import contextlib
        import io

        if self.main is None:
            self.main = importlib.import_module("skyselect.cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.main.main(argv)
        return CliOut(code, out.getvalue(), err.getvalue())

    # -- the mix ----------------------------------------------------------------

    def round(self, r: int, in_process: bool = False) -> list[Query]:
        rng = self.rng(r)
        run = self._in_process if in_process else self._subprocess
        q = lambda op, argv, check: Query(op, lambda: run(argv), self._exit_ok(check))  # noqa: E731
        big, mid = self.path("big"), self.path("mid")
        w3 = _weights(rng, 3)
        wtxt = ",".join(repr(x) for x in w3)
        region = os.path.join(self.dir, f"region-{r}.txt")
        self._write_region(region, rng)
        eps = float(rng.uniform(-0.02, 0.01))
        w_ord = _weights(rng, 2)
        a_ord, ids_ord = self.data["ord"]
        m = int(rng.integers(1, min(5, int(O.skyline_mask(a_ord).sum())) + 1))
        lo = float(rng.uniform(0.05, 0.55))
        interval = os.path.join(self.dir, f"interval-{r}.txt")
        with open(interval, "w", encoding="utf-8") as fh:
            fh.write(f"w1 >= {lo!r}\nw1 <= {lo + float(rng.uniform(0.15, 0.4))!r}\n")
        gen_seed = int(rng.integers(1 << 30))
        gen_out = os.path.join(self.dir, f"generated-{r}.csv")
        return [
            q("query.skyline", ["query", "skyline", "--data", big],
              self._ids_equal("big", O.skyline_mask)),
            q("query.topk", ["query", "topk", "--k", "10", "--weights", wtxt, "--data", big],
              self._topk("big", w3, 10)),
            q("query.nd", ["query", "nd", "--region", region, "--data", big],
              self._in_skyline("big")),
            q("query.skyband", ["query", "skyband", "--k", "2", "--data", mid],
              self._ids_equal("mid", lambda a: O.dominator_counts(a) < 2)),
            q("query.eskyline",
              # "--eps=" form: argparse reads a separate "-1e-05" token as an option
              ["query", "eskyline", "--normalize", f"--eps={eps!r}", "--weights", wtxt,
               "--data", mid],
              self._ids_equal(
                  "mid", lambda a: O.epsilon_survivors(O.minmax(a), np.asarray(w3), eps)
              )),
            q("query.ord",
              ["query", "ord", "--m", str(m), "--weights", ",".join(repr(x) for x in w_ord),
               "--format", "json", "--data", self.path("ord")],
              self._ord(m)),
            q("query.utk2",
              ["query", "utk2", "--k", "2", "--region", interval, "--format", "json",
               "--data", self.path("utk")],
              self._utk2(2)),
            q("generate",
              ["generate", "--dist", "anticorrelated", "--n", "2000", "--d", "3",
               "--seed", str(gen_seed), "--out", gen_out],
              self._generated(gen_out, "anticorrelated", 2000, 3, gen_seed)),
            q("compare", ["compare", "--data", self.path("cmp")], self._compare()),
            q("query.po", ["query", "po", "--region", interval, "--data", self.path("utk")],
              self._in_skyline("utk")),
            q("query.repdist", ["query", "repdist", "--k", "5", "--data", self.path("ord")],
              self._representatives("ord", 5)),
        ]

    def _write_region(self, path: str, rng) -> None:
        p = rng.dirichlet(np.ones(3) * 3.0)
        lines = []
        for _ in range(int(rng.integers(1, 4))):
            c = rng.normal(size=3)
            terms = " + ".join(f"{float(x)!r} w{i + 1}" for i, x in enumerate(c))
            lines.append(f"{terms} <= {float(c @ p) + 0.02!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    # -- checks -------------------------------------------------------------------

    @staticmethod
    def _exit_ok(check):
        def wrapped(out: CliOut, res):
            if out.code != 0:
                return f"exit code {out.code}: {out.err.strip()[:200]}"
            return check(out.out)

        return wrapped

    def _ids_equal(self, name, mask_fn):
        def check(text):
            a, ids = self.data[name]
            want = {ids[i] for i in np.flatnonzero(mask_fn(a))}
            return O.set_problem(name, _id_list(text), want)

        return check

    def _topk(self, name, w, k):
        def check(text):
            a, ids = self.data[name]
            got = [line.split(",")[0] for line in text.strip().splitlines()]
            return O.top_k_problem(a, ids, w, k, got)

        return check

    def _in_skyline(self, name):
        def check(text):
            a, ids = self.data[name]
            sky = {ids[i] for i in np.flatnonzero(O.skyline_mask(a))}
            return O.subset_problem("result in skyline", _id_list(text), sky)

        return check

    def _representatives(self, name, k):
        def check(text):
            a, ids = self.data[name]
            sky = {ids[i] for i in np.flatnonzero(O.skyline_mask(a))}
            got = _id_list(text)
            if len(got) != min(k, len(sky)) or len(set(got)) != len(got):
                return f"representative size {len(got)}, expected {min(k, len(sky))}"
            return O.subset_problem("representative", got, sky)

        return check

    def _ord(self, m):
        def check(text):
            out = json.loads(text)
            a, ids = self.data["ord"]
            sky = {ids[i] for i in np.flatnonzero(O.skyline_mask(a))}
            return O.oss_problem(out["ids"], out["rhoStar"], m, sky)

        return check

    def _utk2(self, k):
        def check(text):
            out = json.loads(text)
            a, ids = self.data["utk"]
            for cell in out["cells"]:
                if cell["kind"] != "exactInterval" or not cell["exact"]:
                    return "2-d utk2 reported a sampled cell"
                bad = O.cell_problem(a, ids, cell["lo"], cell["hi"], k, cell["ids"])
                if bad:
                    return bad
            return None

        return check

    def _generated(self, path, dist, n, d, seed):
        def check(text):
            raw = np.loadtxt(path, delimiter=",", skiprows=1, dtype=str, ndmin=2)
            if list(raw[:, 0]) != [str(i + 1) for i in range(n)]:
                return "generated ids are not 1..n"
            if not np.array_equal(raw[:, 1:].astype(float), O.generated(dist, n, d, seed)):
                return "generated values differ from the documented generator"
            return None

        return check

    def _compare(self):
        def check(text):
            a, _ = self.data["cmp"]
            sky = int(O.skyline_mask(O.minmax(a)).sum())
            lines = text.strip().splitlines()
            if not lines or not lines[-1].endswith(": OK"):
                return "compare reported no containment verdict"
            if not lines[0].startswith(f"Skyline: cardinality {sky} "):
                return f"compare skyline line {lines[0]!r}, expected {sky}"
            return None

        return check


WORKLOADS = {cls.name: cls for cls in (Bulk, Plane, Solver, Cli)}


def make(name: str, seed: int, scale: str, root: str) -> Workload:
    return WORKLOADS[name](seed, scale, root)

