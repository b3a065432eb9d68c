"""Out-of-program layer tracing for skyselect.

The benchmark never edits the package. Instead :class:`Tracer` rebinds every
public function of every ``skyselect`` module at each place the name is
bound (the defining module, every module that imported it, and the package
namespace), so internal calls are recorded as well as the benchmark's own.
Three more hooks cover what plain functions miss:

* ``Dataset.attr_array`` is wrapped on the class;
* ``regions.optimize`` (the ``scipy.optimize`` module object that
  ``regions`` calls) is replaced by a proxy that records each ``minimize``
  and ``linprog`` call as a ``solver.*`` span and reads the result's
  ``success``/``status``/``nit``;
* the ``lru_cache`` statistics of ``regions._vertices_cached`` are read
  before and after the traced pass.

Spans (name, request, parent, start, end) are kept in memory in flat arrays
and written out once, when the run ends. Wrapped names that do not exist in
the package being measured are reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array

import numpy as np

MODULES = (
    "dataset",
    "queries",
    "regions",
    "flexible",
    "oss",
    "utk",
    "epsilon",
    "representative",
    "cli",
)

# Called millions of times by the representative operators; a span per call
# would cost more than the call itself, so only the count is kept and the
# time stays with the caller.
COUNT_ONLY = {"queries.pareto_dominates"}

# Names the per-layer metrics depend on; missing ones are reported absent.
EXPECTED = (
    "dataset.attr_array",
    "dataset.generate",
    "dataset.load_csv",
    "dataset.normalize",
    "dataset.write_csv",
    "queries.skyline",
    "queries.k_skyband",
    "queries.top_k",
    "queries.top_k_threshold",
    "queries.pareto_dominates",
    "regions.linear_range",
    "regions.exists_weak_optimum",
    "regions.region_vertices",
    "regions.region_interval_d2",
    "regions.find_feasible_point",
    "regions.grid_sample",
    "regions.ball_region",
    "regions.optimize",
    "regions._vertices_cached",
    "flexible.f_dominates",
    "flexible.nd",
    "flexible.po",
    "oss.ord_query",
    "oss.oru_query",
    "utk.utk2",
    "utk.order_breakpoints",
    "epsilon.epsilon_skyline",
    "representative.dominance_representative",
    "representative.distance_representative",
    "cli.main",
)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_request = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.request = -1
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._cache_before = None
        self._cache_fn = None
        self._last_nd_size: int | None = None

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_request.append(self.request)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, owner: str, observe=None):
        tracer = self
        via = f"{name}@{owner}"
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.count(name + ".calls")
                return fn(*args, **kwargs)

            return counted
        nid = self._name_id(name)
        reset = name == "flexible.po"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tracer.count(via)
            if reset:
                # po's candidate count comes from the nd call it makes itself
                tracer._last_nd_size = None
            idx = tracer._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return spanned

    # -- observers: counts read from arguments and results ------------------

    def _observers(self) -> dict:
        def top_k_threshold(args, kwargs, out):
            self.count("queries.top_k_threshold.read", out[1])
            self.count("queries.top_k_threshold.n", len(args[0]))

        def nd(args, kwargs, out):
            self._last_nd_size = len(out)

        def po(args, kwargs, out):
            strict = kwargs.get("strict", args[2] if len(args) > 2 else True)
            candidates = self._last_nd_size if strict else len(args[0])
            self.count("flexible.po.kept", len(out))
            self.count("flexible.po.candidates", candidates or 0)

        def grid_sample(args, kwargs, out):
            self.count("regions.grid_sample.points", len(out))

        def order_breakpoints(args, kwargs, out):
            self.count("utk.breakpoints", len(out))

        def utk2(args, kwargs, out):
            self.count("utk.cells", len(out))

        return {
            "queries.top_k_threshold": top_k_threshold,
            "flexible.nd": nd,
            "flexible.po": po,
            "regions.grid_sample": grid_sample,
            "utk.order_breakpoints": order_breakpoints,
            "utk.utk2": utk2,
        }

    # -- installing and removing --------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, clear_cache: bool = False) -> None:
        """Rebind every public function of the package at every binding site.

        ``clear_cache`` empties the vertex cache first, so a pass that repeats
        earlier queries starts from the state a fresh process would have.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("skyselect")
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"skyselect.{short}")
            except ImportError:
                continue
        owners = [("skyselect", pkg)] + list(mods.items())
        observers = self._observers()
        present = set()
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                present.add(name)
                for owner_name, owner in owners:
                    for bound, value in list(vars(owner).items()):
                        if value is fn:
                            self._set(
                                owner,
                                bound,
                                self._wrap(fn, name, owner_name, observers.get(name)),
                            )
        dataset = mods.get("dataset")
        ds_cls = getattr(dataset, "Dataset", None)
        if ds_cls is not None and hasattr(ds_cls, "attr_array"):
            present.add("dataset.attr_array")
            self._set(
                ds_cls,
                "attr_array",
                self._wrap(ds_cls.attr_array, "dataset.attr_array", "dataset"),
            )
        regions = mods.get("regions")
        if regions is not None and hasattr(regions, "optimize"):
            present.add("regions.optimize")
            self._set(regions, "optimize", _OptimizeProxy(regions.optimize, self))
        cached = getattr(regions, "_vertices_cached", None)
        if cached is not None and hasattr(cached, "cache_info"):
            present.add("regions._vertices_cached")
            if clear_cache:
                cached.cache_clear()
            self._cache_fn = cached
            self._cache_before = cached.cache_info()
        self.absent = sorted(set(EXPECTED) - present)

    def remove(self) -> None:
        """Restore every rebound name, in reverse order of patching."""
        if self._cache_fn is not None:
            after = self._cache_fn.cache_info()
            self.count("regions.vertices.hits", after.hits - self._cache_before.hits)
            self.count("regions.vertices.misses", after.misses - self._cache_before.misses)
            self._cache_fn = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    # -- results -------------------------------------------------------------

    def self_times(self, first_request: int = 0) -> tuple[dict, dict, float]:
        """Per-name (calls, self seconds) and total root-span seconds.

        Only spans of requests numbered ``first_request`` or above count.
        Self time is a span's duration minus its direct children's
        durations; in one thread children never overlap.
        """
        if not len(self.span_start):
            return {}, {}, 0.0
        start = np.frombuffer(self.span_start, dtype=float)
        end = np.frombuffer(self.span_end, dtype=float)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        req = np.frombuffer(self.span_request, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        keep = req >= first_request
        calls = np.bincount(name[keep], minlength=len(self.names))
        selfs = np.bincount(name[keep], weights=own[keep], minlength=len(self.names))
        root = float(dur[keep & ~has_parent].sum())
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(selfs[i]) for i, n in enumerate(self.names)},
            root,
        )

    def write(self, path: str) -> None:
        """Write every span as gzip TSV: name, request, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\trequest\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_request[i]}\t"
                    f"{self.span_parent[i]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\n"
                )


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``skyselect.regions``."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer
        self._slsqp = tracer._name_id("solver.slsqp")
        self._minimize = tracer._name_id("solver.minimize")
        self._linprog = tracer._name_id("solver.linprog")

    def minimize(self, *args, **kwargs):
        method = str(kwargs.get("method", "")).upper()
        tracer = self._tracer
        key = "solver.slsqp" if method == "SLSQP" else "solver.minimize"
        idx = tracer._enter(self._slsqp if method == "SLSQP" else self._minimize)
        try:
            res = self._real.minimize(*args, **kwargs)
        finally:
            tracer._exit(idx)
        tracer.count(key + ".iterations", int(getattr(res, "nit", 0) or 0))
        if not getattr(res, "success", False):
            tracer.count(key + ".unsuccessful")
        return res

    def linprog(self, *args, **kwargs):
        tracer = self._tracer
        idx = tracer._enter(self._linprog)
        try:
            res = self._real.linprog(*args, **kwargs)
        finally:
            tracer._exit(idx)
        if getattr(res, "status", None) != 0:
            tracer.count("solver.linprog.nonoptimal")
        return res

    def __getattr__(self, attr):
        return getattr(self._real, attr)
