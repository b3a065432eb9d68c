"""Run one workload in this (fresh) interpreter and print one JSON line.

``run.py`` starts this file; it is not meant to be called by hand. The
untraced mode times a closed loop of whole rounds for ``--seconds`` of busy
time and reports end-to-end figures. The traced mode runs the same loop
untraced for half the time, then as many rounds again with the tracer's
wrappers installed, and reports per-layer figures plus the tracing overhead.
Answers are checked after all timing, with the wrappers removed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import tracing
import workloads

LAYERS = (
    "dataset",
    "queries",
    "regions",
    "solver",
    "flexible",
    "oss",
    "utk",
    "epsilon",
    "representative",
    "cli",
)


@dataclass
class Record:
    query: workloads.Query
    round: int
    seconds: float
    out: object = None
    error: str | None = None


def run_rounds(wl, first: int, *, budget_s=None, rounds=None, in_process=True, tracer=None):
    """Closed loop, one client: issue each query after the previous returns.

    Stops after ``rounds`` rounds, or at the round boundary nearest to
    ``budget_s`` of busy time: it starts another round only while that round
    is expected to end closer to the budget. Inputs of a round are drawn
    before its first query is timed.
    """
    records: list[Record] = []
    busy = 0.0
    r = first
    while True:
        for q in wl.round(r, in_process):
            if tracer is not None:
                tracer.request = len(records)
            t = time.perf_counter()
            try:
                out, err = q.call(), None
            except Exception as exc:  # a failed request is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            busy += dt
            records.append(Record(q, r, dt, out, err))
        r += 1
        if rounds is not None and r - first >= rounds:
            break
        if budget_s is not None and busy + 0.5 * busy / (r - first) >= budget_s:
            break
    return records, r - first, busy


def check_all(records: list[Record]) -> list[str]:
    """Judge every answer against its oracle or its round's invariants."""
    by_round: dict[int, dict] = {}
    for rec in records:
        if rec.query.key and rec.error is None:
            by_round.setdefault(rec.round, {})[rec.query.key] = rec.out
    problems = []
    for rec in records:
        if rec.error is not None:
            problems.append(f"{rec.query.op} (round {rec.round}): {rec.error}")
            continue
        try:
            bad = rec.query.check(rec.out, by_round.get(rec.round, {}))
        except Exception as exc:
            bad = f"check raised {type(exc).__name__}: {exc}"
        if bad:
            problems.append(f"{rec.query.op} (round {rec.round}): {bad}")
    return problems


def latency_summary(records: list[Record], tail_pct: float) -> dict:
    lat = np.array([r.seconds for r in records]) * 1000.0
    by_op: dict[str, list[float]] = {}
    for rec in records:
        by_op.setdefault(rec.query.op, []).append(rec.seconds * 1000.0)
    tail = float(np.percentile(lat, tail_pct))
    return {
        "p50_ms": float(np.percentile(lat, 50)),
        "tail_ms": tail,
        "tail_pct": tail_pct,
        "samples": int(lat.size),
        "beyond_tail": int((lat > tail).sum()),
        "by_op_median_ms": {op: statistics.median(v) for op, v in sorted(by_op.items())},
        "slowest": sorted(((rec.seconds * 1000.0, rec.query.op) for rec in records), reverse=True)[
            : 2 * int(lat.size - lat.size * tail_pct / 100.0) + 2
        ],
        "all": [(rec.query.op, rec.round, rec.seconds * 1000.0) for rec in records],
    }


def _median_subprocess_ms(argv: list[str], env: dict, cwd: str, times: int = 3) -> float:
    vals = []
    for _ in range(times):
        t = time.perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, check=True, capture_output=True, timeout=120)
        vals.append((time.perf_counter() - t) * 1000.0)
    return statistics.median(vals)


def layer_metrics(tracer: tracing.Tracer, rounds: int, setup_self: dict, extra: dict) -> dict:
    """Per-layer figures of the traced pass, counts and times per round."""
    calls, self_s, root_s = tracer.self_times(first_request=0)
    c = tracer.counters

    def per_round(x: float) -> float:
        return x / rounds

    def ms(name: str) -> float:
        return per_round(self_s.get(name, 0.0) * 1000.0)

    def n(name: str) -> float:
        return per_round(calls.get(name, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "dataset.attr_array.calls": n("dataset.attr_array"),
        "dataset.attr_array.self_ms": ms("dataset.attr_array"),
        "dataset.generate.self_ms": setup_self.get("dataset.generate", 0.0) * 1000.0,
        "dataset.load_csv.self_ms": ms("dataset.load_csv"),
        "dataset.normalize.self_ms": ms("dataset.normalize"),
        "dataset.write_csv.self_ms": ms("dataset.write_csv"),
        "queries.skyline.calls": n("queries.skyline"),
        "queries.skyline.self_ms": ms("queries.skyline"),
        "queries.k_skyband.self_ms": ms("queries.k_skyband"),
        "queries.top_k.calls": n("queries.top_k"),
        "queries.top_k.self_ms": ms("queries.top_k"),
        "queries.top_k_threshold.read_frac": ratio(
            c.get("queries.top_k_threshold.read", 0.0), c.get("queries.top_k_threshold.n", 0.0)
        ),
        "epsilon.epsilon_skyline.self_ms": ms("epsilon.epsilon_skyline"),
        "flexible.nd.self_ms": ms("flexible.nd"),
        "flexible.po.self_ms": ms("flexible.po"),
        "flexible.po.yield": ratio(
            c.get("flexible.po.kept", 0.0), c.get("flexible.po.candidates", 0.0)
        ),
        "flexible.f_dominates.calls": n("flexible.f_dominates"),
        "flexible.f_dominates.self_ms": ms("flexible.f_dominates"),
        "regions.linear_range.calls": n("regions.linear_range"),
        "regions.linear_range.self_ms": ms("regions.linear_range"),
        "regions.exists_weak_optimum.calls": n("regions.exists_weak_optimum"),
        "regions.exists_weak_optimum.self_ms": ms("regions.exists_weak_optimum"),
        "regions.region_vertices.calls": n("regions.region_vertices"),
        "regions.vertices.cache_hit_ratio": ratio(
            c.get("regions.vertices.hits", 0.0),
            c.get("regions.vertices.hits", 0.0) + c.get("regions.vertices.misses", 0.0),
        ),
        "regions.region_interval_d2.calls": n("regions.region_interval_d2"),
        "regions.find_feasible_point.self_ms": ms("regions.find_feasible_point"),
        "regions.grid_sample.points": per_round(c.get("regions.grid_sample.points", 0.0)),
        "solver.slsqp.calls": n("solver.slsqp"),
        "solver.slsqp.self_ms": ms("solver.slsqp"),
        "solver.slsqp.iterations": per_round(c.get("solver.slsqp.iterations", 0.0)),
        "solver.slsqp.unsuccessful": per_round(c.get("solver.slsqp.unsuccessful", 0.0)),
        "solver.linprog.calls": n("solver.linprog"),
        "solver.linprog.self_ms": ms("solver.linprog"),
        "solver.linprog.nonoptimal": per_round(c.get("solver.linprog.nonoptimal", 0.0)),
        "oss.ord_query.self_ms": ms("oss.ord_query"),
        "oss.oru_query.self_ms": ms("oss.oru_query"),
        "oss.radius_probes": per_round(c.get("regions.ball_region@oss", 0.0)),
        "utk.utk2.self_ms": ms("utk.utk2"),
        "utk.order_breakpoints.self_ms": ms("utk.order_breakpoints"),
        "utk.breakpoints": per_round(c.get("utk.breakpoints", 0.0)),
        "utk.labels_per_cell": ratio(c.get("queries.top_k@utk", 0.0), c.get("utk.cells", 0.0)),
        "representative.dominance_representative.self_ms": ms(
            "representative.dominance_representative"
        ),
        "representative.distance_representative.self_ms": ms(
            "representative.distance_representative"
        ),
        "representative.pareto_dominates.calls": per_round(
            c.get("queries.pareto_dominates.calls", 0.0)
        ),
        "cli.import_ms": extra.get("cli.import_ms", 0.0),
        "cli.interpreter_ms": extra.get("cli.interpreter_ms", 0.0),
        "cli.main.self_ms": ms("cli.main"),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, secs in self_s.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += secs
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = ratio(layer_self[layer], root_s)
    out["trace.overhead_ratio"] = extra["trace.overhead_ratio"]
    return out


def machine() -> dict:
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--root", required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, args.scale, args.root)
    in_process = args.workload != "cli"
    tracer = tracing.Tracer() if args.trace else None
    setup_self: dict = {}
    try:
        if tracer is not None and in_process:
            tracer.install()
            try:
                wl.setup()
            finally:
                tracer.remove()
            _, setup_self, _ = tracer.self_times(first_request=-1)
        else:
            wl.setup()
        wl.warmup()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        result: dict = {"setup_s": setup_s, "machine": machine()}
        if not args.trace:
            records, rounds, busy = run_rounds(
                wl, 0, budget_s=args.seconds, in_process=in_process
            )
            if in_process:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:  # the largest cli child
                peak_kb = max((rec.out.maxrss_kb for rec in records if rec.out), default=0)
            result.update(
                rounds=rounds,
                busy_s=busy,
                queries_per_s=len(records) / busy,
                peak_rss_mb=peak_kb / 1024.0,
                worker_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                latency=latency_summary(records, wl.tail_pct),
            )
        else:
            # both passes run in-process (on cli, through cli.main), so import
            # the cli module first rather than inside the first timed request
            importlib.import_module("skyselect.cli")
            records, rounds, busy = run_rounds(wl, 0, budget_s=args.seconds / 2.0)
            # the traced pass repeats the same rounds from an empty vertex cache,
            # so its cost compares with the untraced pass query for query
            tracer.install(clear_cache=True)
            patched = tracer.patched()
            try:
                traced, _, busy_t = run_rounds(wl, 0, rounds=rounds, tracer=tracer)
            finally:
                tracer.remove()
            restored = all(getattr(owner, attr) is orig for owner, attr, orig in patched)
            extra = {"trace.overhead_ratio": busy_t / busy - 1.0}
            if not in_process:
                env = wl.env()
                extra["cli.interpreter_ms"] = _median_subprocess_ms(
                    [sys.executable, "-c", "pass"], env, args.root
                )
                extra["cli.import_ms"] = (
                    _median_subprocess_ms(
                        [sys.executable, "-c", "import skyselect.cli"], env, args.root
                    )
                    - extra["cli.interpreter_ms"]
                )
            result.update(
                rounds=rounds,
                spans=len(tracer.span_start),
                absent=tracer.absent,
                restored=restored,
                per_layer=layer_metrics(tracer, rounds, setup_self, extra),
            )
            tracer.write(os.path.join(
                args.root, ".perfbench_runs",
                f"spans-{args.workload}-seed{args.seed}.tsv.gz",
            ))
            records = records + traced
        problems = check_all(records)
        result.update(attempted=len(records), failed=len(problems), problems=problems[:20])
        print(json.dumps(result))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
