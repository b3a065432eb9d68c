"""Benchmark entry point: run one skyselect workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 15 --trace 0

Workloads are ``bulk``, ``plane``, ``solver`` and ``cli`` (see
``perfbench/README.md``). Each runs in a fresh interpreter with BLAS and
OpenMP pinned to one thread. With ``--trace 0`` the last line of standard
output is one JSON object holding the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a separate traced run. Every answer is
checked; ``failed`` counts exceptions, wrong answers and nonzero CLI exits.
A full record of the run is written under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk", "plane", "solver", "cli")
SETUPS = 3  # setup_s is the median of this many fresh set-ups
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_share", "_ratio", "_frac", ".yield", "_per_cell")):
        return "ratio"
    return "count"


def machine() -> dict:
    info = {
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    info["mem_total_mb"] = int(line.split()[1]) // 1024
                    break
    except OSError:
        pass
    return info


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(args, deadline: float, setup_only: bool = False) -> dict:
    """Start the workload in a fresh interpreter and return its JSON line."""
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--root", ROOT,
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        argv.append("--setup-only")
    # its own session, so a timeout also ends any CLI child it started
    proc = subprocess.Popen(
        argv, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} ran past the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description="Run one skyselect benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="busy time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy sizes finish in seconds; used by selftest.py")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "skyselect", "__init__.py")):
        print(f"perfbench: no skyselect package under {ROOT}/src", file=sys.stderr)
        return 2
    # byte-compile once so no run pays for compiling the package
    compileall.compile_dir(os.path.join(ROOT, "src", "skyselect"), quiet=1)
    runs_dir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = start + DEADLINE_S

    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(run_worker(args, deadline, setup_only=True)["setup_s"])
    res = run_worker(args, deadline)
    setups.append(res["setup_s"])
    res["setup_runs_s"] = setups
    res["machine"] = {**machine(), **res["machine"]}

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["per_layer"].items()}
        print(f"{args.workload} traced: {res['rounds']} rounds, {res['spans']} spans, "
              f"absent={res['absent']}, wrappers restored={res['restored']}")
    else:
        lat = res["latency"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "queries_per_s": {"value": res["queries_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": lat["tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} error_rate = {res['failed'] / res['attempted']:.6g} ratio "
              f"({res['failed']} of {res['attempted']})")
        print(f"{args.workload} latency_tail_ms is p{lat['tail_pct']:g} of {lat['samples']} "
              f"samples, {lat['beyond_tail']} beyond it; {res['rounds']} rounds")
    for problem in res["problems"]:
        print(f"{args.workload} FAILED {problem}")
    m = res["machine"]
    print(f"machine: {m['cpu']}, nproc {m['nproc']}, {m['mem_total_mb']} MB, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    with open(os.path.join(runs_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "metrics": metrics, **res}, fh, indent=1)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
