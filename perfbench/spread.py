"""Run one workload over several seeds and summarise each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload bulk --seeds 1-10
    python3 perfbench/spread.py --workload bulk --seeds 1-10 --trace 1

Each seed is one ``run.py`` run of ``run_seconds`` from ``BENCHMARK.json``.
For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median. With ``--out`` the summary is also
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Spread of each metric over seeds.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"{brief if not args.trace else ''}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in runs])
        s["unit"] = runs[0]["metrics"][name]["unit"]
        summary[name] = s
        bound = bounds.get(name) if not args.trace else None
        flag = ""
        if bound is not None:
            flag = f"bound {bound:g}" + (" EXCEEDED" if s["spread"] > bound else "")
        print(f"{name:48s} median {s['median']:12.5g} {s['unit']:6s} "
              f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread {s['spread']:.3f} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "failed": sum(r["failed"] for r in runs), "metrics": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
