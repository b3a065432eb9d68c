"""Quick self-test of the benchmark at toy sizes; finishes in well under a minute.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload emits every metric ``BENCHMARK.json`` declares, with its
  unit, untraced and traced, and answers every query correctly;
* installing and removing the tracer leaves every rebound name the
  original object, in this process and in each traced run;
* the traced counts show the layer split the workloads were chosen for:
  no SLSQP call on ``bulk`` and ``plane``, some on ``solver``, and CSV
  ingestion time on ``cli``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402


def run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    with open(os.path.join(ROOT, ".perfbench_runs", f"{workload}-seed7-trace{trace}.json"),
              encoding="utf-8") as fh:
        return result, json.load(fh)


def check_tracer_restores() -> None:
    """Every binding the tracer touches is the original object afterwards."""
    mods = [importlib.import_module("skyselect")] + [
        importlib.import_module(f"skyselect.{m}") for m in tracing.MODULES
    ]
    before = [dict(vars(m)) for m in mods]
    ds_cls = importlib.import_module("skyselect.dataset").Dataset
    attr_array = ds_cls.__dict__["attr_array"]
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.patched(), "tracer rebound nothing"
    assert not tracer.absent, f"names absent from the package: {tracer.absent}"
    sky = importlib.import_module("skyselect")
    sky.skyline(sky.generate("independent", 50, 3, 1))
    tracer.remove()
    for mod, old in zip(mods, before):
        for name, value in old.items():
            assert getattr(mod, name) is value, f"{mod.__name__}.{name} not restored"
    assert ds_cls.__dict__["attr_array"] is attr_array, "Dataset.attr_array not restored"
    calls, _, _ = tracer.self_times(first_request=-1)
    assert calls.get("queries.skyline") == 1 and calls.get("dataset.generate") == 1, calls


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check_tracer_restores()
    print("tracer install/remove restores every binding: ok")
    for w in (x["name"] for x in bench["workloads"]):
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result, record = run(w, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, f"{w} trace={trace}: metrics differ from BENCHMARK.json"
            assert all(isinstance(v["value"], float) for v in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, record["problems"]
            assert result["attempted"] >= 1
            if trace:
                assert record["restored"], f"{w}: wrappers not restored after the traced pass"
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if w in ("bulk", "plane"):
                    assert m["solver.slsqp.calls"] == 0, f"{w} called SLSQP"
                if w == "solver":
                    assert m["solver.slsqp.calls"] > 0, "solver made no SLSQP call"
                if w == "cli":
                    assert m["dataset.load_csv.self_ms"] > 0, "cli loaded no CSV in-process"
            print(f"{w} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} queries, 0 failed: ok")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
