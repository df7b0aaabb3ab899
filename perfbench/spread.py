"""Run-to-run spread of the benchmark, and the baseline record.

    python3 perfbench/spread.py [--first-seed 1] [--traced 2] [--out PATH]

Runs ``perfbench/run.py`` for ``run_seconds`` (BENCHMARK.json) once per
seed, on ten seeds from first-seed up, on every workload, and reports, for every end-to-end metric, the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as
a share of the median, next to the metric's bound in BENCHMARK.json.
``--traced N`` adds N traced runs on the first seed and checks that their
call counts agree exactly.  Run it from the root of a pirstream checkout;
``--out`` writes everything, with the machine's CPU count and the Python
version, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, SPEC

RUNS = 10


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seconds = SPEC["run_seconds"]
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "machine": platform.machine(), "seconds": seconds,
              "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
              "workloads": {}}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in record["seeds"]]
        entry = {"end_to_end": {}}
        print(f"== {workload}: {RUNS} runs")
        for name, bound in bounds.items():
            s = summarize([r[name] for r in runs], bound)
            entry["end_to_end"][name] = s
            ok = name == "setup_s" or s["spread"] <= bound / 3
            steady &= ok
            print(f"  {name:14s} median {s['median']:12.6g}  spread {s['spread']:7.4f}"
                  f"  bound {bound:5.3f}  {'ok' if ok else 'WIDE'}")
        if args.traced:
            traced = [bench(workload, args.first_seed, seconds, 1)
                      for _ in range(args.traced)]
            counts = [{k: v for k, v in t.items() if k.endswith(".calls")}
                      for t in traced]
            entry["per_layer"] = traced
            entry["calls_repeat"] = all(c == counts[0] for c in counts)
            steady &= entry["calls_repeat"]
            print(f"  traced runs: {args.traced}, call counts repeat: "
                  f"{entry['calls_repeat']}")
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
