"""pirstream benchmark: fixed workloads through the CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a pirstream checkout.  Each process the benchmark
starts is a fresh interpreter that imports ``pirstream.cli`` from
``src/`` and calls ``cli.main`` once with ``--workers 1`` (child.py); the
load is a closed loop of one, each op starting when the previous one ends.

``--trace 0`` runs a fixed number of processes per workload (about
``--seconds`` of work) and reports the end-to-end metrics, with op,
set-up and ``cli.main`` times scaled to a reference machine speed that
calibration ticks measure around each of them (child.py, ``work_time``).
``--trace 1`` runs one untraced, one traced and one field-counting
process on the same inputs and reports the per-layer metrics.  Every process's output passes
the workload's correctness gate (workloads.py) or the run is marked
incorrect and exits 1.  The last line printed is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def table(key):
    """(name, unit, better) of each metric under ``key`` in BENCHMARK.json."""
    return [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]


END_TO_END = table("end_to_end")
PER_LAYER = table("per_layer")
# p99 at most: about one op in 500 of locator-search contains a calibration
# tick, whose residual cost would set any higher percentile.
TAIL_LADDER = (99, 90, 75, 50)
CHILD_TIMEOUT_S = 150
# Median duration of child.calibrate() on the reference machine (2 vCPU
# Xeon, Python 3.11).  Times are reported at this machine speed: each is
# scaled by CALIBRATION_REF_S over the calibration ticks around it.
CALIBRATION_REF_S = 0.003


def percentiles(values):
    """{p: value} for p = 1..99, interpolated between the closest ranks."""
    return dict(zip(range(1, 100),
                    statistics.quantiles(values, n=100, method="inclusive")))


def tail(values, cuts):
    """(p, value, beyond): the highest ladder percentile with at least ten
    samples beyond it, or the median when there is none."""
    for p in TAIL_LADDER:
        beyond = sum(v > cuts[p] for v in values)
        if beyond >= 10 or p == 50:
            return p, cuts[p], beyond


def work_time(ticks, start, end):
    """(unscaled, scaled) time of the interval [start, end].

    The unscaled time excludes the calibration ticks run inside the
    interval.  The scaled time multiplies it by CALIBRATION_REF_S over the
    mean duration of those ticks, or of the nearest tick when none fell
    inside: the time the interval would have taken at reference speed.
    """
    lo = bisect.bisect_left(ticks, start, key=lambda tick: tick[0])
    hi = bisect.bisect_right(ticks, end, key=lambda tick: tick[0])
    inside = [d for _, d in ticks[lo:hi]]
    if not inside:
        mid = (start + end) / 2
        inside = [min(ticks, key=lambda tick: abs(tick[0] - mid))[1]]
        unscaled = end - start
    else:
        unscaled = end - start - sum(inside)
    return unscaled, unscaled * CALIBRATION_REF_S / statistics.fmean(inside)


class Runner:
    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"

    def build(self):
        """Warm bytecode cache: compile the sources and import the CLI once."""
        if not compileall.compile_dir(str(self.src), quiet=1):
            raise SystemExit("perfbench: compiling src/ failed")
        subprocess.run(
            [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, "
             f"{str(self.src)!r}); import pirstream.cli"],
            check=True, timeout=CHILD_TIMEOUT_S, cwd=self.root)

    def spawn(self, w, mode, cli_seed):
        """One fresh process; returns its record with the gate's verdict."""
        spec = json.dumps({"argv": w.argv(cli_seed), "k": w.k, "t": w.t})
        cmd = [sys.executable, "-I", str(HERE / "child.py"), mode, str(self.src), spec]
        t_spawn = monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=self.root)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {w.name} {mode} process failed:\n"
                             f"{proc.stderr[-2000:]}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        ticks = rec["ticks"]
        rec["speed"] = CALIBRATION_REF_S / statistics.median(d for _, d in ticks)
        rec["wall"], rec["main_scaled"] = work_time(ticks, *rec["main"])
        times = [work_time(ticks, start, end) for start, end in rec["ops"]]
        rec["latencies"] = [unscaled for unscaled, _ in times]
        rec["scaled"] = [scaled for _, scaled in times]
        if rec["ops"]:
            rec["setup_raw"], rec["setup_s"] = work_time(
                ticks, t_spawn, rec["ops"][0][0])
        rec["verdict"] = check(w, rec["rc"], rec["stdout"])
        if len(rec["latencies"]) != w.ops:
            rec["verdict"].problems.append(
                f"{len(rec['latencies'])} ops completed, expected {w.ops}")
        return rec


def end_to_end(runner, w, seed, seconds):
    recs = [runner.spawn(w, "plain", w.cli_seed(seed, rep))
            for rep in range(w.reps(seconds))]
    lat_ms = [x * 1e3 for r in recs for x in r["scaled"]]
    raw_ms = [x * 1e3 for r in recs for x in r["latencies"]]
    cuts, raw_cuts = percentiles(lat_ms), percentiles(raw_ms)
    p, tail_ms, beyond = tail(lat_ms, cuts)
    attempted = sum(r["verdict"].attempted for r in recs)
    failed = sum(r["verdict"].failed for r in recs)
    metrics = {
        "ops_per_s": len(lat_ms) / sum(r["main_scaled"] for r in recs),
        "op_p50_ms": cuts[50],
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(r["setup_s"] for r in recs),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in recs),
        "success_rate": 1 - failed / attempted,
    }
    notes = [
        f"processes {len(recs)}, ops {len(lat_ms)}, CLI seeds "
        + ("derived from --seed" if w.vary_seed else f"fixed at {w.base_seed}"
           if w.base_seed is not None else "none (no random input)"),
        f"op_tail_ms is p{p:g} of {len(lat_ms)} ops ({beyond} beyond it)",
        f"machine speed {statistics.median(r['speed'] for r in recs):.3f} of the "
        f"reference; unscaled: ops_per_s "
        f"{len(raw_ms) / sum(r['wall'] for r in recs):.6g}, "
        f"op_p50_ms {raw_cuts[50]:.6g}, op_tail_ms {raw_cuts[p]:.6g}, setup_s "
        f"{statistics.median(r['setup_raw'] for r in recs):.6g}",
        f"fail_share {failed / attempted:.4f} ({failed} of {attempted} ops; "
        f"sampler give-ups {sum(r['verdict'].gave_up for r in recs)})",
    ]
    return recs, metrics, END_TO_END, attempted, failed, notes


def per_layer(runner, w, seed, seconds):
    cli_seed = w.cli_seed(seed, 0)
    base = runner.spawn(w, "plain", cli_seed)
    traced = runner.spawn(w, "trace", cli_seed)
    counted = runner.spawn(w, "count", cli_seed)
    recs = [base, traced, counted]
    metrics = layers.layer_metrics([name for name, _, _ in PER_LAYER],
                                   traced["spans"], counted["fields"],
                                   traced["verdict"].gave_up)
    lat_ms = [x * 1e3 for x in traced["latencies"]]
    cuts = percentiles(lat_ms)
    p, metrics["op.tail_ms"], beyond = tail(lat_ms, cuts)
    metrics["op.p50_ms"] = cuts[50]
    metrics["trace.overhead_share"] = (
        sum(traced["latencies"]) / sum(base["latencies"]) - 1)
    metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
    absent = [name for name, unit, _ in PER_LAYER
              if unit == "s" and metrics[name] == 0]
    self_sum = sum(traced["spans"]["self_s"].get(n, 0.0)
                   for n in layers.PRIMARY_SPANS)
    notes = [
        "one process each: untraced, traced, field-counting; CLI seed "
        + ("none" if cli_seed is None else str(cli_seed)),
        f"op.tail_ms is p{p:g} of {len(lat_ms)} traced ops ({beyond} beyond it)",
        f"self times sum to {self_sum:.4f} s of {traced['wall']:.4f} s "
        "traced wall time",
    ]
    if absent:
        notes.append("zero because this workload never calls them: "
                     + ", ".join(n.rsplit(".", 1)[0] for n in absent))
    ops = {len(r["latencies"]) for r in recs}
    if len(ops) != 1:
        traced["verdict"].problems.append(f"op counts differ across passes: {ops}")
    return (recs, metrics, PER_LAYER, traced["verdict"].attempted,
            traced["verdict"].failed, notes)


def run_workload(runner, w, seed, seconds, trace):
    measure = per_layer if trace else end_to_end
    recs, metrics, table, attempted, failed, notes = measure(runner, w, seed, seconds)
    problems = [p for r in recs for p in r["verdict"].problems]
    digest = hashlib.sha256(recs[0]["stdout"].encode()).hexdigest()[:16]
    print(f"== {w.name} (seed {seed}, trace {trace})")
    for name, unit, better in table:
        print(f"  {name:44s} {metrics[name]:>16.6g} {unit:12s} ({better} is better)")
    for note in notes:
        print(f"  {note}")
    print(f"  stdout digest of the first process (reported, not gated): {digest}")
    verdict = "yes" if not problems else "NO: " + "; ".join(sorted(set(problems)))
    print(f"  correct: {verdict}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _ in table}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pirstream" / "cli.py").is_file():
        print("perfbench: src/pirstream/cli.py not found; run from the root "
              "of a pirstream checkout", file=sys.stderr)
        return 2
    runner = Runner(root)
    runner.build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(runner, WORKLOADS[name], args.seed,
                                  args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "workloads": results}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
