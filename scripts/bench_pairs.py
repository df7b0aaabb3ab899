"""Alternating pairs of benchmark runs: a parent checkout against a change.

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds X
--trace 0`` in both checkouts, the parent first in even pairs and the
change first in odd ones, and reads each run's last line of JSON.  For
every end-to-end metric of ``BENCHMARK.json`` it prints the values of
each pair, each side's median and quartiles, how many pairs the change
won, and whether the change met the claim rule: it won at least 9 in 10
of the pairs, and its median is better than the parent's by more than
the parent's quartile spread.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload byzantine-fixed --pairs 10 --seconds 15 --seed 501
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, seed, seconds):
    """The metrics of one ``run.py`` run in ``checkout``: {name: value}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"run.py failed in {checkout} (seed {seed}):\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better):
    """(wins, rule met) of the change over the pairs (parent[i], change[i])
    of one metric; ``better`` is "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - parent_median)
    met = wins >= math.ceil(0.9 * len(parent)) and gain > q3 - q1
    return wins, met


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]

    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            sides[side].append(run(checkout, args.workload, args.seed + i,
                                   args.seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {args.seed + i}, "
              f"{order[0]} first) done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    for name, unit, better in metrics:
        parent = [r[name] for r in sides["parent"]]
        change = [r[name] for r in sides["change"]]
        wins, met = verdict(parent, change, better)
        print(f"{name} ({unit}, {better} is better)")
        print("  parent " + " ".join(f"{v:.6g}" for v in parent))
        print("  change " + " ".join(f"{v:.6g}" for v in change))
        for side, values in (("parent", parent), ("change", change)):
            q1, q2, q3 = quartiles(values)
            print(f"  {side} median {q2:.6g}, quartiles {q1:.6g}-{q3:.6g}")
        before, after = quartiles(parent)[1], quartiles(change)[1]
        if before:
            print(f"  median change {after / before - 1:+.1%}")
        print(f"  change better in {wins} of {args.pairs}; "
              f"claim rule met: {'yes' if met else 'no'}")


if __name__ == "__main__":
    main()
