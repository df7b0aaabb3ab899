"""Paired in-process timing of simulate trials: a parent checkout against a
change.

Imports each checkout's ``src/pirstream`` under its own module name, so
both live in one interpreter, and times ``cli._run_one_trial`` for
trials 0..T-1 at simulate seed 11 with the sides in ABBA order: the
parent first in even trials, the change first in odd ones.  Each rep
starts cold on both sides, as a benchmark process does: the config's
scheme and channel are built afresh, so no code keeps the tables or the
BMD state of an earlier rep, and the run stops if one does.  A side
whose package still has ``clear_caches`` (a checkout from before the
package kept all its state on its objects) has it called first.  Prints,
per rep, each side's median trial time and the median of the per-trial
ratios parent/change, then the median of the reps' ratios with their
quartiles and range.

    python scripts/bench_inproc.py --parent ../parent --change . \\
        --config burst-window --trials 30 --reps 5

A ratio above 1 means the change is faster.  Both sides must give the
same outcome in every trial, or the run stops; with
``--outcomes-may-differ`` (for a change that draws other channels on
purpose) the run goes on and prints how many trials each side decoded.
``--config`` is a path to an ini file or the name of a benchmark config
(``perfbench/configs`` of the change).  An A/A run (``--parent .
--change .``) shows the spread of the ratio on this machine.

It times the decode path of a trial only: setup, peak memory, imports and
process start need ``perfbench/run.py`` pairs (``scripts/bench_pairs.py``),
and both sides share one allocator and one garbage collector.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")
# the simulate seed of every trial, as in the CI runs of the CLI
SEED = 11


def load(checkout: Path, name: str):
    """The ``cli`` module of the checkout's ``src/pirstream``, imported as
    the package ``name``."""
    root = checkout.resolve() / "src" / "pirstream"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def trial_runner(cli, config: Path, trials: int):
    """trial -> (decoded correctly, channel description), as ``simulate``
    runs it, on the config's scheme and channel."""
    cfg = cli.load_config(config)
    _, _, scheme, ell = cli.build_scheme(cfg)
    channel = cli._check_channel(cfg.channel, scheme, ell)
    schedules = None
    if channel.kind == "block-erasure":
        schedules = cli.channels.gen_burst_patterns(
            ell, scheme.memory, scheme.window, scheme.burst, channel.mode,
            seed=cli.derive_seed(SEED, "erasure-schedules"), count=trials)
    return lambda trial: cli._run_one_trial(scheme, ell, channel, SEED,
                                            trial, schedules)


def warm_codes(name: str) -> int:
    """How many live GRS codes of the package ``name`` keep the state of a
    BMD decode, a ``_kept`` entry of their own."""
    code_type = sys.modules[f"{name}.grs"].GrsCode
    gc.collect()
    return sum(1 for obj in gc.get_objects()
               if type(obj) is code_type and "_kept" in vars(obj))


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--outcomes-may-differ", action="store_true")
    args = parser.parse_args(argv)
    if args.trials < 1 or args.reps < 1:
        parser.error("--trials and --reps must be >= 1")
    config = Path(args.config)
    if not config.is_file():
        config = args.change / "perfbench" / "configs" / f"{args.config}.ini"
    clis = {side: load(getattr(args, side), f"pirstream_{side}")
            for side in SIDES}

    print(f"{config.stem}: {args.reps} reps x {args.trials} trial pairs, "
          f"seed {SEED}, ABBA order")
    rep_ratios = []
    for rep in range(args.reps):
        for side in SIDES:
            package = sys.modules[f"pirstream_{side}"]
            if hasattr(package, "clear_caches"):
                package.clear_caches()
        runs = {side: trial_runner(clis[side], config, args.trials)
                for side in SIDES}
        for side in SIDES:
            if warm_codes(f"pirstream_{side}"):
                sys.exit(f"rep {rep + 1}: a {side} code keeps BMD state "
                         "from an earlier rep")
        times = {side: [] for side in SIDES}
        decoded = dict.fromkeys(SIDES, 0)
        for trial in range(args.trials):
            outcomes = {}
            for side in SIDES if trial % 2 == 0 else SIDES[::-1]:
                t0 = perf_counter()
                outcomes[side] = runs[side](trial)
                times[side].append(perf_counter() - t0)
                decoded[side] += outcomes[side][0]
            if (outcomes["parent"] != outcomes["change"]
                    and not args.outcomes_may_differ):
                sys.exit(f"trial {trial} differs: {outcomes}")
        ratio = statistics.median(
            p / c for p, c in zip(times["parent"], times["change"]))
        rep_ratios.append(ratio)
        decoded_note = (f"; decoded parent {decoded['parent']} change "
                        f"{decoded['change']}" if args.outcomes_may_differ
                        else "")
        print(f"rep {rep + 1}: median ms parent "
              f"{statistics.median(times['parent']) * 1e3:.3f} change "
              f"{statistics.median(times['change']) * 1e3:.3f}; "
              f"paired ratio parent/change {ratio:.3f}{decoded_note}")
    q1, q2, q3 = quartiles(rep_ratios)
    print(f"median paired ratio parent/change {q2:.3f}, quartiles "
          f"{q1:.3f}-{q3:.3f}, range {min(rep_ratios):.3f}-"
          f"{max(rep_ratios):.3f} over {args.reps} reps")


if __name__ == "__main__":
    main()
