"""decode_um time per trial as the stream and the server count grow.

Runs the byzantine-fixed benchmark scheme (GF(2^8), k=3, t=1, m=2, two
fixed corrupted servers) at every ell in --ells and n in --ns, through the
same trial path as ``pirstream simulate``, and times only the
``decoder.decode_um`` call of each trial.  Prints a Markdown table of the
median ms per trial, and checks that every trial decodes.

    PYTHONPATH=src python scripts/decode_um_scaling.py --trials 5
"""

import argparse
import statistics
import sys
from time import perf_counter

from pirstream import cli, decoder
from pirstream.config import ExperimentConfig, build_scheme


def decode_um_ms(n, ell, trials, seed):
    """Median decode_um wall time per trial, in ms."""
    cfg = ExperimentConfig(
        scheme_cfg={"variant": "byzantine", "field": "2^8", "n": str(n),
                    "k": "3", "t": "1", "m": "2", "ell": str(ell)},
        channel={"kind": "symbol-errors", "mode": "fixed-byzantine", "b": "2"})
    _, _, scheme, ell = build_scheme(cfg)
    channel = cli._check_channel(cfg.channel, scheme)
    times = []
    decode_um = decoder.decode_um

    def timed(stream, scheme):
        t0 = perf_counter()
        try:
            return decode_um(stream, scheme)
        finally:
            times.append(perf_counter() - t0)
    decoder.decode_um = timed
    try:
        for trial in range(trials):
            ok, desc = cli._run_one_trial(scheme, ell, channel, seed, trial, None)
            if not ok:
                sys.exit(f"n={n} ell={ell} trial {trial} failed: {desc}")
    finally:
        decoder.decode_um = decode_um
    return 1000 * statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ells", type=int, nargs="+", default=[10, 20, 40])
    parser.add_argument("--ns", type=int, nargs="+", default=[16, 32, 64])
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    print("| ell | " + " | ".join(f"n={n}" for n in args.ns) + " |")
    print("|---|" + "---|" * len(args.ns))
    for ell in args.ells:
        cells = [f"{decode_um_ms(n, ell, args.trials, args.seed):.1f}"
                 for n in args.ns]
        print(f"| {ell} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
