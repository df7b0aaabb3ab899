"""decode_um time per trial as the stream and the server count grow.

Runs the byzantine-fixed benchmark scheme (GF(2^8), k=3, t=1, m=2, two
fixed corrupted servers) at every ell in --ells and n in --ns, through the
same trial path as ``pirstream simulate``, and times only the
``decoder.decode_um`` call of each trial.  It also counts the BMD decodes
(``GrsCode.bmd_decode``), the Berlekamp-Massey runs
(``grs._berlekamp_massey``) and the reader builds (the ``rref`` calls
``grs`` makes, one per ``grs._reader`` build) the trials make, on a
scheme built afresh for each cell, whose codes keep nothing yet.  Prints
a Markdown table whose cells read "median ms per trial / BMD decodes /
BM runs / reader builds", the counts summed over the trials, and checks
that every trial decodes.

    PYTHONPATH=src python scripts/decode_um_scaling.py --trials 5
"""

import argparse
import statistics
import sys
from time import perf_counter

from pirstream import cli, decoder, grs
from pirstream.config import ExperimentConfig, build_scheme


def decode_um_cell(n, ell, trials, seed):
    """(median decode_um wall time per trial in ms, BMD decodes, BM runs,
    reader builds)."""
    cfg = ExperimentConfig(
        scheme_cfg={"variant": "byzantine", "field": "2^8", "n": str(n),
                    "k": "3", "t": "1", "m": "2", "ell": str(ell)},
        channel={"kind": "symbol-errors", "mode": "fixed-byzantine", "b": "2"})
    _, _, scheme, ell = build_scheme(cfg)
    channel = cli._check_channel(cfg.channel, scheme, ell)
    times = []
    counts = {"bmd": 0, "bm": 0, "builds": 0}
    decode_um = decoder.decode_um
    bmd_decode = grs.GrsCode.bmd_decode
    berlekamp_massey = grs._berlekamp_massey
    rref = grs.rref

    def timed(stream, scheme):
        t0 = perf_counter()
        try:
            return decode_um(stream, scheme)
        finally:
            times.append(perf_counter() - t0)

    def counted_bmd(code, word):
        counts["bmd"] += 1
        return bmd_decode(code, word)

    def counted_bm(*args):
        counts["bm"] += 1
        return berlekamp_massey(*args)

    def counted_rref(*args):
        counts["builds"] += 1
        return rref(*args)
    decoder.decode_um = timed
    grs.GrsCode.bmd_decode = counted_bmd
    grs._berlekamp_massey = counted_bm
    grs.rref = counted_rref
    try:
        for trial in range(trials):
            ok, desc = cli._run_one_trial(scheme, ell, channel, seed, trial, None)
            if not ok:
                sys.exit(f"n={n} ell={ell} trial {trial} failed: {desc}")
    finally:
        decoder.decode_um = decode_um
        grs.GrsCode.bmd_decode = bmd_decode
        grs._berlekamp_massey = berlekamp_massey
        grs.rref = rref
    return (1000 * statistics.median(times), counts["bmd"], counts["bm"],
            counts["builds"])


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
        cells = []
        for n in args.ns:
            ms, bmd, bm, builds = decode_um_cell(n, ell, args.trials,
                                                 args.seed)
            cells.append(f"{ms:.1f} / {bmd} / {bm} / {builds}")
        print(f"| {ell} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
