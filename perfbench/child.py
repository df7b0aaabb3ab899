"""One fresh-process run of the pirstream CLI, timed from inside.

    python3 -I perfbench/child.py MODE SRC_DIR SPEC_JSON

MODE is ``plain`` (op boundaries only), ``trace`` (op boundaries and
layer spans, see layers.py) or ``count`` (op boundaries and field
operation counters).  SPEC_JSON is ``{"argv": [...], "k": k, "t": t}``:
the CLI arguments and the scheme dimensions that name the BMD codes.

The CLI's standard output is captured.  The only line this program
prints is one JSON record: exit code, captured output, op intervals,
calibration ticks, the ``cli.main`` interval, peak RSS, and the spans or
counts.  Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux),
which the parent reads too, so the first op's start minus the parent's
spawn time is the set-up time.

A calibration tick times a fixed pure-Python computation.  One runs before
anything is imported; in ``plain`` mode an interval timer then runs one
every ``TICK_EVERY_S`` of wall time, in whatever code the main thread is
executing.  The parent subtracts the ticks' own durations from the
intervals they fall in and uses them to measure the machine's speed
during each op (run.py).  The garbage collector is off during a tick, so
that a collection over the program's heap never lands in one.
"""

import gc
import os
import signal
import sys
from time import monotonic

TICK_EVERY_S = 0.1
CALIBRATION_ROUNDS = 40
CALIBRATION_MATRIX = [[(r * 7 + c * 13 + 1) % 251 for c in range(12)]
                      for r in range(10)]


def calibrate():
    """(midpoint, duration) of a fixed Gauss-Jordan elimination mod 251.

    List-heavy integer code like pirstream's own, so that the machine's
    speed changes slow it the way they slow the workloads.  It uses no
    pirstream code and runs with the garbage collector off, so the
    program's code and heap do not enter its duration; a change to the
    package can still move it only through the state of the machine's
    caches.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = monotonic()
    for _ in range(CALIBRATION_ROUNDS):
        m = [row[:] for row in CALIBRATION_MATRIX]
        rank = 0
        for col in range(12):
            piv = next((r for r in range(rank, 10) if m[r][col]), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = pow(m[rank][col], 249, 251)
            prow = m[rank] = [v * inv % 251 for v in m[rank]]
            for r in range(10):
                if r != rank and m[r][col]:
                    f = m[r][col]
                    m[r] = [(a - f * b) % 251 for a, b in zip(m[r], prow)]
            rank += 1
    t1 = monotonic()
    if collecting:
        gc.enable()
    return ((t0 + t1) / 2, t1 - t0)


def on_timer(signum, frame):
    if not ticking[0]:
        ticking[0] = True
        ticks.append(calibrate())
        ticking[0] = False


ticks = [calibrate()]
ticking = [False]
mode, src_dir, spec_text = sys.argv[1:4]
if mode == "plain":
    signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
sys.path[:0] = [src_dir, os.path.dirname(os.path.abspath(__file__))]

import pirstream.cli as cli  # noqa: E402  (the import is part of set-up)
from pirstream import protocol, recovering  # noqa: E402

# Where each command's op is looked up by its caller: one simulate trial,
# one locator set tested, one colluding set audited.
OP_SITES = {
    "simulate": (cli, "_run_one_trial"),
    "recovering-search": (recovering, "build_A"),
    "privacy-audit": (protocol, "privacy_audit"),
}


def hook_ops(owner, attr, ops):
    """Append (start, end) per op.  An op starts where the previous one
    ended; the first op starts when the op function is first entered."""
    fn = getattr(owner, attr)
    last = [None]

    def op(*args, **kwargs):
        if last[0] is None:
            last[0] = monotonic()
        result = fn(*args, **kwargs)
        end = monotonic()
        ops.append((last[0], end))
        last[0] = end
        return result
    setattr(owner, attr, op)


def main():
    import io
    import json

    spec = json.loads(spec_text)
    argv = spec["argv"]
    spans = fields = None
    if mode == "trace":
        import layers
        spans = layers.install_spans(spec["k"], spec["t"])
    elif mode == "count":
        import layers
        fields = layers.install_field_counts()
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")
    ops = []
    hook_ops(*OP_SITES[argv[0]], ops)

    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        main_start = monotonic()
        rc = cli.main(argv)
        main_end = monotonic()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout = real_stdout

    import resource
    record = {
        "rc": rc,
        "stdout": captured.getvalue(),
        "ops": ops,
        "ticks": ticks,
        "main": (main_start, main_end),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans.record() if spans is not None else None,
        "fields": fields,
    }
    print(json.dumps(record))


main()
