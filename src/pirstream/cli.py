"""Command-line experiment runner.

Four commands: ``simulate`` (end-to-end trials through a channel),
``rates`` (rate-curve CSV sweeps), ``recovering-search`` (randomized
locator search), ``privacy-audit`` (exact collusion check).

Exit codes: 0 success, 2 config error, 3 decode failure in a guaranteed
regime or audit failure, 4 a search probability missed its expected band.
"""

from __future__ import annotations

import argparse
import decimal
import errno
import itertools
# argparse imports locale on its first gettext lookup and shutil when it
# builds its first help formatter, both inside main unless something has
# loaded them.  Only the process pool's import chain would, and it is
# imported in _fan_out for more than one worker, so they are loaded here:
# a lazy locale import in main costs every command about 1.4 ms, enough
# to halve the privacy-audit benchmark's ops_per_s.
import locale  # noqa: F401
import math
import os
import shutil  # noqa: F401
import sys
from fractions import Fraction
from typing import NamedTuple

from . import channels, decoder, protocol, rates, recovering
from .config import _int, _int_list, build_scheme, load_config, setting
from .errors import ConfigError, InvalidParams, PirstreamError
from .fields import Field, factorize
from .rates import rate_report
from .seeds import derive_rng, derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DECODE = 3
EXIT_TOLERANCE = 4

# the most colluding sets a default audit (every t-subset) takes on; past
# it, ``[audit] sets`` names the sets to audit
MAX_AUDIT_SETS = 100_000


def field_for_order(q: int) -> Field:
    factors = factorize(q)
    if len(factors) != 1:
        raise ConfigError(f"q = {q} is not a prime power")
    (p, s), = factors.items()
    return Field(p, s)


def _check_out(path):
    """Refuse an ``--out`` path that cannot be written before any work is
    done: its directory must exist and be writable, and the path must not
    be a directory.  Nothing is created or truncated here, so a run that
    fails later leaves an existing file as it was; a path that becomes
    unwritable during the run still fails in ``_write_out``."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"--out {path}: {os.strerror(code)}")


def _write_out(path, text):
    """Write ``text`` to the ``--out`` path, if one was given; a path that
    cannot be written is a config error."""
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(
                f"--out {path}: {exc.strerror or exc}") from None


def _fmt(x: Fraction) -> str:
    return f"{float(x):.10f}"


# --- simulate ----------------------------------------------------------------

# The modes each [channel] kind handles; the first one is the default.
_CHANNEL_MODES = {
    "none": (),
    "block-erasure": ("exhaustive", "shifted-family", "random"),
    "symbol-errors": ("budget", "random", "fixed-byzantine", "none"),
}


class _Channel(NamedTuple):
    """The [channel] section, resolved: mode carries its default (None for
    kind none), b is None unless given, and profile is the error budget
    that kind symbol-errors draws against (None for the other kinds)."""

    kind: str
    mode: str | None
    b: int | None
    profile: decoder.UmDistanceProfile | None


def _check_channel(section, scheme, ell) -> _Channel:
    """The [channel] section, once every value in it is one that a trial
    of a stream of ell stripes can use; checked before any trial runs."""
    kind = section.get("kind", "none")
    if kind not in _CHANNEL_MODES:
        raise ConfigError(f"[channel] kind = {kind!r}; expected one of "
                          f"{sorted(_CHANNEL_MODES)}")
    modes = _CHANNEL_MODES[kind]
    if "mode" in section and section["mode"] not in modes:
        raise ConfigError(f"[channel] mode = {section['mode']!r}; kind = {kind} "
                          f"takes {', '.join(modes) if modes else 'no mode'}")
    mode = section.get("mode", modes[0] if modes else None)
    b = _int("channel", "b", section["b"]) if "b" in section else None
    if b is not None and mode != "fixed-byzantine":
        raise ConfigError(f"[channel] b is read only by mode = fixed-byzantine "
                          f"(kind = {kind}, mode = {mode or 'none'})")
    if mode == "fixed-byzantine" and (b is None or not 0 <= b <= scheme.n):
        raise ConfigError(f"[channel] mode = fixed-byzantine needs [channel] b "
                          f"in [0, {scheme.n}], got {'none' if b is None else b}")
    if kind == "block-erasure" and scheme.variant != protocol.BLOCK:
        raise ConfigError("[channel] block-erasure needs the block-erasure variant")
    if mode == "exhaustive" and ell + scheme.memory > channels.EXHAUSTIVE_BLOCKS:
        raise ConfigError(f"[channel] mode = exhaustive takes at most "
                          f"{channels.EXHAUSTIVE_BLOCKS} blocks, not ell + M = "
                          f"{ell + scheme.memory}")
    if kind == "symbol-errors" and scheme.variant != protocol.BYZANTINE:
        raise ConfigError("[channel] symbol-errors needs the byzantine variant")
    profile = None
    if kind == "symbol-errors":
        profile = decoder.UmDistanceProfile.for_byzantine(
            scheme.n, scheme.k, scheme.t)
    return _Channel(kind, mode, b, profile)


def _guaranteed(channel, scheme, ell) -> bool:
    """Whether every trial must decode: the channel is not random, and a
    fixed Byzantine weight b per block keeps within the error budget."""
    if channel.mode == "random":
        return False
    if channel.mode == "fixed-byzantine":
        return decoder.check_guarantee([channel.b] * (ell + scheme.memory),
                                       channel.profile)
    return True


def _run_one_trial(scheme, ell, channel, seed, trial, schedules):
    """(decoded correctly, channel description) of one trial: the channel
    first, then the variant's decoder once."""
    field = scheme.field
    files = protocol.random_files(
        field, scheme.m, ell, scheme.k, derive_rng(seed, "files", trial))
    system = protocol.storage_encode(files, scheme.storage_code)
    stream = protocol.run_protocol(system, scheme,
                                   derive_seed(seed, "protocol", trial))
    desc = "clean"
    try:
        if channel.kind == "block-erasure":
            sched = schedules[trial % len(schedules)]
            desc = "erased=" + "+".join(str(b) for b in sorted(sched.erased))
            stream = channels.apply_erasures(stream, sched)
        elif channel.kind == "symbol-errors":
            # named before the draw, so a generator that raises is not
            # reported as a clean channel
            desc = f"errors={channel.mode}"
            sched = channels.gen_error_schedule(
                channel.profile, ell, scheme.memory, scheme.n, field.q,
                channel.mode, derive_seed(seed, "errors", trial), b=channel.b)
            desc = f"weights={sched.weights(ell + scheme.memory)}"
            stream = channels.apply_errors(stream, sched, field.q,
                                           derive_seed(seed, "values", trial))
        if scheme.variant == protocol.PLAIN:
            rec = decoder.recover_plain(stream, scheme)
        elif scheme.variant == protocol.BLOCK:
            rec = decoder.recover_window(stream, scheme)
        else:
            rec = decoder.decode_um(stream, scheme)
        ok = rec.stripes == files[scheme.desired]
    except PirstreamError as exc:
        return False, f"{desc}: {type(exc).__name__}: {exc}"
    return ok, desc


def _fan_out(fn, total, workers, *args) -> list:
    """[fn(*args, lo, hi), ...] over [0, total) split into one contiguous
    span per worker, in span order; one span in this process when
    ``workers`` is 1.  The process pool, and with it ``multiprocessing``,
    is imported only for more than one worker, so a one-worker run starts
    without it."""
    if workers <= 1:
        return [fn(*args, 0, total)]
    from concurrent.futures import ProcessPoolExecutor
    chunk = -(-total // workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args, lo, min(lo + chunk, total))
                   for lo in range(0, total, chunk)]
        return [fut.result() for fut in futures]


def _simulate_range(scheme, ell, channel, seed, schedules, lo, hi):
    return [(trial, *_run_one_trial(scheme, ell, channel, seed, trial, schedules))
            for trial in range(lo, hi)]


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    field, code, scheme, ell = build_scheme(cfg)
    seed = setting("run", "seed", cfg.run, args.seed, 0)
    trials = setting("run", "trials", cfg.run, args.trials, 1, 1)
    workers = setting("run", "workers", cfg.run, args.workers, 1, 1)
    channel = _check_channel(cfg.channel, scheme, ell)
    schedules = None
    if channel.kind == "block-erasure":
        # seed and count matter only to mode = random; the other modes
        # enumerate their schedules, one trial each
        schedules = channels.gen_burst_patterns(
            ell, scheme.memory, scheme.window, scheme.burst, channel.mode,
            seed=derive_seed(seed, "erasure-schedules"), count=trials)
        if channel.mode != "random":
            trials = len(schedules)
    results = list(itertools.chain.from_iterable(_fan_out(
        _simulate_range, trials, workers, scheme, ell, channel, seed, schedules)))
    ok_count = sum(1 for _, ok, _ in results if ok)
    report = rate_report(scheme, ell)
    # the simulated rate is the formula's: both names stay in the output
    lines = [
        f"variant={scheme.variant} n={scheme.n} k={scheme.k} t={scheme.t} "
        f"m={scheme.m} ell={ell} M={scheme.memory} rounds={scheme.rounds}",
        f"trials={trials} ok={ok_count} success_rate={ok_count / trials:.4f}",
        f"downloaded_per_trial={report.downloaded} simulated_rate={report.rate} "
        f"formula_rate={report.rate} bound={report.bound} "
        f"padded={report.padded}",
    ]
    for trial, ok, desc in results:
        if not ok:
            lines.append(f"FAIL trial={trial} {desc}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        csv_lines = ["trial,success,downloaded,channel"]
        for trial, ok, desc in results:
            csv_lines.append(f"{trial},{int(ok)},{report.downloaded},{desc}")
        _write_out(args.out, "\n".join(csv_lines) + "\n")
    if ok_count < trials and _guaranteed(channel, scheme, ell):
        return EXIT_DECODE
    return EXIT_OK


# --- rates -------------------------------------------------------------------

def rates_csv(n=100, k=75, t=1, ell=100) -> str:
    lines = ["panel,x,r_pir_b,upper_bound"]
    for window in range(4, 31):
        r = rates.rate_block(n, k, t, window, 3, ell)
        b = rates.bound_block(n, k, t, window, 3)
        lines.append(f"a,{window},{_fmt(r)},{_fmt(b)}")
    for window in range(2, 31, 2):
        eps = window // 2
        r = rates.rate_block(n, k, t, window, eps, ell)
        b = rates.bound_block(n, k, t, window, eps)
        lines.append(f"b,{window},{_fmt(r)},{_fmt(b)}")
    for eps in range(0, 12):
        r = rates.rate_block(n, k, t, 12, eps, ell)
        b = rates.bound_block(n, k, t, 12, eps)
        lines.append(f"c,{eps},{_fmt(r)},{_fmt(b)}")
    return "\n".join(lines) + "\n"


def cmd_rates(args) -> int:
    params = {"n": 100, "k": 75, "t": 1, "ell": 100}
    if args.config:
        cfg = load_config(args.config)
        for key in params:
            if key in cfg.rates:
                params[key] = _int("rates", key, cfg.rates[key])
    try:
        text = rates_csv(**params)
    except InvalidParams as exc:
        values = ", ".join(f"{key} = {value}" for key, value in params.items())
        raise ConfigError(f"[rates] {values}: {exc}") from None
    sys.stdout.write(text)
    _write_out(args.out, text)
    return EXIT_OK


# --- recovering-search -------------------------------------------------------

def _search_range(field, k, M, gamma, seed, lo, hi) -> int:
    hits, _ = recovering.random_search_counts(field, k, M, hi - lo, seed,
                                              gamma, lo)
    return hits


def parse_search_rows(raw: str):
    """The (k, M, q, gamma) rows of ``[search] rows``; a row without gamma
    takes the least, ``recovering.minimal_gamma(k, M)``, which q must
    reach as a given gamma must."""
    rows = []
    for token in raw.replace(",", " ").split():
        parts = token.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"[search] rows entry {token!r}; expected k:M:q[:gamma]")
        k, M, q = (_int("search", "rows", x) for x in parts[:3])
        if k < 1 or M < 0:
            raise ConfigError(
                f"[search] rows entry {token!r} needs k >= 1 and M >= 0")
        least = recovering.minimal_gamma(k, M)
        gamma = _int("search", "rows", parts[3]) if len(parts) == 4 else least
        if not least <= gamma <= q:
            raise ConfigError(
                f"[search] rows entry {token!r} needs {least} <= gamma <= q")
        rows.append((k, M, q, gamma))
    return rows


def cmd_recovering_search(args) -> int:
    cfg = load_config(args.config)
    rows = parse_search_rows(cfg.search.get("rows", ""))
    bands = []
    if "bands" in cfg.search:
        for token in cfg.search["bands"].replace(",", " ").split():
            try:
                lo, hi = (float(x) for x in token.split(":"))
            except ValueError:
                raise ConfigError(f"[search] bands entry {token!r}; "
                                  "expected lo:hi") from None
            bands.append((lo, hi))
        if len(bands) != len(rows):
            raise ConfigError("[search] bands must match rows one-to-one")
    trials = setting("search", "trials", cfg.search, args.trials, 10000, 1)
    seed = setting("search", "seed", cfg.search, args.seed, 0)
    # [search] takes no workers key, so only the flag sets it
    workers = setting("search", "workers", cfg.search, args.workers, 1, 1)
    if not rows:
        raise ConfigError("recovering-search needs [search] rows = k:M:q[:gamma] ...")
    lines = ["k,M,N,q,gamma,trials,p_full"]
    missed = False
    for idx, (k, M, q, gamma) in enumerate(rows):
        p = sum(_fan_out(_search_range, trials, workers,
                         field_for_order(q), k, M, gamma, seed)) / trials
        lines.append(f"{k},{M},{2 * M + 1},{q},{gamma},{trials},{p:.4f}")
        if bands and not bands[idx][0] <= p <= bands[idx][1]:
            missed = True
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    _write_out(args.out, text)
    return EXIT_TOLERANCE if missed else EXIT_OK


# --- privacy-audit -----------------------------------------------------------

def _audit_sets(raw: str, n: int, t: int):
    """Colluding sets from ``[audit] sets``: entries split by ``;``, each
    a list of at most t distinct servers in 0..n-1."""
    sets = []
    for token in raw.split(";"):
        token = token.strip()
        if not token:
            continue
        servers = tuple(_int_list("audit", "sets", token))
        if any(not 0 <= j < n for j in servers):
            raise ConfigError(
                f"[audit] sets entry {token!r}: servers must be in [0, {n - 1}]")
        if len(set(servers)) != len(servers):
            raise ConfigError(f"[audit] sets entry {token!r} repeats a server")
        if len(servers) > t:
            raise ConfigError(
                f"[audit] sets entry {token!r} has more than t = {t} servers")
        sets.append(servers)
    return sets


def _digits(n: int) -> str:
    """n in decimal.  Past the interpreter's int-to-str digit limit str
    raises ValueError, and Decimal, whose str has no limit, prints n;
    other counts stay on str, which is the cheaper of the two."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def cmd_privacy_audit(args) -> int:
    cfg = load_config(args.config)
    field, code, scheme, ell = build_scheme(cfg)
    if "sets" in cfg.audit and cfg.audit["sets"]:
        colluding_sets = _audit_sets(cfg.audit["sets"], scheme.n, scheme.t)
    else:
        n, t = scheme.n, scheme.t
        count = math.comb(n, t)
        if count > MAX_AUDIT_SETS:
            raise ConfigError(
                f"auditing every t-subset takes C({n}, {t}) = {count} "
                f"colluding sets, more than {MAX_AUDIT_SETS}; list the sets "
                f"to audit in [audit] sets")
        colluding_sets = itertools.combinations(range(n), t)
    lines = []
    all_pass = True
    for colluders in colluding_sets:
        report = protocol.privacy_audit(scheme, colluders)
        if report.identical:
            lines.append(f"T={list(colluders)} PASS "
                         f"enumerated={_digits(report.enumerated)}")
        else:
            all_pass = False
            r, z, offset = report.witness
            lines.append(
                f"T={list(colluders)} FAIL witness: sub-round {r} lag {z} "
                f"offset {list(offset)} is outside the masking code on T")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    _write_out(args.out, text)
    return EXIT_OK if all_pass else EXIT_DECODE


# --- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pirstream",
        description="Private streaming simulator: star-product retrieval "
                    "with convolutional queries over coded storage.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *int_flags, config_required=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=config_required,
                       help="experiment config file")
        for flag in int_flags:
            p.add_argument(flag, type=int, default=None)
        p.add_argument("--out", default=None, help="write CSV/report here")
        p.set_defaults(func=func)

    trial_flags = ("--seed", "--trials", "--workers")
    command("simulate", cmd_simulate, "end-to-end simulation trials",
            *trial_flags)
    command("rates", cmd_rates, "rate-curve CSV sweeps", config_required=False)
    command("recovering-search", cmd_recovering_search,
            "randomized locator search", *trial_flags)
    # the audit runs serially; --workers is accepted so that one argument
    # list with --workers serves every command
    command("privacy-audit", cmd_privacy_audit, "exact collusion audit",
            "--workers")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except PirstreamError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_DECODE


if __name__ == "__main__":
    sys.exit(main())
