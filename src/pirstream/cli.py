"""Command-line experiment runner.

Four commands: ``simulate`` (end-to-end trials through a channel),
``rates`` (rate-curve CSV sweeps), ``recovering-search`` (randomized
locator search), ``privacy-audit`` (exact collusion check).

Exit codes: 0 success, 2 config error, 3 decode failure in a guaranteed
regime or audit failure, 4 a search probability missed its expected band.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import channels, decoder, protocol, rates, recovering
from .config import _int, _int_list, build_scheme, load_config
from .errors import ConfigError, PirstreamError
from .fields import Field, factorize
from .rates import verify_accounting
from .seeds import derive_rng, derive_seed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DECODE = 3
EXIT_TOLERANCE = 4


def field_for_order(q: int) -> Field:
    factors = factorize(q)
    if len(factors) != 1:
        raise ConfigError(f"q = {q} is not a prime power")
    (p, s), = factors.items()
    return Field(p, s)


def _write_out(path, text):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _fmt(x: Fraction) -> str:
    return f"{float(x):.10f}"


# --- simulate ----------------------------------------------------------------

def _erasure_schedules(channel, ell, scheme, seed, trials):
    mode = channel.get("mode", "exhaustive")
    if mode in ("exhaustive", "shifted-family"):
        return channels.gen_burst_patterns(
            ell, scheme.memory, scheme.window, scheme.burst, mode)
    return channels.gen_burst_patterns(
        ell, scheme.memory, scheme.window, scheme.burst, "random",
        seed=derive_seed(seed, "erasure-schedules"), count=trials)


def _run_one_trial(scheme, ell, channel, seed, trial, schedules):
    field = scheme.field
    files = protocol.random_files(
        field, scheme.m, ell, scheme.k, derive_rng(seed, "files", trial))
    system = protocol.storage_encode(files, scheme.storage_code)
    stream = protocol.run_protocol(system, scheme,
                                   derive_seed(seed, "protocol", trial))
    downloaded = stream.downloaded
    kind = channel.get("kind", "none")
    desc = "clean"
    try:
        if kind == "block-erasure":
            sched = schedules[trial % len(schedules)]
            desc = "erased=" + "+".join(str(b) for b in sorted(sched.erased))
            stream = channels.apply_erasures(stream, sched)
            rec = decoder.recover_window(stream, scheme)
        elif kind == "symbol-errors":
            prof = decoder.UmDistanceProfile.for_byzantine(
                scheme.n, scheme.k, scheme.t)
            sched = channels.gen_error_schedule(
                prof, ell, scheme.memory, scheme.n, field.q,
                channel.get("mode", "budget"),
                derive_seed(seed, "errors", trial),
                b=int(channel["b"]) if "b" in channel else None)
            desc = f"weights={sched.weights(ell + scheme.memory)}"
            stream = channels.apply_errors(stream, sched, field.q,
                                           derive_seed(seed, "values", trial))
            rec = decoder.decode_um(stream, scheme)
        elif scheme.variant == protocol.PLAIN:
            rec = decoder.recover_plain(stream, scheme)
        elif scheme.variant == protocol.BLOCK:
            rec = decoder.recover_window(stream, scheme)
        else:
            rec = decoder.decode_um(stream, scheme)
        ok = rec.stripes == files[scheme.desired]
    except PirstreamError as exc:
        return False, downloaded, f"{desc}: {type(exc).__name__}: {exc}"
    return ok, downloaded, desc


def _simulate_range(scheme, ell, channel, seed, lo, hi, schedules):
    results = []
    for trial in range(lo, hi):
        ok, downloaded, desc = _run_one_trial(
            scheme, ell, channel, seed, trial, schedules)
        results.append((trial, ok, downloaded, desc))
    return results


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    field, code, scheme, ell = build_scheme(cfg)
    seed = args.seed if args.seed is not None else _int(
        "run", "seed", cfg.run.get("seed", "0"))
    trials = args.trials if args.trials is not None else _int(
        "run", "trials", cfg.run.get("trials", "1"))
    workers = args.workers if args.workers is not None else _int(
        "run", "workers", cfg.run.get("workers", "1"))
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    channel = dict(cfg.channel)
    if "b" in channel:
        _int("channel", "b", channel["b"])
    kind = channel.get("kind", "none")
    if kind == "block-erasure" and scheme.variant != protocol.BLOCK:
        raise ConfigError("[channel] block-erasure needs the block-erasure variant")
    if kind == "symbol-errors" and scheme.variant != protocol.BYZANTINE:
        raise ConfigError("[channel] symbol-errors needs the byzantine variant")
    schedules = None
    if kind == "block-erasure":
        schedules = _erasure_schedules(channel, ell, scheme, seed, trials)
        if channel.get("mode", "exhaustive") in ("exhaustive", "shifted-family"):
            trials = len(schedules)
    results = []
    if workers > 1:
        chunk = -(-trials // workers)
        spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_simulate_range, scheme, ell, channel, seed, lo, hi,
                            schedules)
                for lo, hi in spans
            ]
            for fut in futures:
                results.extend(fut.result())
    else:
        results = _simulate_range(scheme, ell, channel, seed, 0, trials, schedules)
    results.sort()
    ok_count = sum(1 for _, ok, _, _ in results if ok)
    downloaded = results[0][2] if results else 0
    gamma = len(scheme.support)
    report = verify_accounting(
        variant=scheme.variant, n=scheme.n, k=scheme.k, t=scheme.t, ell=ell,
        memory=scheme.memory, rounds=scheme.rounds, gamma=gamma,
        N=scheme.window, eps=scheme.burst, downloaded=downloaded)
    guaranteed = channel.get("mode", "budget" if kind == "symbol-errors" else "") != "random"
    lines = [
        f"variant={scheme.variant} n={scheme.n} k={scheme.k} t={scheme.t} "
        f"m={scheme.m} ell={ell} M={scheme.memory} rounds={scheme.rounds}",
        f"trials={trials} ok={ok_count} success_rate={ok_count / trials:.4f}",
        f"downloaded_per_trial={downloaded} simulated_rate={report.simulated_rate} "
        f"formula_rate={report.formula_rate} bound={report.bound} "
        f"padded={report.padded}",
    ]
    for trial, ok, _, desc in results:
        if not ok:
            lines.append(f"FAIL trial={trial} {desc}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        csv_lines = ["trial,success,downloaded,channel"]
        for trial, ok, dl, desc in results:
            csv_lines.append(f"{trial},{int(ok)},{dl},{desc}")
        _write_out(args.out, "\n".join(csv_lines) + "\n")
    if ok_count < trials and guaranteed:
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
    text = rates_csv(**params)
    sys.stdout.write(text)
    _write_out(args.out, text)
    return EXIT_OK


# --- recovering-search -------------------------------------------------------

def _search_row(k, M, q, gamma, trials, seed, workers) -> float:
    field = field_for_order(q)
    if workers > 1:
        chunk = -(-trials // workers)
        spans = [(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
        hits = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(recovering.random_search_counts, field, k, M,
                            hi - lo, seed, gamma, lo)
                for lo, hi in spans
            ]
            for fut in futures:
                hits += fut.result()[0]
        return hits / trials
    hits, _ = recovering.random_search_counts(field, k, M, trials, seed, gamma)
    return hits / trials


def parse_search_rows(raw: str):
    rows = []
    for token in raw.replace(",", " ").split():
        parts = token.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"[search] row {token!r}; expected k:M:q[:gamma]")
        k, M, q = (_int("search", "rows", x) for x in parts[:3])
        gamma = _int("search", "rows", parts[3]) if len(parts) == 4 else None
        rows.append((k, M, q, gamma))
    return rows


def cmd_recovering_search(args) -> int:
    rows = []
    bands = []
    trials = args.trials if args.trials is not None else 10000
    seed = args.seed if args.seed is not None else 0
    workers = args.workers if args.workers is not None else 1
    if args.config:
        cfg = load_config(args.config)
        if "rows" in cfg.search:
            rows = parse_search_rows(cfg.search["rows"])
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
        if args.trials is None and "trials" in cfg.search:
            trials = _int("search", "trials", cfg.search["trials"])
        if args.seed is None and "seed" in cfg.search:
            seed = _int("search", "seed", cfg.search["seed"])
    if trials < 1:
        raise ConfigError(f"[search] trials = {trials} must be >= 1")
    if not rows:
        raise ConfigError("recovering-search needs [search] rows = k:M:q[:gamma] ...")
    lines = ["k,M,N,q,gamma,trials,p_full"]
    missed = False
    for idx, (k, M, q, gamma) in enumerate(rows):
        if gamma is None:
            gamma = recovering.minimal_gamma(k, M)
        p = _search_row(k, M, q, gamma, trials, seed, workers)
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


def cmd_privacy_audit(args) -> int:
    cfg = load_config(args.config)
    field, code, scheme, ell = build_scheme(cfg)
    limit = _int("audit", "limit", cfg.audit.get("limit", str(1 << 20)))
    if "sets" in cfg.audit and cfg.audit["sets"]:
        colluding_sets = _audit_sets(cfg.audit["sets"], scheme.n, scheme.t)
    else:
        colluding_sets = list(itertools.combinations(range(scheme.n), scheme.t))
    lines = []
    all_pass = True
    for colluders in colluding_sets:
        report = protocol.privacy_audit(scheme, colluders, limit=limit)
        if report.identical:
            lines.append(f"T={list(colluders)} PASS enumerated={report.enumerated}")
        else:
            all_pass = False
            a, b, view, ca, cb = report.witness
            lines.append(
                f"T={list(colluders)} FAIL witness: view={view} has count {ca} "
                f"for index {a} but {cb} for index {b}")
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

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="experiment config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None, help="write CSV/report here")

    p_sim = sub.add_parser("simulate", help="end-to-end simulation trials")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rates = sub.add_parser("rates", help="rate-curve CSV sweeps")
    common(p_rates, config_required=False)
    p_rates.set_defaults(func=cmd_rates)

    p_search = sub.add_parser("recovering-search",
                              help="randomized locator search")
    common(p_search)
    p_search.set_defaults(func=cmd_recovering_search)

    p_audit = sub.add_parser("privacy-audit",
                             help="exact collusion audit")
    common(p_audit)
    p_audit.set_defaults(func=cmd_privacy_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except PirstreamError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_DECODE


if __name__ == "__main__":
    sys.exit(main())
