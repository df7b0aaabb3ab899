"""Per-layer instrumentation of pirstream, installed from outside the package.

Two installers, each used in its own fresh process:

* ``install_spans`` wraps the public functions of each layer in timed
  spans and counters and returns the ``Spans`` recorder;
* ``install_field_counts`` wraps the arithmetic methods of ``Field`` in
  call counters only, so that their cost stays out of the timed spans.

A function is replaced wherever a module of the package binds it, so a
caller that imported it by name (``decoder`` imports ``solve_unique``,
``grs`` imports ``solve_any``, ``channels`` imports ``check_guarantee`` and
``derive_rng``, ``recovering`` imports ``mat_rank``) sees the wrapper too.
Methods of ``GrsCode`` and ``Field`` are replaced on the class.

Spans nest on one stack, as the package is single-threaded under
``--workers 1``.  A span's self time is its duration minus the durations
of the spans it encloses.
"""

from __future__ import annotations

import sys
from time import monotonic

# Spans whose self times partition the traced time; the decoder.um.*
# entries re-split grs.bmd_decode and are not part of the partition.
PRIMARY_SPANS = (
    "grs.encode", "grs.erasure_decode", "grs.bmd_decode",
    "decoder.support_solve", "decoder.window_solve",
    "decoder.recover_window", "decoder.recover_plain", "decoder.decode_um",
    "channels.gen_error_schedule", "channels.gen_burst_patterns",
    "channels.apply_erasures", "channels.apply_errors",
    "protocol.storage_encode", "protocol.make_queries",
    "protocol.run_protocol", "protocol.server_respond",
    "linalg.rref", "linalg.mat_rank", "recovering.build_A",
    "seeds.derive_seed", "protocol.privacy_audit", "config.build_scheme",
)

# Field methods counted by install_field_counts, and the metric each feeds.
FIELD_GROUPS = {"mul": "mul", "add": "add", "sub": "add",
                "inv": "inv", "div": "inv", "pow": "pow"}


def _rebind(orig, wrapper) -> None:
    """Replace every module-level binding of ``orig`` in the package."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if name != "pirstream" and not name.startswith("pirstream."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"{orig!r} is bound nowhere in pirstream")


class Spans:
    """Span and counter recorder; ``record()`` returns a JSON-able dict."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[float] = []

    def _open(self) -> float:
        self._stack.append(0.0)
        return monotonic()

    def _close(self, name: str, t0: float) -> float:
        dt = monotonic() - t0
        own = dt - self._stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if self._stack:
            self._stack[-1] += dt
        return own

    def count(self, name: str, by: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def timed(self, name: str, fn):
        def span(*args, **kwargs):
            t0 = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0)
        return span

    def counted(self, name: str, fn):
        def counter(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return counter

    def record(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "counters": self.counters, "maxima": self.maxima}


def install_spans(k: int, t: int) -> Spans:
    """Wrap each layer's public functions; ``k``/``t`` name the BMD codes."""
    from pirstream import (channels, config, decoder, grs, linalg, protocol,
                           recovering, seeds)
    from pirstream.errors import DecodingFailure, InvalidParams

    spans = Spans()
    for name, owner, attr in (
        ("decoder.recover_window", decoder, "recover_window"),
        ("decoder.recover_plain", decoder, "recover_plain"),
        ("decoder.decode_um", decoder, "decode_um"),
        ("channels.gen_burst_patterns", channels, "gen_burst_patterns"),
        ("channels.apply_erasures", channels, "apply_erasures"),
        ("channels.apply_errors", channels, "apply_errors"),
        ("protocol.storage_encode", protocol, "storage_encode"),
        ("protocol.make_queries", protocol, "make_queries"),
        ("protocol.run_protocol", protocol, "run_protocol"),
        ("protocol.server_respond", protocol, "server_respond"),
        ("linalg.mat_rank", linalg, "mat_rank"),
        ("recovering.build_A", recovering, "build_A"),
        ("seeds.derive_seed", seeds, "derive_seed"),
        ("config.build_scheme", config, "build_scheme"),
    ):
        orig = getattr(owner, attr)
        _rebind(orig, spans.timed(name, orig))
    for name, attr in (("grs.encode", "encode"),
                       ("grs.erasure_decode", "erasure_decode")):
        setattr(grs.GrsCode, attr,
                spans.timed(name, getattr(grs.GrsCode, attr)))

    # Counters without spans: their time stays with the caller.
    _rebind(decoder.check_guarantee,
            spans.counted("decoder.check_guarantee.calls",
                          decoder.check_guarantee))
    grs.solve_any = spans.counted("grs.solve_any.calls", grs.solve_any)
    derive_rng = channels.derive_rng

    def channel_rng(master, *labels):
        # gen_error_schedule draws attempt i from the labels ("errors", i)
        if len(labels) == 2 and labels[0] == "errors" and isinstance(labels[1], int):
            spans.count("channels.gen_error_schedule.attempts")
        return derive_rng(master, *labels)
    channels.derive_rng = channel_rng

    solve_unique = decoder.solve_unique

    def solve(field, a, b):
        cols = len(a[0]) if a else 0
        name = "decoder.support_solve" if cols <= k else "decoder.window_solve"
        if cols > k:
            spans.maxima[name + ".cols_max"] = max(
                cols, spans.maxima.get(name + ".cols_max", 0))
        t0 = spans._open()
        try:
            return solve_unique(field, a, b)
        finally:
            spans._close(name, t0)
    _rebind(solve_unique, solve)

    rref = linalg.rref

    def traced_rref(field, rows):
        spans.count("linalg.rref.cells", len(rows) * (len(rows[0]) if rows else 0))
        t0 = spans._open()
        try:
            return rref(field, rows)
        finally:
            spans._close("linalg.rref", t0)
    _rebind(rref, traced_rref)

    bmd_decode = grs.GrsCode.bmd_decode
    um_codes = {3 * k + t - 1: "decoder.um.block_bmd",
                2 * k + t - 1: "decoder.um.coset_bmd",
                k + t - 1: "decoder.um.trellis_bmd"}

    def bmd(code, word):
        t0 = spans._open()
        try:
            return bmd_decode(code, word)
        except DecodingFailure:
            spans.count("grs.bmd_decode.failures")
            raise
        finally:
            own = spans._close("grs.bmd_decode", t0)
            um = um_codes.get(code.k)
            if um is not None:
                spans.calls[um] = spans.calls.get(um, 0) + 1
                spans.self_s[um] = spans.self_s.get(um, 0.0) + own
    grs.GrsCode.bmd_decode = bmd

    gen_error_schedule = channels.gen_error_schedule

    def gen_errors(*args, **kwargs):
        before = spans.counters.get("channels.gen_error_schedule.attempts", 0)
        t0 = spans._open()
        try:
            schedule = gen_error_schedule(*args, **kwargs)
        except InvalidParams:
            spans.count("channels.gen_error_schedule.raised")
            raise
        finally:
            spans._close("channels.gen_error_schedule", t0)
        if spans.counters.get("channels.gen_error_schedule.attempts", 0) > before:
            spans.count("channels.gen_error_schedule.accepted")
        return schedule
    _rebind(gen_error_schedule, gen_errors)

    privacy_audit = protocol.privacy_audit

    def audit(scheme, colluding, *args, **kwargs):
        t0 = spans._open()
        try:
            report = privacy_audit(scheme, colluding, *args, **kwargs)
        finally:
            spans._close("protocol.privacy_audit", t0)
        spans.count("protocol.privacy_audit.draws", report.enumerated * scheme.m)
        return report
    _rebind(privacy_audit, audit)
    return spans


def install_field_counts() -> dict:
    """Count the outermost calls of Field.add/sub/mul/inv/div/pow.

    A method that calls another one (``div`` calls ``mul`` and ``inv``)
    counts once, under its own group.
    """
    from pirstream.fields import Field

    counts = {group: 0 for group in FIELD_GROUPS.values()}
    inside = [False]
    for method, group in FIELD_GROUPS.items():
        orig = getattr(Field, method)

        def counted(self, *args, _orig=orig, _group=group):
            if inside[0]:
                return _orig(self, *args)
            inside[0] = True
            counts[_group] += 1
            try:
                return _orig(self, *args)
            finally:
                inside[0] = False
        setattr(Field, method, counted)
    return counts


def layer_metrics(names, spans: dict, fields: dict, gave_up: int) -> dict:
    """Values of the per-layer metrics ``names`` from a ``Spans.record()``
    and field counts.

    ``gave_up`` comes from the FAIL lines of the traced run's output.
    Names that the workload never reached read 0.
    """
    calls, self_s = spans["calls"], spans["self_s"]
    counters, maxima = spans["counters"], spans["maxima"]
    out = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if name in counters or name in maxima:
            out[name] = counters.get(name, maxima.get(name))
        elif stat == "calls":
            out[name] = calls.get(base, 0)
        elif stat == "self_s":
            out[name] = self_s.get(base, 0.0)
        else:
            out[name] = 0
    bmd_calls = calls.get("grs.bmd_decode", 0)
    out["grs.bmd_decode.solves_per_call"] = (
        counters.get("grs.solve_any.calls", 0) / bmd_calls if bmd_calls else 0)
    attempts = counters.get("channels.gen_error_schedule.attempts", 0)
    out["channels.gen_error_schedule.accept_ratio"] = (
        counters.get("channels.gen_error_schedule.accepted", 0) / attempts
        if attempts else 0)
    out["channels.gen_error_schedule.gave_up"] = gave_up
    for group in set(FIELD_GROUPS.values()):
        out[f"fields.{group}.calls"] = fields[group]
    return out
