"""Deterministic, seedable channel models: block-erasure bursts and
symbol errors / Byzantine servers, plus pattern generators for tests.

Erasures are whole blocks (all n responses of an iteration lost); errors
substitute individual symbols and are always real changes, never
accidental no-ops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decoder import UmDistanceProfile, _erasure_violation, check_guarantee
from .errors import InvalidParams
from .protocol import Block, ERASED, ERRORED, ResponseStream
from .seeds import derive_rng


@dataclass(frozen=True)
class ErasureSchedule:
    """Set of erased block indices (1-based) within a stream of ell+M blocks.

    Valid schedules follow the erasure rule that ``recover_window``
    enforces: every burst of consecutive erasures at most eps long and at
    most eps erased blocks inside any window of N consecutive blocks,
    clipped at the stream end, so each burst is resolvable within its
    window.
    """

    erased: frozenset
    ell: int
    memory: int
    window: int
    burst: int

    @property
    def stream_len(self) -> int:
        return self.ell + self.memory

    def is_valid(self) -> bool:
        return _erasure_violation(self.erased, self.stream_len, self.window,
                                  self.burst) is None


def gen_burst_patterns(ell: int, memory: int, window: int, eps: int,
                       mode: str, seed: int | None = None,
                       count: int = 10) -> list[ErasureSchedule]:
    """Erasure schedules for a stream of ell+memory blocks.

    'shifted-family' emits the N cyclic shifts of the canonical
    eps-burst-per-window pattern; 'exhaustive' emits every valid schedule
    (small streams only); 'random' draws valid schedules from a seed.
    """
    if eps == 0:
        return [ErasureSchedule(frozenset(), ell, memory, window, eps)]
    if not window > eps >= 0:
        raise InvalidParams(f"need N > eps >= 0, got N={window}, eps={eps}")
    stream_len = ell + memory

    def make(blocks) -> ErasureSchedule:
        return ErasureSchedule(frozenset(blocks), ell, memory, window, eps)

    if mode == "shifted-family":
        cycle = -(-ell // window) * window
        out = []
        for z in range(window):
            blocks = set()
            for seg in range(cycle // window):
                for c in range(1, eps + 1):
                    b = (seg * window + z + c) % cycle
                    if b == 0:
                        b = cycle
                    if b <= stream_len:
                        blocks.add(b)
            out.append(make(blocks))
        return out

    if mode == "exhaustive":
        if stream_len > 22:
            raise InvalidParams("exhaustive enumeration only for short streams")
        out = []
        for r in range(stream_len + 1):
            for blocks in itertools.combinations(range(1, stream_len + 1), r):
                sched = make(blocks)
                if sched.is_valid():
                    out.append(sched)
        return out

    if mode == "random":
        if seed is None:
            raise InvalidParams("random mode needs a seed")
        out = []
        for i in range(count):
            rng = derive_rng(seed, "burst", i)
            blocks = []
            pos = 1
            while pos <= stream_len:
                if rng.random() < 0.4:
                    run = rng.randint(1, eps)
                    blocks.extend(b for b in range(pos, min(pos + run, stream_len + 1)))
                    pos += window
                else:
                    pos += 1
            out.append(make(blocks))
        return out

    raise InvalidParams(f"unknown mode {mode!r}")


def apply_erasures(stream: ResponseStream, schedule: ErasureSchedule) -> ResponseStream:
    blocks = list(stream.blocks)
    for b in schedule.erased:
        if not 1 <= b <= len(blocks):
            raise InvalidParams(f"block {b} outside the stream")
        blocks[b - 1] = Block(ERASED, None)
    return ResponseStream(stream.n, stream.ell, stream.memory, stream.rounds,
                          tuple(blocks), stream.downloaded)


@dataclass(frozen=True)
class ErrorSchedule:
    """Symbol substitutions: (block, server, proposed value) triples.

    In fixed-Byzantine mode the corrupted server set is the same in every
    block.  Proposed values are drawn at generation time; application
    resamples any that collide with the stored symbol.
    """

    entries: tuple
    mode: str

    def weights(self, stream_len: int) -> list[int]:
        w = [0] * stream_len
        for b, _, _ in self.entries:
            w[b - 1] += 1
        return w


def gen_error_schedule(profile: UmDistanceProfile, ell: int, memory: int,
                       n: int, q: int, mode: str, seed: int,
                       b: int | None = None) -> ErrorSchedule:
    """Draw one error schedule.

    'budget' rejection-samples until the guarantee check passes, so every
    emitted schedule is decodable by design; 'fixed-byzantine' corrupts
    the same b servers in every block; 'none' is empty; 'random' ignores
    the budget.

    Each attempt draws from its own ``derive_rng(seed, "errors",
    attempt)``: per block a weight up to (dbar(1) - 1) // 2, then that
    many servers and proposed values.  A budget attempt is dropped as
    soon as the weights drawn so far fail ``check_guarantee``, before
    the positions of that block are drawn.  A failing prefix fails the
    whole schedule, and the next attempt does not depend on how far this
    one got, so the law of the accepted schedules is the same as
    checking complete draws.  After 10,000 rejected attempts budget mode
    raises ``InvalidParams``.
    """
    stream_len = ell + memory
    if mode == "none":
        return ErrorSchedule((), mode)
    if mode == "fixed-byzantine":
        if b is None or not 0 <= b <= n:
            raise InvalidParams("fixed-byzantine mode needs 0 <= b <= n")
        rng = derive_rng(seed, "errors", "fixed")
        servers = sorted(rng.sample(range(n), b))
        entries = tuple(
            (blk, j, rng.randrange(q))
            for blk in range(1, stream_len + 1)
            for j in servers
        )
        return ErrorSchedule(entries, mode)
    if mode not in ("budget", "random"):
        raise InvalidParams(f"unknown mode {mode!r}")
    budget = mode == "budget"
    cap = (profile.dbar(1) - 1) // 2
    for attempt in range(10000):
        rng = derive_rng(seed, "errors", attempt)
        entries = []
        weights = []
        for blk in range(1, stream_len + 1):
            w = rng.randint(0, cap)
            weights.append(w)
            if budget and not check_guarantee(weights, profile):
                break
            for j in sorted(rng.sample(range(n), w)):
                entries.append((blk, j, rng.randrange(q)))
        else:           # every block drawn without breaking the budget
            return ErrorSchedule(tuple(entries), mode)
    raise InvalidParams("could not sample a budget-respecting schedule")


def apply_errors(stream: ResponseStream, schedule: ErrorSchedule, q: int,
                 seed: int) -> ResponseStream:
    """Substitute the scheduled symbols, resampling any proposed value
    that equals the stored one so every entry is a real corruption."""
    if stream.rounds != 1:
        raise InvalidParams("symbol errors target single-round streams")
    rng = derive_rng(seed, "error-values")
    blocks = list(stream.blocks)
    by_block: dict[int, list] = {}
    for b, j, v in schedule.entries:
        by_block.setdefault(b, []).append((j, v))
    for b, subs in sorted(by_block.items()):
        blk = blocks[b - 1]
        if blk.parts is None:
            raise InvalidParams(f"block {b} is erased; cannot add errors")
        vec = list(blk.parts[0])
        for j, v in subs:
            original = vec[j]
            while v == original:
                v = rng.randrange(q)
            vec[j] = v
        blocks[b - 1] = Block(ERRORED, (tuple(vec),))
    return ResponseStream(stream.n, stream.ell, stream.memory, stream.rounds,
                          tuple(blocks), stream.downloaded)
