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
from .errors import ChannelGeneratorError, InvalidParams
from .protocol import Block, ERASED, ERRORED, ResponseStream
from .seeds import derive_rng

# The longest stream whose schedules mode 'exhaustive' enumerates: it
# tries every subset of the blocks.
EXHAUSTIVE_BLOCKS = 22


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
    if not window > eps >= 0:
        raise InvalidParams(f"need N > eps >= 0, got N={window}, eps={eps}")
    if mode not in ("shifted-family", "exhaustive", "random"):
        raise InvalidParams(f"unknown mode {mode!r}")
    if eps == 0:
        return [ErasureSchedule(frozenset(), ell, memory, window, eps)]
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
        if stream_len > EXHAUSTIVE_BLOCKS:
            raise InvalidParams("exhaustive enumeration only for short streams")
        out = []
        for r in range(stream_len + 1):
            for blocks in itertools.combinations(range(1, stream_len + 1), r):
                sched = make(blocks)
                if sched.is_valid():
                    out.append(sched)
        return out

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


def apply_erasures(stream: ResponseStream, schedule: ErasureSchedule) -> ResponseStream:
    blocks = list(stream.blocks)
    for b in schedule.erased:
        if not 1 <= b <= len(blocks):
            raise InvalidParams(f"block {b} outside the stream")
        blocks[b - 1] = Block(ERASED, None)
    return ResponseStream(stream.n, stream.ell, stream.memory, stream.rounds,
                          tuple(blocks))


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


def _budget_counts(profile: UmDistanceProfile, stream_len: int) -> tuple:
    """(xs, start, counts) for the budget weights of ``stream_len`` blocks,
    built once per stream length and kept by the profile (its ``_budget``).

    xs holds the x-value 2*w - d_alpha of each block weight w up to
    (dbar(1) - 1) // 2.  counts[r][best] is the number of ways to extend
    a budget-respecting prefix by r weights, given ``best``, the largest
    x-sum of a window that ends at its last block (the state of
    ``check_guarantee``).  ``start`` stands for the empty prefix: low
    enough that no first weight breaks the budget, and at most 0, so that
    it adds nothing to the window of the second block.

    counts[r + 1][best] sums counts[r][x + max(best, 0)] over the xs with
    best + x < limit, a run of the first xs, which step by 2; so it is one
    difference of the row's sums over states that step by 2 (``runs``).
    """
    if stream_len in profile._budget:
        return profile._budget[stream_len]
    d_alpha = profile.d_alpha
    limit = profile.d1 + profile.d2 - 2 * d_alpha
    xs = range(-d_alpha, 2 * ((profile.dbar(1) - 1) // 2) - d_alpha + 1, 2)
    start = min(-1, limit - 1 - xs[-1])
    # every best a budget-respecting prefix can leave lies in this range
    states = range(min(start, xs[0]), max(limit, xs[-1] + 1))
    # per best: the states (s0, s1) with counts[r + 1][best] = runs[s1] -
    # runs[s0], two below the state of its first x and that of its last
    # one, or None when every x breaks the budget
    spans = {}
    for best in states:
        taken = len(range(xs.start, min(xs.stop, limit - best), xs.step))
        first = xs.start + max(best, 0)
        spans[best] = (first - 2, first + 2 * (taken - 1)) if taken else None
    counts = [dict.fromkeys(states, 1)]
    for _ in range(stream_len):
        prev = counts[-1]
        runs = {}       # runs[s] = prev[s] + prev[s - 2] + ...
        for s in states:
            runs[s] = prev[s] + runs.get(s - 2, 0)
        counts.append({best: runs[span[1]] - runs.get(span[0], 0)
                       if span else 0 for best, span in spans.items()})
    profile._budget[stream_len] = xs, start, tuple(counts)
    return profile._budget[stream_len]


def count_budget_weights(profile: UmDistanceProfile, stream_len: int) -> int:
    """The number of weight sequences of ``stream_len`` blocks, each weight
    at most (dbar(1) - 1) // 2, that pass ``check_guarantee``."""
    _, start, counts = _budget_counts(profile, stream_len)
    return counts[stream_len][start]


def unrank_budget_weights(profile: UmDistanceProfile, stream_len: int,
                          rank: int) -> list[int]:
    """The ``rank``-th of the weight sequences that
    ``count_budget_weights`` counts, in lexicographic order."""
    xs, best, counts = _budget_counts(profile, stream_len)
    if not 0 <= rank < counts[stream_len][best]:
        raise InvalidParams(f"rank {rank} outside [0, "
                            f"{counts[stream_len][best]})")
    weights = []
    for left in range(stream_len - 1, -1, -1):
        # the weights that keep within the budget come first, and their
        # completions add up to more than rank, so the loop stops at one
        for w, x in enumerate(xs):
            nxt = x + max(best, 0)
            if rank < counts[left][nxt]:
                break
            rank -= counts[left][nxt]
        weights.append(w)
        best = nxt
    return weights


def gen_error_schedule(profile: UmDistanceProfile, ell: int, memory: int,
                       n: int, q: int, mode: str, seed: int,
                       b: int | None = None) -> ErrorSchedule:
    """Draw one error schedule.

    'budget' draws its block weights uniformly from the sequences that
    pass the guarantee check, so every emitted schedule is decodable by
    design; 'random' draws each block weight uniformly up to
    (dbar(1) - 1) // 2, ignoring the budget; 'fixed-byzantine' corrupts
    the same b servers in every block; 'none' is empty.

    Budget and random modes draw from ``derive_rng(seed, "errors", 0)``.
    Budget mode takes one rank below ``count_budget_weights`` and unranks
    it into the weights; random mode draws each weight in turn before
    its block's positions.  Per block, the positions are w distinct
    servers and each gets a proposed value.  The all-zero weights pass
    the check, so budget mode always has a schedule to draw.
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
    rng = derive_rng(seed, "errors", 0)
    if mode == "budget":
        weights = unrank_budget_weights(profile, stream_len, rng.randrange(
            count_budget_weights(profile, stream_len)))
        if not check_guarantee(weights, profile):
            raise ChannelGeneratorError(
                f"gen_error_schedule: budget weights {weights} fail "
                f"check_guarantee")
    elif mode == "random":
        # lazily, so each weight is drawn just before its block's positions
        cap = (profile.dbar(1) - 1) // 2
        weights = (rng.randint(0, cap) for _ in range(stream_len))
    else:
        raise InvalidParams(f"unknown mode {mode!r}")
    return ErrorSchedule(tuple(
        (blk, j, rng.randrange(q))
        for blk, w in enumerate(weights, 1)
        for j in sorted(rng.sample(range(n), w))), mode)


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
                          tuple(blocks))
