"""User-side recovery pipelines.

Three decoders share the same front half (erasure-decode each block in
the star-product code, strip the interference, keep the desired-file
combination on the support):

* ``recover_plain``   -- sequential peeling, one stripe per block;
* ``recover_window``  -- the same peeling, waiting out bursts of block
  erasures for up to a window of N blocks;
* ``decode_um``       -- the unit-memory error decoder: per-block
  decoding in the sum code, coset decoding outward from the anchors,
  then Viterbi over the reduced trellis of stripe hypotheses.

The first two are one peeling kernel (``_peel``): plain recovery runs it
with a one-block window on a stream that has no erasures.  The erasure
rule that ``recover_window`` enforces, and that
``ErasureSchedule.is_valid`` reports, lives in ``_erasure_violation``.

``check_guarantee`` evaluates the designed-extended-row-distance budget
that makes ``decode_um`` provably exact, in one linear scan over the
block weights; the budget sampler of ``channels`` calls it on every
weight prefix it draws.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import (
    DecodingFailure,
    InconsistentBlock,
    InconsistentSystem,
    InconsistentWord,
    InvalidParams,
    RankDeficient,
    UncorrectablePattern,
)
from .grs import GrsCode
from .linalg import solve_unique
from .protocol import BLOCK, BYZANTINE, ERASED, PLAIN, PirScheme, ResponseStream

logger = logging.getLogger(__name__)

DIRECT = "direct"
WINDOW = "window-solved"
TRELLIS = "trellis"


@dataclass(frozen=True)
class UmDistanceProfile:
    """Block and coset distances of a unit-memory construction."""

    d_alpha: int
    d1: int
    d2: int

    @classmethod
    def for_byzantine(cls, n: int, k: int, t: int) -> "UmDistanceProfile":
        d_alpha = n - 3 * k - t + 2
        d_coset = n - 2 * k - t + 2
        if d_alpha < 1:
            raise InvalidParams(f"degenerate block distance for n={n}, k={k}, t={t}")
        return cls(d_alpha, d_coset, d_coset)

    def dbar(self, length: int) -> int:
        """Designed extended row distance of a window of ``length`` blocks."""
        if length < 1:
            raise InvalidParams("window length must be >= 1")
        return self.d1 + (length - 1) * self.d_alpha + self.d2


def check_guarantee(weights, profile: UmDistanceProfile) -> bool:
    """True iff every window of iota+1 consecutive blocks carries strictly
    less than dbar(iota)/2 errors, for every iota >= 1.

    A deviation of iota stripes touches iota+1 blocks (each stripe feeds
    two adjacent blocks), which is why the iota-th distance guards the
    (iota+1)-block window; single blocks are bounded through their pairs.

    One pass over the weights: with x_b = 2*w_b - d_alpha, a window of
    two or more blocks breaks the budget iff its x-sum reaches
    d1 + d2 - 2*d_alpha, so it is enough to carry the largest x-sum of a
    window that ends at the previous block (Kadane's scan).  Every window
    of a prefix is a window of the whole list, so a prefix that fails
    means the whole list fails.
    """
    d_alpha = profile.d_alpha
    limit = profile.d1 + profile.d2 - 2 * d_alpha
    best = None          # largest x-sum of a window ending at the last block
    for w in weights:
        x = 2 * w - d_alpha
        if best is None:
            best = x
            continue
        if best + x >= limit:
            return False
        best = x + max(best, 0)
    return True


@dataclass(frozen=True)
class RecoveredFile:
    """The ell recovered stripes with per-stripe provenance."""

    stripes: tuple
    provenance: tuple


# --- peeling ------------------------------------------------------------------

def _desired_combination(scheme: PirScheme, star: GrsCode, block) -> dict:
    """Strip the interference from one intact block.

    Erasure-decodes each sub-round in the star-product code ``star`` with
    the sub-support treated as erased, and returns {j: u_j} on the
    support, where u_j is the remaining combination of desired-file
    symbols.
    """
    f = scheme.field
    out = {}
    for r, part in enumerate(scheme.sub_supports):
        word = list(block.parts[r])
        try:
            msg = star.erasure_decode(word, erased=set(part))
        except InconsistentWord as exc:
            raise InconsistentBlock(str(exc)) from exc
        clean = star.encode(msg)
        for j in part:
            out[j] = f.sub(word[j], clean[j])
    return out


def _peel(stream: ResponseStream, scheme: PirScheme, window: int) -> RecoveredFile:
    """Sequential peeling that waits out erased blocks.

    Each block's stripe joins the unknowns; each intact block's desired
    combination joins the pending equations.  After every intact block the
    pending equations, with the known stripes subtracted, are solved for
    all unknowns at once; a stripe solved from its own block alone is
    ``direct``, any other is ``window-solved``.  Once the oldest unknown
    stripe is ``window - 1`` blocks behind, a failed solve is final.
    Intact termination blocks with nothing unknown must reduce to zero.
    """
    f = scheme.field
    code = scheme.storage_code
    star = scheme.star_code()
    g = code.generator_matrix()
    k, ell, memory = scheme.k, stream.ell, scheme.memory
    offsets = {j: [rows[z][j] for z in range(memory + 1)]
               for part, rows in zip(scheme.sub_supports, scheme.e_offsets)
               for j in part}
    known: dict[int, tuple] = {}
    provenance: dict[int, str] = {}
    unknown: list[int] = []
    pending: list[tuple[int, dict]] = []

    def solve(deadline: bool):
        cols = [(xi, r) for xi in unknown for r in range(k)]
        col_index = {c: i for i, c in enumerate(cols)}
        rows, rhs = [], []
        for s, u in pending:
            for j, val in u.items():
                row = [0] * len(cols)
                acc = val
                for z in range(memory + 1):
                    prev = s - z
                    if prev < 1 or prev > ell:
                        continue
                    off = offsets[j][z]
                    if prev in known:
                        y = code.encode(list(known[prev]))[j]
                        acc = f.sub(acc, f.mul(off, y))
                    else:
                        for r in range(k):
                            row[col_index[(prev, r)]] = f.mul(off, g[r][j])
                rows.append(row)
                rhs.append(acc)
        if not cols:
            if any(rhs):
                raise InconsistentBlock(f"termination block {pending[0][0]} "
                                        f"disagrees with decoded stripes")
            pending.clear()
            return
        if len(rows) < len(cols):
            if deadline:
                raise UncorrectablePattern(
                    f"stripes {unknown} ran out of equations")
            return
        last = pending[-1][0]
        try:
            sol = solve_unique(f, rows, rhs)
        except RankDeficient:
            if deadline:
                raise
            return
        except InconsistentSystem as exc:
            raise InconsistentBlock(f"block {last}: {exc}") from exc
        how = DIRECT if unknown == [last] and len(pending) == 1 else WINDOW
        for xi in unknown:
            base = col_index[(xi, 0)]
            known[xi] = tuple(sol[base: base + k])
            provenance[xi] = how
        unknown.clear()
        pending.clear()

    for xi in range(1, ell + memory + 1):
        if xi <= ell:
            unknown.append(xi)
        block = stream.block(xi)
        intact = block.status != ERASED
        if intact:
            pending.append((xi, _desired_combination(scheme, star, block)))
        due = bool(unknown) and xi >= unknown[0] + window - 1
        if intact or due:
            solve(due)
    if unknown:
        solve(True)
    return RecoveredFile(tuple(known[xi] for xi in range(1, ell + 1)),
                         tuple(provenance[xi] for xi in range(1, ell + 1)))


def recover_plain(stream: ResponseStream, scheme: PirScheme) -> RecoveredFile:
    """Sequential peeling recovery; needs every block intact."""
    if scheme.variant not in (PLAIN, BLOCK):
        raise InvalidParams(f"recover_plain does not apply to {scheme.variant}")
    for xi in range(1, len(stream.blocks) + 1):
        if stream.block(xi).status == ERASED:
            raise UncorrectablePattern(f"block {xi} is erased")
    return _peel(stream, scheme, window=1)


# --- window decoding ---------------------------------------------------------

def _erasure_violation(erased, stream_len: int, window: int, eps: int):
    """Why a set of erased blocks breaks the erasure rule, or None.

    The rule: every erased block lies in 1..stream_len, every burst of
    consecutive erasures is at most eps blocks long, and every window of
    ``window`` consecutive blocks, clipped at the stream end, holds at
    most eps erasures.
    """
    erased = set(erased)
    for b in sorted(erased):
        if not 1 <= b <= stream_len:
            return f"block {b} outside the stream of {stream_len} blocks"
        if b - 1 in erased:
            continue
        run = 1
        while b + run in erased:
            run += 1
        if run > eps:
            return f"burst of {run} erasures at block {b} exceeds eps={eps}"
    # a clipped window starting later is contained in the last full one
    for start in range(1, max(stream_len - window, 0) + 2):
        end = min(start + window, stream_len + 1)
        cnt = sum(1 for b in range(start, end) if b in erased)
        if cnt > eps:
            return f"{cnt} erasures in the {window}-block window at {start}"
    return None


def recover_window(stream: ResponseStream, scheme: PirScheme) -> RecoveredFile:
    """Window recovery through erasure bursts.

    Intact stretches decode stripe-per-block exactly like recover_plain;
    a burst defers its stripes until the window provides a full-rank
    stacked system.  That is guaranteed when the support locators have
    the recovering property (``recovering.build_A(...).verdict``); without
    it a burst's solve can fail at its deadline.  A stream that breaks
    the erasure rule raises ``UncorrectablePattern`` before any decoding.
    """
    if scheme.variant != BLOCK:
        raise InvalidParams(f"recover_window needs the block-erasure variant")
    erased = [xi for xi in range(1, len(stream.blocks) + 1)
              if stream.block(xi).status == ERASED]
    reason = _erasure_violation(erased, len(stream.blocks), scheme.window,
                                scheme.burst)
    if reason is not None:
        raise UncorrectablePattern(reason)
    return _peel(stream, scheme, scheme.window)


# --- unit-memory error decoding ----------------------------------------------

_BOT = None  # trellis pass-through node


def decode_um(stream: ResponseStream, scheme: PirScheme) -> RecoveredFile:
    """Unit-memory decoding of a stream with symbol errors.

    Step 1 decodes each block in the sum code; step 2 extends from every
    anchor through the cosets of the neighbours; step 3 runs Viterbi over
    the reduced trellis of stripe hypotheses (an unknown node with
    saturated metric bridges gaps); step 4 reads the stripes off the
    winning path, whose per-block split is unique by construction.
    """
    if scheme.variant != BYZANTINE:
        raise InvalidParams("decode_um needs the unit-memory error variant")
    f = scheme.field
    code = scheme.storage_code
    n, k, t = scheme.n, scheme.k, scheme.t
    ell = stream.ell
    locs = code.locators
    e1, e2 = scheme.e_offsets[0]
    c_sum = GrsCode(f, n, 3 * k + t - 1, locs, e1)
    c_fwd = GrsCode(f, n, 2 * k + t - 1, locs, e1)   # desired + interference
    c_bwd = GrsCode(f, n, 2 * k + t - 1, locs)       # interference + delayed
    c_int = scheme.star_code()
    saturated = c_int.d
    zero = (0,) * k

    def enc(stripe):
        return code.encode(list(stripe))

    def sub_scaled(word, offsets, stripe):
        y = enc(stripe)
        return [f.sub(w, f.mul(o, v)) for w, o, v in zip(word, offsets, y)]

    candidates: dict[int, set] = {xi: set() for xi in range(1, ell + 1)}
    anchored: dict[int, tuple] = {}

    # step 1: per-block decoding in the sum code
    for xi in range(1, ell + 2):
        block = stream.block(xi)
        if block.parts is None:
            continue
        try:
            msg, errors = c_sum.bmd_decode(list(block.parts[0]))
        except DecodingFailure:
            continue
        cur = tuple(msg[:k])
        prev = tuple(msg[2 * k + t - 1:])
        anchored[xi] = (cur, prev)
        if xi <= ell:
            candidates[xi].add(cur)
        if xi - 1 >= 1:
            candidates[xi - 1].add(prev)

    # step 2: coset chains from every anchor and both stream boundaries.
    # Chains run at maximal depth, straight through other anchored blocks:
    # an anchor with more errors than the per-block radius can be a
    # miscorrection, and stopping there would suppress the correct
    # candidates its neighbours can still derive.  A chain does stop at a
    # state (block, incoming stripe) that some chain of its direction has
    # already extended: each step depends on that state alone, so the rest
    # of the chain would repeat the same decodes and add the same
    # candidates.  Chains from correct anchors merge onto the true path
    # after one step, which is where this saves the bulk of the decodes.
    fwd_seen: set = set()
    bwd_seen: set = set()

    def forward(s, prev_stripe):
        while s <= ell and (s, prev_stripe) not in fwd_seen:
            fwd_seen.add((s, prev_stripe))
            block = stream.block(s)
            if block.parts is None:
                return
            residual = sub_scaled(block.parts[0], e2, prev_stripe)
            try:
                msg, _ = c_fwd.bmd_decode(residual)
            except DecodingFailure:
                return
            cur = tuple(msg[:k])
            candidates[s].add(cur)
            prev_stripe = cur
            s += 1

    def backward(s, cur_stripe):
        while s >= 2 and (s, cur_stripe) not in bwd_seen:
            bwd_seen.add((s, cur_stripe))
            block = stream.block(s)
            if block.parts is None:
                return
            residual = sub_scaled(block.parts[0], e1, cur_stripe)
            try:
                msg, _ = c_bwd.bmd_decode(residual)
            except DecodingFailure:
                return
            prev = tuple(msg[k + t - 1:])
            candidates[s - 1].add(prev)
            cur_stripe = prev
            s -= 1

    forward(1, zero)
    backward(ell + 1, zero)
    for xi, (cur, prev) in sorted(anchored.items()):
        forward(xi + 1, cur)
        if xi - 1 >= 1:
            backward(xi - 1, prev)

    # step 3: Viterbi over the reduced trellis
    stages: list[list] = [[zero]]
    for xi in range(1, ell + 1):
        stages.append(sorted(candidates[xi]) + [_BOT])
    stages.append([zero])

    enc_cache: dict[tuple, list] = {}

    def encoded(stripe):
        if stripe not in enc_cache:
            enc_cache[stripe] = enc(stripe)
        return enc_cache[stripe]

    def branch_metric(xi, a, b):
        block = stream.block(xi)
        if block.parts is None:
            return 0
        if a is _BOT or b is _BOT:
            return saturated
        word = list(block.parts[0])
        ya, yb = encoded(a), encoded(b)
        residual = [
            f.sub(w, f.add(f.mul(o1, v1), f.mul(o2, v2)))
            for w, o1, v1, o2, v2 in zip(word, e1, yb, e2, ya)
        ]
        try:
            _, errors = c_int.bmd_decode(residual)
        except DecodingFailure:
            return saturated
        return 2 * len(errors)

    costs = [{zero: 0}]
    back: list[dict] = [{}]
    for xi in range(1, ell + 2):
        cost: dict = {}
        prev_nodes = stages[xi - 1]
        ptr: dict = {}
        for b in stages[xi]:
            best = None
            best_prev = None
            for a in prev_nodes:
                base = costs[xi - 1].get(a)
                if base is None:
                    continue
                total = base + branch_metric(xi, a, b)
                if best is None or total < best:
                    best = total
                    best_prev = a
            if best is not None:
                cost[b] = best
                ptr[b] = best_prev
        costs.append(cost)
        back.append(ptr)
        logger.debug("block %d: status=%s candidates=%d best=%s",
                     xi, stream.block(xi).status, len(stages[xi]),
                     min(cost.values()) if cost else None)

    if zero not in costs[ell + 1]:
        raise DecodingFailure("no trellis path reaches the terminated state")
    path = [zero]
    for xi in range(ell + 1, 0, -1):
        path.append(back[xi][path[-1]])
    path.reverse()
    stripes = path[1: ell + 1]
    if any(s is _BOT for s in stripes):
        raise DecodingFailure("winning path passes through an unknown block")
    return RecoveredFile(tuple(stripes), (TRELLIS,) * ell)
