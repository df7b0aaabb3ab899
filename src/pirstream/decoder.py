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
with a one-block window on a stream that has no erasures.  It derives
each intact block's equations once, when the block arrives, and stacks
them into one system per solve attempt; ``linalg.solve_unique``
eliminates each distinct system below its cell cap once per process.
The per-scheme part of the equations, the coefficient of every stripe
lag at every support position and the linear map that gives the known
stripes' share of a block, is built once per scheme
(``_peeling_tables``), so peeling encodes no stripe.
The erasure rule that ``recover_window`` enforces, and that
``ErasureSchedule.is_valid`` reports, lives in ``_erasure_violation``.

``check_guarantee`` evaluates the designed-extended-row-distance budget
that makes ``decode_um`` provably exact, in one linear scan over the
block weights; the budget sampler of ``channels`` calls it on every
weight prefix it draws.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

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
    symbols: the word's symbol minus the interference codeword's, which
    the same ``erasure_decode`` reads off at the sub-support (``at``)
    without encoding the interference.
    """
    f = scheme.field
    k = star.k
    out = {}
    for r, part in enumerate(scheme.sub_supports):
        word = block.parts[r]
        try:
            clean = star.erasure_decode(word, erased=part, at=part)[k:]
        except InconsistentWord as exc:
            raise InconsistentBlock(str(exc)) from exc
        for j, c in zip(part, clean):
            out[j] = f.sub(word[j], c)
    return out


@lru_cache(maxsize=32)
def _peeling_tables(scheme: PirScheme):
    """(coefficients, known_share) of a plain or block-erasure scheme,
    built once per scheme.

    ``coefficients[j][z]`` is the tuple of the k coefficients of stripe
    s - z in block s's desired combination at support position j: the
    offset of lag z at j times g[r][j], for the generator rows g of the
    storage code, so their dot with a stripe is its offset codeword
    symbol.  ``known_share(known, s)`` is the share of stripes s-1..s-M in
    block s's desired combination at every support position, sub-round by
    sub-round: one ``apply`` of the field kernel's linear map from the M*k
    symbols of those stripes, where a stripe missing from ``known``
    (unknown, or outside 1..ell) reads as k zeros.  At memory 0 there is
    no map and the share is zero.
    """
    f = scheme.field
    g = scheme.storage_code.generator_matrix()
    k, memory = scheme.k, scheme.memory
    coefficients = {j: tuple(tuple(f.mul(rows[z][j], g[r][j]) for r in range(k))
                             for z in range(memory + 1))
                    for part, rows in zip(scheme.sub_supports, scheme.e_offsets)
                    for j in part}
    if not memory:
        zeros = [0] * len(coefficients)
        return coefficients, lambda known, s: zeros
    lags = range(1, memory + 1)
    apply = f.kernel.linear_map([[coeffs[z][r] for coeffs in coefficients.values()]
                                 for z in lags for r in range(k)])
    zero = (0,) * k

    def known_share(known, s):
        return apply([x for z in lags for x in known.get(s - z, zero)])

    return coefficients, known_share


def _peel(stream: ResponseStream, scheme: PirScheme, window: int) -> RecoveredFile:
    """Sequential peeling that waits out erased blocks.

    Each block's stripe joins the unknowns.  When an intact block joins,
    its desired combination becomes one equation per support position,
    derived once: a coefficient fragment over the run of unknown stripes
    the position touches, and a right-hand side with the known stripes'
    share subtracted, read for every position at once through the
    scheme's known-share map (``_peeling_tables``).  No solve can change
    what is known while the block waits, so the equation holds as derived
    until a solve clears it.

    After every intact block the pending equations are solved for all
    unknowns at once: the rows are counted first, and only a system with
    enough of them is stacked, each fragment at its column offset.  The
    same stacked systems recur from burst to burst and from trial to
    trial, and ``solve_unique`` keeps what one elimination of each gives,
    so a repeated attempt, failed or not, makes no elimination; a system
    past its cell cap, such as a paper-scale window, is still eliminated
    on every attempt.  A stripe solved from its own block alone is
    ``direct``, any other is ``window-solved``.  Once the oldest unknown
    stripe is ``window - 1`` blocks behind, a failed solve is final.
    Intact termination blocks with nothing unknown must reduce to zero.
    """
    f = scheme.field
    star = scheme.star_code()
    k, ell, memory = scheme.k, stream.ell, scheme.memory
    coefficients, known_share = _peeling_tables(scheme)
    known: dict[int, tuple] = {}
    provenance: dict[int, str] = {}
    unknown: list[int] = []
    # (block, [(first unknown stripe touched, fragment, right-hand side)])
    pending: list[tuple[int, list]] = []

    def equations(s, u):
        """Block s's equations, one per support position; a fragment runs
        over the unknown stripes the block touches, oldest first, and is
        the kept coefficient tuple when there is one such stripe."""
        lags = [s - prev for prev in range(max(s - memory, 1), min(s, ell) + 1)
                if prev not in known]
        first = s - lags[0] if lags else None
        out = []
        for (j, acc), share in zip(u.items(), known_share(known, s)):
            coeffs = coefficients[j]
            fragment = (coeffs[lags[0]] if len(lags) == 1
                        else [c for z in lags for c in coeffs[z]])
            out.append((first, fragment, f.sub(acc, share)))
        return out

    def solve(deadline: bool):
        cols = k * len(unknown)
        if not cols:
            if any(rhs for _, eqs in pending for _, _, rhs in eqs):
                raise InconsistentBlock(f"termination block {pending[0][0]} "
                                        f"disagrees with decoded stripes")
            pending.clear()
            return
        if sum(len(eqs) for _, eqs in pending) < cols:
            if deadline:
                raise UncorrectablePattern(
                    f"stripes {unknown} ran out of equations")
            return
        rows, rhs = [], []
        for _, eqs in pending:
            for first, fragment, acc in eqs:
                if len(fragment) == cols:
                    rows.append(fragment)
                else:
                    row = [0] * cols
                    at = (first - unknown[0]) * k if fragment else 0
                    row[at: at + len(fragment)] = fragment
                    rows.append(row)
                rhs.append(acc)
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
        for i, xi in enumerate(unknown):
            known[xi] = tuple(sol[i * k: (i + 1) * k])
            provenance[xi] = how
        unknown.clear()
        pending.clear()

    for xi in range(1, ell + memory + 1):
        if xi <= ell:
            unknown.append(xi)
        block = stream.block(xi)
        intact = block.status != ERASED
        if intact:
            u = _desired_combination(scheme, star, block)
            pending.append((xi, equations(xi, u)))
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
    stacked system.  That needs the support locators to be recovering for
    the scheme's own window, ``build_A(field, k, eps, locators,
    window=N).verdict``; the default N = 2eps+1 verdict does not cover a
    shorter window.  Without it a burst's solve can fail at its deadline.
    A stream that breaks the erasure rule raises ``UncorrectablePattern``
    before any decoding.
    """
    if scheme.variant != BLOCK:
        raise InvalidParams("recover_window needs the block-erasure variant")
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
    k, t = scheme.k, scheme.t
    ell = stream.ell
    e1, e2 = scheme.e_offsets[0]
    c_sum, c_fwd, c_bwd, c_int = scheme.um_codes
    saturated = c_int.d
    zero = (0,) * k
    scaled: dict[tuple, tuple] = {}

    def residual(xi, cur=None, prev=None):
        """Block xi's word minus e1*cur and e2*prev, for the stripes given;
        each stripe is encoded, and scaled by e1 and e2, once per call of
        decode_um."""
        word = list(stream.block(xi).parts[0])
        for stripe, side in ((cur, 0), (prev, 1)):
            if stripe is None:
                continue
            if stripe not in scaled:
                y = code.encode(list(stripe))
                scaled[stripe] = tuple(list(map(f.mul, offsets, y))
                                       for offsets in (e1, e2))
            word = list(map(f.sub, word, scaled[stripe][side]))
        return word

    candidates: dict[int, set] = {xi: set() for xi in range(1, ell + 1)}
    anchored: dict[int, tuple] = {}

    # step 1: per-block decoding in the sum code
    for xi in range(1, ell + 2):
        if stream.block(xi).parts is None:
            continue
        try:
            msg, errors = c_sum.bmd_decode(residual(xi))
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
            if stream.block(s).parts is None:
                return
            try:
                msg, _ = c_fwd.bmd_decode(residual(s, prev=prev_stripe))
            except DecodingFailure:
                return
            cur = tuple(msg[:k])
            candidates[s].add(cur)
            prev_stripe = cur
            s += 1

    def backward(s, cur_stripe):
        while s >= 2 and (s, cur_stripe) not in bwd_seen:
            bwd_seen.add((s, cur_stripe))
            if stream.block(s).parts is None:
                return
            try:
                msg, _ = c_bwd.bmd_decode(residual(s, cur=cur_stripe))
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

    # step 3: Viterbi over the reduced trellis, from the zero state before
    # block 1 to the zero state after block ell+1
    def branch_metric(xi, a, b):
        if stream.block(xi).parts is None:
            return 0
        if a is _BOT or b is _BOT:
            return saturated
        try:
            _, errors = c_int.bmd_decode(residual(xi, cur=b, prev=a))
        except DecodingFailure:
            return saturated
        return 2 * len(errors)

    cost = {zero: 0}
    back: list[dict] = []
    for xi in range(1, ell + 2):
        nodes = sorted(candidates[xi]) + [_BOT] if xi <= ell else [zero]
        new_cost, ptr = {}, {}
        for b in nodes:
            for a, base in cost.items():
                total = base + branch_metric(xi, a, b)
                if b not in new_cost or total < new_cost[b]:
                    new_cost[b] = total
                    ptr[b] = a
        cost = new_cost
        back.append(ptr)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("block %d: status=%s candidates=%d best=%s",
                         xi, stream.block(xi).status, len(nodes),
                         min(cost.values()))

    # every stage has a cost for each node: block 1 starts from the zero
    # state and every branch metric is finite
    path = [zero]
    for ptr in reversed(back):
        path.append(ptr[path[-1]])
    path.reverse()
    stripes = path[1: ell + 1]
    if any(s is _BOT for s in stripes):
        raise DecodingFailure("winning path passes through an unknown block")
    return RecoveredFile(tuple(stripes), (TRELLIS,) * ell)
