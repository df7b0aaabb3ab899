"""User-side recovery pipelines.

Three decoders share the same front half (read each block through the
star-product code with the support erased, strip the interference, keep
the desired-file combination on the support):

* ``recover_plain``   -- sequential peeling, one stripe per block;
* ``recover_window``  -- the same peeling, waiting out bursts of block
  erasures for up to a window of N blocks;
* ``decode_um``       -- the unit-memory error decoder: per-block
  decoding in the sum code, coset decoding outward from the anchors,
  then Viterbi over the reduced trellis of stripe hypotheses.

The first two are one peeling kernel (``_peel``): plain recovery runs it
with a one-block window on a stream that has no erasures.  It reads each
intact block once by ``fields.check_symbols``, and then through one
reader per scheme (``PirScheme._peeling``): one linear map of the field
kernel from the block's words and the M stripes before it to the
block's erasure checks and its right-hand sides at every support
position, reduced by the E that takes the lag-0 support system to its
reduced row echelon form.  The coefficients of every stripe lag at the
support positions are kept premultiplied by the same E, so the reduced
equations of a block whose own stripe is the only unknown are that
stripe and its checks: a clean stretch makes no erasure decode and no
solve.  Any other intact block becomes one record: the block, the run
of unknown stripes it touches and its reduced right-hand sides.  The
matrix of a solve attempt is fixed by its pattern, the number of
unknowns and each record's block and run counted from the oldest
unknown stripe, so the scheme's table of patterns answers it
(``_solve_pattern``): a pattern's first sight is stacked and solved as
[A | b], its second keeps the reduction of A as one map, and every later
sight is one lookup and one map, with no matrix built.  A cap on the
cells of [A | I] is the table's only bound: the erasure rule keeps the
patterns a scheme meets few.  Peeling encodes no stripe.  Each decoder
first checks that the stream has the scheme's n, memory and
sub-rounds.  The erasure rule that ``recover_window`` enforces, and
that ``ErasureSchedule.is_valid`` reports, lives in
``_erasure_violation``.

``check_guarantee`` evaluates the designed-extended-row-distance budget
that makes ``decode_um`` provably exact, in one linear scan over the
block weights; the budget sampler of ``channels`` calls it on every
weight prefix it draws.
"""

from __future__ import annotations

import sys
from functools import cached_property, partial

from .errors import (
    DecodingFailure,
    InconsistentBlock,
    InconsistentSystem,
    InvalidParams,
    LengthMismatch,
    RankDeficient,
    ShapeMismatch,
    UncorrectablePattern,
)
from .fields import check_symbols
from .grs import _reader
from .linalg import raise_unless_unique, reduce_with_identity, solve_unique
from .protocol import BLOCK, BYZANTINE, ERASED, PLAIN, PirScheme, ResponseStream
from .records import Record

DIRECT = "direct"
WINDOW = "window-solved"
TRELLIS = "trellis"


class UmDistanceProfile(Record):
    """Block and coset distances of a unit-memory construction, with the
    budget weight tables built from them (``_budget``)."""

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

    @cached_property
    def _budget(self) -> dict:
        """stream length -> its ``channels._budget_counts`` tables."""
        return {}


def check_guarantee(weights, profile: UmDistanceProfile) -> bool:
    """True iff every window of iota+1 consecutive blocks carries strictly
    less than dbar(iota)/2 errors, for every iota >= 1.

    A deviation of iota stripes touches iota+1 blocks (each stripe feeds
    two adjacent blocks), which is why the iota-th distance guards the
    (iota+1)-block window; single blocks are bounded through their pairs.

    One pass over the weights: with x_b = 2*w_b - d_alpha, a window of
    two or more blocks breaks the budget iff its x-sum reaches
    d1 + d2 - 2*d_alpha, so it is enough to carry the largest x-sum of a
    window that ends at the previous block (Kadane's scan).
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


class RecoveredFile(Record):
    """The ell recovered stripes with per-stripe provenance."""

    stripes: tuple
    provenance: tuple


# --- peeling ------------------------------------------------------------------

def _check_stream(stream: ResponseStream, scheme: PirScheme):
    """Raise ShapeMismatch at the first of n, memory and rounds in which
    the stream differs from the scheme."""
    for name in ("n", "memory", "rounds"):
        got, want = getattr(stream, name), getattr(scheme, name)
        if got != want:
            raise ShapeMismatch(f"stream has {name} {got}, scheme has {want}")


def _block_symbols(scheme: PirScheme, parts) -> list:
    """An intact block's words, sub-round by sub-round, as one list read by
    ``fields.check_symbols``, which names a symbol by its word position,
    or by (sub-round, position) when there are several sub-rounds.

    A block without one word per sub-round raises ShapeMismatch, and a
    word without n symbols LengthMismatch, as ``erasure_decode`` does."""
    n = scheme.n
    if len(parts) != scheme.rounds:
        raise ShapeMismatch(
            f"block has {len(parts)} sub-rounds, scheme has {scheme.rounds}")
    for word in parts:
        if len(word) != n:
            raise LengthMismatch(f"word length {len(word)} != n={n}")
    return check_symbols(scheme.field, [x for word in parts for x in word],
                         None if len(parts) == 1 else lambda i: divmod(i, n))


def _peeling_tables(scheme: PirScheme):
    """(by_lag, rank, checked, read, patterns) of a plain or block-erasure
    scheme, which the scheme keeps (``PirScheme._peeling``).

    Before the reduction, entry i of ``by_lag[z]`` is the tuple of the k
    coefficients of stripe s - z in block s's desired combination at the
    i-th support position j, sub-round by sub-round: the offset of lag z
    at j times g[r][j], for the generator rows g of the storage code, so
    their dot with a stripe is its offset codeword symbol.  One
    ``reduce_with_identity`` of ``by_lag[0]`` gives its rank and an
    invertible E that takes it to its reduced row echelon form, and every
    table is kept premultiplied by E: a block's equations are E times
    its equations, which have the same solutions, rank and consistency.
    With rank k, ``by_lag[0]`` is then k unit rows followed by zero rows.

    ``read`` is one ``linear_map`` of the field kernel from block s's
    words, sub-round by sub-round, then stripes s-1..s-M (k zeros for a
    stripe not known, or outside 1..ell), to
      * each sub-round's erasure checks, in surviving-position order: the
        star codeword read off the first k* survivors, minus the word, at
        every further survivor (``checked`` lists their word positions);
      * E b, for the right-hand side b: the desired combination u at every
        support position minus the known stripes' share of it.
    Each step is linear in those inputs: the star reader of each sub-round
    (``grs._reader`` of its survivors followed by its sub-support, built
    once here), u, the word minus that reading on the sub-support, and b,
    u minus the kept coefficients' dot with each stripe.  So the map's row
    for a word symbol is the image of that unit input under those steps
    (``image``), and the row for a stripe symbol is minus its coefficients
    in the reduced tables.  The erasure checks come in the order in which
    ``erasure_decode`` compares the survivors, sub-round by sub-round, so
    the first nonzero one is at the position it names.

    ``patterns`` is the scheme's table of window patterns, filled by
    ``_solve_pattern`` as ``_peel`` meets them: pattern -> None once seen,
    then (rank, map b -> E b).
    """
    f = scheme.field
    star = scheme.star_code()
    g = scheme.storage_code.generator_matrix()
    n, k, base = scheme.n, scheme.k, star.k
    raw = [[tuple(f.mul(rows[z][j], g[r][j]) for r in range(k))
            for part, rows in zip(scheme.sub_supports, scheme.e_offsets)
            for j in part]
           for z in range(scheme.memory + 1)]
    rank, e = reduce_with_identity(f, raw[0])
    times_e = f.kernel.linear_map(list(zip(*e)))       # v -> E v
    by_lag = tuple(list(zip(*map(times_e, zip(*table)))) for table in raw)
    survivors = [[j for j in range(n) if j not in part]
                 for part in scheme.sub_supports]
    reads = [_reader(star, surviving + list(part))
             for surviving, part in zip(survivors, scheme.sub_supports)]
    checked = [j for surviving in survivors for j in surviving[base:]]
    words = scheme.rounds * n

    def image(x):
        checks, u = [], []
        for r, (part, surviving, read) in enumerate(
                zip(scheme.sub_supports, survivors, reads)):
            word = x[r * n:(r + 1) * n]
            got = [word[j] for j in surviving]
            out = read(got[:base])
            checks += map(f.sub, out[base:len(surviving)], got[base:])
            u += map(f.sub, [word[j] for j in part], out[len(surviving):])
        return checks + times_e(u)

    rows = [image([int(c == i) for c in range(words)]) for i in range(words)]
    rows += [[0] * len(checked) + [f.sub(0, coeffs[r]) for coeffs in table]
             for table in by_lag[1:] for r in range(k)]
    return by_lag, rank, checked, f.kernel.linear_map(rows), {}


# The most cells of [A | I] a kept pattern may have: a 32 x 32 system, or
# a taller one with fewer unknowns.  Keeping a pattern eliminates [A | I],
# wider than [A | b], and its map has one lane per entry of E, rows^2 in
# all, so past the cap a kept map costs more to build and to hold than the
# eliminations it saves.  It is the only bound on a scheme's table: the
# erasure rule bounds how many patterns a scheme meets.
_KEPT_CELLS = 32 * 64


def _stack(by_lag, k: int, pattern) -> list:
    """The coefficient matrix A of a pattern of pending blocks.

    A pattern is (the number of unknown stripes, one (s, lo, hi) per
    pending record), each number relative to the oldest unknown stripe:
    block s touches the run lo..hi of unknown stripes.  A record gives
    one row per support position, which holds the reduced coefficients
    of lags s - lo down to s - hi at the columns of stripes lo..hi, k
    columns per stripe, oldest first.
    """
    count, records = pattern
    rows = []
    for s, lo, hi in records:
        pad, tail = [0] * (lo * k), [0] * ((count - 1 - hi) * k)
        lags = range(s - lo, s - hi - 1, -1)
        rows += [pad + [c for z in lags for c in by_lag[z][i]] + tail
                 for i in range(len(by_lag[0]))]
    return rows


def _solve_pattern(field, patterns: dict, pattern, cols: int, b, stack):
    """The x of A x = b, for A = ``stack(pattern)``, a matrix with ``cols``
    columns and one row per entry of b, through the table ``patterns``
    of one scheme; raises as ``linalg.solve_unique`` does.

    The first sight of a pattern is one ``solve_unique`` of [A | b], and
    marks it seen (None).  The second is one ``reduce_with_identity`` of
    A, which gives its rank and an E that takes A to its reduced row
    echelon form, and keeps (rank, the field kernel's map b -> E b).
    That and every later sight read the answer off E b: b is consistent
    iff its entries from the rank on are zero, and x is its first cols
    entries.  So a pattern seen once builds no map, and a kept one is
    stacked no more.  A system whose [A | I] has more than
    ``_KEPT_CELLS`` cells is stacked and solved on every sight and
    leaves the table as it is.

    The cap is the table's only bound, and the table stays finite: a
    pattern is fixed by the erasures from the oldest unknown stripe to
    the current block and by where the stripes end, and
    ``recover_window`` checks the erasure rule before it peels, so those
    blocks lie within one window of N and at most eps of them are erased.  The 1,638 schedules the rule admits on
    ``tests/configs/burst-window-exhaustive.ini`` meet 116 patterns.
    """
    if len(b) * (len(b) + cols) > _KEPT_CELLS:
        return solve_unique(field, stack(pattern), b)
    if pattern not in patterns:
        patterns[pattern] = None
        return solve_unique(field, stack(pattern), b)
    kept = patterns[pattern]
    if kept is None:
        rank, e = reduce_with_identity(field, stack(pattern))
        kept = patterns[pattern] = rank, field.kernel.linear_map(list(zip(*e)))
    rank, solver = kept
    x = solver(b)
    raise_unless_unique(not any(x[rank:]), rank, cols)
    return x[:cols]


def _peel(stream: ResponseStream, scheme: PirScheme, window: int) -> RecoveredFile:
    """Sequential peeling that waits out erased blocks.

    Each block's stripe joins the unknowns.  Each intact block is read
    once by ``_block_symbols`` and goes through the scheme's one reader
    (``PirScheme._peeling``) with the M stripes before it, which gives its
    erasure checks and E b, its right-hand sides reduced by the kept E.
    A nonzero erasure check raises ``surviving position j disagrees with
    interpolation`` for the first such j, as ``erasure_decode`` does.
    When the lag-0 system has rank k and the block's own stripe is the
    only unknown, its reduced equations are the stripe itself followed by
    zero rows: the stripe is the first k entries of E b, and a nonzero
    entry after them raises ``block s: no solution: inconsistent
    right-hand side``, as the solve does.  Such a stripe is ``direct``,
    so a clean stretch makes no erasure decode and no solve.

    Any other intact block becomes one record (s, lo, hi, E b): lo..hi
    is the run of unknown stripes block s touches, from the oldest
    unknown stripe or s - M, whichever is later, to s or ell.  No solve
    can change what is known while the block waits, so the record holds
    as read until a solve clears it, and the oldest unknown stripe stays
    where it was.  After every intact block the pending records are
    solved for all unknowns at once: the rows are counted first, and
    only a system with enough of them is attempted.  An attempt's A is
    fixed by its pattern, the number of unknowns and each record's
    (s, lo, hi) relative to the oldest unknown stripe, and its b is the
    records' E b in order; the same patterns recur from burst to burst
    and from trial to trial, so the scheme's table (``_solve_pattern``)
    solves a pattern's first sight as [A | b], keeps its reduction on the
    second, and from then on an attempt, failed or not, is one key, one
    lookup and one map, with no matrix built (``_stack``).  A stripe
    solved from its own block alone is ``direct``, any other is
    ``window-solved``.  Once the oldest unknown stripe is ``window - 1``
    blocks behind, a failed solve is final.  Intact termination blocks
    with nothing unknown must reduce to zero.
    """
    k, ell, memory = scheme.k, stream.ell, scheme.memory
    by_lag, rank, checked, read, patterns = scheme._peeling
    cut, positions, full = len(checked), len(by_lag[0]), rank == k
    stack = partial(_stack, by_lag, k)
    zero = (0,) * k
    known: dict[int, tuple] = {}
    provenance: dict[int, str] = {}
    unknown: list[int] = []
    pending: list[tuple[int, int, int, list]] = []   # (s, lo, hi, E b)

    def solve(deadline: bool):
        cols = k * len(unknown)
        if not cols:
            if any(any(rhs) for *_, rhs in pending):
                raise InconsistentBlock(f"termination block {pending[0][0]} "
                                        f"disagrees with decoded stripes")
            pending.clear()
            return
        if len(pending) * positions < cols:
            if deadline:
                raise UncorrectablePattern(
                    f"stripes {unknown} ran out of equations")
            return
        u0 = unknown[0]
        pattern = (len(unknown), tuple((s - u0, lo - u0, hi - u0)
                                       for s, lo, hi, _ in pending))
        last = pending[-1][0]
        try:
            sol = _solve_pattern(scheme.field, patterns, pattern, cols,
                                 [x for *_, rhs in pending for x in rhs],
                                 stack)
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
            out = read(_block_symbols(scheme, block.parts)
                       + [x for z in range(1, memory + 1)
                          for x in known.get(xi - z, zero)])
            if any(out[:cut]):
                j = next(j for j, c in zip(checked, out) if c)
                raise InconsistentBlock(
                    f"surviving position {j} disagrees with interpolation")
            if full and unknown == [xi]:
                if any(out[cut + k:]):
                    raise InconsistentBlock(
                        f"block {xi}: no solution: inconsistent right-hand side")
                known[xi] = tuple(out[cut: cut + k])
                provenance[xi] = DIRECT
                unknown.clear()
                continue
            # with nothing unknown the run is empty and only E b is read
            lo = max(xi - memory, unknown[0]) if unknown else xi + 1
            pending.append((xi, lo, min(xi, ell), out[cut:]))
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
    _check_stream(stream, scheme)
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
    most eps erasures.  The windows take one pass over the stream.
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
    # one count slides over the stream: the window at start gains block
    # start + window - 1 and loses block start - 1.  A clipped window
    # starting later is contained in the last full one
    cnt = sum(1 for b in erased if b < window)
    for start in range(1, max(stream_len - window, 0) + 2):
        cnt += (start + window - 1 in erased) - (start - 1 in erased)
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
    _check_stream(stream, scheme)
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

    The four codes are nested.  Each is a GRS code on the storage
    locators a_j, and its codeword of the message m is (v_j sum_i m_i
    a_j^i)_j.  With e1 = a^-k and e2 = a^(k+t-1)
    (``protocol.byzantine_scheme``), the sum code has v = e1 and
    dimension 3k+t-1, the forward coset code v = e1 and 2k+t-1, the
    backward coset code v = 1 and 2k+t-1, and the star code c_int v = 1
    and k+t-1.  Splitting the message sum by its exponents (cur below k,
    z from k, prev from 2k+t-1) gives

        c_sum(cur, z, prev) = e1*enc(cur) + c_int(z) + e2*enc(prev),
        c_fwd(cur, z)       = e1*enc(cur) + c_int(z),
        c_bwd(z, prev)      = c_int(z) + e2*enc(prev),

    since e1_j * a_j^(k+i) = a_j^i and e1_j * a_j^(2k+t-1+i) =
    e2_j * a_j^i.  So the residual of block xi's word w for stripes
    (prev, cur) is the same codeword-plus-errors in every code: if one
    of them decodes it to a codeword that fixes both stripes, with the
    errors E, then w - e1*enc(cur) - e2*enc(prev) = c_int(z) + err with
    err nonzero exactly on E, and w - e2*enc(prev) = c_fwd(cur, z) + err,
    w - e1*enc(cur) = c_bwd(z, prev) + err and w = c_sum(cur, z, prev) +
    err.  A codeword within e = (d-1)//2 of a word is unique (two would
    lie within 2e < d of each other), ``bmd_decode`` returns it whenever
    it exists, and the smaller the dimension the larger the radius.  So
    every code whose radius is at least |E| decodes these residuals to
    the same stripes, the same z and the same E.  The sum decodes of
    step 1 and the coset decodes of step 2 fix both stripes and lie
    within the coset radius, which is at most the star radius; the call
    keeps each as a split (block, prev, cur) -> E.  A forward step into
    block s with incoming stripe prev takes cur from a split of s with
    that prev, a backward step with outgoing stripe cur takes prev from
    a split with that cur, and a trellis branch (a, b) into block xi
    with a split (xi, a, b) has the metric 2|E|: exactly what their
    decodes would return.  Two splits of one block with the same prev,
    or the same cur, are one split by the same uniqueness.  The other
    steps decode.  On a stream whose anchors hold, only step 1 decodes.
    """
    if scheme.variant != BYZANTINE:
        raise InvalidParams("decode_um needs the unit-memory error variant")
    _check_stream(stream, scheme)
    kernel = scheme.field.kernel
    k, t = scheme.k, scheme.t
    ell = stream.ell
    c_sum, c_fwd, c_bwd, c_int = scheme.um_codes
    saturated = c_int.d
    zero = (0,) * k
    pad = [0] * (k + t - 1)
    scaled: dict[tuple, list] = {}

    def residual(xi, cur=None, prev=None):
        """Block xi's word minus e1*enc(cur) and e2*enc(prev), for the
        stripes given.  By the identities above these are c_fwd(cur, 0)
        and c_bwd(0, prev), each encoded at most once per stripe and call
        of decode_um; the differences are the field kernel's
        (``subtract``)."""
        word = stream.block(xi).parts[0]
        for stripe, side in ((cur, 0), (prev, 1)):
            if stripe is None:
                continue
            if (side, stripe) not in scaled:
                scaled[side, stripe] = (
                    c_fwd.encode([*stripe, *pad]) if side == 0
                    else c_bwd.encode([*pad, *stripe]))
            word = kernel.subtract(word, scaled[side, stripe])
        return word

    # (block, prev, cur) -> errors of a sum or coset decode that fixed
    # both stripes of the block; per (block, prev) its cur, and per
    # (block, cur) its prev
    splits: dict[tuple, frozenset] = {}
    cur_of: dict[tuple, tuple] = {}
    prev_of: dict[tuple, tuple] = {}

    def split(xi, prev, cur, errors):
        splits[xi, prev, cur] = errors
        cur_of[xi, prev] = cur
        prev_of[xi, cur] = prev

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
        split(xi, prev, cur, errors)
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
    # after one step, and take each step on it from a split of step 1.
    fwd_seen: set = set()
    bwd_seen: set = set()

    def forward(s, prev_stripe):
        while s <= ell and (s, prev_stripe) not in fwd_seen:
            fwd_seen.add((s, prev_stripe))
            if stream.block(s).parts is None:
                return
            cur = cur_of.get((s, prev_stripe))
            if cur is None:
                try:
                    msg, errors = c_fwd.bmd_decode(
                        residual(s, prev=prev_stripe))
                except DecodingFailure:
                    return
                cur = tuple(msg[:k])
                split(s, prev_stripe, cur, errors)
            candidates[s].add(cur)
            prev_stripe = cur
            s += 1

    def backward(s, cur_stripe):
        while s >= 2 and (s, cur_stripe) not in bwd_seen:
            bwd_seen.add((s, cur_stripe))
            if stream.block(s).parts is None:
                return
            prev = prev_of.get((s, cur_stripe))
            if prev is None:
                try:
                    msg, errors = c_bwd.bmd_decode(residual(s, cur=cur_stripe))
                except DecodingFailure:
                    return
                prev = tuple(msg[k + t - 1:])
                split(s, prev, cur_stripe, errors)
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
        errors = splits.get((xi, a, b))
        if errors is None:
            try:
                _, errors = c_int.bmd_decode(residual(xi, cur=b, prev=a))
            except DecodingFailure:
                return saturated
        return 2 * len(errors)

    # each stage is logged at debug level only once a caller has imported
    # logging: importing it here would cost every process start-up ~6 ms
    logging = sys.modules.get("logging")
    logger = logging and logging.getLogger(__name__)
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
        if logger and logger.isEnabledFor(logging.DEBUG):
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
