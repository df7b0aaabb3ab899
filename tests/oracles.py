"""Test oracles: slow reference computations that the library itself
never needs.

Each computes something a library function also gives, by another
route: with the scalar ``Field`` methods, by enumeration, or through an
equivalent criterion.  ``replace`` rebuilds a record with some fields
changed, which the package itself never does.
"""

from pirstream.decoder import DIRECT, TRELLIS, WINDOW, RecoveredFile
from pirstream.errors import (
    DecodingFailure,
    InconsistentBlock,
    InconsistentSystem,
    InconsistentWord,
    InvalidParams,
    LengthMismatch,
    RankDeficient,
    TooManyErasures,
    UncorrectablePattern,
)
from pirstream.grs import star_product_code
from pirstream.linalg import (
    mat_rank,
    reduce_with_identity,
    rref,
    solve_any,
    solve_unique,
)
from pirstream.protocol import BLOCK, ERASED, PLAIN


def poly_eval(field, coeffs, x):
    """f(x) for f given by its coefficients, low to high (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def digits(field, a):
    """The s base-p digits of a symbol: the coefficients of its residue
    polynomial, constant term first."""
    return [a // field.p ** i % field.p for i in range(field.s)]


def digit_add(field, a, b):
    """a + b as the digit-by-digit sum of the residue polynomials, mod p."""
    p = field.p
    return sum((x + y) % p * p ** i
               for i, (x, y) in enumerate(zip(digits(field, a), digits(field, b))))


def digit_neg(field, a):
    """-a as the residue polynomial with every digit negated mod p."""
    p = field.p
    return sum(-x % p * p ** i for i, x in enumerate(digits(field, a)))


def replace(record, **changes):
    """A record of ``record``'s class built afresh from its fields, with
    ``changes`` in place of the fields they name; it keeps none of what
    ``record`` cached."""
    cls = type(record)
    fields = {name: getattr(record, name) for name in cls._fields}
    return cls(**{**fields, **changes})


def codewords(code):
    """All q^k codewords of a GRS code; only sensible for tiny codes."""
    f = code.field

    def rec(prefix):
        if len(prefix) == code.k:
            yield code.encode(prefix)
            return
        for v in range(f.q):
            yield from rec(prefix + [v])

    yield from rec([])


# --- Berlekamp-Welch ----------------------------------------------------------

def poly_divmod(field, num, den):
    """(quotient, remainder) of num / den, coefficients low to high."""
    num = list(num)
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
    if not any(den):
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    inv_lead = field.inv(den[-1])
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            fac = field.mul(c, inv_lead)
            quot[i - dd] = fac
            for j in range(dd + 1):
                num[i - dd + j] = field.sub(num[i - dd + j], field.mul(fac, den[j]))
    rem = num[:dd] if dd else [0]
    return quot, rem


def bw_decode(code, word):
    """``GrsCode.bmd_decode`` by the Berlekamp-Welch system: find Q of
    degree < k+e and monic E of degree e = (d-1)//2 with
    Q(a_j) = y_j E(a_j), y_j = w_j / v_j, at every position, and return
    (Q/E, the positions where its codeword differs from the word), or
    raise DecodingFailure if there is no solution or E does not divide Q
    into a polynomial of degree < k."""
    f = code.field
    k, e = code.k, (code.d - 1) // 2
    rows, rhs = [], []
    for a, w, v in zip(code.locators, word, code.multipliers):
        y = f.div(w, v)
        powers = [f.pow(a, i) for i in range(k + e + 1)]
        rows.append(powers[:k + e] + [f.neg(f.mul(y, p)) for p in powers[:e]])
        rhs.append(f.mul(y, powers[e]))
    sol = solve_any(f, rows, rhs)
    if sol is None:
        raise DecodingFailure("Berlekamp-Welch system is inconsistent")
    quot, rem = poly_divmod(f, sol[:k + e], sol[k + e:] + [1])
    if any(rem) or any(quot[k:]):
        raise DecodingFailure("E does not divide Q into a message")
    msg = quot[:k] + [0] * (k - len(quot))
    cw = [f.mul(v, poly_eval(f, msg, a))
          for a, v in zip(code.locators, code.multipliers)]
    return msg, frozenset(j for j, (c, w) in enumerate(zip(cw, word)) if c != w)


def budget_counts(profile, stream_len):
    """``channels._budget_counts`` by its recurrence, one sum over the
    block weights per entry: counts[r + 1][best] is the sum of
    counts[r][x + max(best, 0)] over the x-values x with best + x below
    the window limit."""
    d_alpha = profile.d_alpha
    limit = profile.d1 + profile.d2 - 2 * d_alpha
    xs = range(-d_alpha, 2 * ((profile.dbar(1) - 1) // 2) - d_alpha + 1, 2)
    start = min(-1, limit - 1 - xs[-1])
    states = range(min(start, xs[0]), max(limit, xs[-1] + 1))
    counts = [dict.fromkeys(states, 1)]
    for _ in range(stream_len):
        prev = counts[-1]
        counts.append({best: sum(prev[x + max(best, 0)] for x in xs
                                 if best + x < limit)
                       for best in states})
    return xs, start, tuple(counts)


def stored_symbol(system, xi, s, j):
    """Encoded symbol of stripe xi (1-based) of file s at server j of a
    ``StorageSystem``, v_j m(a_j) for the stripe's message m, by Horner's
    rule on the stored files, not read from the server columns; stripes
    outside [1, ell] are the zero padding."""
    if xi < 1 or xi > system.ell:
        return 0
    code, f = system.code, system.field
    return f.mul(code.multipliers[j],
                 poly_eval(f, system.files[s][xi - 1], code.locators[j]))


# --- row spaces ---------------------------------------------------------------

def row_space_basis(field, rows):
    """Basis (RREF rows) of the row space."""
    m, pivots = rref(field, rows)
    return m[: len(pivots)]


def scalar_dot(field, xs, ys):
    """The sum of x * y over the pairs of entries, one Field call per
    symbol."""
    acc = 0
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def vec_mat(field, x, a):
    """Row vector times matrix."""
    out = [0] * len(a[0])
    for xi, row in zip(x, a):
        for c, v in enumerate(row):
            out[c] = field.add(out[c], field.mul(xi, v))
    return out


def left_kernel_basis(field, rows):
    """Basis of {x : x A = 0} via elimination on [A | I]."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(row) + [int(i == r) for i in range(nrows)]
           for r, row in enumerate(rows)]
    m, _ = rref(field, aug)
    return [row[ncols:] for row in m
            if not any(row[:ncols]) and any(row[ncols:])]


def intersect_row_spaces(field, a, b):
    """Basis of rowspace(A) ∩ rowspace(B)."""
    if not a or not b:
        return []
    basis = []
    for ker in left_kernel_basis(field, [list(r) for r in a] + [list(r) for r in b]):
        vec = vec_mat(field, ker[: len(a)], a)
        if any(vec):
            basis.append(vec)
    return row_space_basis(field, basis) if basis else []


# --- the recovering matrix ----------------------------------------------------

def check_direct_sum(field, k, M, locators):
    """The direct-sum criterion equivalent to ``build_A``'s rank verdict:
    <G1> + sum_i (<G1> ∩ <G_-M>) V_i is direct, where G_z is the k x gamma
    block (a^(r + (z-1)k))_{r, a} and V_i scales column a by a^(ik).

    Needs distinct nonzero locators, since G_-M has negative powers.
    """
    g1 = [[field.pow(a, r) for a in locators] for r in range(k)]
    g_minus_m = [[field.pow(a, r - (M + 1) * k) for a in locators]
                 for r in range(k)]
    inter = intersect_row_spaces(field, g1, g_minus_m)
    stacked = [list(r) for r in g1]
    for i in range(1, M + 1):
        scale = [field.pow(a, i * k) for a in locators]
        for row in inter:
            stacked.append([field.mul(v, s) for v, s in zip(row, scale)])
    return mat_rank(field, stacked) == k + M * len(inter)


# --- erasure decoding and peeling ---------------------------------------------

def erasure_decode_by_solve(code, word, erased=None):
    """``GrsCode.erasure_decode`` with one ``solve_any`` of the Vandermonde
    system on the first k surviving positions per call, and the same
    cross-check and errors."""
    f = code.field
    if len(word) != code.n:
        raise LengthMismatch(f"word length {len(word)} != n={code.n}")
    erased = set(erased or ())
    erased.update(j for j, w in enumerate(word) if w is None)
    if len(erased) > code.n - code.k:
        raise TooManyErasures(f"{len(erased)} erasures > n-k = {code.n - code.k}")
    surviving = [j for j in range(code.n) if j not in erased]
    base = surviving[: code.k]
    rows = [[f.pow(code.locators[j], i) for i in range(code.k)] for j in base]
    ys = [f.div(word[j], code.multipliers[j]) for j in base]
    coeffs = solve_any(f, rows, ys)
    for j in surviving[code.k:]:
        expect = f.mul(code.multipliers[j], poly_eval(f, coeffs, code.locators[j]))
        if expect != word[j]:
            raise InconsistentWord(
                f"surviving position {j} disagrees with interpolation")
    return coeffs


def reader_rows(code, positions):
    """The rows of ``grs._reader``'s map by inverting the generator block
    G_B at the first k of ``positions``: row r is column r of the E that
    one ``reduce_with_identity`` of [G_B^T | I] gives, E = (G_B^-1)^T,
    followed by its products with the generator columns (v_j a_j^i)_i of
    the other positions, in order.  The generator entries and products
    come from the scalar ``Field`` methods."""
    f, k = code.field, code.k
    columns = [[f.mul(v, f.pow(a, i)) for i in range(k)]
               for a, v in zip(code.locators, code.multipliers)]
    _, inverse = reduce_with_identity(f, [columns[j] for j in positions[:k]])
    rows = [list(row) for row in zip(*inverse)]
    return [row + [vec_mat(f, row, [[x] for x in columns[j]])[0]
                   for j in positions[k:]]
            for row in rows]


def desired_combination(scheme, star, block):
    """u_j at every support position j of an intact block: the word's
    symbol minus the interference codeword's, which one
    ``erasure_decode_by_solve`` per sub-round, with the sub-support erased,
    and an encode of its message give."""
    f = scheme.field
    out = {}
    for r, part in enumerate(scheme.sub_supports):
        word = list(block.parts[r])
        try:
            msg = erasure_decode_by_solve(star, word, erased=set(part))
        except InconsistentWord as exc:
            raise InconsistentBlock(str(exc)) from exc
        clean = star.encode(msg)
        for j in part:
            out[j] = f.sub(word[j], clean[j])
    return out


def peel(stream, scheme, window):
    """``decoder._peel`` as it rebuilds every pending equation, with the
    known stripes re-encoded, on each solve attempt."""
    f = scheme.field
    code = scheme.storage_code
    star = star_product_code(scheme.storage_code, scheme.retrieval_code)
    g = code.generator_matrix()
    k, ell, memory = scheme.k, stream.ell, scheme.memory
    offsets = {j: [rows[z][j] for z in range(memory + 1)]
               for part, rows in zip(scheme.sub_supports, scheme.e_offsets)
               for j in part}
    known, provenance = {}, {}
    unknown, pending = [], []

    def solve(deadline):
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
            pending.append((xi, desired_combination(scheme, star, block)))
        due = bool(unknown) and xi >= unknown[0] + window - 1
        if intact or due:
            solve(due)
    if unknown:
        solve(True)
    return RecoveredFile(tuple(known[xi] for xi in range(1, ell + 1)),
                         tuple(provenance[xi] for xi in range(1, ell + 1)))


def recover_plain(stream, scheme):
    """``decoder.recover_plain`` on ``peel``."""
    if scheme.variant not in (PLAIN, BLOCK):
        raise InvalidParams(f"recover_plain does not apply to {scheme.variant}")
    for xi in range(1, len(stream.blocks) + 1):
        if stream.block(xi).status == ERASED:
            raise UncorrectablePattern(f"block {xi} is erased")
    return peel(stream, scheme, window=1)


def erasure_violation(erased, stream_len, window, eps):
    """``decoder._erasure_violation`` by enumeration: the erased blocks in
    order, each checked for its place in the stream and, if it starts a
    burst, for the burst's length, then every window start from 1 to the
    stream end, each window's erasures counted afresh.  A window that
    starts past the last full one is clipped at the stream end, so it
    lies in that one and never breaks the rule first."""
    erased = set(erased)
    for b in sorted(erased):
        if not 1 <= b <= stream_len:
            return f"block {b} outside the stream of {stream_len} blocks"
        run = next(r for r in range(len(erased) + 1) if b + r not in erased)
        if b - 1 not in erased and run > eps:
            return f"burst of {run} erasures at block {b} exceeds eps={eps}"
    for start in range(1, stream_len + 1):
        cnt = len([b for b in erased if start <= b < start + window])
        if cnt > eps:
            return f"{cnt} erasures in the {window}-block window at {start}"
    return None


def recover_window(stream, scheme):
    """``decoder.recover_window`` on ``peel`` and ``erasure_violation``."""
    if scheme.variant != BLOCK:
        raise InvalidParams("recover_window needs the block-erasure variant")
    erased = [xi for xi in range(1, len(stream.blocks) + 1)
              if stream.block(xi).status == ERASED]
    reason = erasure_violation(erased, len(stream.blocks), scheme.window,
                               scheme.burst)
    if reason is not None:
        raise UncorrectablePattern(reason)
    return peel(stream, scheme, scheme.window)


def decode_um(stream, scheme):
    """``decoder.decode_um`` with every chain step and trellis branch
    BMD-decoded from its residual, the stripes encoded afresh for each
    residual, and every chain run until a decode fails or the stream
    ends: no splits and no seen states."""
    f = scheme.field
    code = scheme.storage_code
    k, t, ell = scheme.k, scheme.t, stream.ell
    e1, e2 = scheme.e_offsets[0]
    c_sum, c_fwd, c_bwd, c_int = scheme.um_codes
    zero = (0,) * k

    def decoded(c, xi, cur=zero, prev=zero):
        """c.bmd_decode of block xi's word minus e1*enc(cur) and
        e2*enc(prev), or None if the block is erased or the decode fails."""
        if stream.block(xi).parts is None:
            return None
        word = list(stream.block(xi).parts[0])
        for stripe, offsets in ((cur, e1), (prev, e2)):
            y = code.encode(list(stripe))
            word = [f.sub(w, f.mul(o, v)) for w, o, v in zip(word, offsets, y)]
        try:
            return c.bmd_decode(word)
        except DecodingFailure:
            return None

    candidates = {xi: set() for xi in range(1, ell + 1)}
    forward, backward = [(1, zero)], [(ell + 1, zero)]
    for xi in range(1, ell + 2):
        got = decoded(c_sum, xi)
        if got is None:
            continue
        cur, prev = tuple(got[0][:k]), tuple(got[0][2 * k + t - 1:])
        if xi <= ell:
            candidates[xi].add(cur)
        forward.append((xi + 1, cur))
        if xi > 1:
            candidates[xi - 1].add(prev)
            backward.append((xi - 1, prev))
    for s, stripe in forward:
        while s <= ell and (got := decoded(c_fwd, s, prev=stripe)):
            stripe = tuple(got[0][:k])
            candidates[s].add(stripe)
            s += 1
    for s, stripe in backward:
        while s >= 2 and (got := decoded(c_bwd, s, cur=stripe)):
            stripe = tuple(got[0][k + t - 1:])
            candidates[s - 1].add(stripe)
            s -= 1

    def metric(xi, a, b):
        if stream.block(xi).parts is None:
            return 0
        got = None if a is None or b is None else decoded(c_int, xi, b, a)
        return c_int.d if got is None else 2 * len(got[1])

    # Viterbi, None the unknown node; ties go to the first node in order
    cost, back = {zero: 0}, []
    for xi in range(1, ell + 2):
        nodes = sorted(candidates[xi]) + [None] if xi <= ell else [zero]
        new, ptr = {}, {}
        for b in nodes:
            for a, base in cost.items():
                total = base + metric(xi, a, b)
                if b not in new or total < new[b]:
                    new[b], ptr[b] = total, a
        cost = new
        back.append(ptr)
    path = [zero]
    for ptr in reversed(back):
        path.append(ptr[path[-1]])
    stripes = tuple(reversed(path))[1:ell + 1]
    if None in stripes:
        raise DecodingFailure("winning path passes through an unknown block")
    return RecoveredFile(stripes, (TRELLIS,) * ell)
