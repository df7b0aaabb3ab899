"""Test oracles: slow reference computations that the library itself
never needs.

Each computes something a library function also gives, by another
route: with the scalar ``Field`` methods, by enumeration, or through an
equivalent criterion.
"""

from pirstream.decoder import DIRECT, WINDOW, RecoveredFile, _erasure_violation
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
    """``decoder._desired_combination`` through ``erasure_decode_by_solve``."""
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


def recover_window(stream, scheme):
    """``decoder.recover_window`` on ``peel``; the erasure rule is the
    library's one checker."""
    if scheme.variant != BLOCK:
        raise InvalidParams("recover_window needs the block-erasure variant")
    erased = [xi for xi in range(1, len(stream.blocks) + 1)
              if stream.block(xi).status == ERASED]
    reason = _erasure_violation(erased, len(stream.blocks), scheme.window,
                                scheme.burst)
    if reason is not None:
        raise UncorrectablePattern(reason)
    return peel(stream, scheme, scheme.window)
