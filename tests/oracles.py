"""Test oracles: slow reference computations that the library itself
never needs.

Each computes something a library function also gives, by another
route: with the scalar ``Field`` methods, by enumeration, or through an
equivalent criterion.
"""

from pirstream.errors import DecodingFailure
from pirstream.linalg import mat_rank, rref, solve_any


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
    ``StorageSystem``; stripes outside [1, ell] are the zero padding."""
    if xi < 1 or xi > system.ell:
        return 0
    return system.encoded[xi - 1][s][j]


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
