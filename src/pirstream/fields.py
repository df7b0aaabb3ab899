"""Exact arithmetic over prime fields GF(p) and extension fields GF(p^s).

Elements are represented canonically as integers in [0, q-1]: the
coefficient vector of the residue polynomial packed in base p, with the
constant term in the lowest digit.  Equality of representations is
therefore equality of elements, and vectors/matrices throughout the
library are plain lists of these integers together with the owning
:class:`Field`.

The scalar methods (``add``, ``sub``, ``mul``, ``inv``, ``pow``) are the
reference arithmetic.  Extension fields with q <= 2^16 multiply through
exp/log tables, and everything else reduces polynomials.

The per-symbol loops that dominate the library, the row update of
Gaussian elimination, the fixed linear maps of GRS coding (a codeword
from the generator rows, syndromes, the values of an error locator at
every locator, the message read off a codeword), a server's answers,
the steps of BMD decoding that are no linear map (Berlekamp-Massey and
Forney's formula) and the differences of unit-memory decoding's
residuals, run through ``Field.kernel``, which the field picks once at
construction:

* GF(p): integer arithmetic mod p, inline; a fixed linear map is one
  multiply-accumulate of the input with the matrix rows packed into
  Python ints (``_PrimeKernel.linear_map``), and a convolution is one
  product of two such ints (``_PrimeKernel.convolve``);
* GF(2^s) with q <= 2^8: one 256-byte table per multiplier, the
  ``bytes.translate`` row of multiplication by it (``_BinaryKernel.rows``),
  read for every product: ``row[c] ^= rows[f][v]`` in elimination, a
  fixed linear map as one ``bytes.translate`` of each matrix row by its
  input symbol, XORed as ints (``_BinaryKernel.linear_map``, the region
  multiply of Plank, Greenan and Miller, FAST 2013), and a convolution as
  one ``bytes.translate`` per tap (``_BinaryKernel.convolve``); the
  decoding steps multiply as exp[log a + log b] on the field's exp/log
  tables and add by XOR;
* any other field (odd-characteristic extensions, GF(2^s) past 2^8): the
  scalar methods, one call per symbol; up to 2^16 their ``mul`` is one
  lookup in the field's exp/log tables.

Each kernel computes exactly what the scalar methods would; only the
number of ``Field`` method calls differs.  The kernels take canonical
symbols only: a caller's symbols are read once, at the public entry
point that takes them, by ``check_symbols``, the package's one symbol
rule.

Every table of locator powers in the package (a GRS code's generator
rows, the dual code's parity checks, Chien's map, the query offsets and
the recovering matrix A) is built by ``power_rows``, by repeated
``Field.mul``.
"""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import repeat
from operator import mul as _mul, xor as _xor

from .errors import (
    InvalidParams,
    NonPrimeCharacteristic,
    OrderNotDividing,
    ReducibleModulus,
    SymbolOutsideField,
    ZeroElement,
    ZeroInverse,
)

_TABLE_LIMIT = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the field sizes used here."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs stay small here)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# --- polynomials over GF(p), coefficient lists low-to-high -----------------

def _trim(c):
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            f = c * inv_lead % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * mod[j]) % p
    out = a[:dm] if len(a) > dm else a
    return _trim(out) if out else [0]


def _poly_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, mod, p)


def _poly_powmod(base, e, mod, p):
    result = [1]
    base = _poly_mod(list(base), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, mod, p)
    return result


def _poly_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b != [0]:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(coeffs, p) -> bool:
    """Rabin's test for a monic polynomial over GF(p)."""
    s = len(coeffs) - 1
    if s < 1 or coeffs[-1] == 0:
        return False
    if s == 1:
        return True
    if coeffs[0] == 0 or sum(coeffs) % p == 0:
        return False    # a root at 0 or 1: cheaper to see than the powers
    x = [0, 1]
    for r in factorize(s):
        h = _poly_powmod(x, p ** (s // r), coeffs, p)
        # gcd(x^(p^(s/r)) - x, f) must be 1
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(coeffs, _trim(diff), p)
        if len(g) > 1:
            return False
    h = _poly_powmod(x, p ** s, coeffs, p)
    diff = list(h) + [0] * (2 - len(h))
    diff[1] = (diff[1] - 1) % p
    return _trim(diff) == [0]


def _default_modulus(p, s):
    """Lowest monic irreducible of degree s, ordered by packed integer
    value, found by Rabin's test (``_is_irreducible``) for every p; the
    test's root check turns most candidates away before any power."""
    if s == 1:
        return (0, 1)
    for packed in range(p ** s):
        coeffs = _unpack(packed, p, s) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ReducibleModulus(f"no irreducible polynomial of degree {s} over GF({p})")


def _xor_mulmod(a, b, mod, s):
    """a * b in GF(2^s) on packed ints by shift and XOR: the packed bits
    are the coefficients, and ``mod`` is the packed modulus, x^s included.
    Only the exp/log tables of GF(2^s) are built with it
    (``Field._build_mul_tables``); the modulus is found on coefficient
    lists, as for every p."""
    acc = 0
    top = 1 << s
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= mod
    return acc


def _unpack(value, p, s):
    digits = []
    for _ in range(s):
        digits.append(value % p)
        value //= p
    return digits


def _pack(digits, p):
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


# --- per-field kernels for the per-symbol loops ------------------------------
#
# Every kernel has the same methods, and takes canonical symbols only,
# in [0, q): a caller's symbols are read once, by ``check_symbols``, at
# the public entry point that takes them.
#   scale(row, f)              -> the list f*row
#   eliminate(rows, col, prow) -> row -= row[col]*prow, in place, for each
#                                 row with row[col] != 0; prow is zero left
#                                 of col, and only its nonzero entries are
#                                 visited, listed when the first such row
#                                 is met (a GRS reader's unit columns meet
#                                 none)
#   linear_map(matrix)         -> a function x -> x * matrix, the list of
#                                 the sums of x[r] * matrix[r][c] over r,
#                                 one per column c of a fixed matrix (built
#                                 once per matrix); an x shorter than the
#                                 matrix has rows reads as padded with
#                                 zeros.  A GRS code encodes through the
#                                 linear_map of its generator rows
#   convolve(column, taps, m)  -> the convolution of two vectors cut into
#                                 blocks of m symbols: entry i is the sum
#                                 over z of the products of taps block z
#                                 and column block i - z, entry by entry,
#                                 for i from 0 to blocks of column + blocks
#                                 of taps - 2 (a server's answers to its
#                                 query at every iteration)
#   subtract(xs, ys)           -> the list of x - y, entry by entry (the
#                                 residuals of unit-memory decoding)
#
# and the two steps of BMD decoding that are no linear map, each stated
# in ``grs.GrsCode.bmd_decode``:
#   berlekamp_massey(syndromes, e)
#                              -> the error locator, low first, or None
#                                 past degree e (``grs._berlekamp_massey``)
#   error_value(locator, syndromes, a, weight)
#                              -> Forney's formula at a root a of the
#                                 locator, times weight; ZeroInverse where
#                                 the locator's derivative is zero
#
# They live here, with the field's tables, because each differs only in
# how it multiplies and adds: the scalar kernel keeps the ``Field``
# method calls, and so stays the oracle of the other two.
#
# linear_map and convolve are where the kernels differ.  GF(p) packs each
# row into integer lanes and makes one multiply-accumulate
# (``_PrimeKernel.linear_map``), and convolves with one product of two
# packed ints (``_PrimeKernel.convolve``).  GF(2^s) with q <= 2^8 keeps the
# matrix rows as bytes, multiplies each by its input symbol with one
# ``bytes.translate`` and XORs the products as ints
# (``_BinaryKernel.linear_map``), and convolves with one
# ``bytes.translate`` of the column per tap (``_BinaryKernel.convolve``).
# The scalar kernel, which also serves GF(2^s) past 2^8, takes one dot
# product per column and per convolution entry (``_column_dots``,
# ``_convolve_by_dots``).  In the decoding steps GF(p) reduces mod p
# inline, and GF(2^s) with q <= 2^8 adds by XOR and multiplies as
# exp[log a + log b] on the field's tables.


def _lane_typecode(bound):
    """The typecode of the unsigned ``array`` items, 4 or 8 bytes wide,
    of the narrowest lane that holds every integer in [0, bound], or None
    when 8 bytes do not."""
    for size in (4, 8):
        if bound < 1 << 8 * size:
            return next(t for t in "BHILQ" if array(t).itemsize == size)
    return None


def _pack_lanes(typecode, lanes):
    """The int whose bytes in ``sys.byteorder`` are the ``array`` of the
    lanes: lane j is item j of ``array(typecode, packed.to_bytes(...))``."""
    return int.from_bytes(array(typecode, lanes).tobytes(), sys.byteorder)


def _column_dots(dot, matrix):
    """linear_map by one dot product per column, ``dot(xs, column)``."""
    columns = list(zip(*matrix))
    return lambda xs: [dot(xs, column) for column in columns]


def _convolve_by_dots(dot, column, taps, m):
    """convolve by one dot product per entry.  With the blocks of the taps
    in reverse order, the blocks that meet in entry i are one slice of
    each vector."""
    blocks, lags = len(column) // m, len(taps) // m
    rev = [t for z in range(lags - 1, -1, -1) for t in taps[z * m: (z + 1) * m]]
    out = []
    for i in range(blocks + lags - 1):
        lo, hi = max(i - lags + 1, 0), min(i, blocks - 1)
        out.append(dot(rev[(lags - 1 - i + lo) * m: (lags - i + hi) * m],
                       column[lo * m: (hi + 1) * m]))
    return out


class _ScalarKernel:
    """The scalar ``Field`` methods, one call per symbol."""

    __slots__ = ("field",)

    def __init__(self, field: "Field"):
        self.field = field

    def scale(self, row, f):
        mul = self.field.mul
        return [mul(f, v) for v in row]

    def eliminate(self, rows, col, prow):
        mul, sub = self.field.mul, self.field.sub
        terms = None
        for row in rows:
            f = row[col]
            if f:
                if terms is None:
                    terms = [(c, prow[c]) for c in range(col, len(prow))
                             if prow[c]]
                for c, v in terms:
                    row[c] = sub(row[c], mul(f, v))

    def _dot(self, xs, ys):
        """The sum of the products x * y; a pair with a zero adds nothing
        and makes no ``Field`` call."""
        mul, add = self.field.mul, self.field.add
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add(acc, mul(x, y))
        return acc

    def linear_map(self, matrix):
        return _column_dots(self._dot, matrix)

    def convolve(self, column, taps, m):
        return _convolve_by_dots(self._dot, column, taps, m)

    def subtract(self, xs, ys):
        return list(map(self.field.sub, xs, ys))

    def berlekamp_massey(self, syndromes, e):
        """A zero term adds nothing and makes no ``Field`` call."""
        f = self.field
        mul, add, sub = f.mul, f.add, f.sub
        c, prev = [1], [1]
        length, gap, last = 0, 1, 1
        for i, d in enumerate(syndromes):
            for ct, s in zip(c[1:], syndromes[i - 1::-1] if i else ()):
                if ct and s:
                    d = add(d, mul(ct, s))
            if d == 0:
                gap += 1
                continue
            scale = f.div(d, last)
            new = c + [0] * (gap + len(prev) - len(c))
            for t, b in enumerate(prev, gap):
                if b:
                    new[t] = sub(new[t], mul(scale, b))
            if 2 * length <= i:
                length, prev, last, gap = i + 1 - length, c, d, 1
                if length > e:
                    return None
            else:
                gap += 1
            c = new
        return (c + [0] * length)[length::-1]

    def error_value(self, locator, syndromes, a, weight):
        f = self.field
        mul, add = f.mul, f.add
        quotient, q = [], 0         # q_{L-1}, ..., q_0
        for c in locator[:0:-1]:
            q = add(c, mul(q, a))
            quotient.append(q)
        derivative = 0              # Q(a) = Lambda'(a), by Horner's rule
        for q in quotient:
            derivative = add(mul(derivative, a), q)
        evaluator = reduce(add, map(mul, reversed(quotient), syndromes))
        return f.div(mul(evaluator, weight), derivative)


class _PrimeKernel:
    """GF(p): integer arithmetic reduced mod p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def scale(self, row, f):
        p = self.p
        return [f * v % p for v in row]

    def eliminate(self, rows, col, prow):
        p = self.p
        terms = None
        for row in rows:
            f = row[col]
            if f:
                if terms is None:
                    terms = [(c, p - prow[c]) for c in range(col, len(prow))
                             if prow[c]]
                for c, nv in terms:
                    row[c] = (row[c] + f * nv) % p

    def _dot(self, xs, ys):
        return sum(map(_mul, xs, ys)) % self.p

    def linear_map(self, matrix):
        """Row r of the matrix packed into one int: column c is lane c of
        an ``array`` of unsigned w-byte items, read in ``sys.byteorder``.
        x * matrix is then the sum of x[r] * row r, one multiply-accumulate
        on ints, unpacked through the same ``array`` and reduced mod p once
        per column.

        With the symbols in [0, p) no lane ever exceeds r (p-1)^2 for r
        rows, so no carry crosses into the next lane; w is 4 bytes when
        that bound fits, else 8 (``_lane_typecode``).  Past 8 bytes the map
        is one dot product per column.
        """
        p = self.p
        typecode = _lane_typecode(len(matrix) * (p - 1) ** 2)
        if typecode is None:
            return _column_dots(self._dot, matrix)
        order = sys.byteorder
        size = (len(matrix[0]) if matrix else 0) * array(typecode).itemsize
        rows = tuple(_pack_lanes(typecode, row) for row in matrix)

        def apply(xs):
            packed = sum(map(_mul, xs, rows))
            return [x % p for x in array(typecode, packed.to_bytes(size, order))]

        return apply

    def convolve(self, column, taps, m):
        """One product of two packed ints (Kronecker substitution).

        The column packs into lanes in order, and the taps with each
        block's m entries reversed.  Column entry b*m + s then meets tap
        z*m + s in lane (b + z + 1)*m - 1, and every other pair in a lane
        that is not one less than a multiple of m, so entry i of the
        convolution is lane (i + 1)*m - 1 of the product, mod p.

        No lane exceeds len(taps) * (p-1)^2, so no carry crosses lanes; w
        is 4 or 8 bytes as in ``linear_map``, and past 8 bytes the
        convolution is one dot product per entry.  The product is unpacked
        at its full length, which keeps lane order in either byte order.
        """
        p = self.p
        typecode = _lane_typecode(len(taps) * (p - 1) ** 2)
        if typecode is None:
            return _convolve_by_dots(self._dot, column, taps, m)
        flipped = [t for z in range(0, len(taps), m)
                   for t in reversed(taps[z: z + m])]
        product = _pack_lanes(typecode, column) * _pack_lanes(typecode, flipped)
        size = (len(column) + len(taps) - 1) * array(typecode).itemsize
        lanes = array(typecode, product.to_bytes(size, sys.byteorder))
        return [x % p for x in lanes[m - 1::m]]

    def subtract(self, xs, ys):
        p = self.p
        return [(x - y) % p for x, y in zip(xs, ys)]

    def berlekamp_massey(self, syndromes, e):
        """The discrepancy is one multiply-accumulate, reduced once; the
        update adds -d/b times the older register, with b the discrepancy
        of the last length change."""
        p = self.p
        c, prev = [1], [1]
        length, gap, last = 0, 1, 1
        for i, d in enumerate(syndromes):
            if i:
                d = (d + sum(map(_mul, c[1:], syndromes[i - 1::-1]))) % p
            if d == 0:
                gap += 1
                continue
            scale = (p - d) * pow(last, p - 2, p) % p
            new = c + [0] * (gap + len(prev) - len(c))
            for t, b in enumerate(prev, gap):
                if b:
                    new[t] = (new[t] + scale * b) % p
            if 2 * length <= i:
                length, prev, last, gap = i + 1 - length, c, d, 1
                if length > e:
                    return None
            else:
                gap += 1
            c = new
        return (c + [0] * length)[length::-1]

    def error_value(self, locator, syndromes, a, weight):
        p = self.p
        quotient, q = [], 0
        for c in locator[:0:-1]:
            q = (c + q * a) % p
            quotient.append(q)
        derivative = 0
        for q in quotient:
            derivative = (derivative * a + q) % p
        if not derivative:
            raise ZeroInverse("0 has no multiplicative inverse")
        evaluator = sum(map(_mul, reversed(quotient), syndromes))
        return evaluator * weight * pow(derivative, p - 2, p) % p


class _BinaryKernel:
    """GF(2^s) with q <= 2^8: sums are XOR, and ``rows[c]`` is the 256-byte
    ``bytes.translate`` table of multiplication by c, zero past q - 1, so
    a * c is rows[c][a].  Row g^(i+1) is row g^i translated through row g,
    for the generator g = exp[1] of the field's tables, so all q rows take
    q - 1 translates (about 64 KB for 2^8).  They are the kernel's only
    tables: a linear map keeps just its matrix rows.

    The decoding steps read the field's own exp/log tables instead
    (``Field._build_mul_tables``): a * b is exp[log a + log b], zero when
    either is, since log 0 points past the powers into zeros.  A quotient
    a / b is exp[(log a - log b) mod (q - 1)], with the difference reduced
    because exp holds only two rounds of powers."""

    __slots__ = ("rows", "exp", "log")

    def __init__(self, exp, log):
        self.exp, self.log = exp, log
        q = len(log)
        pad = bytes(256 - q)
        times_g = bytes(exp[log[x] + 1] for x in range(q)) + pad
        rows = [bytes(256)] * q
        row = bytes(range(q)) + pad
        for i in range(q - 1):
            rows[exp[i]] = row
            row = row.translate(times_g)
        self.rows = rows

    def scale(self, row, f):
        return list(bytes(row).translate(self.rows[f]))

    def eliminate(self, rows, col, prow):
        tables = self.rows
        terms = None
        for row in rows:
            f = row[col]
            if f:
                if terms is None:
                    terms = [(c, prow[c]) for c in range(col, len(prow))
                             if prow[c]]
                times_f = tables[f]
                for c, v in terms:
                    row[c] ^= times_f[v]

    def linear_map(self, matrix):
        """x * matrix as the XOR of the matrix rows, each multiplied by its
        symbol of x.

        The rows are kept as ``bytes``, so row r times x_r is one
        ``translate`` of it through ``rows[x_r]``, read as a big-endian
        int; the XOR of those ints, written back as ``width`` bytes, is
        the product.  ``map`` stops at the shorter of the rows and x, so a
        short x reads as padded with zeros.
        """
        width = len(matrix[0]) if matrix else 0
        rows = [bytes(row) for row in matrix]
        times = self.rows

        def apply(xs):
            translated = map(bytes.translate, rows, map(times.__getitem__, xs))
            return list(reduce(_xor, map(int.from_bytes, translated,
                                         repeat("big")), 0)
                        .to_bytes(width, "big"))

        return apply

    def convolve(self, column, taps, m):
        """The column's symbols of each block position s as bytes, one per
        block.  Tap z*m + s multiplies those bytes by one ``translate``
        through its row, read as a little-endian int, and the products XOR
        into one accumulator shifted by z bytes: byte i of the accumulator
        is entry i."""
        rows = self.rows
        per_position = [bytes(column[s::m]) for s in range(m)]
        acc = 0
        for i, t in enumerate(taps):
            if t:
                z, s = divmod(i, m)
                acc ^= int.from_bytes(per_position[s].translate(rows[t]),
                                      "little") << 8 * z
        return list(acc.to_bytes((len(column) + len(taps)) // m - 1, "little"))

    def subtract(self, xs, ys):
        return [x ^ y for x, y in zip(xs, ys)]

    def berlekamp_massey(self, syndromes, e):
        """The syndromes' logs are read once.  The discrepancy and the
        update are XORs of exp[log a + log b], and the update's scale
        d / b, for b the discrepancy of the last length change, is kept
        as its log, reduced mod q - 1."""
        exp, log = self.exp, self.log
        q1 = len(log) - 1
        logs = [log[s] for s in syndromes]
        c, prev = [1], [1]
        length, gap, last = 0, 1, 0     # last: log b
        for i, d in enumerate(syndromes):
            t = i
            for ct in c[1:]:
                t -= 1
                if ct:
                    d ^= exp[log[ct] + logs[t]]
            if d == 0:
                gap += 1
                continue
            ld = log[d]
            scale = (ld - last) % q1
            new = c + [0] * (gap + len(prev) - len(c))
            for t, b in enumerate(prev, gap):
                if b:
                    new[t] ^= exp[scale + log[b]]
            if 2 * length <= i:
                length, prev, last, gap = i + 1 - length, c, ld, 1
                if length > e:
                    return None
            else:
                gap += 1
            c = new
        return (c + [0] * length)[length::-1]

    def error_value(self, locator, syndromes, a, weight):
        exp, log = self.exp, self.log
        la = log[a]
        quotient, q = [], 0
        for c in locator[:0:-1]:
            q = c ^ exp[log[q] + la]
            quotient.append(q)
        derivative = 0
        for q in quotient:
            derivative = exp[log[derivative] + la] ^ q
        if not derivative:
            raise ZeroInverse("0 has no multiplicative inverse")
        evaluator = 0
        for q, s in zip(reversed(quotient), syndromes):
            evaluator ^= exp[log[q] + log[s]]
        if not (evaluator and weight):
            return 0
        return exp[(log[evaluator] + log[weight] - log[derivative])
                   % (len(log) - 1)]


class Field:
    """Context object for GF(p^s): parameters, tables, and arithmetic on ints."""

    __slots__ = (
        "p", "s", "q", "modulus", "_exp", "_log", "_q1_factors", "kernel",
        "_symbol_bytes",
    )

    def __init__(self, p: int, s: int = 1, modulus=None):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        if s < 1:
            raise ReducibleModulus(f"extension degree must be >= 1, got {s}")
        self.p = p
        self.s = s
        self.q = p ** s
        if modulus is None:
            self.modulus = _default_modulus(p, s)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] == 0:
                raise ReducibleModulus(
                    f"modulus must be degree {s}, got {list(modulus)}")
            if not _is_irreducible(list(modulus), p):
                raise ReducibleModulus(
                    f"modulus {list(modulus)} is reducible over GF({p})")
            self.modulus = modulus
        self._q1_factors = tuple(factorize(self.q - 1))
        # every symbol as a byte, for ``check_symbols``, when they all are
        self._symbol_bytes = bytes(range(self.q)) if self.q < 256 else None
        self._exp = None
        self._log = None
        if s > 1 and self.q <= _TABLE_LIMIT:
            self._build_mul_tables()
        if s == 1:
            self.kernel = _PrimeKernel(p)
        elif p == 2 and self.q <= 256:
            self.kernel = _BinaryKernel(self._exp, self._log)
        else:
            self.kernel = _ScalarKernel(self)

    # -- construction helpers ------------------------------------------

    def _raw_mul(self, a, b):
        p = self.p
        return _pack(_poly_mulmod(_unpack(a, p, self.s), _unpack(b, p, self.s),
                                  self.modulus, p), p)

    def _order_raw(self, a, mul):
        e = self.q - 1
        for r in self._q1_factors:
            while e % r == 0:
                cand = e // r
                if self._pow_raw(a, cand, mul) == 1:
                    e = cand
                else:
                    break
        return e

    def _pow_raw(self, a, e, mul):
        result = 1
        while e:
            if e & 1:
                result = mul(result, a)
            a = mul(a, a)
            e >>= 1
        return result

    def _build_mul_tables(self):
        if self.p == 2:
            mod, s = _pack(self.modulus, 2), self.s

            def mul(a, b):
                return _xor_mulmod(a, b, mod, s)
        else:
            mul = self._raw_mul
        g = None
        for cand in range(2, self.q):
            if self._order_raw(cand, mul) == self.q - 1:
                g = cand
                break
        if g is None:  # q == 2
            g = 1
        # exp holds the powers of g twice over, so that the sum of two logs
        # needs no reduction, then zeros; log[0] points at the first zero.
        # Hence exp[log[a] + log[b]] == a*b for all a, b, zero included.
        q1 = self.q - 1
        exp = [0] * (4 * q1 + 1)
        log = [2 * q1] * self.q
        x = 1
        for i in range(q1):
            exp[i] = x
            exp[i + q1] = x
            log[x] = i
            x = mul(x, g)
        self._exp = exp
        self._log = log

    # -- arithmetic on canonical ints ------------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.s == 1:
            return (a + b) % self.p
        da = _unpack(a, self.p, self.s)
        db = _unpack(b, self.p, self.s)
        return _pack([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def neg(self, a):
        if self.p == 2:
            return a
        if self.s == 1:
            return (-a) % self.p
        return _pack([(-x) % self.p for x in _unpack(a, self.p, self.s)], self.p)

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self.s == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.s == 1:
            return a * b % self.p
        return self._raw_mul(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        return self._pow_raw(a, self.q - 2, self._raw_mul)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        if self.s == 1:
            return pow(a, e, self.p)
        return self._pow_raw(a, e % (self.q - 1) if e else 0, self._raw_mul)

    def order(self, a):
        """Multiplicative order of a nonzero element; divides q-1."""
        if a == 0:
            raise ZeroElement("0 has no multiplicative order")
        return self._order_raw(a, self.mul)

    def find_element_of_order(self, e: int) -> int:
        """Smallest canonical element of exact order e; requires e | q-1."""
        if e < 1 or (self.q - 1) % e != 0:
            raise OrderNotDividing(f"{e} does not divide q-1 = {self.q - 1}")
        for a in range(1, self.q):
            if self.order(a) == e:
                return a
        raise OrderNotDividing(f"no element of order {e} found")  # unreachable

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus))

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.s})"


def power_rows(field: Field, xs, count: int):
    """The Vandermonde table on the points ``xs``: row i < count is the
    list [x^i for x in xs], with 0^0 = 1, each row the previous one times
    xs by ``field.mul``."""
    rows = [[1] * len(xs)] if count > 0 else []
    for _ in range(count - 1):
        rows.append(list(map(field.mul, rows[-1], xs)))
    return rows


def check_symbols(field: Field, symbols, where=None):
    """A caller's symbols, canonical: the package's one symbol rule, read
    once by every public entry point that takes symbols.

    Returns ``symbols`` itself when every symbol is an int in [0, q), and
    else, over GF(p), the list of their residues mod p.  Over any other
    field an int outside [0, q), and over every field an entry that is no
    int (``None``, a float), raises SymbolOutsideField naming its
    position: ``where(i)`` for the entry at index i, by default i.  A
    kernel would read such a symbol as another one (``rows[-1]`` is the
    row of q - 1) or fail with an untyped error.  A ``bool`` is an int,
    and reads as 0 or 1 on every field.

    With q <= 256 the symbols are checked as one ``bytes``, which takes
    ints in [0, 256) only, stripped of the field's symbols
    (``Field._symbol_bytes``).  Past 256 they go, 4,096 at a time, into an
    ``array`` of unsigned 8-byte items, which takes ints in [0, 2^64)
    only, and its largest is compared with q, with no copy of a
    paper-scale matrix."""
    q = field.q
    try:
        if q > 256:
            if all(max(array("Q", symbols[i:i + 4096])) < q
                   for i in range(0, len(symbols), 4096)):
                return symbols
        else:
            as_bytes = bytes(symbols)       # ints in [0, 256) only
            if q == 256 or not as_bytes.lstrip(field._symbol_bytes):
                return symbols
    except (TypeError, ValueError, OverflowError):
        pass
    for i, x in enumerate(symbols):
        if not isinstance(x, int) or not (field.s == 1 or 0 <= x < q):
            raise SymbolOutsideField(
                f"position {i if where is None else where(i)} holds {x}, "
                f"which is not a symbol of {field}")
    return [x % q for x in symbols]


def parse_field_spec(spec: str) -> Field:
    """Parse "p", "p^s" or "p^s:modulus-hex" into a Field.

    The modulus hex encodes the full monic polynomial packed in base p,
    e.g. "2^4:13" is x^4+x+1 (0x13 = 19 = 16+2+1).  A spec that is not of
    this form raises ``InvalidParams``.
    """
    body, colon, mod_part = spec.strip().partition(":")
    p_str, caret, s_str = body.partition("^")
    try:
        p = int(p_str)
        s = int(s_str) if caret else 1
        packed = int(mod_part, 16) if colon else None
    except ValueError:
        raise InvalidParams(
            f"field spec {spec!r} is not p, p^s or p^s:modulus-hex") from None
    # Field rejects p < 2 before it reads the modulus
    modulus = _unpack(packed, p, s + 1) if packed is not None and p > 1 else None
    return Field(p, s, modulus)
