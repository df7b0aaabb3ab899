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

The two per-symbol loops that dominate the library, the row update of
Gaussian elimination and the evaluation of a GRS codeword, run through
``Field.kernel``, which the field picks once at construction:

* GF(p): integer arithmetic mod p, inline;
* GF(2^s) with tables (q <= 2^16): ``row[c] ^= exp[log f + log v]``
  with the pivot row's logs taken once, and Horner's rule on logs;
* any other field (odd-characteristic extensions, GF(2^s) past the
  tables): the scalar methods, one call per symbol.

Each kernel computes exactly what the scalar methods would; only the
number of ``Field`` method calls differs.
"""

from __future__ import annotations

from .errors import (
    InvalidParams,
    NonPrimeCharacteristic,
    OrderNotDividing,
    ReducibleModulus,
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
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
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
    """Lowest monic irreducible of degree s, ordered by packed integer value."""
    if s == 1:
        return (0, 1)
    for packed in range(p ** s):
        coeffs = _unpack(packed, p, s) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ReducibleModulus(f"no irreducible polynomial of degree {s} over GF({p})")


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
# Every kernel has the same four methods:
#   scale(row, f)              -> the list f*row
#   eliminate(rows, col, prow) -> row -= row[col]*prow, in place, for each
#                                 row with row[col] != 0; prow is zero left
#                                 of col, and only its nonzero entries are
#                                 visited
#   points(locators, mults)    -> the evaluation points of a GRS code, in the
#                                 kernel's own form (built once per code)
#   evaluate(coeffs, points)   -> [v * f(a) for each point (a, v)], f given
#                                 by its coefficients, low to high


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
        terms = [(c, prow[c]) for c in range(col, len(prow)) if prow[c]]
        for row in rows:
            f = row[col]
            if f:
                for c, v in terms:
                    row[c] = sub(row[c], mul(f, v))

    def points(self, locators, multipliers):
        return tuple(zip(locators, multipliers))

    def evaluate(self, coeffs, points):
        mul, add = self.field.mul, self.field.add
        rev = coeffs[::-1]
        out = []
        for a, v in points:
            acc = 0
            for c in rev:
                acc = add(mul(acc, a), c)
            out.append(mul(v, acc))
        return out


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
        terms = [(c, p - prow[c]) for c in range(col, len(prow)) if prow[c]]
        for row in rows:
            f = row[col]
            if f:
                for c, nv in terms:
                    row[c] = (row[c] + f * nv) % p

    def points(self, locators, multipliers):
        return tuple(zip(locators, multipliers))

    def evaluate(self, coeffs, points):
        p = self.p
        rev = coeffs[::-1]
        out = []
        for a, v in points:
            acc = 0
            for c in rev:
                acc = (acc * a + c) % p
            out.append(acc * v % p)
        return out


class _BinaryKernel:
    """GF(2^s) with exp/log tables: products are exp[log a + log b], sums
    are XOR.  A zero factor needs no branch: log[0] points at the zeros
    that end exp (``Field._build_mul_tables``)."""

    __slots__ = ("exp", "log")

    def __init__(self, exp, log):
        self.exp = exp
        self.log = log

    def scale(self, row, f):
        exp, log = self.exp, self.log
        lf = log[f]
        return [exp[lf + log[v]] for v in row]

    def eliminate(self, rows, col, prow):
        exp, log = self.exp, self.log
        terms = [(c, log[prow[c]]) for c in range(col, len(prow)) if prow[c]]
        for row in rows:
            f = row[col]
            if f:
                lf = log[f]
                for c, lv in terms:
                    row[c] ^= exp[lf + lv]

    def points(self, locators, multipliers):
        log = self.log
        return tuple((log[a], log[v]) for a, v in zip(locators, multipliers))

    def evaluate(self, coeffs, points):
        exp, log = self.exp, self.log
        rev = coeffs[::-1]
        out = []
        for la, lv in points:
            acc = 0
            for c in rev:
                acc = exp[log[acc] + la] ^ c
            out.append(exp[log[acc] + lv])
        return out


class Field:
    """Context object for GF(p^s): parameters, tables, and arithmetic on ints."""

    __slots__ = (
        "p", "s", "q", "modulus", "_exp", "_log", "_q1_factors", "kernel",
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
        self._exp = None
        self._log = None
        if s > 1 and self.q <= _TABLE_LIMIT:
            self._build_mul_tables()
        if s == 1:
            self.kernel = _PrimeKernel(p)
        elif p == 2 and self._exp is not None:
            self.kernel = _BinaryKernel(self._exp, self._log)
        else:
            self.kernel = _ScalarKernel(self)

    # -- construction helpers ------------------------------------------

    def _raw_mul(self, a, b):
        pa = _unpack(a, self.p, self.s)
        pb = _unpack(b, self.p, self.s)
        prod = [0] * (2 * self.s - 1)
        for i, ai in enumerate(pa):
            if ai:
                for j, bj in enumerate(pb):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % self.p
        red = _poly_mod(prod, list(self.modulus), self.p)
        return _pack(red + [0] * (self.s - len(red)), self.p)

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
        g = None
        for cand in range(2, self.q):
            if self._order_raw(cand, self._raw_mul) == self.q - 1:
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
            x = self._raw_mul(x, g)
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
