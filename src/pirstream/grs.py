"""Generalized Reed-Solomon codes: encode, erasure decode, BMD decode,
and star products.

A codeword of RS(n, k, v) is (v_1 f(a_1), ..., v_n f(a_n)) for a message
polynomial f of degree < k evaluated at distinct locators a_j.  Both
decoders solve through ``linalg.solve_any`` on rows of one table of
locator powers (``_locator_powers``).  Erasure decoding solves the k x k
Vandermonde system of k surviving positions and cross-checks the rest;
error decoding solves the Berlekamp-Welch key equation once, at the full
bounded-minimum-distance radius, which is plenty at the block lengths
used here and never miscorrects beyond that radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DecodingFailure,
    DegenerateProduct,
    InconsistentWord,
    LengthMismatch,
    LocatorMismatch,
    TooManyErasures,
)
from .fields import Field
from .linalg import solve_any


def poly_divmod(field: Field, num, den):
    num = list(num)
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
    if den == [0] or not den:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    inv_lead = field.inv(den[-1])
    quot = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            f = field.mul(c, inv_lead)
            quot[i - dd] = f
            for j in range(dd + 1):
                num[i - dd + j] = field.sub(num[i - dd + j], field.mul(f, den[j]))
    rem = num[:dd] if dd else [0]
    return quot, rem


@dataclass(frozen=True)
class GrsCode:
    """RS(n, k, v) over a finite field; immutable and freely shareable."""

    field: Field
    n: int
    k: int
    locators: tuple
    multipliers: tuple = ()

    def __post_init__(self):
        if self.multipliers == ():
            object.__setattr__(self, "multipliers", (1,) * self.n)
        locs = tuple(self.locators)
        mults = tuple(self.multipliers)
        object.__setattr__(self, "locators", locs)
        object.__setattr__(self, "multipliers", mults)
        if not 1 <= self.k <= self.n:
            raise LengthMismatch(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if len(locs) != self.n or len(mults) != self.n:
            raise LengthMismatch("locators/multipliers must have length n")
        if len(set(locs)) != self.n:
            raise LocatorMismatch("locators must be pairwise distinct")
        if any(not 0 <= a < self.field.q for a in locs):
            raise LocatorMismatch("locators outside the field")
        if any(v == 0 for v in mults):
            raise LocatorMismatch("column multipliers must be nonzero")

    @property
    def d(self) -> int:
        """Minimum distance; GRS codes are MDS."""
        return self.n - self.k + 1

    def generator_matrix(self):
        """The k x n matrix whose row i is (v_j a_j^i)_j."""
        mul = self.field.mul
        return [
            [mul(v, pw[i]) for v, pw in zip(self.multipliers, self._locator_powers)]
            for i in range(self.k)
        ]

    def encode(self, message):
        """The codeword (v_j m(a_j))_j of the message polynomial m.

        Evaluation runs through the field's kernel (``Field.kernel``):
        Horner's rule on table logs, mod p, or with the scalar methods,
        at points the code converts once (``_points``).  A locator
        a_j = 0 gives v_j m_0.  Each entry is what the scalar ``Field``
        methods give for v_j m(a_j).
        """
        if len(message) != self.k:
            raise LengthMismatch(f"message length {len(message)} != k={self.k}")
        return self.field.kernel.evaluate(message, self._points)

    @cached_property
    def _points(self):
        """(a_j, v_j) for every position, in the field kernel's form."""
        return self.field.kernel.points(self.locators, self.multipliers)

    def erasure_decode(self, word, erased=None):
        """Recover the message from a word with erased positions.

        Erasures are the ``None`` entries of ``word`` plus any indices in
        ``erased``.  The message solves the Vandermonde system
        sum_i m_i a_j^i = w_j / v_j on the first k surviving positions j
        (``linalg.solve_any``; distinct locators make the solution
        unique).  Surplus surviving positions are cross-checked so that
        corrupted non-codewords are reported instead of silently decoded.
        """
        f = self.field
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n={self.n}")
        erased = set(erased or ())
        erased.update(j for j, w in enumerate(word) if w is None)
        if len(erased) > self.n - self.k:
            raise TooManyErasures(
                f"{len(erased)} erasures > n-k = {self.n - self.k}")
        surviving = [j for j in range(self.n) if j not in erased]
        base = surviving[: self.k]
        rows = [self._locator_powers[j][: self.k] for j in base]
        ys = [f.div(word[j], self.multipliers[j]) for j in base]
        coeffs = solve_any(f, rows, ys)
        surplus = surviving[self.k:]
        expected = f.kernel.evaluate(coeffs, [self._points[j] for j in surplus])
        for j, expect in zip(surplus, expected):
            if expect != word[j]:
                raise InconsistentWord(
                    f"surviving position {j} disagrees with interpolation")
        return coeffs

    def bmd_decode(self, word):
        """Bounded-minimum-distance decoding via the Berlekamp-Welch system.

        Returns (message, error_positions) for the unique codeword within
        Hamming distance < d/2 of the word, or raises DecodingFailure.

        One solve at the radius emax = (d-1)//2 decides it.  With at most
        emax errors, every solution (Q, E) with E monic of degree emax has
        Q/E = f, since Q1*E0 - Q0*E1 has degree < k + 2*emax <= n and
        vanishes at all n locators.  Conversely, any solution at any e <= emax
        whose Q/E is a polynomial g of degree < k agrees with the word
        wherever E(a_j) != 0, so g lies within e of it: when no codeword is
        within emax, no smaller e can succeed either.
        """
        f = self.field
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n={self.n}")
        emax = (self.d - 1) // 2
        ys = [f.div(w, v) for w, v in zip(word, self.multipliers)]
        msg = self._bw_attempt(ys, emax)
        if msg is None:
            raise DecodingFailure(
                f"no codeword within distance {emax} of the received word")
        cw = self.encode(msg)
        return msg, frozenset(j for j in range(self.n) if cw[j] != word[j])

    @cached_property
    def _locator_powers(self):
        """a_j^i for every position j and 0 <= i < k + (d-1)//2: the
        generator matrix, erasure decoding and a Berlekamp-Welch row at
        any e <= (d-1)//2 read their powers here."""
        f = self.field
        top = self.k + (self.d - 1) // 2
        table = []
        for a in self.locators:
            row = [1]
            for _ in range(top - 1):
                row.append(f.mul(row[-1], a))
            table.append(row)
        return table

    def _bw_attempt(self, ys, e):
        # unknowns: Q_0..Q_{k+e-1}, E_0..E_{e-1}; E monic of degree e.
        # Q(a_j) - y_j E(a_j) = 0  with E = x^e + sum E_i x^i
        f = self.field
        scale = f.kernel.scale
        k = self.k
        nq = k + e
        rows, rhs = [], []
        for y, pw in zip(ys, self._locator_powers):
            rows.append(pw[:nq] + scale(pw[:e], f.neg(y)))
            rhs.append(f.mul(y, pw[e]))
        sol = solve_any(f, rows, rhs)
        if sol is None:
            return None
        qpoly = sol[:nq] or [0]
        epoly = sol[nq:] + [1]
        quot, rem = poly_divmod(f, qpoly, epoly)
        if any(rem):
            return None
        msg = quot[:k] + [0] * max(0, k - len(quot))
        if any(quot[k:]):
            return None
        return msg[:k]


def star_product_code(c1: GrsCode, c2: GrsCode) -> GrsCode:
    """The star (Schur) product of two GRS codes on shared locators."""
    if c1.field != c2.field:
        raise LocatorMismatch("codes live in different fields")
    if c1.n != c2.n or c1.locators != c2.locators:
        raise LocatorMismatch("star product requires identical locators")
    k = c1.k + c2.k - 1
    if k > c1.n:
        raise DegenerateProduct(
            f"k1+k2-1 = {k} exceeds n = {c1.n}; product is the whole space")
    f = c1.field
    mults = tuple(f.mul(a, b) for a, b in zip(c1.multipliers, c2.multipliers))
    return GrsCode(f, c1.n, k, c1.locators, mults)
