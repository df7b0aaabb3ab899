"""Generalized Reed-Solomon codes: encode, erasure decode, BMD decode,
and star products.

A codeword of RS(n, k, v) is (v_1 f(a_1), ..., v_n f(a_n)) for a message
polynomial f of degree < k evaluated at distinct locators a_j.  Erasure
decoding reads a word through one linear map per code and set of
surviving positions (``_reader``), built from one ``linalg.rref`` of
[V | I] for the Vandermonde block V of the first k of them and kept per
process: it gives the message and the symbols the codeword has at the
other surviving positions, which must match the word's, and at any
further positions the caller asks for (``at``), such as the erased
ones, so no caller re-encodes the message to read them.  Error decoding
takes the n-k syndromes of the word through one linear map of parity
checks (``_parity_checks``) and solves the key equation in syndrome
form once, at the full bounded-minimum-distance radius, for an error
locator.  Its roots come from its values at every locator, another
linear map (Chien's search), and are then read as erasures: the reader
of the first k positions that are not roots, followed by every other
position, gives the message and the codeword's symbols elsewhere, and
the decode fails unless they differ from the word only at roots.  The
maps are the field kernel's ``linear_map``s, one ``bytes.translate`` of
a matrix row (GF(2^s), q <= 2^8) or one multiply-accumulate (GF(p)) per
input symbol; codes on the same locators share the first two.  So each
BMD decode makes at most one elimination besides the reader's one
inverse, and no encode; at the block lengths used here one solve at the
full radius is plenty, and it never miscorrects beyond the radius.  Over
a field other than GF(p), both decoders reject a symbol outside [0, q)
with SymbolOutsideField."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import (
    DecodingFailure,
    DegenerateProduct,
    InconsistentWord,
    LengthMismatch,
    LocatorMismatch,
    SymbolOutsideField,
    TooManyErasures,
)
from .fields import Field
from .linalg import reduce_with_identity, solve_any


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

        Encoding runs through the encoder the field's kernel builds once
        per code (``_encoder``, see ``Field.kernel``).  Over GF(p) that is
        the kernel's ``linear_map`` of the generator rows: one
        multiply-accumulate of the message with the rows packed into
        integer lanes, reduced mod p once per position, or one dot per
        position when k (p-1)^2 does not fit in 8 bytes; over other fields
        it is Horner's rule on table logs or with the scalar methods.  A
        locator a_j = 0 gives v_j m_0.  Each entry is what the scalar
        ``Field`` methods give for v_j m(a_j), also for GF(p) symbols
        outside [0, p).
        """
        if len(message) != self.k:
            raise LengthMismatch(f"message length {len(message)} != k={self.k}")
        return self._encoder(message)

    @cached_property
    def _encoder(self):
        """The field kernel's encoding map for this code."""
        return self.field.kernel.encoder(self.locators, self.multipliers,
                                         self.k)

    def erasure_decode(self, word, erased=None, at=()):
        """Recover the message from a word with erased positions, followed
        by the codeword's symbols at the positions ``at``.

        Erasures are the ``None`` entries of ``word`` plus any indices in
        ``erased``.  The message solves the Vandermonde system
        sum_i m_i a_j^i = w_j / v_j on the first k surviving positions j;
        distinct locators make the solution unique.  One linear map of
        those k symbols (``_reader``, kept per set of surviving positions
        followed by ``at``) gives the message, the codeword's symbols at
        the other surviving positions, and its symbols at ``at``, erased
        or not, in the order given.  Each surviving symbol must equal the
        word's, so that corrupted non-codewords are reported instead of
        silently decoded.  With ``at`` empty the result is the message
        alone.  Over a field other than GF(p), a surviving symbol outside
        [0, q) raises SymbolOutsideField.
        """
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n={self.n}")
        erased = set(erased or ())
        erased.update(j for j, w in enumerate(word) if w is None)
        if len(erased) > self.n - self.k:
            raise TooManyErasures(
                f"{len(erased)} erasures > n-k = {self.n - self.k}")
        at = tuple(at)
        if at and (min(at) < 0 or max(at) >= self.n):
            raise LengthMismatch(f"positions {at} outside 0..{self.n - 1}")
        # from a list, the tuple is allocated at its size; from a generator
        # it grows by reallocation, and each call would leave one more
        # tuple on the interpreter's free list
        surviving = tuple([j for j in range(self.n) if j not in erased])
        symbols = [word[j] for j in surviving]
        _check_symbols(self.field, symbols, surviving)
        k, s = self.k, len(surviving)
        read = _reader(self, surviving + at)(symbols[:k])
        for j, w, expect in zip(surviving[k:], symbols[k:], read[k:s]):
            if expect != w:
                raise InconsistentWord(
                    f"surviving position {j} disagrees with interpolation")
        del read[k:s]
        return read

    def bmd_decode(self, word):
        """Bounded-minimum-distance decoding from the syndromes of the word.

        Returns (message, error_positions) for the unique codeword within
        Hamming distance e = (d-1)//2 of the word, or raises
        DecodingFailure.

        The n-k syndromes S_i = sum_j u_j a_j^i w_j are the parity checks
        of the dual code (``_parity_checks``); all zero means a codeword.
        Otherwise one solve of the Hankel key equation
        sum_{c<e} E_c S_{i+c} = -S_{i+e}, i < n-k-e (Peterson,
        Gorenstein-Zierler), gives a monic error locator E of degree e,
        and its values at every locator (``_locator_values``) give the
        positions where it vanishes, its roots.  The roots are then
        erasures: one ``_reader``, of the first k positions that are not
        roots followed by the other positions in order, reads the message
        and the codeword at those other positions off the word's k
        symbols.  The codeword may differ from the word only at roots,
        which are then the error positions; no encode is needed.  The key
        equation is the only elimination besides the reader's one inverse
        per set of positions, kept per process.  The word is reduced once
        on entry, so an unreduced GF(p) word gives its residues' answer;
        over any other field a symbol outside [0, q) raises
        SymbolOutsideField.

        Syndromes, locator values and the reader are each one
        ``linear_map`` of the field's kernel, built once and applied to the
        whole vector: over GF(2^s) with q <= 2^8 one ``bytes.translate`` of
        a matrix row per input symbol, XORed.

        This is the Berlekamp-Welch key equation in syndrome form, with
        y_j = w_j / v_j: a monic E of degree e admits a Q of degree < k+e
        with Q(a_j) = y_j E(a_j) at every position iff (y_j E(a_j))_j lies
        in RS(n, k+e) with unit multipliers, iff its first n-k-e parity
        checks sum_j lambda_j a_j^i y_j E(a_j) vanish, and those are the
        Hankel equations.  With at most e errors, every solution has
        Q/E = f, since Q1*E0 - Q0*E1 has degree < k + 2e <= n and vanishes
        at all n locators; so E vanishes at every error, the word equals
        the codeword off the roots, and any k of the at least n-e >= k
        positions that are not roots read its message.  When no codeword
        is within e, the check cannot pass: a codeword that differs from
        the word only at roots would lie within distance |roots| <= e of
        it.  So every solution gives the same answer as the
        Berlekamp-Welch solve.
        """
        f = self.field
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n={self.n}")
        if f.s == 1:
            word = f.kernel.scale(word, 1)
        else:
            _check_symbols(f, word, range(self.n))
        r = self.n - self.k
        e = (self.d - 1) // 2
        far = f"no codeword within distance {e} of the received word"
        syndromes = self._parity_checks(word)[:r]
        roots = []
        if any(syndromes):
            # at e = 0 the rows are empty and the system is inconsistent
            rows = [syndromes[i:i + e] for i in range(r - e)]
            locator = solve_any(f, rows,
                                f.kernel.scale(syndromes[e:], f.neg(1)))
            if locator is None:
                raise DecodingFailure(far)
            values = self._locator_values(locator + [1])
            roots = [j for j, v in enumerate(values) if v == 0]
            if not roots:
                raise DecodingFailure(far)
        k = self.k
        others = [j for j in range(self.n) if j not in roots]
        base, rest = others[:k], sorted(roots + others[k:])
        read = _reader(self, tuple(base + rest))([word[j] for j in base])
        errors = frozenset([j for j, c in zip(rest, read[k:]) if c != word[j]])
        if not errors.issubset(roots):
            raise DecodingFailure(far)
        return read[:k], errors

    @cached_property
    def _locator_powers(self):
        """a_j^i for every position j and 0 <= i < k: the generator matrix
        and ``_reader`` read their powers here."""
        f = self.field
        table = []
        for a in self.locators:
            row = [1]
            for _ in range(self.k - 1):
                row.append(f.mul(row[-1], a))
            table.append(row)
        return table

    @cached_property
    def _parity_checks(self):
        """The map w -> (sum_j u_j a_j^i w_j)_i, with u the multipliers of
        the dual code, whose first n-k entries are the syndromes of w
        (``_dual_checks``, shared by every code on the same locators and
        multipliers)."""
        return _dual_checks(self.field, self.locators, self.multipliers)

    @cached_property
    def _locator_values(self):
        """c -> (sum_i c_i a_j^i)_j, the values at every locator of a
        polynomial of degree <= (n-1)/2 (``_root_map``, shared by every code
        on the same locators)."""
        return _root_map(self.field, self.locators)


def _check_symbols(field, symbols, positions):
    """Raise SymbolOutsideField, naming its position, at the first of the
    symbols (those of a word at ``positions``) outside [0, q), unless the
    field has the GF(p) kernel, whose maps read such a symbol as its
    residue.  Every other kernel would read it as some other symbol
    (``rows[-1]`` is the row of q - 1) or fail with an untyped error."""
    q = field.q
    if field.s > 1 and symbols and (min(symbols) < 0 or max(symbols) >= q):
        j, x = next((j, x) for j, x in zip(positions, symbols)
                    if not 0 <= x < q)
        raise SymbolOutsideField(
            f"position {j} holds {x}, which is not a symbol of {field}")


# Erasure decoding reads through one set of surviving positions per
# sub-round and code, and BMD decoding through the first k positions that
# are not locator roots, followed by the others; the k positions fix the
# rest, so BMD decoding keeps one reader per code and set of non-roots.
# A 5-trial process reads through 12-19 sets on the byzantine-fixed
# benchmark scheme and 70 on byzantine-budget.  150 budget trials read
# through 458, past the bound (603 misses), yet ran no slower than with
# one reader per code: a miss costs about 70 / 155 / 290 us at k = 3 / 6 /
# 9 for a reader of all n = 16 positions over GF(2^8) (2-CPU Intel Xeon),
# and a reader holds its k rows of n bytes.
@lru_cache(maxsize=256)
def _reader(code, positions):
    """The field kernel's linear map from a codeword's symbols at the first
    k of ``positions`` to its message, then its symbols at the other
    positions, in order: ``erasure_decode`` passes the surviving positions
    followed by the positions it is asked for, and ``bmd_decode`` the first
    k positions that are not roots of the error locator followed by every
    other position.

    The message is E y with y_r = x_r / v_r, where E is the inverse of the
    k x k Vandermonde block V on those k positions, read off one ``rref``
    of [V | I] (``linalg.reduce_with_identity``); the symbol at a further
    position j is sum_i m_i v_j a_j^i.  So row r of the map is row r of
    E^T / v_r, followed by its product with the generator columns
    (v_j a_j^i)_i of the further positions, itself one linear map."""
    f, k = code.field, code.k
    powers, multipliers = code._locator_powers, code.multipliers
    base = positions[:k]
    _, inverse = reduce_with_identity(f, [powers[j] for j in base])
    rows = [f.kernel.scale(column, f.inv(multipliers[j]))
            for j, column in zip(base, zip(*inverse))]
    further = f.kernel.linear_map(list(zip(*[
        f.kernel.scale(powers[j], multipliers[j]) for j in positions[k:]])))
    return f.kernel.linear_map([row + further(row) for row in rows])


# A scheme's codes share one locator tuple and two multiplier tuples, so 32
# locator (and multiplier) tuples are plenty.
@lru_cache(maxsize=32)
def _dual_checks(f, locators, multipliers):
    """The parity checks of the codes RS(n, k, v) on these locators and
    multipliers, whatever k.

    u_j = lambda_j / v_j with lambda_j = 1 / prod_{l != j} (a_j - a_l), and
    row i < n-k of (u_j a_j^i)_j is a parity check of RS(n, k, v):
    sum_j lambda_j g(a_j) is the coefficient of x^(n-1) in the interpolant
    of g, so it vanishes for deg g <= n-2, and with g = m x^i for every
    codeword (v_j m(a_j))_j.  The checks of RS(n, k, v) are thus the first
    n-k of the n-1 checks of RS(n, 1, v), and the result is the field
    kernel's linear map w -> (sum_j u_j a_j^i w_j)_{i < n-1}."""
    u = []
    for a, v in zip(locators, multipliers):
        prod = v
        for b in locators:
            if b != a:
                prod = f.mul(prod, f.sub(a, b))
        u.append(f.inv(prod))
    rows = []
    for uj, a in zip(u, locators):
        row = [uj]
        for _ in range(len(locators) - 2):
            row.append(f.mul(row[-1], a))
        rows.append(row[: len(locators) - 1])    # no checks at n = 1
    return f.kernel.linear_map(rows)


@lru_cache(maxsize=32)
def _root_map(field, locators):
    """The field kernel's linear map c -> (sum_i c_i a_j^i)_j on these
    locators, for i <= (n-1)/2: the values at every locator of an error
    locator of degree e <= (n-k)/2, for every k (Chien's search)."""
    rows = [[1] * len(locators)]
    for _ in range((len(locators) - 1) // 2):
        rows.append([field.mul(x, a) for x, a in zip(rows[-1], locators)])
    return field.kernel.linear_map(rows)


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
