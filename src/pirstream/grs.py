"""Generalized Reed-Solomon codes: encode, erasure decode, BMD decode,
and star products.

A codeword of RS(n, k, v) is (v_1 f(a_1), ..., v_n f(a_n)) for a message
polynomial f of degree < k evaluated at distinct locators a_j.  Every
table of locator powers here comes from ``fields.power_rows``: the
generator rows (v_j a_j^i)_j, i < k, which a code keeps once as
``_generator``, the dual code's parity checks and Chien's map.

Both decoders read a word through a reader (``_reader``): the linear map
from a codeword's symbols at k base positions to its message and its
symbols at further positions.  Each code keeps one systematic form of its
generator rows G, [G_0^-1 | G_0^-1 G] for their block G_0 at the first k
positions (``_systematic``), and a reader is one ``linalg.rref`` of it
with the columns of its k base positions first, which eliminates only
where the base leaves the first k positions.  Erasure decoding builds the
reader of the first k surviving positions once per call; the peeling
decoders build one per sub-round of a scheme (``PirScheme._peeling``).

Error (BMD) decoding returns the unique codeword within e = (d-1)//2 of
the word, or fails.  It first reads the word through the reader its
code keeps for it (``_kept``), and answers if that codeword is within
e.  Otherwise it runs Berlekamp-Massey on the n-k syndromes (one linear
map of parity checks, ``_parity_checks``), finds the error locator's
roots by one more linear map (Chien's search, ``_locator_values``), takes
the error values at the roots among the first k positions by Forney's
formula, and reads the corrected first k symbols through the code's map
of all n positions in order (``_first_plan``, the rows of
``_systematic``).  So a BMD decode solves no linear system and encodes
nothing, and it builds a reader only for the first k positions outside
a set of errors, once Berlekamp-Massey finds their locator again in a
later word's syndromes.  The maps are the field kernel's
``linear_map``s, one ``bytes.translate`` of a matrix row (GF(2^s),
q <= 2^8) or one multiply-accumulate (GF(p)) per input symbol; each
code builds its own syndrome and root maps once.  Berlekamp-Massey and
Forney's formula are the kernel's too, on its own arithmetic: inline
mod p, the exp/log tables of GF(2^s) with q <= 2^8, and the scalar
``Field`` methods on the other fields.  The encoder and both
decoders read their symbols once by the package's symbol rule
(``fields.check_symbols``): over GF(p) a symbol outside [0, p) is read
as its residue, and over any other field it raises SymbolOutsideField."""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from functools import cached_property
from operator import itemgetter

from .errors import (
    DecodingFailure,
    DegenerateProduct,
    InconsistentWord,
    LengthMismatch,
    LocatorMismatch,
    TooManyErasures,
)
from .fields import Field, check_symbols, power_rows
from .linalg import reduce_with_identity, rref
# No decode here solves a key equation.  ``solve_any`` stays bound in this
# module because the benchmark's layer tracing wraps ``grs.solve_any`` by
# name, until stage tracing moves into the package (ROADMAP item 2).
from .linalg import solve_any  # noqa: F401


class _PicklesFieldsOnly:
    """A dataclass that pickles its fields alone, not what its
    ``cached_property``s built or kept (kernel maps are closures, which
    pickle cannot carry), so a copy starts cold wherever it was made."""

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


@dataclass(frozen=True)
class GrsCode(_PicklesFieldsOnly):
    """RS(n, k, v) over a finite field; its fields are immutable and it is
    freely shareable.  What it builds once (its tables) and what its BMD
    decodes keep (``_kept``) live on the code and change no result, only
    how fast a word decodes; a pickled copy carries neither."""

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
        q = self.field.q
        for name, values, least in (("locator", locs, 0),
                                    ("multiplier", mults, 1)):
            for j, a in enumerate(values):
                if not least <= a < q:
                    raise LocatorMismatch(f"{name} {a!r} at position {j} "
                                          f"outside {least}..{q - 1}")

    @property
    def d(self) -> int:
        """Minimum distance; GRS codes are MDS."""
        return self.n - self.k + 1

    def generator_matrix(self):
        """The k x n matrix whose row i is (v_j a_j^i)_j, as fresh lists
        that the caller may change: a copy of ``_generator``."""
        return [list(row) for row in self._generator]

    @cached_property
    def _generator(self):
        """The generator rows (v_j a_j^i)_j, i < k, as tuples, built once
        per code from ``power_rows``: ``_reader`` reads its columns."""
        f = self.field
        return tuple(tuple(map(f.mul, self.multipliers, row))
                     for row in power_rows(f, self.locators, self.k))

    def encode(self, message):
        """The codeword (v_j m(a_j))_j of the message polynomial m.

        The codeword is the message times the generator rows
        (``_generator``), one ``linear_map`` of the field's kernel built
        once per code (``_encoder``, see ``Field.kernel``): over GF(p) one
        multiply-accumulate of the message with the rows packed into
        integer lanes, over GF(2^s) with q <= 2^8 one ``bytes.translate``
        of each row by its message symbol.  A locator a_j = 0 gives
        v_j m_0.  Each entry is what the scalar ``Field`` methods give for
        v_j m(a_j).  The message is read by ``fields.check_symbols``.
        """
        if len(message) != self.k:
            raise LengthMismatch(f"message length {len(message)} != k={self.k}")
        return self._encoder(check_symbols(self.field, message))

    @cached_property
    def _encoder(self):
        return self.field.kernel.linear_map(self._generator)

    @cached_property
    def _systematic(self):
        """The k rows [G_0^-1 | G_0^-1 G] for the generator rows G
        (``_generator``) and their block G_0 at the first k positions,
        built once per code: one ``rref`` of [G_0^T | I] gives
        E = (G_0^-1)^T (``linalg.reduce_with_identity``), and the encoder
        gives each row of G_0^-1 times G.  ``_reader`` reduces it."""
        k = self.k
        _, inverse = reduce_with_identity(self.field,
                                          list(zip(*self._generator))[:k])
        return tuple(list(row) + self._encoder(row) for row in zip(*inverse))

    def erasure_decode(self, word, erased=None, at=()):
        """Recover the message from a word with erased positions, followed
        by the codeword's symbols at the positions ``at``.

        Erasures are the ``None`` entries of ``word`` plus any indices in
        ``erased``.  The message solves the Vandermonde system
        sum_i m_i a_j^i = w_j / v_j on the first k surviving positions j;
        distinct locators make the solution unique.  One linear map of
        those k symbols (``_reader`` of the surviving positions followed
        by ``at``, built once per call) gives the message, the codeword's
        symbols at the other surviving positions, and its symbols at
        ``at``, erased or not, in the order given.  Each surviving symbol
        must equal the word's, so that corrupted non-codewords are
        reported instead of silently decoded.  With ``at`` empty the
        result is the message alone.  The surviving symbols are read by
        ``fields.check_symbols``, which names each by its position, so
        over GF(p) each is compared as its residue.

        An ``erased`` position outside the word raises LengthMismatch,
        then more than n-k erasures TooManyErasures, then an ``at``
        position outside the word LengthMismatch.
        """
        n, k = self.n, self.k
        if len(word) != n:
            raise LengthMismatch(f"word length {len(word)} != n={n}")
        erased = tuple(erased or ())
        _check_positions(erased, n)
        gone = set(erased).union(j for j, w in enumerate(word) if w is None)
        if len(gone) > n - k:
            raise TooManyErasures(f"{len(gone)} erasures > n-k = {n - k}")
        at = tuple(at)
        _check_positions(at, n)
        surviving = tuple(j for j in range(n) if j not in gone)
        symbols = check_symbols(self.field, [word[j] for j in surviving],
                                surviving.__getitem__)
        s = len(surviving)
        out = _reader(self, surviving + at)(symbols[:k])
        if out[k:s] != symbols[k:]:
            j = next(j for j, w, expect in zip(surviving[k:], symbols[k:],
                                               out[k:s]) if expect != w)
            raise InconsistentWord(
                f"surviving position {j} disagrees with interpolation")
        del out[k:s]
        return out

    def bmd_decode(self, word):
        """Bounded-minimum-distance decoding.

        Returns (message, error_positions) for the unique codeword within
        Hamming distance e = (d-1)//2 of the word, or raises
        DecodingFailure.  A codeword within e is unique: two would lie
        within 2e < d of each other.  The word is read once on entry by
        ``fields.check_symbols``, so an unreduced GF(p) word gives its
        residues' answer.

        With u the dual code's multipliers (``_parity_checks``), the n-k
        syndromes S_i = sum_j u_j a_j^i w_j are those of the error vector:
        S_i = sum_{j in E} Y_j a_j^i with Y_j = u_j eps_j, where 0^0 = 1,
        so an error at locator 0 shows in S_0 alone.  The full decode
        eliminates nothing:

        * With |E| <= e, so 2|E| <= n-k, the shortest linear recurrence
          that generates S_0..S_{n-k-1} has length L = |E| and the
          characteristic polynomial Lambda(x) = prod_{j in E} (x - a_j),
          which Berlekamp-Massey finds (``_berlekamp_massey``).  The
          decode fails when L > e, or when Lambda has not L roots among
          the locators (``_locator_values``, Chien's search).
        * For a root a_j, Q_j = Lambda / (x - a_j) vanishes at every other
          root, so sum_{i<L} q_i S_i = Y_j Q_j(a_j), where Q_j(a_j) =
          Lambda'(a_j) is nonzero: Forney's formula, with Q by synthetic
          division and Q(a_j) by Horner's rule (the kernel's
          ``error_value``).  It gives eps_j = Y_j / u_j at each root
          among the first k positions.
        * The codeword read off the corrected first k symbols, through
          the code's map of all n positions (``_first_plan``), is the
          answer if it differs from the word only at roots, since it
          then lies within L <= e of it; the positions where it differs
          are the errors.

        Whenever a codeword lies within e, every step finds it, so the
        full decode fails exactly when none does.  Berlekamp-Massey,
        Forney's formula and the correction of the first k symbols run
        in the field's kernel, like the maps: over GF(p) and GF(2^s) with
        q <= 2^8 the decode makes no ``Field`` method call once the
        code's tables are built.

        Before it, the word is read through a reader its code keeps
        (``_kept``), and a codeword within e of the word is the
        answer: the map of all n positions, or, when the errors E of the
        code's last full decode hit its first k positions, the reader of
        the first k positions outside E followed by the others.  The
        latter is built only once a word shows E again.  Until then a
        word with zero syndromes is a codeword, and any other word runs
        Berlekamp-Massey once.  If the locator it finds is E's, with
        |E| <= e distinct roots, the syndromes are those of errors within
        E, so a codeword differs from the word only within E, and the new
        reader reads it.  Otherwise the full decode goes on from that
        locator.  A Byzantine server lies at the same positions block
        after block, so that reader answers most words of a fixed-server
        stream, and errors seen once build no reader.
        """
        f = self.field
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n={self.n}")
        word = check_symbols(f, word)
        k, e = self.k, (self.d - 1) // 2
        kept = self._kept
        if kept[2] is None:
            syndromes = self._parity_checks(word)
            if not any(syndromes):
                return self._read_off(self._first_plan, word)
            locator = _berlekamp_massey(f, syndromes, e)
            if locator == kept[1]:
                others = [j for j in range(self.n) if j not in kept[0]]
                positions = tuple(others[:k]
                                  + sorted(kept[0].union(others[k:])))
                kept[2] = positions, _reader(self, positions)
                return self._read_off(kept[2], word)
        else:
            message, errors = self._read_off(kept[2], word)
            if len(errors) <= e:
                return message, errors
            syndromes = self._parity_checks(word)
            locator = _berlekamp_massey(f, syndromes, e)
        far = f"no codeword within distance {e} of the received word"
        if locator is None:
            raise DecodingFailure(far)
        roots = [j for j, v in enumerate(self._locator_values(locator))
                 if v == 0]
        if len(roots) != len(locator) - 1:
            raise DecodingFailure(far)
        values = [0] * k
        for j in roots:
            if j >= k:
                break
            values[j] = f.kernel.error_value(locator, syndromes,
                                             self.locators[j],
                                             self._dual_weights[j])
        corrected = list(word)
        corrected[:k] = f.kernel.subtract(word[:k], values)
        first = self._first_plan
        message, errors = self._read_off(first, corrected)
        errors = errors.union([j for j in range(k) if corrected[j] != word[j]])
        if not errors.issubset(roots):
            raise DecodingFailure(far)
        kept[:] = errors, locator, first if roots[0] >= k else None
        return message, errors

    @cached_property
    def _kept(self):
        """[the errors E of the code's last full BMD decode, their locator,
        the plan of the reader its next BMD decode reads through first],
        which ``bmd_decode`` updates.  The plan is None while E hits the
        first k positions and no later word has shown E again; at first
        there are no errors, and the plan is ``_first_plan``."""
        return [None, None, self._first_plan]

    @cached_property
    def _first_plan(self):
        """The plan of all n positions in order for ``_read_off``: the
        positions and the map from the symbols x_0 at the first k of them
        to the message x_0 G_0^-1 and the codeword x_0 G_0^-1 G at the
        others, read off the rows of ``_systematic`` with no elimination.
        It is the map ``_reader`` builds for these positions."""
        k = self.k
        return tuple(range(self.n)), self.field.kernel.linear_map(
            [row[:k] + row[2 * k:] for row in self._systematic])

    def _read_off(self, plan, word):
        """(message, positions where the codeword differs from the word) of
        the codeword that agrees with the word at the first k of the plan's
        positions, read through the plan's map: a pair (positions, their
        ``_reader``), or ``_first_plan``."""
        k = self.k
        positions, reader = plan
        read = reader([word[j] for j in positions[:k]])
        return read[:k], frozenset([j for j, c in zip(positions[k:], read[k:])
                                    if c != word[j]])

    @cached_property
    def _parity_checks(self):
        """The field kernel's linear map w -> (sum_j u_j a_j^i w_j)_{i < n-k}
        of the syndromes of w, with u the multipliers of the dual code
        (``_dual_weights``): row i of (u_j a_j^i)_j is a parity check,
        since sum_j lambda_j g(a_j) is the coefficient of x^(n-1) in the
        interpolant of g, so it vanishes for deg g <= n-2, and with
        g = m x^i for every codeword (v_j m(a_j))_j.  At k = n there are
        no checks, and the map is empty."""
        f = self.field
        powers = zip(*power_rows(f, self.locators, self.n - self.k))
        return f.kernel.linear_map(
            [f.kernel.scale(column, f.inv(w))
             for w, column in zip(self._dual_weights, powers)])

    @cached_property
    def _dual_weights(self):
        """(1 / u_j)_j for the multipliers u_j = lambda_j / v_j of the dual
        code, with lambda_j = 1 / prod_{l != j} (a_j - a_l)."""
        f = self.field
        weights = []
        for a, v in zip(self.locators, self.multipliers):
            prod = v
            for b in self.locators:
                if b != a:
                    prod = f.mul(prod, f.sub(a, b))
            weights.append(prod)
        return tuple(weights)

    @cached_property
    def _locator_values(self):
        """The field kernel's linear map c -> (sum_i c_i a_j^i)_j, for
        i <= (n-1)/2: the values at every locator of an error locator of
        degree e <= (n-k)/2 (Chien's search)."""
        f = self.field
        return f.kernel.linear_map(
            power_rows(f, self.locators, (self.n - 1) // 2 + 1))


# Erasure decoding builds the reader of its surviving positions on every
# call, and the peeling tables one per sub-round of a scheme.  BMD decoding
# keeps the reader of the first k positions outside a set of errors that a
# later word showed again (``GrsCode._kept``).  A build reduces the code's kept
# systematic form, whose first k positions are unit columns, so its
# elimination works only on the base positions outside the first k.  A
# reader holds its k rows of n bytes.
def _reader(code, positions):
    """The field kernel's linear map from a codeword's symbols at the first
    k of ``positions`` to its message, then its symbols at the other
    positions, in order: ``erasure_decode`` and the peeling tables pass
    the surviving positions followed by the positions they read, and
    ``bmd_decode`` all n positions, the first k positions outside a set of
    errors first.

    The code keeps the k rows S = [G_0^-1 | G_0^-1 G] (``_systematic``),
    for the generator rows G and their block G_0 at the first k positions;
    the symbols x_0 there give the message x_0 G_0^-1 and the codeword
    x_0 G_0^-1 G.  Let A be the columns of G_0^-1 G at the k base
    positions B, so x_0 A = x_B, the symbols there.  Any k columns of G
    are independent, so A is invertible, and the ``rref`` of S with its
    columns ordered as [B | message | further positions] is
    [I | A^-1 G_0^-1 | A^-1 G_0^-1 G_F], whose rows from column k on are
    the rows of the map x_B -> [m | codeword at F].  A base position
    among the first k is a unit column of S, so the elimination works on
    the other base positions only."""
    k = code.k
    columns = itemgetter(*[k + j for j in positions[:k]], *range(k),
                         *[k + j for j in positions[k:]])
    reduced, _ = rref(code.field, [columns(row) for row in code._systematic])
    return code.field.kernel.linear_map([row[k:] for row in reduced])


def _check_positions(positions, n):
    """Raise LengthMismatch if a position lies outside 0..n-1."""
    if positions and (min(positions) < 0 or max(positions) >= n):
        raise LengthMismatch(f"positions {positions} outside 0..{n - 1}")


def _berlekamp_massey(f, syndromes, e):
    """The error locator of the syndromes, or None if it has degree > e.

    Berlekamp-Massey finds the shortest linear recurrence that generates
    the syndromes: its length L and connection polynomial C, with C(0) = 1
    and deg C <= L.  At step i the discrepancy d is S_i plus the sum of
    c_t S_{i-t}; a nonzero d adds d/b x^gap times the register of the last
    length change, whose discrepancy was b, and the length becomes
    i + 1 - L when 2L <= i.  The locator is Lambda(x) = x^L C(1/x), monic
    of degree L, as a list of coefficients, low first; it has the root 0
    when deg C < L.  The length never decreases, so the loop stops as soon
    as it exceeds e.

    The field's kernel runs it (``berlekamp_massey``): over GF(p) and
    GF(2^s) with q <= 2^8 with no ``Field`` call, and over any other
    field with one scalar ``Field`` call per nonzero product."""
    return f.kernel.berlekamp_massey(syndromes, e)


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
