"""Generalized Reed-Solomon codes: encode, erasure decode, BMD decode,
and star products.

A codeword of RS(n, k, v) is (v_1 f(a_1), ..., v_n f(a_n)) for a message
polynomial f of degree < k evaluated at distinct locators a_j.  Every
table of locator powers here comes from ``fields.power_rows``: the
generator rows (v_j a_j^i)_j, i < k, which a code keeps once as
``_generator``, the dual code's parity checks and Chien's map.

Erasure decoding reads a word through one linear map per code and set
of surviving positions (``_reader``), kept per process: it gives the
message and the symbols the codeword has at the other surviving
positions, which must match the word's, and at any further positions
the caller asks for (``at``), such as the erased ones, so no caller
re-encodes the message to read them.  Each code keeps one systematic
form of its generator rows G, [G_0^-1 | G_0^-1 G] for their block G_0 at
the first k positions (``_systematic``), and a reader is one
``linalg.rref`` of it with the columns of its k base positions first,
which eliminates only where the base leaves the first k positions.  The
surviving positions and their reader are kept per code, erased positions
and ``at`` (``_erasure_plan``), so a repeated erasure pattern is read
with no per-position loop.  Error (BMD) decoding first reads the word
through the reader of the code's last error locator (``_bmd_positions``,
the one mutable slot of a code).  When the codeword read there is within
the radius of the word, it is the answer.  Otherwise it takes the n-k
syndromes of the word through one linear map of parity checks
(``_parity_checks``) and solves the key equation in syndrome form once,
at the full bounded-minimum-distance radius, for an error locator.  Its
roots come from its values at every locator, another linear map
(Chien's search), and are then read as erasures: the reader of the
first k positions that are not roots, followed by every other position,
gives the message and the codeword's symbols elsewhere, and the decode
fails unless they differ from the word only at roots.  The maps are the
field kernel's ``linear_map``s, one ``bytes.translate`` of a matrix row
(GF(2^s), q <= 2^8) or one multiply-accumulate (GF(p)) per input
symbol; codes on the same locators share the first two.  So each BMD
decode makes at most one elimination besides the reader's one build,
none when the kept reader answers, and no encode; at the block lengths
used here one solve at the full radius is plenty, and it never
miscorrects beyond the radius.  The encoder and both decoders read
their symbols once by the package's symbol rule
(``fields.check_symbols``): over GF(p) a symbol outside [0, p) is read
as its residue, and over any other field it raises SymbolOutsideField."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
from .linalg import reduce_with_identity, rref, solve_any


@dataclass(frozen=True)
class GrsCode:
    """RS(n, k, v) over a finite field; its fields are immutable and it is
    freely shareable.  Besides the tables it builds once, a code keeps
    one mutable slot, ``_bmd_positions``: the reader positions of its last
    BMD decode that solved the key equation, which ``bmd_decode`` tries
    first.  The slot changes no result, only how fast a word decodes, so
    equal codes decode every word alike whatever their slots hold."""

    field: Field
    n: int
    k: int
    locators: tuple
    multipliers: tuple = ()

    # not a dataclass field: equality, hashing and repr ignore it
    _bmd_positions = None

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
        # the dataclass's hash, of this tuple, computed once: every
        # ``_reader``, ``_erasure_plan`` and ``_dual_checks`` lookup hashes
        # its code.  Fields hash their ints, so the hash is the same in
        # every process, and a pickled code (a worker's) keeps a valid one
        object.__setattr__(self, "_hash", hash(
            (self.field, self.n, self.k, locs, mults)))

    def __hash__(self):
        return self._hash

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
        those k symbols (``_reader``, kept per set of surviving positions
        followed by ``at``) gives the message, the codeword's symbols at
        the other surviving positions, and its symbols at ``at``, erased
        or not, in the order given.  Each surviving symbol must equal the
        word's, so that corrupted non-codewords are reported instead of
        silently decoded.  With ``at`` empty the result is the message
        alone.  The surviving symbols are read by ``fields.check_symbols``,
        so over GF(p) each is compared as its residue.

        The surviving positions, a getter of their symbols and the reader
        are kept per code, ``erased`` and ``at`` (``_erasure_plan``), so a
        word without ``None`` entries is read with no per-position Python
        loop: one getter call, one map application and one comparison of
        the surviving symbols.  A word with ``None`` entries is read
        through the plan of ``erased`` followed by its ``None`` positions.
        """
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n={self.n}")
        erased = tuple(erased or ())
        if None in word:
            erased += tuple(j for j, w in enumerate(word) if w is None)
        surviving, symbols_of, read = _erasure_plan(self, erased, tuple(at))
        symbols = check_symbols(self.field, symbols_of(word),
                                surviving.__getitem__)
        k, s = self.k, len(surviving)
        out = read(symbols[:k])
        if out[k:s] != list(symbols[k:]):
            j = next(j for j, w, expect in zip(surviving[k:], symbols[k:],
                                               out[k:s]) if expect != w)
            raise InconsistentWord(
                f"surviving position {j} disagrees with interpolation")
        del out[k:s]
        return out

    def bmd_decode(self, word):
        """Bounded-minimum-distance decoding from the syndromes of the word.

        Returns (message, error_positions) for the unique codeword within
        Hamming distance e = (d-1)//2 of the word, or raises
        DecodingFailure.

        The code keeps the positions of one reader (``_bmd_positions``)
        and reads the word through it first: the k symbols at its base
        give a codeword, and if that codeword differs from the word at no
        more than e positions, it is the answer and those positions are
        the errors.  That is exact: two codewords within e of one word
        would lie within 2e < d of each other, so a codeword within e is
        the unique one, which the full decode below returns with the same
        error positions.  Otherwise, with no positions kept or with more
        than e differences, the full decode runs and, when it solved the
        key equation, keeps its reader's positions for the next word.
        A Byzantine server lies in every block, so a word's errors are
        nearly always where the code's last decode found them.  Only the
        full decode solves; the kept positions decide which reader is
        tried first and never change a result.

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
        equation is the only elimination of a full decode besides the
        reader's one build per set of positions, kept per process, which
        eliminates only at the roots among the first k positions.  The
        word is read once on entry by ``fields.check_symbols``, so an
        unreduced GF(p) word gives its residues' answer.

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
        word = check_symbols(f, word)
        k, r = self.k, self.n - self.k
        e = (self.d - 1) // 2
        kept = self._bmd_positions
        if kept is not None:
            message, errors = self._read_off(kept, word)
            if len(errors) <= e:
                return message, errors
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
        others = [j for j in range(self.n) if j not in roots]
        positions = tuple(others[:k] + sorted(roots + others[k:]))
        message, errors = self._read_off(positions, word)
        if not errors.issubset(roots):
            raise DecodingFailure(far)
        if roots:
            object.__setattr__(self, "_bmd_positions", positions)
        return message, errors

    def _read_off(self, positions, word):
        """(message, positions where the codeword differs from the word)
        of the codeword that agrees with the word at the first k of
        ``positions``, read through their ``_reader``."""
        k = self.k
        read = _reader(self, positions)([word[j] for j in positions[:k]])
        return read[:k], frozenset([j for j, c in zip(positions[k:], read[k:])
                                    if c != word[j]])

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


# Erasure decoding reads through one set of surviving positions per
# sub-round and code, and BMD decoding through the first k positions that
# are not locator roots, followed by the others; the k positions fix the
# rest, so BMD decoding keeps one reader per code and set of non-roots.
# A build reduces the code's kept systematic form, whose first k positions
# are unit columns, so its elimination works only on the base positions
# outside the first k: for a BMD reader, as many as the roots among them.
# A reader holds its k rows of n bytes.
@lru_cache(maxsize=256)
def _reader(code, positions):
    """The field kernel's linear map from a codeword's symbols at the first
    k of ``positions`` to its message, then its symbols at the other
    positions, in order: ``erasure_decode`` passes the surviving positions
    followed by the positions it is asked for, and ``bmd_decode`` the first
    k positions that are not roots of the error locator followed by every
    other position.

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


# A decoder erasure-decodes each sub-round of a block through one fixed
# (erased, at) pair of its star-product code, so a scheme keeps one plan
# per sub-round; 64 plans serve many schemes.  A plan keeps its reader
# alive after ``_reader`` evicts it, so at most 64 readers outlive the
# bound of ``_reader``.
@lru_cache(maxsize=64)
def _erasure_plan(code, erased, at):
    """(surviving positions, getter of the word's symbols there, reader)
    of ``erasure_decode`` on ``code`` with the positions ``erased`` erased
    and the codeword read at ``at``: the reader is ``_reader`` of the
    surviving positions followed by ``at``.

    Raises TooManyErasures, then LengthMismatch for an ``at`` outside the
    word, as ``erasure_decode`` reports them; an error is not kept."""
    n, k = code.n, code.k
    erased = set(erased)
    if len(erased) > n - k:
        raise TooManyErasures(f"{len(erased)} erasures > n-k = {n - k}")
    if at and (min(at) < 0 or max(at) >= n):
        raise LengthMismatch(f"positions {at} outside 0..{n - 1}")
    surviving = tuple(j for j in range(n) if j not in erased)
    if len(surviving) > 1:
        symbols_of = itemgetter(*surviving)
    else:
        # one position: itemgetter would give the symbol, not a tuple
        j = surviving[0]

        def symbols_of(word):
            return (word[j],)
    return surviving, symbols_of, _reader(code, surviving + at)


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
    # no checks at n = 1: the table, and so the map, is empty
    powers = zip(*power_rows(f, locators, len(locators) - 1))
    return f.kernel.linear_map([f.kernel.scale(column, uj)
                                for uj, column in zip(u, powers)])


@lru_cache(maxsize=32)
def _root_map(field, locators):
    """The field kernel's linear map c -> (sum_i c_i a_j^i)_j on these
    locators, for i <= (n-1)/2: the values at every locator of an error
    locator of degree e <= (n-k)/2, for every k (Chien's search)."""
    return field.kernel.linear_map(
        power_rows(field, locators, (len(locators) - 1) // 2 + 1))


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
