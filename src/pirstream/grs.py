"""Generalized Reed-Solomon codes: encode, erasure decode, BMD decode,
and star products.

A codeword of RS(n, k, v) is (v_1 f(a_1), ..., v_n f(a_n)) for a message
polynomial f of degree < k evaluated at distinct locators a_j.  Every
table of locator powers here comes from ``fields.power_rows``: the
generator rows (v_j a_j^i)_j, i < k, which a code keeps once as
``_generator``, the dual code's parity checks and Chien's map.

Both decoders read a word through a reader (``_reader``): the linear map
from a codeword's symbols at k base positions to its message and its
symbols at further positions, kept per process and code and list of
positions.  Each code keeps one systematic form of its generator rows G,
[G_0^-1 | G_0^-1 G] for their block G_0 at the first k positions
(``_systematic``), and a reader is one ``linalg.rref`` of it with the
columns of its k base positions first, which eliminates only where the
base leaves the first k positions.  Erasure decoding reads the first k
surviving positions, and keeps the surviving positions and their reader
per code, erased positions and ``at`` (``_erasure_plan``).

Error (BMD) decoding returns the unique codeword within e = (d-1)//2 of
the word, or fails.  It first reads the word through the reader its
code keeps for it (``_bmd_kept``), and answers if that codeword is within
e.  Otherwise it runs Berlekamp-Massey on the n-k syndromes (one linear
map of parity checks, ``_parity_checks``), finds the error locator's
roots by one more linear map (Chien's search, ``_locator_values``), takes
the error values at the roots among the first k positions by Forney's
formula, and reads the corrected first k symbols through the code's map
of all n positions in order (``_first_plan``, the rows of
``_systematic``).  So a BMD decode solves no linear system and encodes
nothing, and it builds a reader only for the first k positions outside
a set of errors, once a later word's syndromes show those errors
again.  The maps are the field kernel's ``linear_map``s, one
``bytes.translate`` of a matrix row (GF(2^s), q <= 2^8) or one
multiply-accumulate (GF(p)) per input symbol; codes on the same locators
share the syndrome and root maps.  The encoder and both decoders read
their symbols once by the package's symbol rule
(``fields.check_symbols``): over GF(p) a symbol outside [0, p) is read
as its residue, and over any other field it raises SymbolOutsideField."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
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


@dataclass(frozen=True)
class GrsCode:
    """RS(n, k, v) over a finite field; its fields are immutable and it is
    freely shareable.  What it builds once (its tables) and what its
    decodes keep per process (readers, plans and ``_bmd_kept``) change no
    result, only how fast a word decodes."""

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
        # the dataclass's hash, of this tuple, computed once: every
        # ``_reader``, ``_erasure_plan``, ``_bmd_kept`` and ``_dual_checks``
        # lookup hashes its code.  Fields hash their ints, so the hash is
        # the same in every process, and a pickled code (a worker's) keeps
        # a valid one
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
          Lambda'(a_j) is nonzero: Forney's formula (``_error_value``).
          It gives eps_j = Y_j / u_j at each root among the first k
          positions.
        * The codeword read off the corrected first k symbols, through
          the code's map of all n positions (``_first_plan``), is the
          answer if it differs from the word only at roots, since it
          then lies within L <= e of it; the positions where it differs
          are the errors.

        Whenever a codeword lies within e, every step finds it, so the
        full decode fails exactly when none does.

        Before it, the word is read through a reader its code keeps
        (``_bmd_kept``), and a codeword within e of the word is the
        answer: the map of all n positions, or, when the errors E of the
        code's last full decode hit its first k positions, the reader of
        the first k positions outside E followed by the others.  The
        latter is built only once a word shows E again: its syndromes are
        generated by the recurrence of E's locator, which means that a
        codeword differs from it only within E.  A Byzantine server lies
        at the same positions block after block, so that reader answers
        most words of a fixed-server stream, and errors seen once build
        no reader.
        """
        f = self.field
        if len(word) != self.n:
            raise LengthMismatch(f"word length {len(word)} != n={self.n}")
        word = check_symbols(f, word)
        k, e = self.k, (self.d - 1) // 2
        kept = _bmd_kept(self)
        plan = kept[2]
        syndromes = None
        if plan is None:
            syndromes = self._parity_checks(word)[:self.n - k]
            if not any(syndromes):
                plan = self._first_plan
            elif _generates(f, kept[1], syndromes):
                others = [j for j in range(self.n) if j not in kept[0]]
                positions = tuple(others[:k]
                                  + sorted(kept[0].union(others[k:])))
                plan = kept[2] = positions, _reader(self, positions)
        if plan is not None:
            message, errors = self._read_off(plan, word)
            if len(errors) <= e:
                return message, errors
            if syndromes is None:
                syndromes = self._parity_checks(word)[:self.n - k]
        far = f"no codeword within distance {e} of the received word"
        locator = _berlekamp_massey(f, syndromes, e)
        if locator is None:
            raise DecodingFailure(far)
        roots = [j for j, v in enumerate(self._locator_values(locator))
                 if v == 0]
        if len(roots) != len(locator) - 1:
            raise DecodingFailure(far)
        corrected = list(word)
        for j in roots:
            if j >= k:
                break
            corrected[j] = f.sub(word[j],
                                 self._error_value(locator, syndromes, j))
        first = self._first_plan
        message, errors = self._read_off(first, corrected)
        errors = errors.union([j for j in range(k) if corrected[j] != word[j]])
        if not errors.issubset(roots):
            raise DecodingFailure(far)
        kept[:] = errors, locator, first if roots[0] >= k else None
        return message, errors

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

    def _error_value(self, locator, syndromes, j):
        """The error at position j, a root of the error locator Lambda
        (coefficients low first), by Forney's formula: the quotient
        Q = Lambda / (x - a_j), by synthetic division, gives
        Y_j = sum_i q_i S_i / Q(a_j), and the error is Y_j / u_j."""
        f = self.field
        mul, add = f.mul, f.add
        a = self.locators[j]
        quotient, q = [], 0         # q_{L-1}, ..., q_0
        for c in locator[:0:-1]:
            q = add(c, mul(q, a))
            quotient.append(q)
        derivative = 0              # Q(a_j) = Lambda'(a_j), by Horner's rule
        for q in quotient:
            derivative = add(mul(derivative, a), q)
        evaluator = reduce(add, map(mul, reversed(quotient), syndromes))
        return f.div(mul(evaluator, self._dual_weights[j]), derivative)

    @cached_property
    def _parity_checks(self):
        """The map w -> (sum_j u_j a_j^i w_j)_i, with u the multipliers of
        the dual code, whose first n-k entries are the syndromes of w
        (``_dual_checks``, shared by every code on the same locators and
        multipliers)."""
        return _dual_checks(self.field, self.locators, self.multipliers)[1]

    @cached_property
    def _dual_weights(self):
        """(1 / u_j)_j for the multipliers u of the dual code
        (``_dual_checks``)."""
        return _dual_checks(self.field, self.locators, self.multipliers)[0]

    @cached_property
    def _locator_values(self):
        """c -> (sum_i c_i a_j^i)_j, the values at every locator of a
        polynomial of degree <= (n-1)/2 (``_root_map``, shared by every code
        on the same locators)."""
        return _root_map(self.field, self.locators)


# Erasure decoding reads through one set of surviving positions per
# sub-round and code.  BMD decoding reads through the first k positions
# outside a set of errors that a later word showed again, followed by the
# others.  A build reduces the code's kept systematic form, whose first k
# positions are unit columns, so its elimination works only on the base
# positions outside the first k.  A reader holds its k rows of n bytes.
@lru_cache(maxsize=256)
def _reader(code, positions):
    """The field kernel's linear map from a codeword's symbols at the first
    k of ``positions`` to its message, then its symbols at the other
    positions, in order: ``erasure_decode`` passes the surviving positions
    followed by the positions it is asked for, and ``bmd_decode`` all n
    positions, the first k positions outside a set of errors first.

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
# bound of ``_reader`` here, and as many in ``_bmd_kept``.
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


# A scheme's four um codes decode in turn, so 64 codes serve several
# schemes; an evicted code's next decode reads through all n positions.
@lru_cache(maxsize=64)
def _bmd_kept(code):
    """[the errors E of the code's last full BMD decode, their locator, the
    plan of the reader its next BMD decode reads through first], which
    ``bmd_decode`` updates.  The plan is None while E hits the first k
    positions and no later word has shown E again; at first there are no
    errors, and the plan is ``_first_plan``.  A plan keeps its reader
    alive after ``_reader`` evicts it."""
    return [None, None, code._first_plan]


def _berlekamp_massey(f, syndromes, e):
    """The error locator of the syndromes, or None if it has degree > e.

    Berlekamp-Massey finds the shortest linear recurrence that generates
    the syndromes: its length L and connection polynomial C, with C(0) = 1
    and deg C <= L.  The locator is Lambda(x) = x^L C(1/x), monic of degree
    L, as a list of coefficients, low first; it has the root 0 when
    deg C < L.  The length never decreases, so the loop stops as soon as
    it exceeds e.  A zero term adds nothing and makes no ``Field`` call."""
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


def _generates(f, locator, syndromes):
    """Whether the linear recurrence of the monic locator Lambda generates
    the syndromes: sum_t lambda_t S_{i+t} = 0 for every i.  Then, with L
    distinct roots a_j and L <= (n-k)/2, the syndromes are those of an
    error vector nonzero only at roots, and the word lies within L of the
    codeword that differs from it only there."""
    mul, add = f.mul, f.add
    width = len(locator)
    return not any(reduce(add, map(mul, locator, syndromes[i:i + width]))
                   for i in range(len(syndromes) - width + 1))


# A scheme's codes share one locator tuple and two multiplier tuples, so 32
# locator (and multiplier) tuples are plenty.
@lru_cache(maxsize=32)
def _dual_checks(f, locators, multipliers):
    """((1 / u_j)_j, parity checks) of the codes RS(n, k, v) on these
    locators and multipliers, whatever k.

    u_j = lambda_j / v_j with lambda_j = 1 / prod_{l != j} (a_j - a_l), and
    row i < n-k of (u_j a_j^i)_j is a parity check of RS(n, k, v):
    sum_j lambda_j g(a_j) is the coefficient of x^(n-1) in the interpolant
    of g, so it vanishes for deg g <= n-2, and with g = m x^i for every
    codeword (v_j m(a_j))_j.  The checks of RS(n, k, v) are thus the first
    n-k of the n-1 checks of RS(n, 1, v), and the second entry is the
    field kernel's linear map w -> (sum_j u_j a_j^i w_j)_{i < n-1}."""
    weights = []
    for a, v in zip(locators, multipliers):
        prod = v
        for b in locators:
            if b != a:
                prod = f.mul(prod, f.sub(a, b))
        weights.append(prod)
    # no checks at n = 1: the table, and so the map, is empty
    powers = zip(*power_rows(f, locators, len(locators) - 1))
    return tuple(weights), f.kernel.linear_map(
        [f.kernel.scale(column, f.inv(w))
         for w, column in zip(weights, powers)])


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
