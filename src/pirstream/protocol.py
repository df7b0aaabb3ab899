"""Storage encoding, query generation, honest-server responses, and the
exact collusion audit for all three scheme variants.

The audit never enumerates masking draws.  Each query row draws its own
masking codeword, so what a colluding set sees has the same law for
every desired index iff each desired-file offset, restricted to the set,
lies in the row space of the masking code restricted to it: one rank
test per offset row.

Storage is the n server columns alone: server j keeps its symbol of
every file's every stripe, stripe 1 first.  A server's answer at
iteration xi is its query's inner product with the M+1 stripes xi-M..xi
it stores, so its answers to all ell+M iterations are one block
convolution of its column with its query, which ``server_respond``
makes in one field-kernel call.  Queries are built a whole masking row
at a time.

Conventions: file, stripe, and server indices are 0-based in code;
protocol iterations run 1..ell+M to keep the zero-padded virtual stripes
(index <= 0 and > ell) readable.  A scheme is an immutable plan; all
randomness enters through an explicit seed at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InvalidParams,
    ShapeMismatch,
    SupportTooLarge,
    SupportTooSmall,
)
from .fields import Field, check_symbols, power_rows
from .grs import GrsCode, _PicklesFieldsOnly, star_product_code
from .linalg import mat_rank
from .rates import min_gamma
from .seeds import derive_rng, draw_below

PLAIN = "plain_conv"
BLOCK = "block_erasure"
BYZANTINE = "byzantine_um"


@dataclass(frozen=True)
class StorageSystem:
    """m files of ell stripes, each stripe encoded across the n servers;
    server j stores only ``server_columns[j]``, its symbols of stripe 1,
    then stripe 2, up to stripe ell, files in order within a stripe."""

    field: Field
    code: GrsCode
    files: tuple            # files[s][xi][r], 0-based
    server_columns: tuple   # server_columns[j][xi*m + s], 0-based

    @property
    def m(self) -> int:
        return len(self.files)

    @property
    def ell(self) -> int:
        return len(self.files[0])

    @property
    def k(self) -> int:
        return self.code.k

    @property
    def n(self) -> int:
        return self.code.n


def storage_encode(files, code: GrsCode) -> StorageSystem:
    """The n server columns of ``files`` under ``code``: column j holds
    symbol j of every stripe's codeword, stripe 1 first and files in order
    within a stripe.

    With the (stripe, file) messages stacked in that order as the rows of
    M, column j is M times generator column j.  So the columns are one
    field-kernel ``linear_map``, whose k rows are M's columns, applied to
    each of the n generator columns; over GF(2^s) with q <= 2^8 that is
    one ``bytes.translate`` of an ell*m-byte row per generator entry.

    All file symbols are read by one ``fields.check_symbols`` call, which
    names a symbol by its (file, stripe, symbol) position; over GF(p) the
    files are stored as their residues."""
    files = tuple(tuple(tuple(stripe) for stripe in f) for f in files)
    if not files or not files[0]:
        raise ShapeMismatch("need at least one file with at least one stripe")
    ell = len(files[0])
    for f in files:
        if len(f) != ell:
            raise ShapeMismatch("all files must have the same stripe count")
        for stripe in f:
            if len(stripe) != code.k:
                raise ShapeMismatch(
                    f"stripe length {len(stripe)} != k={code.k}")
    symbols = [x for f in files for stripe in f for x in stripe]
    canonical = check_symbols(
        code.field, symbols, lambda i: (i // (ell * code.k), i // code.k % ell,
                                        i % code.k))
    if canonical is not symbols:
        stripes = list(zip(*[iter(canonical)] * code.k))
        files = tuple(tuple(stripes[i: i + ell])
                      for i in range(0, len(stripes), ell))
    stacked = code.field.kernel.linear_map(
        list(zip(*[stripe for stripes in zip(*files) for stripe in stripes])))
    columns = tuple(map(tuple, map(stacked, zip(*code.generator_matrix()))))
    return StorageSystem(code.field, code, files, columns)


def random_files(field: Field, m: int, ell: int, k: int, rng):
    """m files of ell stripes of k uniform symbols, drawn in bulk from
    ``rng`` (``seeds.draw_below``) in the order of m*ell*k successive
    ``rng.randrange(q)`` calls: file by file, stripe by stripe.  ``rng``
    needs ``getrandbits`` and is left further along than those calls
    would leave it, so it should serve this one call only."""
    flat = draw_below(rng, field.q, m * ell * k)
    stripes = [tuple(flat[i: i + k]) for i in range(0, len(flat), k)]
    return tuple(tuple(stripes[f * ell: (f + 1) * ell]) for f in range(m))


@dataclass(frozen=True)
class PirScheme(_PicklesFieldsOnly):
    """One retrieval plan: codes, memory, support, and offset matrices.

    ``e_offsets[r][z][j]`` is the offset added to query row z*m+desired at
    server j in sub-round r.  Single sub-round unless the block-erasure
    support exceeds d*-1 symbols per iteration.
    """

    variant: str
    storage_code: GrsCode
    retrieval_code: GrsCode
    t: int
    m: int
    memory: int
    desired: int
    support: tuple
    sub_supports: tuple
    e_offsets: tuple
    window: int | None = None      # N, block-erasure variant only
    burst: int | None = None       # eps, block-erasure variant only

    @property
    def field(self) -> Field:
        return self.storage_code.field

    @property
    def n(self) -> int:
        return self.storage_code.n

    @property
    def k(self) -> int:
        return self.storage_code.k

    @property
    def rounds(self) -> int:
        return len(self.sub_supports)

    @property
    def query_rows(self) -> int:
        return (self.memory + 1) * self.m

    def star_code(self) -> GrsCode:
        """The star product of the storage and retrieval codes, built once
        per scheme, so the generator rows and encoding map it keeps serve
        every stream the scheme decodes."""
        return self._star

    @cached_property
    def _star(self) -> GrsCode:
        return star_product_code(self.storage_code, self.retrieval_code)

    @cached_property
    def um_codes(self) -> tuple:
        """(sum, forward coset, backward coset, star) codes of unit-memory
        decoding, for the byzantine variant.  They depend on the scheme
        alone, so each is built, with its tables, once per scheme."""
        code, f, n, k, t = self.storage_code, self.field, self.n, self.k, self.t
        locs = code.locators
        e1 = self.e_offsets[0][0]
        return (GrsCode(f, n, 3 * k + t - 1, locs, e1),
                GrsCode(f, n, 2 * k + t - 1, locs, e1),  # desired + interference
                GrsCode(f, n, 2 * k + t - 1, locs),      # interference + delayed
                self.star_code())

    @cached_property
    def _peeling(self) -> tuple:
        """The peeling tables of a plain or block-erasure scheme, with its
        table of window patterns (``decoder._peeling_tables``): built on
        the first decode, and the patterns grow with the streams the
        scheme decodes."""
        from .decoder import _peeling_tables     # decoder imports protocol
        return _peeling_tables(self)


def _default_retrieval(code: GrsCode, t: int) -> GrsCode:
    return GrsCode(code.field, code.n, t, code.locators)


def _conv_offsets(code: GrsCode, memory: int, parts):
    """Per sub-round, the offsets of lags z = 0..memory: a_j^(zk) at the
    positions j of the part, 0 elsewhere, from the powers of a_j^k."""
    f = code.field
    powers = power_rows(f, [f.pow(a, code.k) for a in code.locators],
                        memory + 1)
    return tuple(
        tuple(tuple(x if j in part_set else 0 for j, x in enumerate(row))
              for row in powers)
        for part_set in map(set, parts))


def plain_scheme(code: GrsCode, t: int, memory: int, m: int, desired: int,
                 support) -> PirScheme:
    """Memory-M streaming scheme; one stripe resolved per iteration."""
    _common_checks(code, t, m, desired)
    if memory < 0:
        raise InvalidParams("memory must be >= 0")
    support, d_star_1 = _support_and_limit(code, t, support)
    if len(support) < code.k:
        raise SupportTooSmall(f"|J|={len(support)} < k={code.k}")
    if len(support) > d_star_1:
        raise SupportTooLarge(f"|J|={len(support)} > d*-1={d_star_1}")
    return PirScheme(PLAIN, code, _default_retrieval(code, t), t, m, memory,
                     desired, support, (support,),
                     _conv_offsets(code, memory, (support,)))


def block_scheme(code: GrsCode, t: int, eps: int, window: int, m: int,
                 desired: int, support) -> PirScheme:
    """Block-erasure scheme: memory eps, any eps-burst resolved within an
    N-block window; the support is split into sub-rounds of at most d*-1
    positions each."""
    _common_checks(code, t, m, desired)
    if not window > eps >= 1:
        raise InvalidParams(f"need N > eps >= 1, got N={window}, eps={eps}")
    support, d_star_1 = _support_and_limit(code, t, support)
    gamma = len(support)
    need = min_gamma(code.k, window, eps)
    if gamma < need:
        raise SupportTooSmall(f"|J|={gamma} < Nk/(N-eps)={need}")
    parts = tuple(
        support[i: i + d_star_1] for i in range(0, gamma, d_star_1))
    return PirScheme(BLOCK, code, _default_retrieval(code, t), t, m, eps,
                     desired, support, parts,
                     _conv_offsets(code, eps, parts),
                     window=window, burst=eps)


def byzantine_scheme(code: GrsCode, t: int, m: int, desired: int) -> PirScheme:
    """Unit-memory scheme for symbol errors / Byzantine servers.

    Offsets are e1 = a^-k and e2 = a^(k+t-1) on full support, and the
    three desired-file components split uniquely.  With unit multipliers
    the rows of the star code are a^i for i = 0..k+t-2, those of e1*C are
    a^i for i = -k..-1 and those of e2*C for i = k+t-1..2k+t-2.  Stacked,
    they are the 3k+t-1 consecutive powers -k..2k+t-2 of the locators: a
    Vandermonde matrix with column j scaled by a_j^-k != 0, which has full
    rank 3k+t-1 on n > 3k+t-1 distinct locators.  So the checks below are
    all the split needs, and building a scheme eliminates nothing.
    """
    _common_checks(code, t, m, desired)
    n, k = code.n, code.k
    f = code.field
    if n <= 3 * k + t - 1:
        raise InvalidParams(f"need n > 3k+t-1, got n={n}, k={k}, t={t}")
    if any(a == 0 for a in code.locators):
        raise InvalidParams("locator 0 is forbidden: queries use negative powers")
    if any(v != 1 for v in code.multipliers):
        raise InvalidParams("storage code multipliers must be all-ones here")
    support = tuple(range(n))
    e1 = tuple(f.pow(a, -k) for a in code.locators)
    e2 = tuple(f.pow(a, k + t - 1) for a in code.locators)
    return PirScheme(BYZANTINE, code, _default_retrieval(code, t), t, m, 1,
                     desired, support, (support,), ((e1, e2),))


def _common_checks(code: GrsCode, t: int, m: int, desired: int):
    if t < 1 or t > code.n:
        raise InvalidParams(f"need 1 <= t <= n, got t={t}")
    if m < 1:
        raise InvalidParams("need at least one file")
    if not 0 <= desired < m:
        raise InvalidParams(f"desired index {desired} outside [0, {m - 1}]")


def _support_and_limit(code: GrsCode, t: int, support):
    """The support, sorted and deduplicated, and d*-1 = n-(k+t-1): the
    most support positions one sub-round of the star-product code holds."""
    support = tuple(sorted(set(support)))
    if any(not 0 <= j < code.n for j in support):
        raise InvalidParams("support indices out of range")
    d_star_1 = code.n - (code.k + t - 1)
    if d_star_1 < 1:
        raise InvalidParams(f"star-product distance degenerate: n={code.n}, "
                            f"k={code.k}, t={t}")
    return support, d_star_1


# --- queries and responses --------------------------------------------------

@dataclass(frozen=True)
class QuerySet:
    """Per-server query vectors plus the masking rows that produced them."""

    scheme: PirScheme
    d_rows: tuple     # d_rows[r][row] = masking codeword (length n)
    queries: tuple    # queries[r][j]  = query vector (length (M+1)m)


def make_queries(scheme: PirScheme, seed: int) -> QuerySet:
    """Draw fresh masking codewords, all messages at once, and add lag z's
    desired-file offset to the whole row z*m + desired; one ``zip`` of a
    sub-round's rows gives every server's query.  ``d_rows`` keeps the
    masking rows without offsets."""
    f, code, rows = scheme.field, scheme.retrieval_code, scheme.query_rows
    draws = draw_below(derive_rng(seed, "queries"), f.q,
                       scheme.rounds * rows * code.k)
    words = [tuple(code.encode(draws[at: at + code.k]))
             for at in range(0, len(draws), code.k)]
    d_rows = tuple(tuple(words[at: at + rows])
                   for at in range(0, len(words), rows))
    queries = []
    for masking, offsets in zip(d_rows, scheme.e_offsets):
        added = list(masking)
        for z, offset in enumerate(offsets):
            row = z * scheme.m + scheme.desired
            added[row] = map(f.add, masking[row], offset)
        queries.append(tuple(zip(*added)))
    return QuerySet(scheme, d_rows, tuple(queries))


def server_respond(system: StorageSystem, scheme: PirScheme, query,
                   j: int) -> tuple:
    """Server j's answers to one query vector at iterations 1..ell+M.

    The answer at iteration xi is the inner product of the query with the
    server's stacked column of stripes xi, xi-1, ..., xi-M, zero outside
    1..ell: query entry z*m + s pairs with file s of stripe xi - z.  Over
    all iterations that is the block convolution of the server's column
    (``StorageSystem.server_columns``, stripe 1 first) with the query, in
    blocks of m, made by one ``convolve`` of the field's kernel.  The
    query is read by ``fields.check_symbols``.
    """
    f = system.field
    return tuple(f.kernel.convolve(system.server_columns[j],
                                   check_symbols(f, query), scheme.m))


INTACT = "intact"
ERASED = "erased"
ERRORED = "errored"


@dataclass(frozen=True)
class Block:
    """One iteration's responses: a length-n vector per sub-round."""

    status: str
    parts: tuple | None


@dataclass(frozen=True)
class ResponseStream:
    """The ell+M response blocks of one protocol run."""

    n: int
    ell: int
    memory: int
    rounds: int
    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) != self.ell + self.memory:
            raise InvalidParams(
                f"{len(self.blocks)} blocks != ell+M = {self.ell + self.memory}")

    def block(self, xi: int) -> Block:
        """Block of iteration xi, 1-based."""
        return self.blocks[xi - 1]


def run_protocol(system: StorageSystem, scheme: PirScheme,
                 seed: int) -> ResponseStream:
    """All ell+M iterations against honest servers; deterministic per seed."""
    if system.code != scheme.storage_code:
        raise InvalidParams("scheme was built for a different storage code")
    if scheme.m != system.m:
        raise InvalidParams(f"scheme expects m={scheme.m}, storage has {system.m}")
    qs = make_queries(scheme, seed)
    # answers[r][xi - 1][j]: each server's answers, transposed per sub-round
    answers = [tuple(zip(*[server_respond(system, scheme, query, j)
                           for j, query in enumerate(queries)]))
               for queries in qs.queries]
    return ResponseStream(scheme.n, system.ell, scheme.memory, scheme.rounds,
                          tuple(Block(INTACT, parts) for parts in zip(*answers)))


# --- privacy audit -----------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Outcome of ``privacy_audit`` for one colluding set."""

    identical: bool
    enumerated: int
    colluding: tuple
    witness: tuple | None   # (sub_round, lag, offset restricted to colluding)


def privacy_audit(scheme: PirScheme, colluding) -> AuditReport:
    """Exact check that a colluding set sees the same query law for every
    candidate desired index, decided by ranks.

    The colluding set T sees each query row as a uniformly drawn masking
    codeword restricted to T, plus the desired-file offset e_{r,z} on the
    desired row and nothing on the others; rows draw their masking
    independently.  A row's law is the uniform law on the restricted
    masking code shifted by its offset, and equals the unshifted one iff
    the offset lies in that code's row space.  So the views agree for
    every index iff each restricted offset adds nothing to the rank of the
    restricted retrieval generator; with one file there is nothing to
    compare.

    For the schemes this package builds the masking code is a GRS code of
    dimension t, which is MDS: any t of its generator's columns form a
    column-scaled Vandermonde matrix on distinct locators, so any |T| <= t
    columns are independent.  The restricted generator then has rank |T|,
    its row space is all of F^|T|, and every offset lies in it.  So the
    audit passes as soon as that rank equals |T|, and stacks offsets only
    for a masking code of lower rank on T (a library caller's own code).

    ``witness`` is the first (sub-round, lag) in order whose restricted
    offset is outside the masking code on T, with that offset.
    ``enumerated`` is the number of joint masking draws,
    q^(dim * rounds * rows), that an exhaustive audit would enumerate.
    """
    colluding = tuple(sorted(set(colluding)))
    if any(not 0 <= j < scheme.n for j in colluding):
        raise InvalidParams("colluding servers out of range")
    if len(colluding) > scheme.t:
        raise InvalidParams(
            f"|T|={len(colluding)} exceeds the designed collusion level t={scheme.t}")
    f = scheme.field
    enumerated = f.q ** (scheme.retrieval_code.k * scheme.rounds * scheme.query_rows)
    witness = None
    if scheme.m > 1:
        masking = [[row[j] for j in colluding]
                   for row in scheme.retrieval_code.generator_matrix()]
        rank = mat_rank(f, masking)
        if rank < len(colluding):
            outside = (
                (r, z, seen)
                for r, offsets in enumerate(scheme.e_offsets)
                for z, seen in enumerate(tuple(e[j] for j in colluding)
                                         for e in offsets)
                if mat_rank(f, masking + [list(seen)]) > rank)
            witness = next(outside, None)
    return AuditReport(witness is None, enumerated, colluding, witness)
