"""Storage encoding, query generation, honest-server responses, and the
exact collusion audit for all three scheme variants.

The audit never enumerates joint masking draws.  Each query row draws
its own masking codeword, independently of the others, so the joint law
of what a colluding set sees is the product of the per-row laws; it is
exact to count each row's q^dim draws once and compare row by row.

Conventions: file, stripe, and server indices are 0-based in code;
protocol iterations run 1..ell+M to keep the zero-padded virtual stripes
(index <= 0 and > ell) readable.  A scheme is an immutable plan; all
randomness enters through an explicit seed at run time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AuditTooLarge,
    InvalidParams,
    ShapeMismatch,
    SupportTooLarge,
    SupportTooSmall,
)
from .fields import Field
from .grs import GrsCode, star_product_code
from .linalg import mat_rank
from .rates import min_gamma
from .seeds import derive_rng

PLAIN = "plain_conv"
BLOCK = "block_erasure"
BYZANTINE = "byzantine_um"


@dataclass(frozen=True)
class StorageSystem:
    """m files of ell stripes, each stripe encoded across the n servers."""

    field: Field
    code: GrsCode
    files: tuple          # files[s][xi][r], 0-based
    encoded: tuple        # encoded[xi][s][j] = (files[s][xi] . G)[j]

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

    def stored_symbol(self, xi: int, s: int, j: int) -> int:
        """Encoded symbol of stripe xi (1-based) of file s at server j;
        stripes outside [1, ell] are the zero padding."""
        if xi < 1 or xi > self.ell:
            return 0
        return self.encoded[xi - 1][s][j]


def storage_encode(files, code: GrsCode) -> StorageSystem:
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
    encoded = tuple(
        tuple(tuple(code.encode(list(files[s][xi]))) for s in range(len(files)))
        for xi in range(ell)
    )
    return StorageSystem(code.field, code, files, encoded)


def random_files(field: Field, m: int, ell: int, k: int, rng):
    return tuple(
        tuple(tuple(rng.randrange(field.q) for _ in range(k)) for _ in range(ell))
        for _ in range(m)
    )


@dataclass(frozen=True)
class PirScheme:
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
    def d_star(self) -> int:
        """Distance of the star product of storage and retrieval codes."""
        return self.n - (self.k + self.t - 1) + 1

    @property
    def rounds(self) -> int:
        return len(self.sub_supports)

    @property
    def query_rows(self) -> int:
        return (self.memory + 1) * self.m

    def star_code(self) -> GrsCode:
        return star_product_code(self.storage_code, self.retrieval_code)


def _default_retrieval(code: GrsCode, t: int) -> GrsCode:
    return GrsCode(code.field, code.n, t, code.locators)


def _conv_offsets(code: GrsCode, memory: int, parts):
    f = code.field
    offsets = []
    for part in parts:
        part_set = set(part)
        rows = []
        for z in range(memory + 1):
            rows.append(tuple(
                f.pow(code.locators[j], z * code.k) if j in part_set else 0
                for j in range(code.n)
            ))
        offsets.append(tuple(rows))
    return tuple(offsets)


def plain_scheme(code: GrsCode, t: int, memory: int, m: int, desired: int,
                 support, retrieval_code: GrsCode | None = None) -> PirScheme:
    """Memory-M streaming scheme; one stripe resolved per iteration.

    ``retrieval_code`` overrides the default RS(n, t) masking code; meant
    for fault injection in tests (e.g. an underdimensioned code whose
    collusion audit must fail).
    """
    _common_checks(code, t, m, desired)
    if memory < 0:
        raise InvalidParams("memory must be >= 0")
    support = tuple(sorted(set(support)))
    if any(not 0 <= j < code.n for j in support):
        raise InvalidParams("support indices out of range")
    d_star_1 = code.n - (code.k + t - 1)
    if d_star_1 < 1:
        raise InvalidParams(f"star-product distance degenerate: n={code.n}, "
                            f"k={code.k}, t={t}")
    if len(support) < code.k:
        raise SupportTooSmall(f"|J|={len(support)} < k={code.k}")
    if len(support) > d_star_1:
        raise SupportTooLarge(f"|J|={len(support)} > d*-1={d_star_1}")
    return PirScheme(PLAIN, code, retrieval_code or _default_retrieval(code, t),
                     t, m, memory, desired, support, (support,),
                     _conv_offsets(code, memory, (support,)))


def block_scheme(code: GrsCode, t: int, eps: int, window: int, m: int,
                 desired: int, support) -> PirScheme:
    """Block-erasure scheme: memory eps, any eps-burst resolved within an
    N-block window; the support is split into sub-rounds of at most d*-1
    positions each."""
    _common_checks(code, t, m, desired)
    if not window > eps >= 1:
        raise InvalidParams(f"need N > eps >= 1, got N={window}, eps={eps}")
    support = tuple(sorted(set(support)))
    if any(not 0 <= j < code.n for j in support):
        raise InvalidParams("support indices out of range")
    d_star_1 = code.n - (code.k + t - 1)
    if d_star_1 < 1:
        raise InvalidParams(f"star-product distance degenerate: n={code.n}, "
                            f"k={code.k}, t={t}")
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

    Offsets are a^-k and a^(k+t-1) on full support, so the three desired
    components sit in trivially intersecting codes.
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
    scheme = PirScheme(BYZANTINE, code, _default_retrieval(code, t), t, m, 1,
                       desired, support, (support,), ((e1, e2),))
    _assert_split_unique(scheme)
    return scheme


def _common_checks(code: GrsCode, t: int, m: int, desired: int):
    if t < 1 or t > code.n:
        raise InvalidParams(f"need 1 <= t <= n, got t={t}")
    if m < 1:
        raise InvalidParams("need at least one file")
    if not 0 <= desired < m:
        raise InvalidParams(f"desired index {desired} outside [0, {m - 1}]")


def _assert_split_unique(scheme: PirScheme):
    """The desired-file components must decompose uniquely: stacked
    generators of C*D, C*E1, C*E2 have full rank 3k+t-1."""
    f = scheme.field
    code = scheme.storage_code
    rows = scheme.star_code().generator_matrix()
    g = code.generator_matrix()
    for offsets in scheme.e_offsets[0]:
        for grow in g:
            rows.append([f.mul(a, b) for a, b in zip(grow, offsets)])
    if mat_rank(f, rows) != 3 * code.k + scheme.t - 1:
        raise InvalidParams("desired-file components do not split uniquely")


# --- queries and responses --------------------------------------------------

@dataclass(frozen=True)
class QuerySet:
    """Per-server query vectors plus the masking rows that produced them."""

    scheme: PirScheme
    d_rows: tuple     # d_rows[r][row] = masking codeword (length n)
    queries: tuple    # queries[r][j]  = query vector (length (M+1)m)


def make_queries(scheme: PirScheme, seed: int) -> QuerySet:
    """Draw fresh masking codewords and add the desired-file offsets."""
    f = scheme.field
    rng = derive_rng(seed, "queries")
    dim = scheme.retrieval_code.k
    d_rows = []
    queries = []
    for r in range(scheme.rounds):
        rows = tuple(
            tuple(scheme.retrieval_code.encode(
                [rng.randrange(f.q) for _ in range(dim)]))
            for _ in range(scheme.query_rows)
        )
        d_rows.append(rows)
        cols = []
        for j in range(scheme.n):
            col = [rows[row][j] for row in range(scheme.query_rows)]
            for z in range(scheme.memory + 1):
                row = z * scheme.m + scheme.desired
                col[row] = f.add(col[row], scheme.e_offsets[r][z][j])
            cols.append(tuple(col))
        queries.append(tuple(cols))
    return QuerySet(scheme, tuple(d_rows), tuple(queries))


def server_respond(system: StorageSystem, scheme: PirScheme, query, xi: int,
                   j: int) -> int:
    """Inner product of one query vector with the server's stacked column
    of the M+1 stripes involved in iteration xi (zero-padded at the ends)."""
    f = system.field
    m = scheme.m
    encoded = system.encoded
    acc = 0
    for z in range(scheme.memory + 1):
        if not 1 <= xi - z <= len(encoded):
            continue            # zero padding contributes nothing
        stripe = encoded[xi - z - 1]
        for s in range(m):
            qv = query[z * m + s]
            if qv:
                yv = stripe[s][j]
                if yv:
                    acc = f.add(acc, f.mul(qv, yv))
    return acc


INTACT = "intact"
ERASED = "erased"
ERRORED = "errored"


@dataclass(frozen=True)
class Block:
    """One iteration's responses: a length-n vector per sub-round."""

    status: str
    parts: tuple | None

    def part(self, r: int = 0):
        return self.parts[r]


@dataclass(frozen=True)
class ResponseStream:
    """The ell+M response blocks of one protocol run."""

    n: int
    ell: int
    memory: int
    rounds: int
    blocks: tuple
    downloaded: int

    def __post_init__(self):
        if len(self.blocks) != self.ell + self.memory:
            raise InvalidParams(
                f"{len(self.blocks)} blocks != ell+M = {self.ell + self.memory}")

    def block(self, xi: int) -> Block:
        """Block of iteration xi, 1-based."""
        return self.blocks[xi - 1]

    def to_csv(self) -> str:
        lines = ["block,server,symbol"]
        for xi, blk in enumerate(self.blocks, start=1):
            if blk.parts is None:
                continue
            for part in blk.parts:
                for j, v in enumerate(part):
                    lines.append(f"{xi},{j},{v}")
        return "\n".join(lines) + "\n"


def stream_from_csv(text: str, n: int, ell: int, memory: int,
                    rounds: int = 1) -> ResponseStream:
    """Rebuild a stream from the flat CSV layout; blocks with no rows are
    erased.  Per-block rows must appear in emission order."""
    rows: dict[int, list[int]] = {}
    lines = [ln for ln in text.strip().splitlines() if ln]
    for ln in lines[1:]:
        xi, j, v = (int(x) for x in ln.split(","))
        rows.setdefault(xi, []).append(v)
    blocks = []
    downloaded = (ell + memory) * rounds * n
    for xi in range(1, ell + memory + 1):
        if xi not in rows:
            blocks.append(Block(ERASED, None))
            continue
        flat = rows[xi]
        if len(flat) != rounds * n:
            raise InvalidParams(f"block {xi} has {len(flat)} symbols, "
                                f"expected {rounds * n}")
        parts = tuple(tuple(flat[r * n: (r + 1) * n]) for r in range(rounds))
        blocks.append(Block(INTACT, parts))
    return ResponseStream(n, ell, memory, rounds, tuple(blocks), downloaded)


def run_protocol(system: StorageSystem, scheme: PirScheme,
                 seed: int) -> ResponseStream:
    """All ell+M iterations against honest servers; deterministic per seed."""
    if system.code != scheme.storage_code:
        raise InvalidParams("scheme was built for a different storage code")
    if scheme.m != system.m:
        raise InvalidParams(f"scheme expects m={scheme.m}, storage has {system.m}")
    if scheme.memory > system.ell - 1 and scheme.variant != BYZANTINE:
        raise InvalidParams(f"memory {scheme.memory} needs ell > M")
    qs = make_queries(scheme, seed)
    blocks = []
    for xi in range(1, system.ell + scheme.memory + 1):
        parts = tuple(
            tuple(server_respond(system, scheme, qs.queries[r][j], xi, j)
                  for j in range(scheme.n))
            for r in range(scheme.rounds)
        )
        blocks.append(Block(INTACT, parts))
    downloaded = (system.ell + scheme.memory) * scheme.rounds * scheme.n
    return ResponseStream(scheme.n, system.ell, scheme.memory, scheme.rounds,
                          tuple(blocks), downloaded)


# --- privacy audit -----------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Outcome of ``privacy_audit`` for one colluding set.

    ``row_laws[i][row]`` maps a query row restricted to the colluding set
    to the number of masking codewords that give it when index i is
    wanted; ``distributions[i]`` maps a joint view (one restricted row per
    query row) to its number of joint draws, the product of its row
    counts, and is built from the row laws when first read.
    """

    identical: bool
    enumerated: int
    colluding: tuple
    witness: tuple | None   # (index_a, index_b, view, count_a, count_b)
    row_laws: tuple         # per candidate index: per row, dict row -> count

    @cached_property
    def distributions(self) -> tuple:
        joint = []
        for laws in self.row_laws:
            counts = {}
            for combo in itertools.product(*(law.items() for law in laws)):
                view = tuple(row for row, _ in combo)
                counts[view] = math.prod(c for _, c in combo)
            joint.append(counts)
        return tuple(joint)


def privacy_audit(scheme: PirScheme, colluding, limit: int = 1 << 20) -> AuditReport:
    """Exact joint query distribution seen by a colluding set, for every
    candidate desired index, as a product of per-row laws.

    Every query row adds its own independently drawn masking codeword, so
    the joint law of a view is the product of the per-row laws: a view's
    count over the (q^dim)^rows joint draws is the product of its rows'
    counts over the q^dim draws of one row.  Each row law is counted once,
    from one table of the masking codewords restricted to the colluding
    set, shifted by that row's offset.  Two products of probability laws
    are equal iff their factors are (summing out every row but one gives
    back that row's factor), so the views are identically distributed iff
    every row's law is the same for every index.

    A broken scheme yields a concrete divergence witness: the first view,
    in sorted order over the union of both supports, whose joint counts
    differ, with the index pair and both counts.  A depth-first walk over
    the rows in sorted order finds it.  It drops a prefix whose counts are
    both 0, or equal with every remaining row law equal; any other prefix
    holds such a view (all row laws have the same total mass), so the walk
    never backs out of a prefix it entered.

    ``enumerated`` is still the number of joint draws, and ``limit``
    bounds it as when they were enumerated one by one.
    """
    colluding = tuple(sorted(set(colluding)))
    if any(not 0 <= j < scheme.n for j in colluding):
        raise InvalidParams("colluding servers out of range")
    if len(colluding) > scheme.t:
        raise InvalidParams(
            f"|T|={len(colluding)} exceeds the designed collusion level t={scheme.t}")
    f = scheme.field
    dim = scheme.retrieval_code.k
    codewords = f.q ** dim
    total_rows = scheme.rounds * scheme.query_rows
    combos = codewords ** total_rows
    if combos > limit:
        raise AuditTooLarge(f"{combos} masking draws exceed the limit {limit}")

    # per-message restriction of the masking codeword to the colluding columns
    restricted = []
    for packed in range(codewords):
        msg = []
        v = packed
        for _ in range(dim):
            msg.append(v % f.q)
            v //= f.q
        cw = scheme.retrieval_code.encode(msg)
        restricted.append(tuple(cw[j] for j in colluding))

    def row_law(offset):
        law: dict = {}
        for cw in restricted:
            shifted = tuple(f.add(a, b) for a, b in zip(cw, offset))
            law[shifted] = law.get(shifted, 0) + 1
        return law

    def row_laws_for(desired):
        laws = []
        for r in range(scheme.rounds):
            for row in range(scheme.query_rows):
                z, s = divmod(row, scheme.m)
                if s == desired:
                    laws.append(row_law(
                        tuple(scheme.e_offsets[r][z][j] for j in colluding)))
                else:
                    laws.append(row_law((0,) * len(colluding)))
        return tuple(laws)

    row_laws = tuple(row_laws_for(i) for i in range(scheme.m))
    witness = None
    for i in range(1, scheme.m):
        if row_laws[i] != row_laws[0]:
            view, ca, cb = _first_divergence(row_laws[0], row_laws[i])
            witness = (0, i, view, ca, cb)
            break
    return AuditReport(witness is None, combos, colluding, witness, row_laws)


def _first_divergence(laws_a, laws_b):
    """(view, count_a, count_b) for the first view, in sorted order, whose
    joint counts under two unequal products of row laws differ."""
    rows = len(laws_a)
    # settled[r]: the laws of rows r.. agree, so equal counts stay equal
    settled = [True] * (rows + 1)
    for r in range(rows - 1, -1, -1):
        settled[r] = settled[r + 1] and laws_a[r] == laws_b[r]

    def walk(r, prefix, ca, cb):
        if r == rows:
            return prefix, ca, cb
        la, lb = laws_a[r], laws_b[r]
        for row in sorted(la.keys() | lb.keys()):
            na, nb = ca * la.get(row, 0), cb * lb.get(row, 0)
            if na != nb or (na and not settled[r + 1]):
                found = walk(r + 1, prefix + (row,), na, nb)
                if found:
                    return found
        return None

    return walk(0, (), 1, 1)
