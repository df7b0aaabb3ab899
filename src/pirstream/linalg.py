"""Exact dense linear algebra over a finite field.

Matrices are lists of equal-length lists of field symbols.  Each entry
point reads its symbols, A's and b's, once by the package's symbol rule
(``fields.check_symbols``): over GF(p) an entry outside [0, p) is read as
its residue, and over any other field it raises SymbolOutsideField.
Everything here rests on one forward-elimination loop (``_echelon``):
``mat_rank`` counts its pivots, ``rref`` adds a back-elimination pass,
and the solvers read their answer off an ``rref``.  Over an exact field
there are no tolerance questions.  Every solve and rank in the package
runs here: the decoders' window and support solves, the systematic
form each GRS code keeps and the readers that GRS decoding reduces from
it, the rank of the recovering matrix A and the collusion audit's ranks.

``solve_unique`` is called again and again with the same few coefficient
matrices (the decoders' window systems recur from burst to burst and
from trial to trial), so it keeps, per process, what one ``rref`` of
[A | I] gives for each A (``reduce_with_identity``): the rank and one
linear map of the field's kernel from b to E b, a left inverse's x
followed by the left-null-space checks, in a ``functools.lru_cache``
keyed by the field, the shape and the bytes of A (``_kept_solver``):
those of an ``array`` of its symbols in the narrowest unsigned typecode
that holds them (``_typecode``, worked out once per field order),
packed row by row by one ``struct.Struct`` of the row length, so a
ragged A fails to pack and raises ShapeMismatch naming its first row of
the wrong length, as the elimination does.  A repeated A costs that
packing, one map application and no elimination.  Systems larger than
``_SOLVER_CELLS``, every system over a field with the scalar kernel, and
every A that does not pack (a ragged row, or a symbol outside the
typecode), are reduced as [A | b] on every call, as ``solve_any`` always
is.

The row update ``row -= f * prow`` and the pivot-row scaling run through
the field's kernel (``Field.kernel``, see ``fields``): per pivot, the
kernel lists the nonzero entries of the pivot row once and updates every
row that needs it, with table or mod-p arithmetic inline instead of one
``Field.mul``/``Field.sub`` call per symbol.
"""

from __future__ import annotations

import struct
from array import array
from functools import lru_cache
from itertools import chain, starmap

from .errors import InconsistentSystem, RankDeficient, ShapeMismatch
from .fields import Field, _ScalarKernel, check_symbols


def _echelon(field: Field, rows):
    """Forward elimination to row echelon form with unit pivots.

    Returns (new_rows, pivot_columns); the input is not modified.  Rows of
    different lengths raise ShapeMismatch; then all entries are read by
    one ``fields.check_symbols`` call, which names an entry by its (row,
    column).
    """
    kernel = field.kernel
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    _check_row_lengths(m, ncols)
    flat = list(chain.from_iterable(m))
    canonical = check_symbols(field, flat, lambda i: divmod(i, ncols))
    if canonical is not flat:
        m = [canonical[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    # the symbol check's flat copies are not needed past here: released,
    # the elimination holds one copy of the matrix, not two or three
    del flat, canonical
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        prow = m[rank]
        pinv = field.inv(prow[col])
        if pinv != 1:
            prow = m[rank] = kernel.scale(prow, pinv)
        kernel.eliminate(m[rank + 1:], col, prow)
        pivots.append(col)
    return m, pivots


def mat_rank(field: Field, rows) -> int:
    """Rank by forward elimination; does not modify the input."""
    return len(_echelon(field, rows)[1])


def rref(field: Field, rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    Forward elimination, then each pivot row, from the last up, clears
    its pivot column in the rows above it.
    """
    m, pivots = _echelon(field, rows)
    for i in range(len(pivots) - 1, 0, -1):
        field.kernel.eliminate(m[:i], pivots[i], m[i])
    return m, pivots


def _check_row_lengths(rows, ncols):
    """Raise ShapeMismatch at the first of the rows that has not ``ncols``
    entries."""
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ShapeMismatch(
                f"row {i} has {len(row)} entries, row 0 has {ncols}")


def _check_rhs(a, b):
    if len(b) != len(a):
        raise ShapeMismatch(f"b has {len(b)} entries, A has {len(a)} rows")


def _solve_augmented(field: Field, a, b):
    """Reduce [A | b]; returns (x, rank of A) with free variables set to 0,
    or (None, rank of A) if the system is inconsistent."""
    n = len(a[0]) if a else 0
    _check_row_lengths(a, n)    # before b joins the rows
    m, pivots = rref(field, [(*row, bv) for row, bv in zip(a, b)])
    if n in pivots:
        return None, len(pivots) - 1
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = m[r][-1]
    return x, len(pivots)


def reduce_with_identity(field: Field, a):
    """(rank of A, E) from one ``rref`` of [A | I]: E is invertible and
    E A is the reduced row echelon form of A.

    So the first rank rows of E combine the rows of A into its pivot
    rows (with full column rank, into the identity: they are a left
    inverse of A), and the other rows span the left null space of A.
    """
    m = len(a)
    n = len(a[0]) if a else 0
    reduced, pivots = rref(field, [list(row) + [int(i == c) for i in range(m)]
                                   for c, row in enumerate(a)])
    rank = sum(1 for col in pivots if col < n)
    return rank, [row[n:] for row in reduced]


# The most cells of [A | I] a kept solver may have: a 32 x 32 system, or a
# taller one with fewer unknowns.  A miss eliminates [A | I], wider than
# [A | b], and the kept map has one lane per entry of E, rows^2 in all, so
# past the cap a kept solver costs more to build and to hold than the
# eliminations it saves.
_SOLVER_CELLS = 32 * 64


# (how many values the items hold, typecode) of the unsigned ``array``
# typecodes, narrowest first, read once at import
_WIDTHS = tuple((1 << 8 * array(t).itemsize, t) for t in "BHIQ")


def _typecode(field: Field):
    """The narrowest unsigned ``array`` typecode that holds every symbol,
    or None past 8 bytes."""
    return next((t for bound, t in _WIDTHS if field.q <= bound), None)


def _solver(field: Field, a, rows: int, cols: int):
    """The kept (rank, solver map) of A (``_kept_solver``), or
    None when [A | I] has more than ``_SOLVER_CELLS`` cells, its symbols do
    not fit 8 bytes, the field has the scalar kernel or A does not pack.

    The scalar kernel's maps are one dot per column, so a hit there costs
    as much as reducing [A | b], and its fields (odd-characteristic
    extensions and GF(2^s) past 2^8) keep no solver."""
    typecode = _typecode(field)
    if (rows * (rows + cols) > _SOLVER_CELLS or typecode is None
            or isinstance(field.kernel, _ScalarKernel)):
        return None
    # one struct pack per row gives the bytes array(typecode, ...).tobytes()
    # gives, faster, and fails on a row without cols entries, where one pack
    # of all rows would solve a ragged A with rows x cols symbols in all as
    # the re-flowed matrix.  An A that does not pack is left to the [A | b]
    # elimination, which reads its rows; a packed entry outside [0, q) is
    # read on the miss, by ``reduce_with_identity``, so a hit is always on
    # an A whose symbols were read.
    try:
        data = b"".join(starmap(struct.Struct(f"{cols}{typecode}").pack, a))
    except struct.error:
        return None
    return _kept_solver(field, rows, cols, data)


# A scheme's window systems recur from burst to burst, so few distinct
# matrices are solved per scheme; 64 serve several schemes.
@lru_cache(maxsize=64)
def _kept_solver(field: Field, rows: int, cols: int, data: bytes):
    """(rank, solver map) of the rows x cols matrix A whose symbols, as
    ``array`` items of ``_typecode``, are the bytes ``data``, from one
    ``reduce_with_identity``: the solver map is the field kernel's linear
    map b -> E b.  Entry r < rank of E b is the r-th pivot's unknown of
    the solution, if there is one (with full column rank, x is the first
    cols entries), and the entries from rank on are the left-null-space
    checks of b, all zero iff A x = b has a solution."""
    flat = array(_typecode(field), data)
    a = [flat[r * cols:(r + 1) * cols].tolist() for r in range(rows)]
    rank, e = reduce_with_identity(field, a)
    return rank, field.kernel.linear_map(list(zip(*e)))


def solve_unique(field: Field, a, b):
    """Solve A x = b for the unique x; A is m x n with m >= n.

    Raises ShapeMismatch if the rows of A differ in length or b has not
    m entries, else InconsistentSystem if the equations are contradictory,
    else RankDeficient if A has column rank < n.

    Below the cell cap the answer is read off one application of the
    solver map kept for A (``_solver``) to b, read by
    ``fields.check_symbols``: b is inconsistent iff a check, an entry
    from the rank on, is nonzero, and x is the first cols entries.  Above
    it, [A | b] is reduced.
    """
    _check_rhs(a, b)
    rows = len(a)
    cols = len(a[0]) if a else 0
    entry = _solver(field, a, rows, cols)
    if entry is None:
        x, rank = _solve_augmented(field, a, b)
        consistent = x is not None
    else:
        rank, solver = entry
        x = solver(check_symbols(field, b))
        consistent = not any(x[rank:])
        del x[cols:]
    if not consistent:
        raise InconsistentSystem("no solution: inconsistent right-hand side")
    if rank < cols:
        raise RankDeficient(f"column rank {rank} < {cols}")
    return x


def solve_any(field: Field, a, b):
    """A particular solution of A x = b with free variables set to 0.

    Returns None if the system is inconsistent; raises ShapeMismatch as
    ``solve_unique`` does.
    """
    _check_rhs(a, b)
    return _solve_augmented(field, a, b)[0]
