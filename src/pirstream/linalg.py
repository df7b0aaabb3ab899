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
Nothing here is kept from one call to the next: ``solve_unique`` reduces
[A | b] on every call, and a caller that meets the same A again keeps
its own reduction (``reduce_with_identity``), as the window decoder
keeps one per pattern of pending blocks (``decoder._solve_pattern``).

The row update ``row -= f * prow`` and the pivot-row scaling run through
the field's kernel (``Field.kernel``, see ``fields``): per pivot, the
kernel lists the nonzero entries of the pivot row once and updates every
row that needs it, with table or mod-p arithmetic inline instead of one
``Field.mul``/``Field.sub`` call per symbol.
"""

from __future__ import annotations

from itertools import chain

from .errors import InconsistentSystem, RankDeficient, ShapeMismatch
from .fields import Field, check_symbols


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


def raise_unless_unique(consistent: bool, rank: int, cols: int) -> None:
    """Raise as ``solve_unique`` does for a system in ``cols`` unknowns
    whose coefficient matrix has column rank ``rank``: InconsistentSystem
    if it has no solution, else RankDeficient if rank < cols."""
    if not consistent:
        raise InconsistentSystem("no solution: inconsistent right-hand side")
    if rank < cols:
        raise RankDeficient(f"column rank {rank} < {cols}")


def solve_unique(field: Field, a, b):
    """Solve A x = b for the unique x; A is m x n with m >= n.

    Raises ShapeMismatch if the rows of A differ in length or b has not
    m entries, else InconsistentSystem if the equations are contradictory,
    else RankDeficient if A has column rank < n.  Each call reduces
    [A | b] once.
    """
    _check_rhs(a, b)
    x, rank = _solve_augmented(field, a, b)
    raise_unless_unique(x is not None, rank, len(a[0]) if a else 0)
    return x


def solve_any(field: Field, a, b):
    """A particular solution of A x = b with free variables set to 0.

    Returns None if the system is inconsistent; raises ShapeMismatch as
    ``solve_unique`` does.
    """
    _check_rhs(a, b)
    return _solve_augmented(field, a, b)[0]
