"""Exact dense linear algebra over a finite field.

Matrices are lists of equal-length lists of canonical field integers.
Everything here rests on one forward-elimination loop (``_echelon``):
``mat_rank`` counts its pivots, ``rref`` adds a back-elimination pass,
and the solvers read their answer off the ``rref`` of the augmented
matrix.  Over an exact field there are no tolerance questions.

The row update ``row -= f * prow`` and the pivot-row scaling run through
the field's kernel (``Field.kernel``, see ``fields``): per pivot, the
kernel lists the nonzero entries of the pivot row once and updates every
row that needs it, with table or mod-p arithmetic inline instead of one
``Field.mul``/``Field.sub`` call per symbol.
"""

from __future__ import annotations

from .errors import InconsistentSystem, RankDeficient
from .fields import Field


def _echelon(field: Field, rows):
    """Forward elimination to row echelon form with unit pivots.

    Returns (new_rows, pivot_columns); the input is not modified.
    """
    kernel = field.kernel
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
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


def row_space_basis(field: Field, rows):
    """Basis (RREF rows) of the row space."""
    m, pivots = rref(field, rows)
    return m[: len(pivots)]


def _solve_augmented(field: Field, a, b):
    """Reduce [A | b]; returns (x, rank of A) with free variables set to 0,
    or (None, rank of A) if the system is inconsistent."""
    n = len(a[0]) if a else 0
    m, pivots = rref(field, [list(row) + [bv] for row, bv in zip(a, b)])
    if n in pivots:
        return None, len(pivots) - 1
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = m[r][-1]
    return x, len(pivots)


def solve_unique(field: Field, a, b):
    """Solve A x = b for the unique x; A is m x n with m >= n.

    Raises RankDeficient if A has column rank < n and InconsistentSystem
    if the equations are contradictory.
    """
    x, rank = _solve_augmented(field, a, b)
    if x is None:
        raise InconsistentSystem("no solution: inconsistent right-hand side")
    if rank < len(x):
        raise RankDeficient(f"column rank {rank} < {len(x)}")
    return x


def solve_any(field: Field, a, b):
    """A particular solution of A x = b with free variables set to 0.

    Returns None if the system is inconsistent.
    """
    return _solve_augmented(field, a, b)[0]


def left_kernel_basis(field: Field, rows):
    """Basis of {x : x A = 0} via elimination on [A | I]."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = []
    for i, row in enumerate(rows):
        ident = [0] * nrows
        ident[i] = 1
        aug.append(list(row) + ident)
    m, _ = rref(field, aug)
    basis = []
    for row in m:
        if all(v == 0 for v in row[:ncols]):
            tail = row[ncols:]
            if any(tail):
                basis.append(tail)
    return basis


def intersect_row_spaces(field: Field, a, b):
    """Basis of rowspace(A) ∩ rowspace(B)."""
    if not a or not b:
        return []
    stacked = [list(r) for r in a] + [list(r) for r in b]
    na = len(a)
    basis = []
    for ker in left_kernel_basis(field, stacked):
        u = ker[:na]
        vec = vec_mat(field, u, a)
        if any(vec):
            basis.append(vec)
    return row_space_basis(field, basis) if basis else []


def vec_mat(field: Field, x, a):
    """Row vector times matrix."""
    mul, add = field.mul, field.add
    ncols = len(a[0])
    out = [0] * ncols
    for xi, row in zip(x, a):
        if xi:
            for c in range(ncols):
                if row[c]:
                    out[c] = add(out[c], mul(xi, row[c]))
    return out
