import random

import pytest

from pirstream.errors import InconsistentSystem, RankDeficient
from pirstream.fields import Field
from pirstream.linalg import (
    intersect_row_spaces,
    left_kernel_basis,
    mat_rank,
    row_space_basis,
    rref,
    solve_any,
    solve_unique,
    vec_mat,
)

GF5 = Field(5)
GF16 = Field(2, 4)


def test_rank_and_rref():
    vand = [[1, 1, 1], [1, 2, 4], [1, 3, 4]]   # Vandermonde on 1,2,3 mod 5
    assert mat_rank(GF5, vand) == 3
    multiples = [[1, 2, 3], [2, 4, 1], [3, 1, 4]]   # scalar multiples mod 5
    assert mat_rank(GF5, multiples) == 1
    assert mat_rank(GF5, vand + [[1, 4, 1]]) == 3   # 4 rows in F^3
    assert mat_rank(GF5, [[0, 0], [0, 0]]) == 0
    r, pivots = rref(GF5, [[2, 4], [1, 2]])
    assert pivots == [0]
    assert r[0] == [1, 2]


def test_solve_unique():
    a = [[1, 1], [1, 2], [1, 3]]
    x = [2, 3]
    b = [GF5.add(GF5.mul(r[0], x[0]), GF5.mul(r[1], x[1])) for r in a]
    assert solve_unique(GF5, a, b) == x
    with pytest.raises(InconsistentSystem):
        solve_unique(GF5, a, [b[0], b[1], GF5.add(b[2], 1)])
    with pytest.raises(RankDeficient):
        solve_unique(GF5, [[1, 2], [2, 4]], [1, 2])


def test_solve_any():
    a = [[1, 2], [2, 4]]
    sol = solve_any(GF5, a, [1, 2])
    assert sol is not None
    for row, rhs in zip(a, [1, 2]):
        acc = 0
        for coeff, x in zip(row, sol):
            acc = GF5.add(acc, GF5.mul(coeff, x))
        assert acc == rhs
    assert solve_any(GF5, a, [1, 3]) is None


def test_left_kernel():
    rows = [[1, 2], [2, 4], [0, 1]]
    ker = left_kernel_basis(GF5, rows)
    assert len(ker) == 1
    for v in ker:
        out = vec_mat(GF5, v, rows)
        assert all(x == 0 for x in out)


def test_intersection():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    inter = intersect_row_spaces(GF5, a, b)
    assert row_space_basis(GF5, inter) == [[0, 1, 0]]
    disjoint = intersect_row_spaces(GF5, [[1, 0, 0]], [[0, 0, 1]])
    assert disjoint == []


def test_intersection_dimension_formula():
    rng = random.Random(4)
    for _ in range(50):
        f = rng.choice([GF5, GF16])
        ncols = rng.randrange(2, 6)
        a = [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(rng.randrange(1, 4))]
        b = [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(rng.randrange(1, 4))]
        inter = intersect_row_spaces(f, a, b)
        dim_sum = mat_rank(f, a + b)
        assert len(inter) == mat_rank(f, a) + mat_rank(f, b) - dim_sum
