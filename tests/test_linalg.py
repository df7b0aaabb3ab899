import random
from array import array
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from pirstream import decoder
from pirstream.errors import InconsistentSystem, RankDeficient, ShapeMismatch
from pirstream.fields import Field, _ScalarKernel
from pirstream.linalg import mat_rank, rref, solve_any, solve_unique

from oracles import (
    intersect_row_spaces, left_kernel_basis, row_space_basis, scalar_dot, vec_mat)

GF5 = Field(5)
GF16 = Field(2, 4)
GF9 = Field(3, 2)
# one field per kernel kind: mod p, GF(2^s) tables, and the scalar methods
SOLVE_FIELDS = (GF5, Field(251), GF16, Field(2, 8), GF9)


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


# --- solve_unique against an uncached oracle ---------------------------------

def expected_solve(f, a, b):
    """What solve_unique must give, from ranks alone: "inconsistent" if b
    raises the rank of A, else "deficient" if A's column rank is short,
    else None (the caller checks A x = b)."""
    rank = mat_rank(f, a)
    if mat_rank(f, [list(row) + [bv] for row, bv in zip(a, b)]) > rank:
        return "inconsistent"
    return "deficient" if rank < len(a[0]) else None


def outcome(f, a, b):
    try:
        x = solve_unique(f, a, b)
    except InconsistentSystem:
        return "inconsistent"
    except RankDeficient:
        return "deficient"
    assert [scalar_dot(f, row, x) for row in a] == list(b)
    return None


@st.composite
def window_systems(draw):
    """Two matrices of one shape, each with right-hand sides that are
    consistent (A times a drawn x) or drawn at random (for a tall A,
    almost always inconsistent).  With a coin flip each matrix has its
    last column a multiple of its first: rank-deficient."""
    f = draw(st.sampled_from(SOLVE_FIELDS))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 8))
    symbol = st.integers(0, f.q - 1)
    out = []
    for _ in range(2):
        a = [[draw(symbol) for _ in range(n)] for _ in range(m)]
        if n > 1 and draw(st.booleans()):
            c = draw(symbol)
            for row in a:
                row[-1] = f.mul(c, row[0])
        rhss = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                x = [draw(symbol) for _ in range(n)]
                rhss.append([scalar_dot(f, row, x) for row in a])
            else:
                rhss.append([draw(symbol) for _ in range(m)])
        out.append((a, rhss))
    return f, out


def pattern_outcome(f, patterns, key, a, b):
    """``outcome`` of the answer ``decoder._solve_pattern`` reads for the
    matrix a, standing for the pattern ``key`` of the table ``patterns``."""
    try:
        x = decoder._solve_pattern(f, patterns, key, len(a[0]), b,
                                   lambda _: a)
    except InconsistentSystem:
        return "inconsistent"
    except RankDeficient:
        return "deficient"
    assert [scalar_dot(f, row, x) for row in a] == list(b)
    return None


@settings(max_examples=300, deadline=None)
@given(window_systems())
# rank-deficient and inconsistent at once: inconsistency is reported
@example((GF5, [([[1, 2], [2, 4], [0, 0]], [[1, 0, 1], [1, 2, 0]]),
                ([[1, 2], [2, 4], [0, 1]], [[1, 2, 1]])]))
def test_solve_unique_matches_an_uncached_oracle(case):
    # each matrix stands for one window pattern of a scheme's table: its
    # first right-hand side is a first sight, solved by solve_unique, its
    # second keeps the reduction of A, and the others read the kept map;
    # the two matrices of one shape alternate.  Every answer is the one
    # the ranks give
    f, systems = case
    patterns = {}
    order = [(key, a, b) for i in range(4)
             for key, (a, rhss) in enumerate(systems) for b in rhss[i:i + 1]]
    for key, a, b in order:
        expect = expected_solve(f, a, b)
        assert outcome(f, a, b) == expect
        assert pattern_outcome(f, patterns, key, a, b) == expect
    # every field keeps a pattern from its second sight, the scalar
    # kernel's GF(9) too
    assert {key: entry is not None for key, entry in patterns.items()} == {
        key: len(rhss) > 1 for key, (_, rhss) in enumerate(systems)}


def counted_eliminations(monkeypatch):
    """[solve_unique calls, reduce_with_identity calls] made by the
    decoder from now on."""
    calls = [0, 0]
    for i, name in enumerate(("solve_unique", "reduce_with_identity")):
        def counted(*args, _i=i, _orig=getattr(decoder, name)):
            calls[_i] += 1
            return _orig(*args)
        monkeypatch.setattr(decoder, name, counted)
    return calls


def test_every_pattern_below_the_cap_is_kept(monkeypatch):
    # the cell cap is the table's only bound: 66 patterns are all kept,
    # and a second pass over them makes no elimination
    gf = Field(251)
    rng = random.Random(7)
    matrices = [[[rng.randrange(251) for _ in range(3)] for _ in range(5)]
                for _ in range(66)]
    calls = counted_eliminations(monkeypatch)
    patterns = {}
    for _ in range(2):
        for key, a in enumerate(matrices):
            # a first sight, the sight that keeps it, and a kept one
            for _ in range(3):
                x = [rng.randrange(251) for _ in range(3)]
                b = [scalar_dot(gf, row, x) for row in a]
                assert decoder._solve_pattern(gf, patterns, key, 3, b,
                                              lambda _: a) == x
        assert calls == [66, 66]
    assert list(patterns) == list(range(66))
    assert all(entry is not None for entry in patterns.values())


def test_systems_past_the_cap_leave_the_cache_untouched(monkeypatch):
    # [A | I] of a 40 x 24 system has 40 * 64 cells, past the cap: each
    # sight is one solve_unique, and the scheme's table keeps nothing
    rng = random.Random(8)
    gf = Field(251)
    assert 40 * (40 + 24) > decoder._KEPT_CELLS
    big = [[rng.randrange(251) for _ in range(24)] for _ in range(40)]
    calls = counted_eliminations(monkeypatch)
    patterns = {}
    for _ in range(2):
        x = [rng.randrange(251) for _ in range(24)]
        b = [scalar_dot(gf, row, x) for row in big]
        assert pattern_outcome(gf, patterns, 0, big, b) is None
        b[0] = gf.add(b[0], 1)
        assert pattern_outcome(gf, patterns, 0, big, b) == "inconsistent"
    assert patterns == {}
    assert calls == [4, 0]


def test_scalar_kernel_patterns_read_the_answers_of_solve_unique(monkeypatch):
    # over the scalar kernel's GF(9) a pattern is kept from its second
    # sight like any other, and every kept answer, a solution, an
    # inconsistent right-hand side or a short rank, is the one the ranks
    # give.  Each pattern is reduced once as [A | b] and once as [A | I]
    rng = random.Random(9)
    calls = counted_eliminations(monkeypatch)
    assert isinstance(GF9.kernel, _ScalarKernel)
    full = [[rng.randrange(9) for _ in range(4)] for _ in range(19)]
    short = [row[:3] + [GF9.mul(5, row[0])] for row in full]
    patterns = {}
    seen = set()
    for _ in range(3):
        for key, a in enumerate((full, short)):
            x = [rng.randrange(9) for _ in range(4)]
            b = [scalar_dot(GF9, row, x) for row in a]
            noisy = b[:1] + [GF9.add(b[1], 1)] + b[2:]
            for rhs in (b, noisy):
                expect = expected_solve(GF9, a, rhs)
                assert pattern_outcome(GF9, patterns, key, a, rhs) == expect
                seen.add(expect)
    assert seen == {None, "inconsistent", "deficient"}
    assert calls == [2, 2]
    assert [entry[0] for entry in patterns.values()] == [4, 3]


@pytest.mark.parametrize("q, typecode", [(251, "B"), (331, "H"),
                                         (65537, "I"), (2 ** 61 - 1, "Q")])
def test_solver_key_is_the_array_bytes_of_a(monkeypatch, q, typecode):
    # a pattern table takes any hashable key: here the bytes of an array
    # of A's symbols, one symbol width per field, with A rebuilt from them
    # by the stacker.  The first two sights stack A from the key, the
    # kept map is reduced from that same A once, and the third sight
    # stacks nothing; the symbols include 0 and q - 1
    f = Field(q)
    rng = random.Random(q)
    a = [[rng.randrange(q) for _ in range(3)] for _ in range(5)]
    a[0][0], a[1][1] = q - 1, 0
    key = array(typecode, chain.from_iterable(a)).tobytes()
    stacked = []

    def stack(pattern):
        stacked.append(pattern)
        symbols = array(typecode, pattern).tolist()
        return [symbols[r * 3:r * 3 + 3] for r in range(5)]
    calls = counted_eliminations(monkeypatch)
    reduced = []
    reduce_with_identity = decoder.reduce_with_identity

    def spy(field, m):
        reduced.append(m)
        return reduce_with_identity(field, m)
    monkeypatch.setattr(decoder, "reduce_with_identity", spy)
    patterns = {}
    for _ in range(3):
        x = [rng.randrange(q) for _ in range(3)]
        b = [scalar_dot(f, row, x) for row in a]
        assert decoder._solve_pattern(f, patterns, key, 3, b, stack) == x
    assert stacked == [key] * 2
    assert reduced == [a]
    assert calls == [1, 1]
    assert list(patterns) == [key] and patterns[key][0] == 3


def test_solver_key_rejects_what_it_cannot_pack():
    # a row too short or too long is a typed error
    for f, a in ((Field(251), [[1, 2], [3], [5, 6]]),
                 (Field(331), [[1, 2], [3, 4, 5], [5, 6]])):
        with pytest.raises(ShapeMismatch):
            solve_unique(f, a, [1, 2, 3])


@pytest.mark.parametrize("f", [Field(251), Field(2, 8)], ids=str)
def test_ragged_a_below_the_cap_is_rejected_by_row(f):
    # 6 symbols in all would fill the 3 x 2 matrix [[1, 2], [3, 4],
    # [5, 6]]; every entry point names the short row instead of solving it
    a = [[1, 2], [3], [4, 5, 6]]
    message = "row 1 has 1 entries, row 0 has 2"
    for call in (lambda: solve_unique(f, a, [5, 11, 17]),
                 lambda: solve_any(f, a, [5, 11, 17]),
                 lambda: mat_rank(f, a)):
        with pytest.raises(ShapeMismatch, match=message):
            call()


def _outcome(call):
    """The result of ``call()``, or the type of the library error it raised."""
    try:
        return call()
    except (InconsistentSystem, RankDeficient, ShapeMismatch) as exc:
        return type(exc)


@pytest.mark.parametrize("p, a, b", [
    (13, [[13]], [0]),
    (13, [[13]] * 30, [0] * 30),
    (13, [[13], [26]], [0, 0]),
    (13, [[14, 2], [1, 2]], [3, 3]),
    (13, [[-1], [1]], [12, 1]),
    (251, [[1, 2], [3, -4], [5, 6]], [1, 2, 3]),
    (251, [[1, 2], [3, -4], [5, 6]], [3, -1, 11]),
    (251, [[300, 1], [2, 3]], [1, 1]),
    (13, [[13 * (r + 1) + c for c in range(40)] for r in range(60)],
     [0] * 60),
], ids=["rank", "kept-rank", "kept-tall", "rref", "negative", "gf251-minus4",
        "gf251-minus4-consistent", "gf251-300", "past-the-cap"])
def test_gf_p_entries_of_a_read_as_their_residues(p, a, b):
    # every entry point gives what it gives for the residues of A
    f = Field(p)
    residues = [[x % p for x in row] for row in a]
    for entry in (lambda m: rref(f, m), lambda m: mat_rank(f, m),
                  lambda m: solve_any(f, m, b),
                  lambda m: solve_unique(f, m, b)):
        assert _outcome(lambda: entry(a)) == _outcome(lambda: entry(residues))


@pytest.mark.parametrize("length", [20, 25])
def test_ragged_a_is_a_shape_mismatch(length):
    # every entry point reaches the elimination with the ragged row
    rng = random.Random(length)
    gf = Field(251)
    a = [[rng.randrange(251) for _ in range(24)] for _ in range(40)]
    a[17] = [rng.randrange(251) for _ in range(length)]
    b = [rng.randrange(251) for _ in range(40)]
    for call in (lambda: rref(gf, a), lambda: mat_rank(gf, a),
                 lambda: solve_any(gf, a, b), lambda: solve_unique(gf, a, b)):
        with pytest.raises(ShapeMismatch):
            call()


def test_right_hand_side_of_the_wrong_length_is_a_shape_mismatch():
    # small and large systems, b longer or shorter than A's rows
    gf = Field(251)
    rng = random.Random(5)
    big = [[rng.randrange(251) for _ in range(24)] for _ in range(40)]
    for a in ([[1, 0], [0, 1], [0, 0]], big):
        for b in ([1] * (len(a) + 1), [1] * (len(a) - 1)):
            for solve in (solve_unique, solve_any):
                with pytest.raises(ShapeMismatch):
                    solve(gf, a, b)
