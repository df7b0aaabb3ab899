import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pirstream import recovering
from pirstream.errors import (
    DuplicateLocators,
    FieldTooSmall,
    InvalidParams,
    LocatorMismatch,
    NoSuitableSubgroup,
    OddGamma,
    OrderNotDividing,
    TooFewLocators,
)
from pirstream.fields import Field
from pirstream.linalg import mat_rank
from pirstream.recovering import (
    build_A,
    construct_regset,
    construct_unit_memory,
    minimal_gamma,
    random_search_counts,
)

from oracles import check_direct_sum

GF7 = Field(7)
GF16 = Field(2, 4)
GF23 = Field(23)


def test_window_defaults_to_2M_plus_1():
    rng = random.Random(3)
    for k, M in ((2, 1), (2, 2), (3, 1)):
        for _ in range(10):
            locs = rng.sample(range(16), minimal_gamma(k, M) + rng.randint(0, 1))
            default = build_A(GF16, k, M, locs)
            explicit = build_A(GF16, k, M, locs, window=2 * M + 1)
            assert default.window == 2 * M + 1
            assert (default.rank, default.matrix) == (explicit.rank,
                                                      explicit.matrix)


@pytest.mark.parametrize("k, M, window", [(2, 2, 3), (2, 2, 4), (2, 1, 4),
                                          (3, 1, 2)])
def test_window_matrix_entries(k, M, window):
    locs = (0, 1, 3, 7, 9, 12, 14)
    rm = build_A(GF16, k, M, locs, window=window)
    gamma = len(locs)
    assert len(rm.matrix) == rm.full_rank == window * k
    for i in range(window):
        for r in range(k):
            row = rm.matrix[i * k + r]
            assert len(row) == (window - M) * gamma
            for j in range(window - M):
                for c, a in enumerate(locs):
                    z = i - j
                    want = GF16.pow(a, r + z * k) if 0 <= z <= M else 0
                    assert row[j * gamma + c] == want
    assert rm.rank == mat_rank(GF16, rm.matrix)


def test_window_ranks_are_remembered_apart():
    # one orbit, two windows: each matrix takes the rank of its own window
    locs = (1, 2, 6, 7)
    assert build_A(GF16, 2, 2, locs, window=4).rank == 7
    assert build_A(GF16, 2, 2, locs).rank == 10
    assert build_A(GF16, 2, 2, locs, window=4).rank == 7


def test_window_validation():
    with pytest.raises(InvalidParams):
        build_A(GF16, 2, 2, (1, 2, 3, 4, 5, 6), window=2)
    with pytest.raises(TooFewLocators):
        # N = 3, M = 2 needs ceil(6 / 1) = 6 locators
        build_A(GF16, 2, 2, (1, 2, 3, 4, 5), window=3)


def test_minimal_gamma():
    assert minimal_gamma(2, 1) == 3
    assert minimal_gamma(4, 1) == 6
    assert minimal_gamma(3, 2) == 5


def test_matrix_shape_and_band():
    rm = build_A(GF16, 2, 1, (3, 7, 9))
    assert len(rm.matrix) == 6 and len(rm.matrix[0]) == 6
    # top-right block is zero, bottom-left block is zero
    assert all(rm.matrix[r][c] == 0 for r in range(2) for c in range(3, 6))
    assert all(rm.matrix[r][c] == 0 for r in range(4, 6) for c in range(3))
    # top-left block is the plain Vandermonde on the locators
    assert rm.matrix[0][:3] == (1, 1, 1)
    assert rm.matrix[1][:3] == (3, 7, 9)
    # every entry: block (bi, bj) with 0 <= z = bi - bj <= M holds
    # a_j^(r + zk) in its row r, every other block is zero
    for f, k, M, locs in [(GF16, 2, 1, (3, 7, 9)), (GF16, 2, 1, (0, 5, 9)),
                          (GF7, 2, 2, (6, 0, 3, 5)),
                          (Field(3, 2), 3, 2, (1, 0, 2, 4, 8, 7))]:
        gamma = len(locs)
        rm = build_A(f, k, M, locs)
        assert len(rm.matrix) == (2 * M + 1) * k
        for i, row in enumerate(rm.matrix):
            bi, r = divmod(i, k)
            assert len(row) == (M + 1) * gamma
            for c, v in enumerate(row):
                bj, j = divmod(c, gamma)
                z = bi - bj
                expect = f.pow(locs[j], r + z * k) if 0 <= z <= M else 0
                assert v == expect, (f, k, M, locs, i, c)


def test_matrix_is_assembled_on_first_read():
    rm = build_A(GF16, 2, 1, (9, 3, 7))
    assert "matrix" not in vars(rm)
    assert rm.matrix[1][:3] == (9, 3, 7)
    assert vars(rm)["matrix"] is rm.matrix


def test_duplicate_locators():
    with pytest.raises(DuplicateLocators):
        build_A(GF16, 2, 1, (3, 3, 5))


def test_too_few_locators():
    with pytest.raises(TooFewLocators):
        build_A(GF16, 2, 1, (3, 5))


def spy_on_eliminations(monkeypatch):
    """The row counts of the matrices that ``recovering`` ranks from now
    on, one entry per elimination."""
    calls = []

    def counted(field, rows):
        calls.append(len(rows))
        return mat_rank(field, rows)
    monkeypatch.setattr(recovering, "mat_rank", counted)
    return calls


def test_locators_outside_the_field(monkeypatch):
    # an invalid set raises before any elimination
    calls = spy_on_eliminations(monkeypatch)
    for locs in [(3, 7, 16), (3, 7, -1)]:
        with pytest.raises(LocatorMismatch):
            build_A(GF16, 2, 1, locs)
    assert calls == []


def test_build_A_eliminates_only_when_the_rank_is_read(monkeypatch):
    calls = spy_on_eliminations(monkeypatch)
    rm = build_A(GF16, 2, 1, (9, 3, 7))
    assert calls == [] and "rank" not in vars(rm)
    assert rm.verdict and calls == [6]
    assert rm.rank == rm.full_rank == 6 and calls == [6]
    # the rank is taken on rows assembled for it, not on ``matrix``
    assert "matrix" not in vars(rm)
    # build_A keeps nothing between calls: an equal matrix ranks afresh
    assert build_A(GF16, 2, 1, (9, 3, 7)).rank == 6 and calls == [6, 6]


@pytest.mark.parametrize("k, M", [(0, 1), (-1, 1), (2, -1)])
def test_k_below_one_or_negative_memory(k, M):
    with pytest.raises(InvalidParams):
        build_A(GF16, k, M, (3, 7, 9))
    with pytest.raises(InvalidParams):
        minimal_gamma(k, M)
    with pytest.raises(InvalidParams):
        random_search_counts(GF16, k, M, 10, seed=0)


def test_gf7_subgroup_instance():
    # order-3 subgroup of GF(7) is {1, 2, 4}
    rm = build_A(GF7, 2, 1, (2, 4, 1))
    assert rm.rank == 6 and rm.verdict


def test_distinct_squares_gf16():
    # char 2: squaring is injective, so any distinct triple works
    rng = random.Random(5)
    for _ in range(20):
        locs = rng.sample(range(1, 16), 3)
        squares = {GF16.mul(a, a) for a in locs}
        assert len(squares) == 3
        assert build_A(GF16, 2, 1, locs).verdict


def test_direct_sum_rank_equivalence_randomized():
    rng = random.Random(31)
    fields = [GF7, GF16, GF23, Field(13), Field(3, 2)]
    checked = 0
    while checked < 120:
        f = rng.choice(fields)
        k = rng.randrange(1, 4)
        M = rng.randrange(1, 3)
        gamma = minimal_gamma(k, M) + rng.randrange(0, 2)
        if f.q - 1 < gamma:
            continue
        locs = rng.sample(range(1, f.q), gamma)
        assert check_direct_sum(f, k, M, locs) == build_A(f, k, M, locs).verdict
        checked += 1


def test_construct_regset():
    locs = construct_regset(GF16, 2, 1, 3)      # order 5 in GF(16)
    assert len(locs) == 3
    assert build_A(GF16, 2, 1, locs).verdict
    assert check_direct_sum(GF16, 2, 1, locs)
    locs23 = construct_regset(GF23, 3, 2, 5)    # order 11 in GF(23)
    assert build_A(GF23, 3, 2, locs23).verdict
    assert check_direct_sum(GF23, 3, 2, locs23)
    with pytest.raises(TooFewLocators):
        construct_regset(GF16, 2, 1, 2)
    with pytest.raises(OrderNotDividing):
        construct_regset(GF7, 2, 1, 3)          # order 5 not in GF(7)


def test_construct_unit_memory():
    locs = construct_unit_memory(GF16, 2)       # gamma = 3 | 15
    assert len(locs) == 3
    assert all(GF16.pow(a, 3) == 1 for a in locs)
    assert build_A(GF16, 2, 1, locs).verdict
    locs7 = construct_unit_memory(GF7, 2)
    assert build_A(GF7, 2, 1, locs7).verdict
    # char 2 with 4 | k: gamma even, never divides 2^s - 1
    for s in (2, 4, 6, 8):
        with pytest.raises(NoSuitableSubgroup):
            construct_unit_memory(Field(2, s), 4)
    with pytest.raises(OddGamma):
        construct_unit_memory(GF16, 4)


def test_rank_monotone_in_gamma():
    rng = random.Random(8)
    for _ in range(15):
        k, M = rng.choice([(2, 1), (3, 1), (2, 2)])
        gamma = minimal_gamma(k, M)
        locs = rng.sample(range(1, 16), gamma + 1)
        r_small = build_A(GF16, k, M, locs[:gamma]).rank
        r_big = build_A(GF16, k, M, locs).rank
        assert r_big >= r_small


def test_random_search_smoke():
    hits, trials = random_search_counts(GF16, 2, 1, 200, seed=3)
    assert hits == trials == 200   # char 2, k=2: every distinct triple has it
    with pytest.raises(FieldTooSmall):
        random_search_counts(Field(2, 1), 2, 1, 10, seed=0)


def test_random_search_deterministic_and_splittable():
    h1, _ = random_search_counts(GF16, 4, 1, 100, seed=9)
    h2a, _ = random_search_counts(GF16, 4, 1, 50, seed=9, start_trial=0)
    h2b, _ = random_search_counts(GF16, 4, 1, 50, seed=9, start_trial=50)
    assert h1 == h2a + h2b


def test_random_search_larger_parameters():
    # wider-parameter spot checks at 500 trials (bands allow sampling noise)
    f64 = Field(2, 6)
    for k, M, lo, hi in [(8, 1, 0.90, 1.00), (9, 2, 0.92, 1.00),
                         (4, 3, 0.93, 1.00)]:
        hits, trials = random_search_counts(f64, k, M, trials=500, seed=555)
        p = hits / trials
        assert lo <= p <= hi, (k, M, p)


@pytest.mark.parametrize("k, M, p_full", [
    (2, 1, Fraction(1)), (4, 1, Fraction(85, 91)), (3, 2, Fraction(125, 182))])
def test_every_minimal_set_of_the_q16_rows(k, M, p_full):
    # each set's rank, taken on rows assembled for it, is the rank of its
    # ``matrix``, and the exact full-rank fractions are the values the
    # search rows estimate
    gamma = minimal_gamma(k, M)
    hits = total = 0
    for locs in itertools.combinations(range(16), gamma):
        rm = build_A(GF16, k, M, locs)
        assert rm.rank == mat_rank(GF16, rm.matrix), locs
        hits += rm.verdict
        total += 1
    assert Fraction(hits, total) == p_full


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([Field(13), Field(3, 2), Field(2, 6)]),
       st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2), (1, 3)]),
       st.integers(0, 1), st.data())
def test_rank_is_invariant_under_scaling_and_permutation(f, shape, extra, data):
    k, M = shape
    gamma = min(minimal_gamma(k, M) + extra, f.q)
    locs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=gamma,
                              max_size=gamma, unique=True))
    c = data.draw(st.integers(1, f.q - 1))
    moved = data.draw(st.permutations([f.mul(c, a) for a in locs]))
    direct = mat_rank(f, build_A(f, k, M, moved).matrix)
    assert build_A(f, k, M, locs).rank == direct
    assert build_A(f, k, M, moved).rank == direct


def test_search_ranks_each_scaling_orbit_once(monkeypatch):
    # the 4,368 five-sets of GF(16) fall into 292 scaling orbits, and each
    # search keeps the verdicts of the orbits it meets for its own draws
    calls = spy_on_eliminations(monkeypatch)
    draws = []
    build = recovering.build_A

    def counted(*args):
        draws.append(args)
        return build(*args)
    monkeypatch.setattr(recovering, "build_A", counted)
    hits, trials = random_search_counts(GF16, 3, 2, 4000, seed=12)
    assert trials == 4000 and 0 < hits < trials
    assert 0 < len(calls) <= 292
    # every draw is one build_A call, orbit met before or not
    assert len(draws) == 4000
    # a second search in the same process ranks its orbits again
    first = len(calls)
    assert random_search_counts(GF16, 3, 2, 4000, seed=12) == (hits, trials)
    assert len(calls) == 2 * first and len(draws) == 8000
