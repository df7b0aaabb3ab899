import random

import pytest

from pirstream.errors import (
    DuplicateLocators,
    FieldTooSmall,
    NoSuitableSubgroup,
    OddGamma,
    OrderNotDividing,
    TooFewLocators,
)
from pirstream.fields import Field
from pirstream.recovering import (
    build_A,
    check_direct_sum,
    construct_regset,
    construct_unit_memory,
    minimal_gamma,
    random_search_counts,
)

GF7 = Field(7)
GF16 = Field(2, 4)
GF23 = Field(23)


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


def test_duplicate_locators():
    with pytest.raises(DuplicateLocators):
        build_A(GF16, 2, 1, (3, 3, 5))


def test_too_few_locators():
    with pytest.raises(TooFewLocators):
        build_A(GF16, 2, 1, (3, 5))


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
