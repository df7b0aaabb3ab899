"""Locator-set analysis for window decoding under block-erasure bursts.

The central object is the banded block matrix A built from a candidate
locator set: the burst-recovery window is solvable exactly when A has
full row rank (2M+1)k.  This module assembles A, computes its rank by
exact elimination, cross-checks the verdict through the equivalent
direct-sum criterion, provides the two explicit constructions that
guarantee full rank, and runs the randomized locator search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    DuplicateLocators,
    FieldTooSmall,
    InvalidParams,
    NoSuitableSubgroup,
    OddGamma,
    OrderNotDividing,
    TooFewLocators,
)
from .fields import Field
from .linalg import intersect_row_spaces, mat_rank
from .seeds import derive_seed


def minimal_gamma(k: int, M: int) -> int:
    """Smallest admissible locator count ceil((2M+1)k/(M+1))."""
    return -((-(2 * M + 1) * k) // (M + 1))


@dataclass(frozen=True)
class RecoveringMatrix:
    """Assembled window matrix with its rank verdict."""

    field: Field
    k: int
    M: int
    gamma: int
    locators: tuple
    matrix: tuple
    rank: int

    @property
    def full_rank(self) -> int:
        return (2 * self.M + 1) * self.k

    @property
    def verdict(self) -> bool:
        return self.rank == self.full_rank


def _component_block(field: Field, k, locators, z):
    """k x gamma block: Vandermonde rows scaled per column by a^((z-1)k)."""
    rows = []
    for r in range(k):
        rows.append([
            field.mul(field.pow(a, r), field.pow(a, (z - 1) * k))
            for a in locators
        ])
    return rows


def build_A(field: Field, k: int, M: int, locators) -> RecoveringMatrix:
    """Assemble the (2M+1)k x (M+1)gamma banded matrix and compute its rank."""
    locators = tuple(locators)
    gamma = len(locators)
    if len(set(locators)) != gamma:
        raise DuplicateLocators("locators must be pairwise distinct")
    if gamma < minimal_gamma(k, M):
        raise TooFewLocators(
            f"gamma={gamma} below minimum {minimal_gamma(k, M)}")
    blocks = {z: _component_block(field, k, locators, z) for z in range(1, M + 2)}
    n_block_rows = 2 * M + 1
    n_block_cols = M + 1
    rows = []
    for bi in range(1, n_block_rows + 1):
        for r in range(k):
            row = []
            for bj in range(1, n_block_cols + 1):
                z = bi - bj + 1
                if 1 <= z <= M + 1:
                    row.extend(blocks[z][r])
                else:
                    row.extend([0] * gamma)
            rows.append(row)
    rank = mat_rank(field, rows)
    return RecoveringMatrix(field, k, M, gamma, locators,
                            tuple(tuple(r) for r in rows), rank)


def check_direct_sum(field: Field, k: int, M: int, locators) -> bool:
    """Equivalent criterion: <G1> + sum_i (<G1> ∩ <G_-M>) V_i is direct.

    Requires nonzero locators since G_-M uses negative locator powers.
    Must always agree with the rank verdict of ``build_A``.
    """
    locators = tuple(locators)
    if len(set(locators)) != len(locators):
        raise DuplicateLocators("locators must be pairwise distinct")
    if len(locators) < minimal_gamma(k, M):
        raise TooFewLocators(
            f"gamma={len(locators)} below minimum {minimal_gamma(k, M)}")
    if any(a == 0 for a in locators):
        raise InvalidParams("direct-sum criterion needs invertible locators")
    g1 = _component_block(field, k, locators, 1)
    g_minus_m = _component_block(field, k, locators, -M)
    inter = intersect_row_spaces(field, g1, g_minus_m)
    target_dim = k + M * len(inter)
    stacked = [list(r) for r in g1]
    for i in range(1, M + 1):
        scale = [field.pow(a, i * k) for a in locators]
        for row in inter:
            stacked.append([field.mul(v, s) for v, s in zip(row, scale)])
    return mat_rank(field, stacked) == target_dim


def construct_regset(field: Field, k: int, M: int, gamma: int):
    """Locators sigma^1..sigma^gamma for sigma of order Mk+gamma.

    Guaranteed full-rank verdict; needs (Mk+gamma) | q-1.
    """
    if gamma < minimal_gamma(k, M):
        raise TooFewLocators(
            f"gamma={gamma} below minimum {minimal_gamma(k, M)}")
    e = M * k + gamma
    if (field.q - 1) % e != 0:
        raise OrderNotDividing(
            f"needs an element of order {e}, but {e} does not divide q-1={field.q - 1}")
    sigma = field.find_element_of_order(e)
    return tuple(field.pow(sigma, i) for i in range(1, gamma + 1))


def construct_unit_memory(field: Field, k: int):
    """Unit-memory construction: the full multiplicative subgroup of order
    gamma = 3k/2; needs k even and gamma | q-1."""
    if (3 * k) % 2 != 0:
        raise InvalidParams(f"3k/2 must be an integer, got k={k}")
    gamma = 3 * k // 2
    if field.p == 2 and gamma % 2 == 0:
        raise OddGamma(
            f"gamma={gamma} is even; characteristic-2 fields only contain "
            f"odd-order subgroups")
    if (field.q - 1) % gamma != 0:
        raise NoSuitableSubgroup(
            f"no subgroup of order {gamma} in a field of order {field.q}")
    sigma = field.find_element_of_order(gamma)
    return tuple(field.pow(sigma, i) for i in range(1, gamma + 1))


def random_search_counts(field: Field, k: int, M: int, trials: int, seed: int,
                         gamma: int | None = None,
                         start_trial: int = 0):
    """(full-rank count, trials) over trial indices [start, start+trials):
    hits / trials is the fraction of uniformly drawn distinct locator sets
    whose matrix has full rank, as in the published search table.

    Locators are sampled without replacement from the whole field, zero
    included: only that convention reproduces the published k=3, M=2,
    q=16 search probability.  Per-trial seeds are derived from the master
    seed so that splitting the range across workers cannot change the
    outcome.
    """
    if gamma is None:
        gamma = minimal_gamma(k, M)
    if gamma < minimal_gamma(k, M):
        raise TooFewLocators(
            f"gamma={gamma} below minimum {minimal_gamma(k, M)}")
    if field.q < gamma:
        raise FieldTooSmall(
            f"cannot draw {gamma} distinct locators from {field!r}")
    pool = list(range(field.q))
    hits = 0
    for trial in range(start_trial, start_trial + trials):
        rng = random.Random(derive_seed(seed, "recovering-search", trial))
        locators = rng.sample(pool, gamma)
        if build_A(field, k, M, locators).verdict:
            hits += 1
    return hits, trials
