"""Locator-set analysis for window decoding under block-erasure bursts.

The central object is the banded block matrix A built from a candidate
locator set: the burst-recovery window is solvable exactly when A has
full row rank (2M+1)k.  This module assembles A from one table of
locator powers, computes its rank by exact elimination
(``linalg.mat_rank``), provides the two explicit constructions that
guarantee full rank, and runs the randomized locator search.  The
equivalent direct-sum criterion is a test oracle and lives in the tests.
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
from .linalg import mat_rank
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


def build_A(field: Field, k: int, M: int, locators) -> RecoveringMatrix:
    """Assemble the (2M+1)k x (M+1)gamma banded matrix and compute its rank."""
    locators = tuple(locators)
    gamma = len(locators)
    if len(set(locators)) != gamma:
        raise DuplicateLocators("locators must be pairwise distinct")
    if gamma < minimal_gamma(k, M):
        raise TooFewLocators(
            f"gamma={gamma} below minimum {minimal_gamma(k, M)}")
    # powers[e][j] = a_j^e for e < (M+1)k.  Band block z = 0..M is the
    # Vandermonde block scaled per column by a^(zk): its row r is powers[r + zk].
    mul = field.mul
    powers = [[1] * gamma]
    for _ in range((M + 1) * k - 1):
        powers.append([mul(p, a) for p, a in zip(powers[-1], locators)])
    zero = [0] * gamma
    rows = []
    for bi in range(2 * M + 1):
        for r in range(k):
            row = []
            for bj in range(M + 1):
                z = bi - bj
                row.extend(powers[r + z * k] if 0 <= z <= M else zero)
            rows.append(row)
    rank = mat_rank(field, rows)
    return RecoveringMatrix(field, k, M, gamma, locators,
                            tuple(tuple(r) for r in rows), rank)


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
