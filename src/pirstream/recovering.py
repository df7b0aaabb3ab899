"""Locator-set analysis for window decoding under block-erasure bursts.

The central object is the banded block matrix A built from a candidate
locator set: a window of N blocks recovers from a burst of M erasures
exactly when A has full row rank Nk.  N defaults to 2M+1, the window of
the published recovering property; a shorter window needs its own
verdict, as full rank at 2M+1 does not carry over to it.  This module
assembles A from one table of locator powers, computes its rank by exact
elimination (``linalg.mat_rank``), provides the two explicit
constructions that guarantee full rank at 2M+1, and runs the randomized
locator search.  The equivalent direct-sum criterion is a test oracle
and lives in the tests.

The rank depends only on the set's orbit under scaling.  Multiplying
every locator by c != 0 multiplies row (stripe i, r) of A by c^(r+ik) and
block column j by c^(-jk), as the entry a^(r+(i-j)k) becomes
(ca)^(r+(i-j)k); a zero locator's column keeps its single 1 at exponent
0.  Permuting the locators permutes the columns inside each block
column.  Neither changes the rank, so ``random_search_counts`` ranks
one set per orbit and keeps each orbit's verdict for the rest of its
draws: the 4,368 five-sets of GF(16) fall into 292 orbits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DuplicateLocators,
    FieldTooSmall,
    InvalidParams,
    LocatorMismatch,
    NoSuitableSubgroup,
    OddGamma,
    OrderNotDividing,
    TooFewLocators,
)
from .fields import Field, power_rows
from .linalg import mat_rank
from .rates import min_gamma
from .seeds import derive_seed


def minimal_gamma(k: int, M: int) -> int:
    """Smallest admissible locator count ceil((2M+1)k/(M+1)): the
    minimal download ``min_gamma`` at N = 2M+1, eps = M."""
    if k < 1 or M < 0:
        raise InvalidParams(f"need k >= 1 and M >= 0, got k={k}, M={M}")
    return min_gamma(k, 2 * M + 1, M)


def _canonical(field: Field, locators) -> tuple:
    """The least sorted set c * S over the c that map a member of S to 1."""
    nonzero = [a for a in locators if a]
    if not nonzero:
        return tuple(sorted(locators))
    scale, inv = field.kernel.scale, field.inv
    return min(tuple(sorted(scale(locators, inv(a)))) for a in nonzero)


@dataclass(frozen=True)
class RecoveringMatrix:
    """Window matrix of a locator set with its rank verdict.

    ``matrix`` and ``rank`` are each computed on first read, the rank by
    one elimination of a matrix assembled for it alone.
    """

    field: Field
    k: int
    M: int
    gamma: int
    locators: tuple
    window: int

    @cached_property
    def matrix(self) -> tuple:
        return tuple(map(tuple, self._assemble()))

    @cached_property
    def rank(self) -> int:
        return mat_rank(self.field, self._assemble())

    def _assemble(self) -> list:
        """Rows of the Nk x (N-M)gamma banded matrix A, fresh lists.

        The N stripes of a window that opens with M erased blocks, against
        the N-M intact blocks that close it, both counted from the window's
        end: row (stripe i, r) meets block j in a^(r+(i-j)k), 0 <= i-j <= M.
        """
        k, M, window = self.k, self.M, self.window
        # powers[e][j] = a_j^e for e < (M+1)k.  Row r of band block z = 0..M
        # is powers[r + zk], the Vandermonde row r scaled by a_j^(zk).
        powers = power_rows(self.field, self.locators, (M + 1) * k)
        zero = [0] * self.gamma
        rows = []
        for bi in range(window):
            for r in range(k):
                row = []
                for bj in range(window - M):
                    z = bi - bj
                    row.extend(powers[r + z * k] if 0 <= z <= M else zero)
                rows.append(row)
        return rows

    @property
    def full_rank(self) -> int:
        return self.window * self.k

    @property
    def verdict(self) -> bool:
        return self.rank == self.full_rank


def build_A(field: Field, k: int, M: int, locators,
            window: int | None = None) -> RecoveringMatrix:
    """The Nk x (N-M)gamma banded matrix A of an N-block window,
    N = ``window`` (default 2M+1), on the given locators in their order.

    Checks the parameters and the locators, and eliminates nothing: the
    returned matrix takes its rank from its locators when ``rank`` or
    ``verdict`` is first read, and keeps nothing between calls.
    """
    locators = tuple(locators)
    gamma = len(locators)
    if window is None:
        window = 2 * M + 1
    if k < 1 or not window > M >= 0:
        raise InvalidParams(
            f"need k >= 1 and N > M >= 0, got k={k}, M={M}, N={window}")
    least = min_gamma(k, window, M)
    if any(not 0 <= a < field.q for a in locators):
        raise LocatorMismatch(
            f"locators must lie in 0..{field.q - 1}, got {locators}")
    if len(set(locators)) != gamma:
        raise DuplicateLocators("locators must be pairwise distinct")
    if gamma < least:
        raise TooFewLocators(f"gamma={gamma} below minimum {least}")
    return RecoveringMatrix(field, k, M, gamma, locators, window)


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
    outcome.  The call keeps each scaling orbit's verdict (keyed by
    ``_canonical``), so it ranks one set per orbit it meets; every draw
    still goes through ``build_A``.
    """
    if gamma is None:
        gamma = minimal_gamma(k, M)
    if gamma < minimal_gamma(k, M):
        raise TooFewLocators(
            f"gamma={gamma} below minimum {minimal_gamma(k, M)}")
    if field.q < gamma:
        raise FieldTooSmall(
            f"cannot draw {gamma} distinct locators from {field!r}")
    pool = range(field.q)
    hits = 0
    verdicts = {}       # canonical set of an orbit -> its verdict
    for trial in range(start_trial, start_trial + trials):
        rng = random.Random(derive_seed(seed, "recovering-search", trial))
        locators = rng.sample(pool, gamma)
        matrix = build_A(field, k, M, locators)
        orbit = _canonical(field, locators)
        if orbit not in verdicts:
            verdicts[orbit] = matrix.verdict
        hits += verdicts[orbit]
    return hits, trials
