"""Closed-form retrieval-rate formulas and download accounting.

All rates are exact rationals; floats only appear when the CLI formats
CSV output.  ``verify_accounting`` cross-checks a finished simulation's
download counter against the structural count for its scheme variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AccountingMismatch, InvalidParams


def rate_star(n: int, k: int, t: int) -> Fraction:
    """One-shot star-product scheme rate (n-(k+t-1))/n."""
    if n <= k + t - 1 or k < 1 or t < 1:
        raise InvalidParams(f"need n > k+t-1, got n={n}, k={k}, t={t}")
    return Fraction(n - (k + t - 1), n)


def rate_conv(n: int, k: int, t: int, M: int, ell=None) -> Fraction:
    """Memory-M streaming rate l(n-(k+t-1))/((l+M)n); ell=None gives the
    large-l limit, which is rate_star."""
    if n < 2 * k + t - 1:
        raise InvalidParams(f"need n >= 2k+t-1, got n={n}, k={k}, t={t}")
    if M < 0:
        raise InvalidParams("memory must be >= 0")
    base = rate_star(n, k, t)
    if ell is None:
        return base
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    return Fraction(ell, ell + M) * base


def min_gamma(k: int, N: int, eps: int) -> int:
    """Minimal per-block private download: ceil(Nk/(N-eps))."""
    return -((-N * k) // (N - eps))


def rate_block(n: int, k: int, t: int, N: int, eps: int, ell=None,
               gamma=None) -> Fraction:
    """Block-erasure scheme rate; gamma=None means the optimal Nk/(N-eps),
    evaluated exactly even when that is not an integer."""
    if not N > eps >= 0:
        raise InvalidParams(f"need N > eps >= 0, got N={N}, eps={eps}")
    d_star_1 = n - (k + t - 1)
    if d_star_1 < 1:
        raise InvalidParams(f"need n > k+t-1, got n={n}, k={k}, t={t}")
    gamma_frac = Fraction(gamma) if gamma is not None else Fraction(N * k, N - eps)
    if gamma_frac < Fraction(N * k, N - eps):
        raise InvalidParams(
            f"gamma={gamma_frac} below the minimum {Fraction(N * k, N - eps)}")
    per_ell = Fraction(k * d_star_1, 1) / (gamma_frac * n)
    if ell is None:
        return per_ell
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    return Fraction(ell, ell + eps) * per_ell


def bound_block(n: int, k: int, t: int, N: int, eps: int) -> Fraction:
    """Converse bound (1 - eps/N) times the optimal-rate asymptote."""
    if not N > eps >= 0:
        raise InvalidParams(f"need N > eps >= 0, got N={N}, eps={eps}")
    return (1 - Fraction(eps, N)) * rate_star(n, k, t)


def rate_byz(n: int, k: int, t: int, ell=None) -> Fraction:
    """Unit-memory Byzantine-scheme rate lk/((l+1)n); requires n > 3k+t-1."""
    if n <= 3 * k + t - 1:
        raise InvalidParams(f"need n > 3k+t-1, got n={n}, k={k}, t={t}")
    if ell is None:
        return Fraction(k, n)
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    return Fraction(ell * k, (ell + 1) * n)


@dataclass(frozen=True)
class RateReport:
    """Exact accounting summary for one finished simulation."""

    variant: str
    n: int
    k: int
    t: int
    ell: int
    memory: int
    rounds: int
    downloaded: int
    simulated_rate: Fraction    # (ell * k) / downloaded symbols
    formula_rate: Fraction      # closed form at the scheme's operating point
    bound: Fraction             # variant's displayed rate bound
    padded: bool                # sub-round ceiling made the formula inexact


def expected_downloads(n: int, ell: int, memory: int, rounds: int) -> int:
    """Structural download count: every server answers once per sub-round
    of every iteration, erased or not."""
    return (ell + memory) * rounds * n


def verify_accounting(*, variant: str, n: int, k: int, t: int, ell: int,
                      memory: int, rounds: int, gamma: int | None,
                      N: int | None, eps: int | None,
                      downloaded: int) -> RateReport:
    """Check a simulation's download counter and derive its exact rates.

    Raises AccountingMismatch when the counter disagrees with the
    structural count, which honest simulations never trigger.
    """
    expected = expected_downloads(n, ell, memory, rounds)
    if downloaded != expected:
        raise AccountingMismatch(
            f"counted {downloaded} downloaded symbols, expected {expected}")
    simulated = Fraction(ell * k, downloaded)
    padded = False
    if variant == "plain_conv":
        formula = Fraction(ell * k, (ell + memory) * n)
        bound = rate_conv(n, k, t, memory, ell)
    elif variant == "block_erasure":
        d_star_1 = n - (k + t - 1)
        padded = gamma % d_star_1 != 0
        formula = Fraction(ell * k, (ell + eps) * rounds * n)
        bound = rate_block(n, k, t, N, eps, ell, gamma=None)
    elif variant == "byzantine_um":
        formula = rate_byz(n, k, t, ell)
        bound = formula
    else:
        raise InvalidParams(f"unknown variant {variant!r}")
    if simulated != formula:
        raise AccountingMismatch(
            f"simulated rate {simulated} != formula {formula}")
    return RateReport(variant, n, k, t, ell, memory, rounds, downloaded,
                      simulated, formula, bound, padded)
