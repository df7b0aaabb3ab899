"""Closed-form retrieval-rate formulas and the rates of a simulated scheme.

All rates are exact rationals; floats only appear when the CLI formats
CSV output.  ``rate_report`` gives what a simulation of a scheme
downloads and retrieves, from the scheme's shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams


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
    if k < 1 or t < 1:
        raise InvalidParams(f"need k >= 1 and t >= 1, got k={k}, t={t}")
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
    """What one trial of a simulated scheme downloads and retrieves."""

    downloaded: int       # symbols: every server answers every sub-round
    rate: Fraction        # desired symbols per downloaded symbol
    bound: Fraction       # the paper's rate for the variant
    padded: bool          # the last sub-round holds fewer than d*-1 positions


def rate_report(scheme, ell: int) -> RateReport:
    """The rates of ``ell`` stripes streamed by ``scheme`` (a
    ``protocol.PirScheme``).

    Every server answers once per sub-round of each of the ell+M
    iterations, erased or not, and the user retrieves ell*k symbols.  So
    the rate is ell*k / ((ell+M) * rounds * n): ``rate_byz`` for the
    unit-memory variant, ``rate_block`` at gamma = rounds * (d*-1) for the
    block-erasure one.  The bound is the paper's rate, which the plain
    and block-erasure variants do not reach: a block retrieves k new
    symbols from a support of up to d*-1.
    """
    n, k, t, memory = scheme.n, scheme.k, scheme.t, scheme.memory
    downloaded = (ell + memory) * scheme.rounds * n
    padded = False
    if scheme.variant == "plain_conv":
        bound = rate_conv(n, k, t, memory, ell)
    elif scheme.variant == "block_erasure":
        padded = len(scheme.support) % (n - (k + t - 1)) != 0
        bound = rate_block(n, k, t, scheme.window, scheme.burst, ell)
    elif scheme.variant == "byzantine_um":
        bound = rate_byz(n, k, t, ell)
    else:
        raise InvalidParams(f"unknown variant {scheme.variant!r}")
    return RateReport(downloaded, Fraction(ell * k, downloaded), bound, padded)
