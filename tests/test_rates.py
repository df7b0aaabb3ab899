from fractions import Fraction

import pytest

from pirstream.errors import AccountingMismatch, InvalidParams
from pirstream.rates import (
    bound_block,
    min_gamma,
    rate_block,
    rate_byz,
    rate_conv,
    rate_star,
    verify_accounting,
)


def test_rate_star():
    assert rate_star(6, 2, 1) == Fraction(4, 6)
    assert rate_star(100, 75, 1) == Fraction(1, 4)
    with pytest.raises(InvalidParams):
        rate_star(4, 2, 3)   # t = n-k+1 boundary


def test_rate_conv():
    assert rate_conv(6, 2, 1, 0, 7) == rate_star(6, 2, 1)
    assert rate_conv(6, 2, 1, 1, 4) == Fraction(8, 15)
    limit = rate_conv(6, 2, 1, 1, 1000)
    assert abs(float(limit) - float(rate_star(6, 2, 1))) < 1e-3
    assert rate_conv(6, 2, 1, 1, None) == rate_star(6, 2, 1)
    with pytest.raises(InvalidParams):
        rate_conv(4, 2, 2, 1, 4)   # n < 2k+t-1


def test_rate_block_examples():
    # asymptotic value at the displayed parameters
    assert rate_block(6, 2, 1, 3, 1, None, gamma=3) == Fraction(4, 9)
    # half-rate case eps=1, N=2
    assert rate_block(6, 2, 1, 2, 1, None) == Fraction(1, 2) * rate_star(6, 2, 1)
    # curve point N=30
    assert rate_block(100, 75, 1, 30, 3, 100) == Fraction(45, 206)
    with pytest.raises(InvalidParams):
        rate_block(6, 2, 1, 3, 3, 4)
    with pytest.raises(InvalidParams):
        rate_block(6, 2, 1, 3, 1, 4, gamma=2)   # below minimum


def test_bound_dominates_rate():
    for n, k, t in ((100, 75, 1), (10, 2, 2), (12, 3, 1)):
        for window in range(2, 12):
            for eps in range(0, window):
                r = rate_block(n, k, t, window, eps, 50)
                b = bound_block(n, k, t, window, eps)
                assert r <= b


def test_monotonicity():
    prev = Fraction(0)
    for ell in range(1, 30):
        cur = rate_conv(6, 2, 1, 1, ell)
        assert cur > prev
        prev = cur
    prev = None
    for eps in range(0, 11):
        cur = rate_block(100, 75, 1, 12, eps, 100)
        if prev is not None:
            assert cur < prev
        prev = cur


def test_rate_byz():
    assert rate_byz(10, 2, 2, 3) == Fraction(3, 20)
    assert rate_byz(10, 2, 2, None) == Fraction(2, 10)
    with pytest.raises(InvalidParams):
        rate_byz(7, 2, 2, 3)   # n = 3k+t-1


def test_min_gamma():
    assert min_gamma(2, 3, 1) == 3
    assert min_gamma(4, 3, 1) == 6
    assert min_gamma(3, 5, 2) == 5


def test_verify_accounting_plain():
    rep = verify_accounting(variant="plain_conv", n=6, k=2, t=1, ell=4,
                            memory=1, rounds=1, gamma=3, N=None, eps=None,
                            downloaded=30)
    assert rep.simulated_rate == Fraction(8, 30)
    assert rep.formula_rate == Fraction(8, 30)
    assert rep.bound == Fraction(8, 15)
    assert not rep.padded
    with pytest.raises(AccountingMismatch):
        verify_accounting(variant="plain_conv", n=6, k=2, t=1, ell=4,
                          memory=1, rounds=1, gamma=3, N=None, eps=None,
                          downloaded=29)


def test_verify_accounting_block_padded():
    # gamma=3, d*-1=4: one padded sub-round
    rep = verify_accounting(variant="block_erasure", n=6, k=2, t=1, ell=4,
                            memory=1, rounds=1, gamma=3, N=3, eps=1,
                            downloaded=30)
    assert rep.padded
    assert rep.simulated_rate == Fraction(8, 30)


def test_verify_accounting_byz():
    rep = verify_accounting(variant="byzantine_um", n=10, k=2, t=2, ell=3,
                            memory=1, rounds=1, gamma=10, N=None, eps=None,
                            downloaded=40)
    assert rep.simulated_rate == Fraction(3, 20)
    assert rep.formula_rate == Fraction(3, 20)
