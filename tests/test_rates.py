from fractions import Fraction

import pytest

from pirstream.errors import InvalidParams
from pirstream.fields import Field
from pirstream.grs import GrsCode
from pirstream.protocol import block_scheme, byzantine_scheme, plain_scheme
from pirstream.rates import (
    RateReport,
    bound_block,
    min_gamma,
    rate_block,
    rate_byz,
    rate_conv,
    rate_report,
    rate_star,
)

GF16 = Field(2, 4)
C6 = GrsCode(GF16, 6, 2, tuple(range(1, 7)))


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


@pytest.mark.parametrize("k, t", [(0, 1), (-2, 1), (2, 0), (2, -1)])
def test_rate_block_rejects_k_or_t_below_one(k, t):
    # k = 0 used to divide by the zero minimal gamma
    with pytest.raises(InvalidParams, match="k >= 1 and t >= 1"):
        rate_block(100, k, t, 30, 3, 100)
    with pytest.raises(InvalidParams, match="k >= 1 and t >= 1"):
        rate_block(100, k, t, 30, 3, None, gamma=40)


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


def test_rate_report_plain():
    # ell=4 stripes of k=2 from 5 blocks of n=6 symbols; the bound is the
    # paper's rate with a support of d*-1 = 4, which this one does not reach
    sch = plain_scheme(C6, t=1, memory=1, m=1, desired=0, support=(0, 1, 2))
    rep = rate_report(sch, 4)
    assert rep == RateReport(30, Fraction(8, 30), Fraction(8, 15), False)
    assert rep.rate == Fraction(4, 4 + 1) * Fraction(2, 6)
    assert rep.bound == rate_conv(6, 2, 1, 1, 4)


def test_rate_report_block_padded():
    # gamma=3, d*-1=4: one padded sub-round; the rate is rate_block with
    # the support padded up to the sub-round
    sch = block_scheme(C6, t=1, eps=1, window=3, m=1, desired=0,
                       support=(0, 1, 2))
    rep = rate_report(sch, 4)
    assert rep == RateReport(30, Fraction(8, 30), Fraction(16, 45), True)
    assert rep.rate == rate_block(6, 2, 1, 3, 1, 4, gamma=4)
    assert rep.bound == rate_block(6, 2, 1, 3, 1, 4)
    # t=2: d*-1=3, a support of 4 needs two sub-rounds, the second padded
    sch = block_scheme(C6, t=2, eps=1, window=3, m=1, desired=0,
                       support=(1, 2, 4, 5))
    rep = rate_report(sch, 5)
    assert rep.downloaded == (5 + 1) * 2 * 6
    assert rep.rate == rate_block(6, 2, 2, 3, 1, 5, gamma=2 * 3)
    assert rep.padded
    sch = block_scheme(C6, t=1, eps=1, window=3, m=1, desired=0,
                       support=(0, 1, 2, 3))
    assert not rate_report(sch, 4).padded


def test_rate_report_byz():
    # the unit-memory variant reaches its bound
    code = GrsCode(GF16, 10, 2, tuple(range(1, 11)))
    rep = rate_report(byzantine_scheme(code, t=2, m=1, desired=0), 3)
    assert rep == RateReport(40, Fraction(3, 20), Fraction(3, 20), False)
    assert rep.rate == rate_byz(10, 2, 2, 3)
