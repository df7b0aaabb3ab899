import re

import pytest
from hypothesis import given, settings, strategies as st

from pirstream.errors import (
    InvalidParams,
    NonPrimeCharacteristic,
    OrderNotDividing,
    ReducibleModulus,
    ZeroElement,
    ZeroInverse,
)
from pirstream.fields import Field, parse_field_spec

GF5 = Field(5)
GF7 = Field(7)
GF9 = Field(3, 2)
GF16 = Field(2, 4)


def test_construction_examples():
    f = Field(2, 4, (1, 1, 0, 0, 1))    # x^4 + x + 1
    assert f.q == 16
    assert Field(5).q == 5
    with pytest.raises(ReducibleModulus):
        Field(2, 4, (1, 0, 0, 0, 1))    # x^4 + 1 = (x+1)^4
    with pytest.raises(NonPrimeCharacteristic):
        Field(6)
    with pytest.raises(NonPrimeCharacteristic):
        Field(1)


def test_default_modulus_is_lowest_irreducible():
    assert Field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert Field(2, 8).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)   # 0x11b
    assert Field(3, 2).modulus == (1, 0, 1)                     # x^2 + 1


def test_basic_arithmetic():
    assert GF5.inv(3) == 2
    for a in range(16):
        assert GF16.add(a, a) == 0
    powers = [GF16.pow(2, j) for j in range(1, 16)]
    assert powers[-1] == 1
    assert all(p != 1 for p in powers[:-1])


def test_order():
    assert GF5.order(2) == 4
    assert GF5.order(1) == 1
    assert GF16.order(1) == 1
    prim = GF16.find_element_of_order(15)
    assert GF16.order(prim) == 15
    with pytest.raises(ZeroElement):
        GF16.order(0)


def test_order_divides_group_order():
    for f in (GF5, GF9, GF16):
        for a in range(1, f.q):
            assert (f.q - 1) % f.order(a) == 0


def test_find_element_of_order():
    assert GF16.find_element_of_order(1) == 1
    e = GF16.find_element_of_order(5)
    assert GF16.order(e) == 5
    assert all(GF16.order(a) != 5 for a in range(1, e))  # lowest such element
    with pytest.raises(OrderNotDividing):
        GF16.find_element_of_order(7)


def test_zero_inverse():
    with pytest.raises(ZeroInverse):
        GF5.inv(0)
    assert GF5.pow(0, 0) == 1
    assert GF5.pow(0, 3) == 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([GF5, GF7, GF9, GF16]), st.data())
def test_field_axioms(f, data):
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1
    assert f.sub(f.add(a, b), b) == a


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([GF5, GF16]), st.integers(0, 15), st.integers(0, 40))
def test_pow_matches_repeated_mul(f, a, e):
    a %= f.q
    expect = 1
    for _ in range(e):
        expect = f.mul(expect, a)
    assert f.pow(a, e) == expect


def test_large_field_beyond_tables():
    f = Field(17, 4)   # q = 83521, no exp/log tables
    assert f.q > 1 << 16
    a = 54321
    assert f.mul(a, f.inv(a)) == 1
    assert f.pow(a, f.q - 1) == 1


def test_field_spec_round_trip():
    assert parse_field_spec("2^4:13") == GF16
    assert parse_field_spec("2^4") == GF16
    assert parse_field_spec("5").q == 5
    assert parse_field_spec("2^8:11b") == Field(2, 8)
    assert parse_field_spec("3^2:a") == GF9


@pytest.mark.parametrize("spec", ["abc", "2^x", "2^4:zz", "", "2^", "2^4:"],
                         ids=repr)
def test_malformed_field_spec_is_typed(spec):
    with pytest.raises(InvalidParams, match=re.escape(f"field spec {spec!r}")):
        parse_field_spec(spec)


def test_field_equality():
    assert Field(2, 4) == Field(2, 4)
    assert Field(2, 4) != Field(2, 2)
