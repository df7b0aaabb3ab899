import functools
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from pirstream import fields
from pirstream.errors import (
    InvalidParams,
    NonPrimeCharacteristic,
    OrderNotDividing,
    ReducibleModulus,
    ZeroElement,
    ZeroInverse,
)
from pirstream.fields import (
    Field,
    _is_irreducible,
    factorize,
    parse_field_spec,
    power_rows,
)

from oracles import digit_add, digit_neg

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


def has_factor(coeffs, p):
    """Whether a polynomial over GF(p), coefficients low to high, has a
    monic factor of degree 1..s/2, by trial division."""
    s = len(coeffs) - 1
    inv_lead = pow(coeffs[-1], p - 2, p)
    for d in range(1, s // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            rem = [c * inv_lead % p for c in coeffs]
            for i in range(s - d, -1, -1):
                q = rem[i + d]
                for j, gj in enumerate(g):
                    rem[i + j] = (rem[i + j] - q * gj) % p
            if not any(rem[:d]):
                return True
    return False


@pytest.mark.parametrize("p, degrees", [(2, range(1, 8)), (3, range(1, 5)),
                                        (5, range(1, 4))])
def test_irreducibility_matches_trial_division(p, degrees):
    # every polynomial of these degrees, any leading coefficient: Rabin's
    # test, with its shortcut for a root at 0 or 1, against trial division
    for s in degrees:
        for coeffs in itertools.product(range(p), repeat=s + 1):
            if coeffs[-1]:
                assert _is_irreducible(list(coeffs), p) == (
                    not has_factor(coeffs, p)), coeffs


def test_default_modulus_is_lowest_irreducible():
    assert Field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert Field(2, 8).modulus == (1, 1, 0, 1, 1, 0, 0, 0, 1)   # 0x11b
    assert Field(3, 2).modulus == (1, 0, 1)                     # x^2 + 1


# The default modulus of each field: the lowest monic irreducible of its
# degree in packed order, coefficients low to high.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 2): (2, 0, 1),
}


def test_default_modulus_matches_the_pinned_table():
    for (p, s), modulus in DEFAULT_MODULI.items():
        assert Field(p, s).modulus == modulus, (p, s)


def test_poly_powmod_squares_only_while_bits_remain(monkeypatch):
    # powers mod x^4 + x + 1 over GF(2) and mod x^3 + 2x + 1 over GF(3)
    # match repeated products; x^2 takes one squaring and one product,
    # with no squaring after the exponent's last bit
    for mod, p in (([1, 1, 0, 0, 1], 2), ([1, 2, 0, 1], 3)):
        power = [1]
        for e in range(20):
            assert fields._poly_powmod([0, 1], e, mod, p) == power, (mod, e)
            power = fields._poly_mulmod(power, [0, 1], mod, p)
    calls = [0]
    mulmod = fields._poly_mulmod

    def counted(*args):
        calls[0] += 1
        return mulmod(*args)
    monkeypatch.setattr(fields, "_poly_mulmod", counted)
    assert fields._poly_powmod([0, 1], 2, [1, 1, 0, 0, 1], 2) == [0, 0, 1]
    assert calls[0] == 2


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


def test_prime_field_factorizes_q_minus_1_on_first_order(monkeypatch):
    factorized = []
    monkeypatch.setattr(fields, "factorize",
                        lambda n: factorized.append(n) or factorize(n))
    f = Field(1000003)
    assert factorized == []
    assert f.order(2) == 1000002
    assert factorized == [1000002]
    assert f.order(4) == 500001
    assert factorized == [1000002]
    Field(2, 4)     # a table field orders candidates for its generator
    assert factorized[-1] == 15


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


# odd-characteristic extension fields small enough to add every pair
SMALL_ODD_EXTENSIONS = [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (5, 3),
                        (7, 3), (3, 5), (11, 2)]


@pytest.mark.parametrize("p, s", SMALL_ODD_EXTENSIONS)
def test_sums_match_digit_arithmetic_on_every_pair(p, s):
    f = Field(p, s)
    negs = [digit_neg(f, b) for b in range(f.q)]
    assert [f.neg(a) for a in range(f.q)] == negs
    for a in range(f.q):
        assert [f.add(a, b) for b in range(f.q)] == [
            digit_add(f, a, b) for b in range(f.q)], a
        assert [f.sub(a, b) for b in range(f.q)] == [
            digit_add(f, a, negs[b]) for b in range(f.q)], a


@functools.cache
def wide_field(p, s):
    return Field(p, s)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(3, 10), (251, 2), (13, 4)]), st.data())
def test_sums_match_digit_arithmetic_on_wide_fields(ps, data):
    f = wide_field(*ps)
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    assert f.add(a, b) == digit_add(f, a, b)
    assert f.neg(b) == digit_neg(f, b)
    assert f.sub(a, b) == digit_add(f, a, digit_neg(f, b))


# one field per kernel: mod p, GF(2^8) translate rows, and the scalar
# methods on an odd-characteristic extension and on GF(2^s) past 2^8
@pytest.mark.parametrize("f", [Field(13), Field(2, 8), GF9, Field(2, 10)],
                         ids=repr)
@pytest.mark.parametrize("count", [0, 1, 4])
def test_power_rows_match_pow(f, count):
    xs = [0, 1, 2, f.q - 1, 5]     # a zero locator, with 0^0 = 1
    rows = power_rows(f, xs, count)
    assert rows == [[f.pow(x, i) for x in xs] for i in range(count)]
    assert power_rows(f, [], count) == [[]] * count


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([GF5, GF16]), st.integers(0, 15), st.integers(0, 40))
def test_pow_matches_repeated_mul(f, a, e):
    a %= f.q
    expect = 1
    for _ in range(e):
        expect = f.mul(expect, a)
    assert f.pow(a, e) == expect


@pytest.mark.parametrize("f", [Field(2, s) for s in range(2, 9)]
                         + [Field(2, 4, (1, 0, 0, 1, 1))], ids=repr)
def test_binary_tables_match_the_polynomial_construction(f):
    # the shift-and-XOR tables equal the ones built with _raw_mul's list
    # polynomials: same generator, same powers, zeros after them
    q1 = f.q - 1
    g = next(c for c in range(2, f.q) if f._order_raw(c, f._raw_mul) == q1)
    exp = [0] * (4 * q1 + 1)
    log = [2 * q1] * f.q
    x = 1
    for i in range(q1):
        exp[i] = exp[i + q1] = x
        log[x] = i
        x = f._raw_mul(x, g)
    assert f._exp == exp
    assert f._log == log


def test_large_field_beyond_tables(monkeypatch):
    # an extension field past 2^16 elements is refused before any modulus
    # search or check; prime fields of any size, and extension fields up
    # to 2^16, still build
    searched = []
    search = fields._default_modulus
    monkeypatch.setattr(fields, "_default_modulus",
                        lambda p, s: searched.append((p, s)) or search(p, s))
    for build in (lambda: Field(17, 4), lambda: Field(2, 17),
                  lambda: Field(3, 11), lambda: parse_field_spec("17^4"),
                  lambda: Field(2, 17, (1,) * 18)):
        with pytest.raises(InvalidParams,
                           match=r"has more than 2\^16 = 65536 elements"):
            build()
    assert searched == []
    assert Field(65537).q == 65537
    assert Field(2, 16).q == 1 << 16
    assert searched == [(65537, 1), (2, 16)]
    assert wide_field(3, 10).q == 3 ** 10


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
