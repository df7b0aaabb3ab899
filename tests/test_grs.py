import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from pirstream.errors import (
    DecodingFailure,
    DegenerateProduct,
    InconsistentWord,
    LengthMismatch,
    LocatorMismatch,
    TooManyErasures,
)
from pirstream.fields import Field
from pirstream.grs import GrsCode, star_product_code
from pirstream.linalg import row_space_basis

GF5 = Field(5)
GF16 = Field(2, 4)
RS42 = GrsCode(GF5, 4, 2, (1, 2, 3, 4))


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def star_span_basis(c1: GrsCode, c2: GrsCode):
    """Row-space basis of all coordinate-wise products of the generator
    rows of two codes: the oracle for ``star_product_code``."""
    f = c1.field
    products = [[f.mul(a, b) for a, b in zip(r1, r2)]
                for r1 in c1.generator_matrix()
                for r2 in c2.generator_matrix()]
    return row_space_basis(f, products)


def test_encode_examples():
    assert RS42.encode([1, 0]) == [1, 1, 1, 1]
    assert RS42.encode([0, 1]) == [1, 2, 3, 4]
    assert RS42.encode([0, 0]) == [0, 0, 0, 0]
    with pytest.raises(LengthMismatch):
        RS42.encode([1])


def test_code_validation():
    with pytest.raises(LocatorMismatch):
        GrsCode(GF5, 3, 2, (1, 1, 2))
    with pytest.raises(LocatorMismatch):
        GrsCode(GF5, 3, 2, (1, 2, 3), (1, 0, 1))
    with pytest.raises(LengthMismatch):
        GrsCode(GF5, 3, 4, (1, 2, 3))
    assert RS42.d == 3


def test_erasure_decode_examples():
    assert RS42.erasure_decode([None, 2, 3, None]) == [0, 1]
    assert RS42.erasure_decode([1, 2, 3, 4]) == [0, 1]
    with pytest.raises(TooManyErasures):
        RS42.erasure_decode([None, None, None, 4])
    with pytest.raises(InconsistentWord):
        RS42.erasure_decode([1, 2, 3, 0])


def test_bmd_examples():
    msg, errors = RS42.bmd_decode([1, 3, 3, 4])
    assert msg == [0, 1] and errors == frozenset({1})
    msg, errors = RS42.bmd_decode([1, 2, 3, 4])
    assert errors == frozenset()


def test_bmd_exhaustive_against_codebook():
    # RS51 has emax = 2, so a word at distance 1 from a codeword must decode
    # from the one Berlekamp-Welch solve at e = 2
    rs51 = GrsCode(GF5, 5, 1, (0, 1, 2, 3, 4))
    for code, size in ((RS42, 25), (rs51, 5)):
        emax = (code.d - 1) // 2
        codebook = [tuple(cw) for cw in code.codewords()]
        assert len(codebook) == size
        for word in itertools.product(range(5), repeat=code.n):
            within = [cw for cw in codebook if hamming(word, cw) <= emax]
            try:
                msg, errors = code.bmd_decode(list(word))
                cw = tuple(code.encode(msg))
                # never returns a codeword beyond the radius
                assert hamming(word, cw) <= emax
                assert within == [cw]
                assert errors == frozenset(
                    j for j in range(code.n) if cw[j] != word[j])
            except DecodingFailure:
                assert within == []


def test_mds_weight_property():
    for cw in RS42.codewords():
        if any(cw):
            assert sum(1 for v in cw if v) >= RS42.d


def test_star_product():
    locs = tuple(range(1, 7))
    c1 = GrsCode(GF16, 6, 2, locs)
    c2 = GrsCode(GF16, 6, 1, locs)
    sp = star_product_code(c1, c2)
    assert (sp.n, sp.k) == (6, 2)
    locs10 = tuple(range(1, 11))
    sp2 = star_product_code(GrsCode(GF16, 10, 2, locs10),
                            GrsCode(GF16, 10, 2, locs10))
    assert (sp2.n, sp2.k, sp2.d) == (10, 3, 8)
    with pytest.raises(DegenerateProduct):
        star_product_code(GrsCode(GF5, 4, 3, (1, 2, 3, 4)),
                          GrsCode(GF5, 4, 3, (1, 2, 3, 4)))
    with pytest.raises(LocatorMismatch):
        star_product_code(c1, GrsCode(GF16, 6, 1, tuple(range(2, 8))))


def test_star_product_span_equality():
    rng = random.Random(12)
    for _ in range(20):
        f = rng.choice([GF5, GF16])
        n = rng.randrange(3, min(f.q - 1, 8) + 1)
        locs = tuple(rng.sample(range(1, f.q), n))
        k1 = rng.randrange(1, n)
        k2 = rng.randrange(1, n - k1 + 2)
        m1 = tuple(rng.randrange(1, f.q) for _ in range(n))
        m2 = tuple(rng.randrange(1, f.q) for _ in range(n))
        c1 = GrsCode(f, n, k1, locs, m1)
        c2 = GrsCode(f, n, k2, locs, m2)
        sp = star_product_code(c1, c2)
        assert star_span_basis(c1, c2) == row_space_basis(f, sp.generator_matrix())


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_round_trip_random(data):
    f = data.draw(st.sampled_from([GF5, GF16, Field(7)]))
    n = data.draw(st.integers(2, min(f.q - 1, 8)))
    k = data.draw(st.integers(1, n))
    locs = tuple(data.draw(st.permutations(range(1, f.q)))[:n])
    msg = [data.draw(st.integers(0, f.q - 1)) for _ in range(k)]
    code = GrsCode(f, n, k, locs)
    cw = code.encode(msg)
    n_erase = data.draw(st.integers(0, n - k))
    erased = data.draw(st.permutations(range(n)))[:n_erase]
    word = [None if j in erased else cw[j] for j in range(n)]
    assert code.erasure_decode(word) == msg


def test_bmd_radius_random():
    rng = random.Random(99)
    locs = tuple(range(1, 11))
    code = GrsCode(GF16, 10, 3, locs)   # d = 8, corrects 3
    for _ in range(60):
        msg = [rng.randrange(16) for _ in range(3)]
        cw = code.encode(msg)
        nerr = rng.randrange(0, 4)
        pos = rng.sample(range(10), nerr)
        word = list(cw)
        for j in pos:
            word[j] = rng.choice([v for v in range(16) if v != cw[j]])
        got, errors = code.bmd_decode(word)
        assert got == msg
        assert errors == frozenset(pos)


def test_bmd_decode_makes_few_field_mul_calls(monkeypatch):
    # The sum code of the byzantine-fixed benchmark: GF(2^8), n=16, k=9.
    # Elimination and encoding run in the field's kernel, so the scalar
    # Field.mul calls left are O(n): dividing out the multipliers, the BW
    # right-hand side and the polynomial division, 77 here.  One Field.mul
    # call per symbol in the row update made about 2000 per decode.
    f = Field(2, 8)
    locs = tuple(range(1, 17))
    code = GrsCode(f, 16, 9, locs, tuple(f.pow(a, -3) for a in locs))
    rng = random.Random(8)
    msg = [rng.randrange(256) for _ in range(9)]
    word = code.encode(msg)
    for j in (2, 7, 11):
        word[j] ^= 0x5A
    assert code.bmd_decode(word) == (msg, frozenset({2, 7, 11}))  # warm tables
    calls = [0]
    mul = Field.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)
    monkeypatch.setattr(Field, "mul", counted)
    assert code.bmd_decode(word) == (msg, frozenset({2, 7, 11}))
    assert calls[0] <= 100
