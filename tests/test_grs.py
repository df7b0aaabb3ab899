import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pirstream import grs
from pirstream.errors import (
    DecodingFailure,
    DegenerateProduct,
    InconsistentWord,
    LengthMismatch,
    LocatorMismatch,
    SymbolOutsideField,
    TooManyErasures,
    ZeroInverse,
)
from pirstream.fields import Field
from pirstream.grs import GrsCode, star_product_code

import oracles
from oracles import (
    bw_decode,
    codewords,
    erasure_decode_by_solve,
    poly_eval,
    reader_rows,
    row_space_basis,
    vec_mat,
)

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


@pytest.mark.parametrize("f, message, position", [
    (GF16, [16, 1, 2], 0),
    (Field(2, 8), [1, -1, 2], 1),
    (Field(2, 8), [1, 2, 256], 2),
    (Field(3, 2), [9, 1, 2], 0),
], ids=["GF(2^4) 16", "GF(2^8) -1", "GF(2^8) 256", "GF(9) 9"])
def test_encode_rejects_symbols_outside_the_field(f, message, position):
    # a translate table would read -1 as the row of q - 1, and q or more
    # would index past the tables
    code = GrsCode(f, 8, 3, tuple(range(1, 9)))
    x = message[position]
    with pytest.raises(SymbolOutsideField,
                       match=f"position {position} holds {x},"):
        code.encode(message)


def test_encode_reads_gf_p_symbols_as_their_residues():
    f = Field(13)
    code = GrsCode(f, 8, 3, tuple(range(1, 9)))
    for message in ([-1, 13, 300], [300, -1, 13], [-27, 26, 12]):
        assert code.encode(message) == code.encode([x % 13 for x in message])


def test_code_validation():
    with pytest.raises(LocatorMismatch):
        GrsCode(GF5, 3, 2, (1, 1, 2))
    with pytest.raises(LocatorMismatch):
        GrsCode(GF5, 3, 2, (1, 2, 3), (1, 0, 1))
    with pytest.raises(LengthMismatch):
        GrsCode(GF5, 3, 4, (1, 2, 3))
    assert RS42.d == 3


@pytest.mark.parametrize("f", [Field(2, 8), Field(251)], ids=str)
def test_code_rejects_multipliers_and_locators_outside_the_field(f):
    # multipliers follow the locators' range rule, 1..q-1 for them: a
    # multiplier -1 over GF(2^8) read as log[-1] gave a wrong codeword
    # ([0, 3, 2, 46] for the message [1, 1]), and 300 an IndexError
    q = f.q
    for bad in (-1, 0, q, 300):
        with pytest.raises(LocatorMismatch,
                           match=f"multiplier {bad} at position 3 outside "
                                 f"1..{q - 1}"):
            GrsCode(f, 4, 2, (1, 2, 3, 4), (1, 1, 1, bad))
    for bad in (-1, q, 300):
        with pytest.raises(LocatorMismatch,
                           match=f"locator {bad} at position 2 outside "
                                 f"0..{q - 1}"):
            GrsCode(f, 4, 2, (0, 1, bad, 4), (q - 1, 1, 1, 1))
    code = GrsCode(f, 4, 2, (0, 1, 2, q - 1), (q - 1, 1, 1, 1))
    assert code.encode([1, 1])[0] == q - 1


def test_erasure_decode_examples():
    assert RS42.erasure_decode([None, 2, 3, None]) == [0, 1]
    assert RS42.erasure_decode([1, 2, 3, 4]) == [0, 1]
    with pytest.raises(TooManyErasures):
        RS42.erasure_decode([None, None, None, 4])
    with pytest.raises(InconsistentWord):
        RS42.erasure_decode([1, 2, 3, 0])
    # the codeword (1, 2, 3, 4) at positions 0, 3 and 0 again
    assert RS42.erasure_decode([None, 2, 3, None], at=(0, 3, 0)) == [0, 1, 1, 4, 1]
    assert RS42.erasure_decode([1, 2, 3, 4], erased={1}, at=[1]) == [0, 1, 2]
    for at in ((4,), (-1,)):
        with pytest.raises(LengthMismatch):
            RS42.erasure_decode([1, 2, 3, 4], at=at)


def test_bmd_examples():
    msg, errors = RS42.bmd_decode([1, 3, 3, 4])
    assert msg == [0, 1] and errors == frozenset({1})
    msg, errors = RS42.bmd_decode([1, 2, 3, 4])
    assert errors == frozenset()


def test_bmd_exhaustive_against_codebook():
    # RS51 has emax = 2, so a word at distance 1 from a codeword must decode
    # from the one key-equation solve at e = 2, whose locator has a root
    # that is not an error; grs52 has locator 0 and non-unit multipliers
    rs51 = GrsCode(GF5, 5, 1, (0, 1, 2, 3, 4))
    grs52 = GrsCode(GF5, 5, 2, (3, 0, 4, 1, 2), (2, 3, 1, 4, 2))
    for code, size in ((RS42, 25), (rs51, 5), (grs52, 25)):
        emax = (code.d - 1) // 2
        codebook = [tuple(cw) for cw in codewords(code)]
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


@pytest.mark.parametrize("f", [Field(13), GF16], ids=repr)
def test_generator_matrix_hands_out_a_copy(f):
    # the decoders read the code's kept generator rows; what a caller does
    # to the matrix it was given must not reach them
    locs, mults = (0, 1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 7)
    code = GrsCode(f, 7, 3, locs, mults)
    expect = [[f.mul(v, f.pow(a, i)) for a, v in zip(locs, mults)]
              for i in range(3)]
    g = code.generator_matrix()
    assert g == expect
    g[0][0] = f.add(g[0][0], 1)
    g[1].append(5)
    g.append([1] * 7)
    # the code builds its readers and maps after the change
    msg = [3, 1, 2]
    word = code.encode(msg)
    assert word == [f.mul(v, poly_eval(f, msg, a)) for a, v in zip(locs, mults)]
    assert code.erasure_decode([None, None] + word[2:]) == msg
    corrupt = list(word)
    corrupt[4] = f.add(corrupt[4], 1)
    assert code.bmd_decode(corrupt) == (msg, frozenset({4}))
    assert code.generator_matrix() == expect


def test_mds_weight_property():
    for cw in codewords(RS42):
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
    # Syndromes, root search and the reader, which gives the message and
    # the codeword at every other position, run in the field's kernel, and
    # the parity checks and the readers are built once per code and set of
    # positions.  The scalar Field.mul calls left are Berlekamp-Massey's
    # and Forney's, on e = 3 errors, two of them among the first k
    # positions; then Berlekamp-Massey's on the next word, whose locator
    # is the kept one; then none.  One Field.mul call per symbol in the
    # row update of an elimination made about 2000 per decode.
    f = Field(2, 8)
    locs = tuple(range(1, 17))
    code = GrsCode(f, 16, 9, locs, tuple(f.pow(a, -3) for a in locs))
    rng = random.Random(8)
    msg = [rng.randrange(256) for _ in range(9)]
    word = code.encode(msg)
    warm = list(word)
    warm[0] ^= 1
    warm[5] ^= 1
    assert code.bmd_decode(warm) == (msg, frozenset({0, 5}))   # warm tables
    for j in (2, 7, 11):
        word[j] ^= 0x5A
    calls = [0]
    mul = Field.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)
    monkeypatch.setattr(Field, "mul", counted)
    solves = count_solves(monkeypatch)
    for bound in (100, 100, 0):
        calls[0] = 0
        assert code.bmd_decode(word) == (msg, frozenset({2, 7, 11}))
        assert calls[0] <= bound
    assert solves[0] == 2


def test_bmd_decode_makes_one_solve_for_a_nonzero_syndrome(monkeypatch):
    # Berlekamp-Massey is the only key-equation solve: a codeword needs
    # none and a word with errors one.  No decode calls solve_any or
    # erasure_decode, or builds a reader: both read through the code's
    # map of all n positions, which needs no elimination
    code = GrsCode(GF16, 10, 3, tuple(range(1, 11)))
    msg = [5, 0, 11]
    word = code.encode(msg)
    solves = count_solves(monkeypatch)
    builds = count_reader_builds(monkeypatch)

    def refuse(*args):
        raise AssertionError("bmd_decode called solve_any or erasure_decode")
    monkeypatch.setattr(grs, "solve_any", refuse)
    monkeypatch.setattr(GrsCode, "erasure_decode", refuse)
    assert code.bmd_decode(word) == (msg, frozenset())
    assert solves[0] == 0
    word[4] ^= 9
    word[1] ^= 1
    assert code.bmd_decode(word) == (msg, frozenset({1, 4}))
    assert solves[0] == 1
    assert builds[0] == 0


def count_solves(monkeypatch):
    """A one-entry list that counts the key-equation solves: the runs of
    Berlekamp-Massey, ``grs._berlekamp_massey``."""
    solves = [0]
    berlekamp_massey = grs._berlekamp_massey

    def counted(*args):
        solves[0] += 1
        return berlekamp_massey(*args)
    monkeypatch.setattr(grs, "_berlekamp_massey", counted)
    return solves


def test_bmd_decode_solves_once_for_persistent_errors(monkeypatch):
    # two servers that lie in every block, as in the byzantine-fixed
    # benchmark's star code: the first word runs Berlekamp-Massey, the
    # second runs it to the kept locator and builds the reader of the
    # first k positions outside its errors, and every later word is read
    # through that reader alone
    f = Field(2, 8)
    locs = tuple(range(1, 17))
    code = GrsCode(f, 16, 3, locs, tuple(f.pow(a, -3) for a in locs))
    rng = random.Random(4)
    solves = count_solves(monkeypatch)
    builds = count_reader_builds(monkeypatch)
    for i in range(5):
        msg = [rng.randrange(256) for _ in range(3)]
        word = code.encode(msg)
        for j in (2, 9):
            word[j] ^= rng.randrange(1, 256)
        assert code.bmd_decode(word) == (msg, frozenset({2, 9}))
        assert solves[0] == (1 if i == 0 else 2)
        assert builds[0] == (0 if i == 0 else 1)


# (field, n, k) of the codes that decode a sequence of words: the star
# code's shape of the byzantine-fixed benchmark, a prime field read with
# unreduced symbols, a small binary field, and GF(3^2) on the scalar kernel
SEQUENCE_CODES = {
    "GF(2^8)": (Field(2, 8), 16, 3),
    "GF(13)": (Field(13), 12, 4),
    "GF(2^4)": (GF16, 10, 3),
    "GF(3^2)": (Field(3, 2), 8, 2),
}


def fresh_decode(code, word):
    """``decode_or_fail`` of bmd_decode from no kept state: the first
    decode of an equal code built afresh, which leaves what the code keeps
    (``GrsCode._kept``) as it was."""
    return decode_or_fail(GrsCode.bmd_decode, dataclasses.replace(code), word)


@pytest.mark.parametrize("name", SEQUENCE_CODES)
def test_bmd_decode_through_the_kept_reader_matches_a_fresh_decode(
        name, monkeypatch):
    # One code decodes a sequence of words, one through each path of the
    # kept state (``GrsCode._kept``): errors off the first k positions,
    # read through the map of all n positions; errors that hit them,
    # which run Berlekamp-Massey; a codeword; errors that persist, whose
    # Berlekamp-Massey run finds the kept locator and whose reader then
    # reads the next word; errors that
    # move off or onto that reader's base; and e + 1 errors off and on the
    # first k positions.  Each answer, failures included, is the
    # Berlekamp-Welch answer and that of a decode from no kept state; the
    # Berlekamp-Massey counts pin which words the kept state answers.  A kept reader
    # that answered at distance e + 1 fails at "e+1 off the first k".
    f, n, k = SEQUENCE_CODES[name]
    rng = random.Random(name)
    code = GrsCode(f, n, k, tuple(rng.sample(range(f.q), n)),
                   tuple(rng.randrange(1, f.q) for _ in range(n)))
    e = (code.d - 1) // 2
    first, rest = set(range(k)), set(range(k, n))
    solves = count_solves(monkeypatch)

    def base():
        return set(code._kept[2][0][:k])

    def pick(count, pool, avoid=()):
        return set(rng.sample(sorted(set(pool) - set(avoid)), count))

    persistent = {0} | pick(e - 1, rest)
    # (label, positions to corrupt, Berlekamp-Massey runs or None if either)
    steps = [
        ("first", lambda: persistent, 1),
        ("codeword", set, 0),
        ("persists", lambda: persistent, 1),
        ("persists", lambda: persistent, 0),
        ("fewer", lambda: set(sorted(persistent)[1:]), 0),
        ("moves off the base", lambda: pick(e, range(n), base()), 0),
        ("hits the base", lambda: pick(1, base() & first)
         | pick(e - 1, rest), 1),
        ("off the first k", lambda: pick(e, rest), 1),
        ("again off the first k", lambda: pick(e, rest), 0),
        ("e+1 off the first k", lambda: pick(e + 1, rest), 1),
        ("e+1 on the first k", lambda: pick(1, first) | pick(e, rest), None),
        ("back", lambda: persistent, None),
        ("persists", lambda: persistent, 1),
    ]
    for label, positions, expected in steps:
        bad = positions()
        msg = [rng.randrange(f.q) for _ in range(k)]
        word = code.encode(msg)
        for j in bad:
            word[j] = f.add(word[j], rng.randrange(1, f.q))
        reduced = list(word)
        if f.s == 1:
            # over GF(p) a symbol is read as its residue
            for j in rng.sample(range(n), 3):
                word[j] += f.p * rng.choice((-2, -1, 1, 3))
        before = solves[0]
        got = decode_or_fail(GrsCode.bmd_decode, code, word)
        solved = solves[0] - before
        assert got == fresh_decode(code, word), label
        assert got == decode_or_fail(bw_decode, code, reduced), label
        if len(bad) <= e:
            assert got == (msg, frozenset(bad)), label
        assert expected is None or solved == expected, label


def test_bmd_decode_makes_no_encode_call(monkeypatch):
    # the reader of the positions that are not roots gives the message
    # and the codeword at every other position, so the check against the
    # word needs no encode
    code = GrsCode(GF16, 10, 3, tuple(range(1, 11)), tuple(range(2, 12)))
    msg = [5, 0, 11]
    word = code.encode(msg)
    noisy = list(word)
    noisy[4] ^= 9
    noisy[7] ^= 1

    def refuse(*args):
        raise AssertionError("bmd_decode called encode")
    monkeypatch.setattr(GrsCode, "encode", refuse)
    assert code.bmd_decode(word) == (msg, frozenset())
    assert code.bmd_decode(noisy) == (msg, frozenset({4, 7}))


def test_bmd_decode_keeps_one_reader_per_set_of_non_roots(monkeypatch):
    # errors seen once build no reader: words whose errors differ from one
    # decode to the next all read through the code's map of all n
    # positions.  Errors found twice in a row get the reader of the first
    # k positions outside them, once, which reads the later words with
    # those errors
    builds = count_reader_builds(monkeypatch)
    code = GrsCode(GF16, 10, 3, tuple(range(1, 11)))
    msg = [5, 0, 11]
    for bad in ({7, 8, 9}, {0, 6, 9}, {5, 6, 9}, {1, 4, 5}, (),
                {2, 3, 8}, {1, 5}, {0, 1, 2}):
        word = code.encode(msg)
        for j in bad:
            word[j] ^= 3
        assert code.bmd_decode(word) == (msg, frozenset(bad))
    assert builds[0] == 0
    for bad in ({0, 1, 2}, {0, 1, 2}, {0, 2}):
        word = code.encode(msg)
        for j in bad:
            word[j] ^= 3
        assert code.bmd_decode(word) == (msg, frozenset(bad))
    assert builds[0] == 1


@pytest.mark.parametrize("f, n, k, values", [
    (Field(2, 8), 16, 9, (-1, 256, 300)),
    (GF16, 8, 3, (-1, 16)),
    (Field(2, 10), 8, 3, (-1, 1024)),
    (Field(3, 2), 8, 3, (-1, 9)),
], ids=["GF(2^8)", "GF(2^4)", "GF(2^10)", "GF(9)"])
def test_decoders_reject_symbols_outside_the_field(f, n, k, values):
    # a translate table would read -1 as the row of q - 1, and the other
    # kernels would decode it or fail untyped; over GF(p) the decoders
    # read residues instead (test_kernels)
    code = GrsCode(f, n, k, tuple(range(1, n + 1)))
    msg = list(range(1, k + 1))
    word = code.encode(msg)
    for x in values:
        bad = list(word)
        bad[3] = x
        for decode in (code.bmd_decode, code.erasure_decode):
            with pytest.raises(SymbolOutsideField, match=f"position 3 holds {x},"):
                decode(bad)
        # an erased position is not read, whatever it holds
        assert code.erasure_decode(bad, erased={3}) == msg


def test_bmd_split_locator_beyond_radius_fails_the_root_check(monkeypatch):
    # RS(6, 1) over GF(7) corrects e = 2.  This word is at distance >= 3
    # from every codeword, yet Berlekamp-Massey gives it the locator
    # x^2 + 5x, of degree 2 <= e, whose roots are 2, a locator of the code,
    # and 0, which is none.  The decode fails at the root count; read with
    # the root 2 erased, the word gives the zero codeword, which differs
    # from it at 4 positions that are not roots, so the check that every
    # difference is at a root would fail it too.
    gf7 = Field(7)
    code = GrsCode(gf7, 6, 1, (1, 2, 3, 4, 5, 6))
    word = [0, 0, 1, 2, 4, 3]
    assert all(hamming(word, cw) > 2 for cw in codewords(code))
    locators = []
    berlekamp_massey = grs._berlekamp_massey

    def spy(*args):
        locators.append(berlekamp_massey(*args))
        return locators[-1]
    monkeypatch.setattr(grs, "_berlekamp_massey", spy)
    with pytest.raises(DecodingFailure):
        code.bmd_decode(word)
    [locator] = locators
    assert locator == [0, 5, 1]
    roots = [a for a in code.locators if poly_eval(gf7, locator, a) == 0]
    assert roots == [2]
    with pytest.raises(DecodingFailure):
        bw_decode(code, word)


def test_each_code_builds_its_syndrome_and_root_maps():
    # the four codes of unit-memory decoding (two multiplier tuples, one
    # locator tuple) each build their own maps: the n-k syndromes, which
    # are the first n-k checks of RS(n, 1, v) on the same multipliers, and
    # the values at every locator of a polynomial of degree <= (n-1)/2
    f = Field(2, 8)
    locs = tuple(range(1, 17))
    e1 = tuple(f.pow(a, 3) for a in locs)
    codes = [GrsCode(f, 16, 9, locs, e1), GrsCode(f, 16, 6, locs, e1),
             GrsCode(f, 16, 6, locs), GrsCode(f, 16, 3, locs)]
    rng = random.Random(3)
    for code in codes:
        word = code.encode([rng.randrange(256) for _ in range(code.k)])
        assert code._parity_checks(word) == [0] * (code.n - code.k)
        word[0] ^= 1    # an error at locator 1 shows in every check
        checks = code._parity_checks(word)
        assert len(checks) == code.n - code.k and all(checks)
        noise = [rng.randrange(256) for _ in range(code.n)]
        whole = GrsCode(f, 16, 1, locs, code.multipliers)
        assert code._parity_checks(noise) == \
            whole._parity_checks(noise)[:code.n - code.k]
        poly = [rng.randrange(256) for _ in range(8)]
        assert code._locator_values(poly) == [poly_eval(f, poly, a)
                                              for a in locs]


# GF(2^16) has 2-byte symbols and the scalar kernel, whose linear maps are
# one dot per column
DIFF_FIELDS = [GF5, GF16, Field(2, 8), Field(2, 16), Field(251), Field(3, 2)]


def decode_or_fail(decode, code, word):
    try:
        return decode(code, word)
    except DecodingFailure:
        return "failure"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_bmd_decode_matches_berlekamp_welch(f, data):
    # message, error set and failure agree with the Berlekamp-Welch oracle
    # for codes with locator 0 and non-unit multipliers and words with any
    # number of corrupted positions, beyond the radius included
    n = data.draw(st.integers(1, min(f.q, 12)))
    k = data.draw(st.integers(1, n))
    locs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n,
                              max_size=n, unique=True))
    if 0 not in locs and data.draw(st.booleans()):
        locs[data.draw(st.integers(0, n - 1))] = 0
    mults = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    code = GrsCode(f, n, k, tuple(locs), tuple(mults))
    msg = data.draw(st.lists(st.integers(0, f.q - 1), min_size=k, max_size=k))
    word = code.encode(msg)
    bad = data.draw(st.sets(st.integers(0, n - 1)))
    for j in bad:
        word[j] = f.add(word[j], data.draw(st.integers(1, f.q - 1)))
    got = decode_or_fail(GrsCode.bmd_decode, code, word)
    assert got == decode_or_fail(bw_decode, code, word)
    if len(bad) <= (code.d - 1) // 2:
        assert got == (msg, frozenset(bad))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_bmd_decode_sequences_match_berlekamp_welch(f, data):
    # any sequence of words on one code, each with any error set
    n = data.draw(st.integers(2, min(f.q, 12)))
    k = data.draw(st.integers(1, n - 1))
    locs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n,
                              max_size=n, unique=True))
    mults = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    code = GrsCode(f, n, k, tuple(locs), tuple(mults))
    e = (code.d - 1) // 2
    for _ in range(data.draw(st.integers(1, 6))):
        msg = data.draw(st.lists(st.integers(0, f.q - 1), min_size=k,
                                 max_size=k))
        word = code.encode(msg)
        bad = data.draw(st.sets(st.integers(0, n - 1)))
        for j in bad:
            word[j] = f.add(word[j], data.draw(st.integers(1, f.q - 1)))
        got = decode_or_fail(GrsCode.bmd_decode, code, word)
        assert got == decode_or_fail(bw_decode, code, word)
        if len(bad) <= e:
            assert got == (msg, frozenset(bad))


# (field, n, k), one field per kernel kind; locator 0 is placed among the
# first k positions, where Forney's formula gives its error value, and past
# them, where the read of the corrected word does
LOCATOR_ZERO_CODES = {
    "GF(2^8)": (Field(2, 8), 16, 4),
    "GF(13)": (Field(13), 12, 4),
    "GF(3^2)": (Field(3, 2), 9, 3),
}


@pytest.mark.parametrize("name", LOCATOR_ZERO_CODES)
def test_bmd_decode_corrects_an_error_at_locator_zero(name, monkeypatch):
    # The syndromes S_i = sum_j u_j a_j^i eps_j see an error at locator 0
    # only in S_0 (0^0 = 1), so Berlekamp-Massey finds an LFSR of length L
    # whose connection polynomial C has degree L - 1, and the locator
    # x^L C(1/x) has the root 0.  Alone and among other errors, each word
    # decodes to its message and errors as the Berlekamp-Welch oracle does,
    # and every word with an error among the first k positions runs
    # Berlekamp-Massey
    f, n, k = LOCATOR_ZERO_CODES[name]
    rng = random.Random(name)
    e = (n - k) // 2
    solves = count_solves(monkeypatch)
    for zero_at in (1, n - 2):
        locs = rng.sample(range(1, f.q), n - 1)
        locs.insert(zero_at, 0)
        code = GrsCode(f, n, k, tuple(locs),
                       tuple(rng.randrange(1, f.q) for _ in range(n)))
        alone = [int(j == zero_at) for j in range(n)]
        syndromes = code._parity_checks(alone)[:n - k]
        assert syndromes[0] and not any(syndromes[1:])
        assert grs._berlekamp_massey(f, syndromes, e) == [0, 1]
        others = [j for j in range(n) if j not in (0, zero_at)]
        for extra in (set(), {0}, {0} | set(rng.sample(others, e - 2))):
            bad = {zero_at} | extra
            msg = [rng.randrange(f.q) for _ in range(k)]
            word = code.encode(msg)
            for j in bad:
                word[j] = f.add(word[j], rng.randrange(1, f.q))
            # an equal code built afresh decodes from no kept state
            before = solves[0]
            got = dataclasses.replace(code).bmd_decode(word)
            assert got == (msg, frozenset(bad)), (zero_at, bad)
            assert got == bw_decode(code, word)
            if min(bad) < k:
                assert solves[0] == before + 1


@pytest.mark.parametrize("f, n, k", [(Field(2, 8), 100, 31),
                                     (Field(101), 96, 30)],
                         ids=["GF(2^8)", "GF(101)"])
def test_bmd_decode_at_n_100(f, n, k):
    # RS(100, 31) over GF(2^8) corrects e = 34 errors and RS(96, 30) over
    # GF(101) e = 33; both have random locators, locator 0 among the first
    # k.  Every count of random errors up to e decodes exactly, on a fresh
    # set of positions and, for every fifth count, on the same set again
    # (read through its reader once Berlekamp-Massey finds it again); e+1
    # to e+3 errors raise DecodingFailure or give a codeword within e of
    # the word, the errors being where the message re-encodes to something
    # else
    rng = random.Random(n)
    locs = rng.sample(range(1, f.q), n - 1)
    locs.insert(rng.randrange(k), 0)
    code = GrsCode(f, n, k, tuple(locs),
                   tuple(rng.randrange(1, f.q) for _ in range(n)))
    e = (code.d - 1) // 2
    counts = [c for c in range(e + 1) for _ in range(1 + (c % 5 == 0))]
    bad = ()
    for count in counts + [e + 1, e + 2, e + 3] * 6:
        if len(bad) != count:
            bad = rng.sample(range(n), count)
        msg = [rng.randrange(f.q) for _ in range(k)]
        word = code.encode(msg)
        for j in bad:
            word[j] = f.add(word[j], rng.randrange(1, f.q))
        try:
            got, errors = code.bmd_decode(word)
        except DecodingFailure:
            assert count > e
            continue
        if count <= e:
            assert (got, errors) == (msg, frozenset(bad)), count
        else:
            clean = code.encode(got)
            assert errors == {j for j in range(n) if clean[j] != word[j]}
            assert len(errors) <= e


# --- the decoding steps of each kernel against their scalar oracles -------

def symbols(f):
    return st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))


@st.composite
def syndrome_sequences(draw, f):
    """Syndrome sequences of three kinds: arbitrary symbols; a recurrence
    of a drawn length L with arbitrary taps and start, so that the
    shortest one is often L long, past e or not; and the syndromes
    sum_j Y_j a_j^i of errors at distinct points, 0 among them at times,
    where 0^0 = 1."""
    n = draw(st.integers(0, 14))
    kind = draw(st.sampled_from(["arbitrary", "recurrence", "errors"]))
    if kind == "arbitrary":
        return [draw(symbols(f)) for _ in range(n)]
    if kind == "recurrence":
        length = draw(st.integers(0, n))
        taps = [draw(symbols(f)) for _ in range(length)]
        seq = [draw(symbols(f)) for _ in range(length)]
        while len(seq) < n:
            seq.append(f.neg(oracles.scalar_dot(f, taps, seq[:-length - 1:-1])))
        return seq
    points = draw(st.lists(st.integers(0, f.q - 1), max_size=8, unique=True))
    values = [draw(st.integers(1, f.q - 1)) for _ in points]
    return [oracles.scalar_dot(f, values, [f.pow(a, i) for a in points])
            for i in range(n)]


def times_root(f, poly, root):
    """poly * (x - root), coefficients low first."""
    out = [0] + list(poly)
    for i, c in enumerate(poly):
        out[i] = f.sub(out[i], f.mul(root, c))
    return out


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroInverse as exc:
        return ZeroInverse, str(exc)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_berlekamp_massey_matches_the_scalar_oracle(f, data):
    # every e, so that the shortest recurrence is sometimes longer (None)
    syndromes = data.draw(syndrome_sequences(f))
    e = data.draw(st.integers(0, len(syndromes)))
    got = grs._berlekamp_massey(f, syndromes, e)
    assert got == oracles.berlekamp_massey(f, syndromes, e)
    if got is not None:
        assert len(got) - 1 <= e and got[-1] == 1


@pytest.mark.parametrize("f", DIFF_FIELDS, ids=repr)
def test_berlekamp_massey_fixed_cases(f):
    # locator 0 alone: S_0 only, so C = 1 with L = 1, and Lambda = x
    assert grs._berlekamp_massey(f, [3 % f.q or 1, 0, 0, 0], 2) == [0, 1]
    # the recurrence S_i = a S_{i-1}: the locator x - a, too long for e = 0
    a = f.q - 1
    powers = [f.pow(a, i) for i in range(6)]
    assert grs._berlekamp_massey(f, powers, 1) == [f.neg(a), 1]
    assert grs._berlekamp_massey(f, powers, 0) is None
    assert grs._berlekamp_massey(f, [0] * 6, 0) == [1]
    assert grs._berlekamp_massey(f, [], 0) == [1]


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_error_value_matches_the_scalar_oracle(f, data):
    # Forney at every root of a locator with drawn roots, repeated ones
    # (a zero derivative, ZeroInverse) and 0 among them, and at one more
    # point, with any weight and syndromes
    roots = data.draw(st.lists(st.integers(0, f.q - 1), min_size=1,
                               max_size=6))
    locator = [1]
    for r in roots:
        locator = times_root(f, locator, r)
    syndromes = data.draw(st.lists(symbols(f), min_size=len(roots),
                                   max_size=len(roots) + 4))
    weight = data.draw(symbols(f))
    kernel = f.kernel
    for a in sorted(set(roots)) + [data.draw(st.integers(0, f.q - 1))]:
        assert (outcome(kernel.error_value, locator, syndromes, a, weight)
                == outcome(oracles.error_value, f, locator, syndromes, a,
                           weight))
    if len(set(roots)) < len(roots):
        double = next(r for r in roots if roots.count(r) > 1)
        with pytest.raises(ZeroInverse):
            kernel.error_value(locator, syndromes, double, weight)


@pytest.mark.parametrize("f", DIFF_FIELDS, ids=repr)
def test_error_value_at_a_double_root_raises(f):
    # (x - a)^2 (x - b) has the derivative 0 at a, which has no inverse:
    # tables would read log 0 as a power, and mod p its inverse as 0
    a, b = f.q - 1, 1
    locator = times_root(f, times_root(f, times_root(f, [1], a), a), b)
    with pytest.raises(ZeroInverse):
        f.kernel.error_value(locator, [1, 2, 3], a, 1)
    assert f.kernel.error_value(locator, [0, 0, 0], b, 1) == 0


def refuse_field_calls(monkeypatch):
    """Make ``Field.mul``, ``add``, ``sub``, ``div`` and ``inv`` raise while
    the returned one-entry list holds True."""
    armed = [True]
    for name in ("mul", "add", "sub", "div", "inv"):
        method = getattr(Field, name)

        def refuse(self, *args, _name=name, _method=method):
            if armed[0]:
                raise AssertionError(f"Field.{_name} called")
            return _method(self, *args)
        monkeypatch.setattr(Field, name, refuse)
    return armed


@pytest.mark.parametrize("f", [Field(2, 8), Field(251)], ids=repr)
def test_full_bmd_decode_makes_no_field_call(f, monkeypatch):
    # on the native kernels Berlekamp-Massey, Chien's map, Forney's formula
    # and the correction of the first k symbols compute without a Field
    # method; the code's tables are built before the calls are refused
    rng = random.Random(f.q)
    locs = tuple(rng.sample(range(1, f.q), 16))
    code = GrsCode(f, 16, 4, locs,
                   tuple(rng.randrange(1, f.q) for _ in range(16)))
    warm = code.encode([1, 2, 3, 4])
    warm[0] = f.add(warm[0], 1)
    assert code.bmd_decode(warm) == ([1, 2, 3, 4], frozenset({0}))
    cases = []
    for bad in ({0, 2, 9}, {1, 3, 5, 7, 11, 15}, {0, 1, 2, 3}):
        msg = [rng.randrange(f.q) for _ in range(4)]
        word = code.encode(msg)
        for j in bad:
            word[j] = f.add(word[j], rng.randrange(1, f.q))
        cases.append((word, msg, bad))
    solves = count_solves(monkeypatch)
    refuse_field_calls(monkeypatch)
    for word, msg, bad in cases:
        assert code.bmd_decode(word) == (msg, frozenset(bad))
    assert solves[0] == len(cases)


def erasure_outcome(decode, code, word, erased):
    try:
        return decode(code, word, erased)
    except (InconsistentWord, TooManyErasures) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DIFF_FIELDS), st.data())
def test_erasure_decode_matches_one_solve_per_call(f, data):
    # the cached per-pattern inverse gives the message, or the error and
    # its message, of one Vandermonde solve per call; the same code decodes
    # several words, so later ones read through a cached inverse
    n = data.draw(st.integers(1, min(f.q, 10)))
    k = data.draw(st.integers(1, n))
    locs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n,
                              max_size=n, unique=True))
    mults = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    code = GrsCode(f, n, k, tuple(locs), tuple(mults))
    for _ in range(3):
        msg = data.draw(st.lists(st.integers(0, f.q - 1), min_size=k,
                                 max_size=k))
        word = code.encode(msg)
        for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
            word[j] = f.add(word[j], data.draw(st.integers(1, f.q - 1)))
        for j in data.draw(st.sets(st.integers(0, n - 1))):
            word[j] = None
        erased = data.draw(st.sets(st.integers(0, n - 1)))
        got = erasure_outcome(GrsCode.erasure_decode, code, word, erased)
        assert got == erasure_outcome(erasure_decode_by_solve, code, word,
                                      erased)


# one field per kernel kind and symbol width: mod p with 1- and 2-byte
# symbols, GF(2^s) tables with 1- and 2-byte symbols, and the scalar methods
AT_FIELDS = [GF5, Field(251), Field(331), GF16, Field(2, 8), Field(2, 16),
             Field(3, 2)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(AT_FIELDS), st.data())
def test_erasure_decode_reads_the_codeword_at_any_positions(f, data):
    # at= appends the decoded codeword's symbols at any positions, erased,
    # surviving or repeated, to the message the call gives without it, and
    # raises the same error at the same first position.  The plain call
    # comes first on the same code and pattern, so a reader kept without
    # the positions asked for would give the second call the wrong map.
    n = data.draw(st.integers(1, min(f.q, 10)))
    k = data.draw(st.integers(1, n))
    locs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n,
                              max_size=n, unique=True))
    mults = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    code = GrsCode(f, n, k, tuple(locs), tuple(mults))
    for _ in range(2):
        msg = data.draw(st.lists(st.integers(0, f.q - 1), min_size=k,
                                 max_size=k))
        word = code.encode(msg)
        for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
            word[j] = f.add(word[j], data.draw(st.integers(1, f.q - 1)))
        for j in data.draw(st.sets(st.integers(0, n - 1))):
            word[j] = None
        erased = data.draw(st.sets(st.integers(0, n - 1)))
        at = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        plain = erasure_outcome(GrsCode.erasure_decode, code, word, erased)

        def with_at(code, word, erased):
            return code.erasure_decode(word, erased, at=at)
        got = erasure_outcome(with_at, code, word, erased)
        if isinstance(plain, tuple):
            assert got == plain
        else:
            assert got[:k] == plain
            clean = code.encode(plain)
            assert got[k:] == [clean[j] for j in at]


def count_reader_builds(monkeypatch):
    # each reader a code builds is one rref of its kept systematic form,
    # the only rref ``grs`` calls itself
    calls = [0]
    rref = grs.rref

    def counted(*args):
        calls[0] += 1
        return rref(*args)
    monkeypatch.setattr(grs, "rref", counted)
    return calls


def test_erasure_decode_builds_one_reader_per_call(monkeypatch):
    # each call builds the reader of its surviving positions once, however
    # often its pattern recurs, and a call that raises before it reads the
    # word builds none; the errors are raised as before
    calls = count_reader_builds(monkeypatch)
    code = GrsCode(GF16, 10, 3, tuple(range(1, 11)))
    rng = random.Random(5)
    for i in range(6):
        msg = [rng.randrange(16) for _ in range(3)]
        word = code.encode(msg)
        assert code.erasure_decode(word, erased={0, 4}) == msg
        word[0] = None
        assert code.erasure_decode(word, erased={4}) == msg
        assert calls[0] == 2 * (i + 1)
    word = code.encode([1, 2, 3])
    word[9] ^= 1
    with pytest.raises(InconsistentWord, match="position 9"):
        code.erasure_decode(word, erased={0, 4})
    assert calls[0] == 13
    with pytest.raises(TooManyErasures):
        code.erasure_decode(word, erased=set(range(8)))
    with pytest.raises(LengthMismatch):
        code.erasure_decode(word, erased={10})
    with pytest.raises(LengthMismatch):
        code.erasure_decode(word, at=(10,))
    assert calls[0] == 13
    assert code.erasure_decode(code.encode([1, 2, 3])) == [1, 2, 3]
    assert calls[0] == 14


# one field per kernel kind, with 1- and 2-byte symbols on the scalar one
READER_FIELDS = [Field(13), Field(2, 8), GF16, Field(3, 2), Field(2, 10)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(READER_FIELDS), st.data())
def test_reader_matches_the_inverse_of_its_base_block(f, data):
    # a reader reduces its code's kept systematic form; its map is the
    # oracle's, the inverse of the generator block at its k base positions
    # followed by the generator columns of the further positions, for any
    # k distinct base positions in any order and further positions that
    # repeat base positions or each other, on codes with locator 0 and
    # non-unit multipliers
    n = data.draw(st.integers(1, min(f.q, 12)))
    k = data.draw(st.integers(1, n))
    locs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n,
                              max_size=n, unique=True))
    if 0 not in locs and data.draw(st.booleans()):
        locs[data.draw(st.integers(0, n - 1))] = 0
    mults = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    code = GrsCode(f, n, k, tuple(locs), tuple(mults))
    base = data.draw(st.permutations(range(n)))[:k]
    further = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    if data.draw(st.booleans()):
        further.insert(data.draw(st.integers(0, len(further))),
                       data.draw(st.sampled_from(base)))
    positions = tuple(base + further)
    read = grs._reader(code, positions)
    rows = reader_rows(code, positions)
    # the unit inputs read the map's rows, and random ones their sums
    for r in range(k):
        assert read([int(i == r) for i in range(k)]) == rows[r]
    for _ in range(3):
        x = data.draw(st.lists(st.integers(0, f.q - 1), min_size=k,
                               max_size=k))
        assert read(x) == vec_mat(f, x, rows)


def gf256_code():
    """The star code's shape of the byzantine-fixed benchmark."""
    f = Field(2, 8)
    locs = tuple(range(1, 17))
    return GrsCode(f, 16, 3, locs, tuple(f.pow(a, -3) for a in locs))


def test_equal_codes_hash_alike_and_keep_their_own_state(monkeypatch):
    # equal codes built apart hash alike, by the dataclass's hash of their
    # fields, and each keeps its own BMD state: a decode of one leaves the
    # other cold
    builds = count_reader_builds(monkeypatch)
    code = gf256_code()
    f = code.field
    twin = GrsCode(Field(2, 8), 16, 3, list(code.locators),
                   list(code.multipliers))
    assert twin == code and twin is not code
    assert hash(twin) == hash(code) == hash(
        (f, code.n, code.k, code.locators, code.multipliers))
    msg = [7, 0, 201]
    word = code.encode(msg)
    word[4] ^= 9
    assert code.bmd_decode(word) == (msg, frozenset({4}))
    assert "_kept" in vars(code) and "_kept" not in vars(twin)
    assert twin.bmd_decode(word) == (msg, frozenset({4}))
    assert twin._kept is not code._kept
    assert twin._kept[:2] == code._kept[:2]
    # both read through their map of all n positions, which needs no build
    assert builds[0] == 0
    # each erasure decode builds its own reader, and they read alike
    for c in (code, twin):
        assert c.erasure_decode(word, erased={4}, at=(4,)) == \
            msg + [word[4] ^ 9]
    assert builds[0] == 2
    # a code that differs in one field hashes apart from the others
    other = GrsCode(f, 16, 4, code.locators, code.multipliers)
    assert other != code
    assert hash(other) == hash(
        (f, other.n, other.k, other.locators, other.multipliers))


def test_code_hash_survives_a_pickle_round_trip(monkeypatch):
    # a worker process gets its scheme's codes by pickle, before any
    # decode: the copy hashes as the code does, here and in a process with
    # another string-hash seed, and decodes with state of its own
    builds = count_reader_builds(monkeypatch)
    code = gf256_code()
    data = pickle.dumps(code)
    copy = pickle.loads(data)
    assert copy == code and hash(copy) == hash(code)
    script = ("import pickle, sys\n"
              "from pirstream.fields import Field\n"
              "from pirstream.grs import GrsCode\n"
              "code = pickle.loads(sys.stdin.buffer.read())\n"
              "fresh = GrsCode(Field(2, 8), 16, 3, code.locators,"
              " code.multipliers)\n"
              "print(hash(code) == hash(fresh), code == fresh)\n")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], input=data,
                         capture_output=True, env=env, check=True).stdout
    assert out.split() == [b"True", b"True"]
    msg = [1, 2, 3]
    word = code.encode(msg)
    word[11] ^= 1
    assert code.bmd_decode(word) == (msg, frozenset({11}))
    assert copy.bmd_decode(word) == (msg, frozenset({11}))
    assert copy._kept is not code._kept
    assert builds[0] == 0


def test_bmd_state_lives_on_the_code_and_never_changes_its_hash():
    # what bmd_decode keeps for a code, the errors of its last full decode
    # and the reader it reads through first, lives on the code itself
    # (``GrsCode._kept``): decodes change neither its hash nor its
    # equality, and an equal code built afresh starts with no errors
    code = gf256_code()
    before = hash(code)
    keyed = {code: "found"}
    rng = random.Random(8)
    for bad in ({0, 5}, {14}, {2, 3}, ()):
        msg = [rng.randrange(256) for _ in range(3)]
        word = code.encode(msg)
        for j in bad:
            word[j] ^= 0x21
        assert code.bmd_decode(word) == (msg, frozenset(bad))
        assert hash(code) == before
        assert keyed[code] == "found"
        assert code == gf256_code()
    assert vars(code)["_kept"][0] == {2, 3}
    assert gf256_code()._kept[:2] == [None, None]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_erasure_decode_reports_errors_in_order(warm):
    # None entries, ``erased`` and ``at`` combine into the erasures and
    # positions of one erasure_decode call; after decodes on the same
    # code or none, the first of LengthMismatch for the word,
    # LengthMismatch for erased, TooManyErasures, LengthMismatch for at,
    # SymbolOutsideField and InconsistentWord that applies is the one
    # raised
    code = GrsCode(GF16, 10, 3, tuple(range(1, 11)))    # 7 erasures at most
    msg = [5, 0, 11]
    word = code.encode(msg)
    if warm:
        # every (erased, at) below, read without error
        for erased in ((1, 2, 3), (1, 2, 3, 4, 5)):
            assert code.erasure_decode(word, erased=erased, at=(0,)) == \
                msg + [word[0]]
    bad = list(word)
    bad[9] = 16                        # outside GF(16), at a surviving position
    bad[8] ^= 1                        # and a position that disagrees
    too_many = [None if 4 <= j <= 8 else w for j, w in enumerate(bad)]
    within = [None if j in (4, 5) else w for j, w in enumerate(bad)]
    for _ in range(2):
        with pytest.raises(LengthMismatch, match="word length 9"):
            code.erasure_decode(too_many[:9], erased={50}, at=(10,))
        # an erased position outside the word comes before the count
        with pytest.raises(LengthMismatch, match=r"positions \(50,\)"):
            code.erasure_decode(too_many, erased={50}, at=(10,))
        # 5 None entries and 3 erased positions: 8 erasures, although the
        # 3 erased alone are within the budget
        with pytest.raises(TooManyErasures, match="8 erasures"):
            code.erasure_decode(too_many, erased=(1, 2, 3), at=(10,))
        with pytest.raises(LengthMismatch, match="positions"):
            code.erasure_decode(within, erased=[3, 1, 2], at=(10,))
        with pytest.raises(SymbolOutsideField, match="position 9 holds 16,"):
            code.erasure_decode(within, erased={1, 2, 3}, at=(0,))
        within[9] = word[9]
        with pytest.raises(InconsistentWord, match="position 8"):
            code.erasure_decode(within, erased=(1, 2, 3), at=(0,))
        within[8] = word[8]
        assert code.erasure_decode(within, erased=(3, 2, 1), at=(0,)) == \
            msg + [word[0]]
        within[8], within[9] = bad[8], bad[9]
    # erased positions outside 0..n-1 raise as such positions in ``at``
    # do, where they would decode, or count as erasures of the word
    gf13 = GrsCode(Field(13), 10, 3, tuple(range(1, 11)))
    clean = gf13.encode(msg)
    for erased, at, shown in (({50}, (), (50,)), ({-1}, (), (-1,)),
                              (range(10, 18), (), tuple(range(10, 18))),
                              ((), (10,), (10,))):
        with pytest.raises(LengthMismatch) as info:
            gf13.erasure_decode(clean, erased=erased, at=at)
        assert str(info.value) == f"positions {shown} outside 0..9"
