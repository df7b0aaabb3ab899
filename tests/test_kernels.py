"""The field kernels against the scalar Field methods.

Elimination, GRS evaluation, dot products and fixed linear maps run
through ``Field.kernel``; the oracle here is the same elimination,
evaluation and sum of products written with one ``Field.mul``/``Field.sub``
or ``Field.add`` call per symbol.
"""

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pirstream.errors import (
    InconsistentSystem,
    InconsistentWord,
    PirstreamError,
    RankDeficient,
)
from pirstream.fields import Field, _lane_typecode
from pirstream.grs import GrsCode
from pirstream.linalg import _echelon, mat_rank, rref, solve_any, solve_unique

from oracles import poly_eval, scalar_dot

# One field per kernel path, both prime sizes the benchmark uses, the
# paper's field, one prime per width of the packed GF(p) lanes, which must
# hold rows * (p-1)^2: 4 bytes, 8 bytes, and none (one dot per column),
# GF(2^s) with q <= 2^8, whose kernel reads the translate rows, past 2^8
# (GF(2^10), GF(2^16)) and of odd characteristic (GF(9), GF(13^4)),
# where the scalar methods read the field's exp/log tables and, for odd
# p, its Zech table.
FIELDS = {
    "GF(2)": Field(2),
    "GF(2^4)": Field(2, 4),
    "GF(2^8)": Field(2, 8),
    "GF(2^10)": Field(2, 10),
    "GF(2^16)": Field(2, 16),
    "GF(13)": Field(13),
    "GF(251)": Field(251),
    "GF(331)": Field(331),
    "GF(65537)": Field(65537),            # (p-1)^2 = 2^32: 8-byte lanes
    "GF(4294967311)": Field(4294967311),  # (p-1)^2 > 2^64: one dot per column
    "GF(9)": Field(3, 2),
    "GF(13^4)": Field(13, 4),
}
KERNEL_OF = {
    "GF(2)": "_PrimeKernel", "GF(2^4)": "_BinaryKernel",
    "GF(2^8)": "_BinaryKernel", "GF(2^10)": "_ScalarKernel",
    "GF(2^16)": "_ScalarKernel", "GF(13)": "_PrimeKernel",
    "GF(251)": "_PrimeKernel", "GF(331)": "_PrimeKernel",
    "GF(65537)": "_PrimeKernel", "GF(4294967311)": "_PrimeKernel",
    "GF(9)": "_ScalarKernel", "GF(13^4)": "_ScalarKernel",
}


def scalar_echelon(f, rows):
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pinv = f.inv(m[rank][col])
        m[rank] = [f.mul(pinv, v) for v in m[rank]]
        for r in range(rank + 1, len(m)):
            fac = m[r][col]
            m[r] = [f.sub(x, f.mul(fac, y)) for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def scalar_rref(f, rows):
    m, pivots = scalar_echelon(f, rows)
    for i, col in enumerate(pivots):
        for r in range(i):
            fac = m[r][col]
            m[r] = [f.sub(x, f.mul(fac, y)) for x, y in zip(m[r], m[i])]
    return m, pivots


def scalar_solve(f, a, b):
    """(x with free variables 0, rank of A), or (None, rank) if inconsistent."""
    n = len(a[0])
    m, pivots = scalar_rref(f, [list(r) + [v] for r, v in zip(a, b)])
    if n in pivots:
        return None, len(pivots) - 1
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = m[r][-1]
    return x, len(pivots)


@st.composite
def matrices(draw, f):
    """Matrices with zero rows, zero columns and dependent rows mixed in."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for r in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        m[r] = [0] * ncols
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in m:
            row[c] = 0
    if nrows > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(nrows)))[:2]
        fac = draw(st.integers(0, f.q - 1))
        m[dst] = [f.mul(fac, v) for v in m[src]]
    return m


@pytest.mark.parametrize("name", FIELDS)
def test_each_field_picks_its_kernel(name):
    assert type(FIELDS[name].kernel).__name__ == KERNEL_OF[name]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_elimination_matches_the_scalar_oracle(name, data):
    f = FIELDS[name]
    m = data.draw(matrices(f))
    before = [list(r) for r in m]
    echelon, pivots = scalar_echelon(f, m)
    assert _echelon(f, m) == (echelon, pivots)
    assert mat_rank(f, m) == len(pivots)
    assert rref(f, m) == scalar_rref(f, m)
    assert m == before
    c = data.draw(st.integers(0, f.q - 1))
    assert f.kernel.scale(m[0], c) == [f.mul(c, v) for v in m[0]]

    x0 = data.draw(st.lists(st.integers(0, f.q - 1), min_size=len(m[0]),
                            max_size=len(m[0])))
    image = [0] * len(m)
    for r, row in enumerate(m):
        for v, xv in zip(row, x0):
            image[r] = f.add(image[r], f.mul(v, xv))
    b = data.draw(st.one_of(st.just(image), st.lists(
        st.integers(0, f.q - 1), min_size=len(m), max_size=len(m))))
    x, rank = scalar_solve(f, m, b)
    assert solve_any(f, m, b) == x
    if x is None:
        with pytest.raises(InconsistentSystem):
            solve_unique(f, m, b)
    elif rank < len(x):
        with pytest.raises(RankDeficient):
            solve_unique(f, m, b)
    else:
        assert solve_unique(f, m, b) == x


def scalar_encode(code, message):
    f = code.field
    return [f.mul(v, poly_eval(f, message, a))
            for a, v in zip(code.locators, code.multipliers)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_encode_matches_the_scalar_oracle(name, data):
    f = FIELDS[name]
    n = data.draw(st.integers(1, min(f.q, 9)))
    k = data.draw(st.integers(1, n))
    locs = data.draw(st.lists(st.integers(0, f.q - 1), min_size=n - 1,
                              max_size=n - 1, unique=True))
    if 0 not in locs and data.draw(st.booleans()):
        locs.insert(data.draw(st.integers(0, len(locs))), 0)    # locator 0
    else:
        locs.append(next(a for a in range(f.q) if a not in locs))
    mults = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n, max_size=n))
    msg = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, f.q - 1)),
                             min_size=k, max_size=k))
    code = GrsCode(f, n, k, tuple(locs), tuple(mults))
    expect = scalar_encode(code, msg)
    assert code.encode(msg) == expect
    assert code.encode(tuple(msg)) == expect


@pytest.mark.parametrize("p, k, width", [
    (251, 5, 4), (331, 75, 4),
    (65521, 1, 4), (65537, 1, 8),            # (p-1)^2 around 2^32
    (46337, 2, 4), (46349, 2, 8),            # 2 (p-1)^2 around 2^32
    (4294967291, 1, 8), (4294967311, 1, None),   # (p-1)^2 around 2^64
])
def test_lanes_hold_the_largest_sum_of_products(p, k, width):
    # position 0 has locator 1 and multiplier p-1, so every generator row
    # holds p-1 there, and the all-(p-1) message sums k (p-1)^2 in its lane
    typecode = _lane_typecode(k * (p - 1) ** 2)
    assert (None if typecode is None else array(typecode).itemsize) == width
    f = Field(p)
    n = k + 2
    code = GrsCode(f, n, k, tuple(range(1, n)) + (p - 1,),
                   (p - 1,) + tuple(range(1, n)))
    for msg in ([p - 1] * k, [0] * k, [1] + [0] * (k - 1)):
        assert code.encode(msg) == scalar_encode(code, msg)


def paper_locators():
    f = Field(331)
    sigma = f.find_element_of_order(330)
    return tuple(f.pow(sigma, i) for i in range(1, 101))


@pytest.mark.parametrize("p, n, k", [
    (251, 24, 2), (251, 24, 4), (251, 24, 5),    # burst-window's codes
    (331, 100, 75),                              # the paper's shape
])
def test_encode_at_the_benchmark_and_paper_shapes(p, n, k):
    f = Field(p)
    locs = tuple(range(1, n + 1)) if p == 251 else paper_locators()
    rng = random.Random(p * 1000 + k)
    for mults in ((1,) * n, tuple(rng.randrange(1, p) for _ in range(n))):
        code = GrsCode(f, n, k, locs, mults)
        messages = [[0] * k, [p - 1] * k] + [
            [rng.randrange(p) for _ in range(k)] for _ in range(5)]
        for msg in messages:
            assert code.encode(msg) == scalar_encode(code, msg)


@pytest.mark.parametrize("name", ["GF(13)", "GF(251)", "GF(331)", "GF(65537)",
                                  "GF(4294967311)"])
def test_encode_reduces_symbols_outside_the_field(name):
    # encode reads its message by the symbol rule, so an unreduced symbol
    # encodes as its residue, which the packed lanes and the scalar
    # methods encode alike
    f = FIELDS[name]
    p = f.p
    n = min(p, 12)
    code = GrsCode(f, n, 4, tuple(range(n)), tuple(range(1, n + 1)))
    for msg in ([-1, p, 2 * p + 5, 3], [0, -p - 3, 10 ** 30, -(10 ** 30)],
                [p - 1, -1, p, 1]):
        reduced = [c % p for c in msg]
        assert code.encode(msg) == code.encode(reduced)
        assert code.encode(reduced) == scalar_encode(code, reduced)


def result_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PirstreamError as exc:
        return type(exc)


@pytest.mark.parametrize("name", ["GF(13)", "GF(251)", "GF(331)", "GF(65537)",
                                  "GF(4294967311)"])
def test_decoders_reduce_symbols_outside_the_field(name):
    # every entry point reads its symbols by ``fields.check_symbols``, so
    # an unreduced word gives what its residues give: the message, the
    # error positions, the solution or the same error
    f = FIELDS[name]
    p = f.p
    n = min(p, 12)
    code = GrsCode(f, n, 4, tuple(range(n)), tuple(range(1, n + 1)))
    rng = random.Random(p)
    shifts = [-1, 1, 2, -(10 ** 20), 10 ** 30]

    def lift(word, positions):
        return [w + rng.choice(shifts) * p if j in positions else w
                for j, w in enumerate(word)]

    everywhere = range(n)
    for _ in range(6):
        msg = [rng.randrange(p) for _ in range(4)]
        word = code.encode(msg)
        # erasure decoding reads every surviving symbol as its residue:
        # the first k through its map, and the others in the comparison
        erased = {1, 6}
        base = [j for j in everywhere if j not in erased][:4]
        assert code.erasure_decode(lift(word, base), erased, at=(1, 9)) == \
            code.erasure_decode(word, erased, at=(1, 9))
        assert code.erasure_decode(lift(word, {9}), erased) == msg
        off = list(word)
        off[9] = (off[9] + 1) % p
        assert result_or_error(code.erasure_decode, lift(off, {9}),
                               erased) is InconsistentWord
        # within the radius (2 errors), at it (4) and past it (7)
        for bad in (2, 4, 7):
            noisy = list(word)
            for j in rng.sample(range(n), bad):
                noisy[j] = (noisy[j] + rng.randrange(1, p)) % p
            assert (result_or_error(code.bmd_decode, lift(noisy, everywhere))
                    == result_or_error(code.bmd_decode, noisy))
        # a 12 x 4 system (below the solver cap): consistent, then not
        a = [list(col) for col in zip(*code.generator_matrix())]
        assert solve_unique(f, a, lift(word, everywhere)) == msg
        off = list(word)
        off[0] = (off[0] + 1) % p
        assert (result_or_error(solve_unique, f, a, lift(off, everywhere))
                is InconsistentSystem)
        # the same system stacked to 48 x 4, past the cap, reduces [A | b]
        assert solve_unique(f, a * 4, lift(word * 4, range(48))) == msg
        assert (result_or_error(solve_unique, f, a * 4,
                                lift(off * 4, range(48)))
                is InconsistentSystem)
    # past the cap a multiple of p reads as 0 in every row; solve_any
    # always reduces [A | b]
    assert solve_unique(f, [[1]] * 46, [p] * 46) == [0]
    assert solve_unique(f, [[1]] * 46, [0] + [p] * 45) == [0]
    assert solve_any(f, [[1]], [p]) == [0]
    assert solve_any(f, [[1], [1]], [0, p]) == [0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_dot_matches_the_scalar_oracle(name, data):
    # a one-column linear map and a one-block convolution are each one dot
    # product: packed lanes, translate rows, or, past 8-byte lanes and on
    # the scalar kernel, the scalar kernel's private dot
    f = FIELDS[name]
    size = data.draw(st.integers(1, 12))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    xs = data.draw(st.lists(entry, min_size=size, max_size=size))
    ys = data.draw(st.lists(entry, min_size=size, max_size=size))
    expect = scalar_dot(f, xs, ys)
    apply = f.kernel.linear_map([[y] for y in ys])
    assert apply(xs) == [expect]
    assert apply(tuple(xs)) == [expect]
    assert f.kernel.convolve(xs, ys, size) == [expect]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_entrywise_ops_match_the_scalar_oracle(name, data):
    # the residuals of unit-memory decoding: entrywise differences, of
    # lists or tuples
    f = FIELDS[name]
    size = data.draw(st.integers(0, 12))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, f.q - 1))
    xs = data.draw(st.lists(entry, min_size=size, max_size=size))
    ys = data.draw(st.lists(entry, min_size=size, max_size=size))
    assert f.kernel.subtract(tuple(xs), ys) == list(map(f.sub, xs, ys))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_erasure_decode_round_trips(name, data):
    # locator 0 sits at position 0, which is never erased, so it is always
    # among the k base positions the Vandermonde system is solved on
    f = FIELDS[name]
    n = data.draw(st.integers(2, min(f.q, 9)))
    k = data.draw(st.integers(1, n - 1))
    locs = [0] + data.draw(st.lists(st.integers(1, f.q - 1), min_size=n - 1,
                                    max_size=n - 1, unique=True))
    mults = data.draw(st.lists(st.integers(min(2, f.q - 1), f.q - 1),
                               min_size=n, max_size=n))
    msg = data.draw(st.lists(st.integers(0, f.q - 1), min_size=k, max_size=k))
    code = GrsCode(f, n, k, tuple(locs), tuple(mults))
    word = code.encode(msg)
    erased = data.draw(st.sets(st.integers(1, n - 1), max_size=n - k))
    if data.draw(st.booleans()):
        received = [None if j in erased else v for j, v in enumerate(word)]
        assert code.erasure_decode(received) == msg
    else:
        # positions named in ``erased`` are ignored whatever they hold
        received = [f.q - 1 - v if j in erased else v for j, v in enumerate(word)]
        assert code.erasure_decode(received, erased) == msg
    surplus = [j for j in range(n) if j not in erased][k:]
    if surplus:
        j = data.draw(st.sampled_from(surplus))
        delta = data.draw(st.integers(1, f.q - 1))
        received[j] = f.add(received[j], delta)
        with pytest.raises(InconsistentWord):
            code.erasure_decode(received, erased)


def scalar_product(f, xs, matrix):
    """x * matrix with one Field call per symbol: the linear_map oracle."""
    return [scalar_dot(f, xs, column) for column in zip(*matrix)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_linear_map_matches_the_scalar_oracle(name, data):
    # zero rows and columns, one-row and one-column matrices, zero inputs,
    # and more columns than one packed table entry holds
    f = FIELDS[name]
    nrows = data.draw(st.integers(0, 10))
    ncols = data.draw(st.integers(0 if nrows else 1, 20))
    entry = st.one_of(st.just(0), st.just(1), st.just(f.q - 1),
                      st.integers(0, f.q - 1))
    matrix = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    apply = f.kernel.linear_map(matrix)
    for xs in ([0] * nrows, data.draw(st.lists(entry, min_size=nrows,
                                                max_size=nrows))):
        expect = scalar_product(f, xs, matrix)
        assert apply(xs) == expect
        assert apply(tuple(xs)) == expect
    # an input shorter than the matrix has rows reads as padded with zeros
    cut = data.draw(st.integers(0, nrows))
    assert apply(xs[:cut]) == scalar_product(f, xs[:cut], matrix)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_linear_map_reads_every_table_entry(name):
    # every symbol of the field in turn, beside random neighbours, so each
    # table entry a decoder can read is checked, small fields included;
    # shapes from empty to more columns than one packed int holds
    f = FIELDS[name]
    if f.q <= 1024:
        symbols = range(f.q)
    elif f.p == 2:
        symbols = [i * 257 for i in range(256)]     # every low and high byte
    else:
        symbols = range(0, f.q, f.q // 16)          # the scalar methods are slow
    for nrows, ncols in ((0, 0), (1, 0), (1, 1), (1, 9), (9, 1), (16, 15)):
        rng = random.Random(nrows * 100 + ncols)
        matrix = [[rng.randrange(f.q) for _ in range(ncols)]
                  for _ in range(nrows)]
        apply = f.kernel.linear_map(matrix)
        assert apply([0] * nrows) == [0] * ncols
        for x in symbols if nrows else ():
            xs = [x] + [rng.randrange(f.q) for _ in range(nrows - 1)]
            assert apply(xs) == scalar_product(f, xs, matrix)
