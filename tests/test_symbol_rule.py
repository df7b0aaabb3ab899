"""The package's one symbol rule, at every exported function that takes
symbols.

Each call reads its symbols once by ``fields.check_symbols``: over GF(p)
a symbol outside [0, p) gives what its residue gives, and over any other
field it raises SymbolOutsideField, as does an entry that is no int
(``None``, a float) over every field.  A ``bool`` gives what 0 or 1
gives.  One field per kernel path: packed GF(p) lanes below and past
q = 256, translate rows at 2^8 and below 2^8, and the scalar kernel in
odd and even characteristic.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pirstream import linalg
from pirstream.decoder import decode_um, recover_plain, recover_window
from pirstream.errors import PirstreamError, SymbolOutsideField
from pirstream.fields import Field
from pirstream.grs import GrsCode
from pirstream.protocol import (
    INTACT,
    Block,
    ResponseStream,
    block_scheme,
    byzantine_scheme,
    make_queries,
    plain_scheme,
    random_files,
    run_protocol,
    server_respond,
    storage_encode,
)
from pirstream.seeds import derive_rng

FIELDS = (Field(13), Field(331), Field(2, 8), Field(2, 4), Field(3, 2),
          Field(2, 10))
N, K = 8, 3


def outcome(call):
    """The result of ``call()``, or the type of the library error it raised:
    any other error fails the test."""
    try:
        return call()
    except PirstreamError as exc:
        return type(exc)


def code_of(f):
    return GrsCode(f, N, K, tuple(range(1, N + 1)))


def symbols(data, f, size):
    return data.draw(st.lists(st.integers(0, f.q - 1), min_size=size,
                              max_size=size))


def matrix(data, f, rows, cols):
    return [symbols(data, f, cols) for _ in range(rows)]


# Each case draws valid arguments and returns (call, args, slots):
# ``call(*args)`` runs the entry point, and each slot is the path of one
# symbol inside ``args`` (nested lists), where the test puts its value.

def encode_case(data, f):
    code = code_of(f)
    return code.encode, [symbols(data, f, K)], [(0, i) for i in range(K)]


def erasure_decode_case(data, f):
    code = code_of(f)
    word = code.encode(symbols(data, f, K))
    erased = data.draw(st.sets(st.integers(0, N - 1), max_size=N - K))
    at = tuple(data.draw(st.lists(st.integers(0, N - 1), max_size=3)))
    return ((lambda w: code.erasure_decode(w, erased, at)), [word],
            [(0, j) for j in range(N) if j not in erased])


def bmd_decode_case(data, f):
    code = code_of(f)
    word = code.encode(symbols(data, f, K))
    for j in data.draw(st.sets(st.integers(0, N - 1), max_size=3)):
        word[j] = f.add(word[j], data.draw(st.integers(1, f.q - 1)))
    return code.bmd_decode, [word], [(0, j) for j in range(N)]


def storage_encode_case(data, f):
    code = code_of(f)
    files = [[symbols(data, f, K) for _ in range(2)] for _ in range(2)]
    return ((lambda files: storage_encode(files, code)), [files],
            [(0, i, s, c) for i in range(2) for s in range(2)
             for c in range(K)])


def server_respond_case(data, f):
    code = code_of(f)
    scheme = plain_scheme(code, t=1, memory=1, m=2, desired=0,
                          support=range(5))
    system = storage_encode(random_files(f, 2, 3, K, derive_rng(0, "f")),
                            code)
    query = list(make_queries(scheme, data.draw(st.integers(0, 9)))
                 .queries[0][0])
    return ((lambda q: server_respond(system, scheme, q, 0)), [query],
            [(0, j) for j in range(len(query))])


def matrix_case(entry):
    def case(data, f):
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        return ((lambda a: entry(f, a)), [matrix(data, f, rows, cols)],
                [(0, r, c) for r in range(rows) for c in range(cols)])
    return case


def solve_case(entry):
    # below the solver cap, and stacked 46 times past it
    def case(data, f):
        cols = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(cols, 6))
        a, b = matrix(data, f, rows, cols), symbols(data, f, rows)
        if data.draw(st.booleans()):
            a, b = a * 46, b * 46
        return ((lambda a, b: entry(f, a, b)), [a, b],
                [(0, r, c) for r in range(len(a)) for c in range(cols)]
                + [(1, r) for r in range(len(b))])
    return case


def stream_case(decode, build):
    """A case of a stream decoder on a clean stream of ``build(code)``'s
    scheme, with a slot at every symbol of every block."""
    def case(data, f):
        scheme = build(f)
        seed = data.draw(st.integers(0, 9))
        files = random_files(f, 2, 3, scheme.k, derive_rng(seed, "f"))
        stream = run_protocol(storage_encode(files, scheme.storage_code),
                              scheme, seed)
        blocks = [[list(word) for word in block.parts]
                  for block in stream.blocks]

        def call(blocks):
            return decode(ResponseStream(
                stream.n, stream.ell, stream.memory, stream.rounds,
                tuple(Block(INTACT, tuple(map(tuple, parts)))
                      for parts in blocks)), scheme)
        return call, [blocks], [(0, b, r, j)
                                for b, parts in enumerate(blocks)
                                for r, word in enumerate(parts)
                                for j in range(len(word))]
    return case


CASES = {
    # memory 2 on one sub-round; two sub-rounds of 5 and 3 positions; and
    # the unit-memory scheme, which needs n > 3k + t - 1
    "recover_plain": stream_case(recover_plain, lambda f: plain_scheme(
        code_of(f), t=1, memory=2, m=2, desired=0, support=range(3, 8))),
    "recover_window": stream_case(recover_window, lambda f: block_scheme(
        code_of(f), t=1, eps=1, window=3, m=2, desired=1, support=range(N))),
    "decode_um": stream_case(decode_um, lambda f: byzantine_scheme(
        GrsCode(f, N, 2, tuple(range(1, N + 1))), t=1, m=2, desired=0)),
    "GrsCode.encode": encode_case,
    "GrsCode.erasure_decode": erasure_decode_case,
    "GrsCode.bmd_decode": bmd_decode_case,
    "storage_encode": storage_encode_case,
    "server_respond": server_respond_case,
    "rref": matrix_case(linalg.rref),
    "mat_rank": matrix_case(linalg.mat_rank),
    "reduce_with_identity": matrix_case(linalg.reduce_with_identity),
    "solve_unique": solve_case(linalg.solve_unique),
    "solve_any": solve_case(linalg.solve_any),
}


def put(args, path, value):
    """A copy of the nested lists ``args`` with ``value`` at ``path``."""
    def copy(x):
        return list(map(copy, x)) if isinstance(x, list) else x
    args = copy(args)
    target = args
    for i in path[:-1]:
        target = target[i]
    target[path[-1]] = value
    return args


@pytest.mark.parametrize("f", FIELDS, ids=str)
@pytest.mark.parametrize("entry", sorted(CASES))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_entry_point_reads_symbols_by_the_rule(entry, f, data):
    call, args, slots = CASES[entry](data, f)
    path = data.draw(st.sampled_from(slots))
    # None in a word is an erasure to erasure_decode, not a symbol
    bad = data.draw(st.sampled_from(
        (-1, f.q, 300, 2 ** 70, 3.0, 0.5, True, False)
        + ((None,) if entry != "GrsCode.erasure_decode" else ())))
    got = outcome(lambda: call(*put(args, path, bad)))
    if isinstance(bad, bool):
        assert got == outcome(lambda: call(*put(args, path, int(bad))))
        return
    is_int = isinstance(bad, int)
    if is_int and 0 <= bad < f.q:
        return                  # a symbol of the field: 300 in GF(2^10)
    if is_int and f.s == 1:
        assert got == outcome(lambda: call(*put(args, path, bad % f.q)))
        return
    assert got is SymbolOutsideField
    with pytest.raises(SymbolOutsideField, match=f"holds {bad},"):
        call(*put(args, path, bad))


def _square(entry):
    return lambda f: entry(f, [[1, 2], [f.q, 1]])


@pytest.mark.parametrize("f, call", [
    pytest.param(Field(2, 8), lambda f: linalg.solve_unique(
        f, [[1], [1]], [-1, -1]), id="solve_unique-GF(2^8)--1"),
    pytest.param(Field(2, 8), lambda f: linalg.rref(f, [[1, -1], [1, 1]]),
                 id="rref-GF(2^8)--1"),
    pytest.param(Field(2, 4), lambda f: linalg.solve_any(f, [[1]], [16]),
                 id="solve_any-GF(2^4)-16"),
    pytest.param(Field(2, 8), lambda f: linalg.solve_unique(
        f, [[1], [None]], [1, 1]), id="solve_unique-GF(2^8)-None"),
] + [
    pytest.param(f, _square(entry), id=f"{name}-{f}-q")
    for f in (Field(2, 4), Field(3, 2), Field(2, 10))
    for name, entry in (
        ("rref", linalg.rref), ("mat_rank", linalg.mat_rank),
        ("reduce_with_identity", linalg.reduce_with_identity),
        ("solve_unique", lambda f, a: linalg.solve_unique(f, a, [1, 1])))
])
def test_linalg_reads_symbols_outside_a_non_prime_field_as_errors(f, call):
    # each gave a silent wrong answer ([255], a -256 entry, [0]), an
    # IndexError, or a ShapeMismatch for the None
    with pytest.raises(SymbolOutsideField):
        call(f)


@pytest.mark.parametrize("f, bad", [(Field(2, 8), 300), (Field(3, 2), 300),
                                    (Field(2, 8), None), (Field(13), None)],
                         ids=str)
def test_peeling_reads_a_support_position_by_the_rule(f, bad):
    # n=8, k=2, t=1, memory 2, support 2..7: over GF(2^8) the 300 at
    # position 5 of block 2 reached the solve as 300 minus the interference
    # ("position 3 holds 340"), over GF(9) it gave InconsistentBlock, and
    # None an untyped TypeError
    code = GrsCode(f, 8, 2, tuple(range(1, 9)))
    scheme = plain_scheme(code, t=1, memory=2, m=2, desired=0,
                          support=range(2, 8))
    files = random_files(f, 2, 3, 2, derive_rng(0, "f"))
    stream = run_protocol(storage_encode(files, code), scheme, 0)
    word = list(stream.blocks[1].parts[0])
    word[5] = bad
    blocks = list(stream.blocks)
    blocks[1] = Block(INTACT, (tuple(word),))
    stream = ResponseStream(stream.n, stream.ell, stream.memory,
                            stream.rounds, tuple(blocks))
    with pytest.raises(SymbolOutsideField, match=f"^position 5 holds {bad},"):
        recover_plain(stream, scheme)


@pytest.mark.parametrize("f", [Field(13), Field(331), Field(2, 8),
                               Field(2, 10)], ids=str)
def test_a_float_is_no_symbol_and_a_bool_is_an_int_on_every_field(f):
    # past q = 256 a float in [0, q) passed the check, and the kernel then
    # failed untyped: an AttributeError over GF(331), a TypeError over
    # GF(2^10)
    code = code_of(f)
    with pytest.raises(SymbolOutsideField, match=r"^position 0 holds 3\.0,"):
        code.encode([3.0, 1, 2])
    assert code.encode([True, False, 2]) == code.encode([1, 0, 2])
