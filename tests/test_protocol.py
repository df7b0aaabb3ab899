import dataclasses
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from pirstream import linalg, protocol
from pirstream.config import build_scheme, load_config
from pirstream.errors import (
    InconsistentWord,
    InvalidParams,
    ShapeMismatch,
    SupportTooLarge,
    SupportTooSmall,
    SymbolOutsideField,
)
from pirstream.fields import Field
from pirstream.grs import GrsCode
from pirstream.linalg import mat_rank
from pirstream.protocol import (
    block_scheme,
    byzantine_scheme,
    make_queries,
    plain_scheme,
    privacy_audit,
    random_files,
    run_protocol,
    server_respond,
    storage_encode,
)
from pirstream.rates import rate_report
from pirstream.seeds import derive_rng, derive_seed

from oracles import poly_eval, stored_symbol

GF4 = Field(2, 2)
GF5 = Field(5)
GF16 = Field(2, 4)
C6 = GrsCode(GF16, 6, 2, tuple(range(1, 7)))
C10 = GrsCode(GF16, 10, 2, tuple(range(1, 11)))
RS42 = GrsCode(GF5, 4, 2, (1, 2, 3, 4))


def worked_scheme():
    # m=3, M=1, n=6, k=2, t=1, J = servers 4..6 (0-based 3..5), second file
    return plain_scheme(C6, t=1, memory=1, m=3, desired=1, support=(3, 4, 5))


def test_storage_encode_examples():
    assert "server_columns" in {f.name for f in dataclasses.fields(
        protocol.StorageSystem)}
    sysm = storage_encode((((0, 1),),), RS42)
    assert sysm.server_columns == ((1,), (2,), (3,), (4,))
    zeros = storage_encode(
        tuple(tuple((0, 0) for _ in range(2)) for _ in range(2)), RS42)
    assert zeros.server_columns == ((0,) * 4,) * 4
    with pytest.raises(ShapeMismatch):
        storage_encode((((0, 1), (1,)),), RS42)


def test_boundary_stripes_are_zero():
    sysm = storage_encode((((0, 1),),), RS42)
    for xi in (-1, 0, 2, 3):
        assert stored_symbol(sysm, xi, 0, 0) == 0


def test_offset_matrix_rows():
    sch = worked_scheme()
    e = sch.e_offsets[0]
    assert e[0] == (0, 0, 0, 1, 1, 1)
    assert e[1] == tuple(
        GF16.pow(a, 2) if j >= 3 else 0 for j, a in enumerate(C6.locators))
    # offsets occupy query rows z*m + desired = 1 and 4
    qs = make_queries(sch, seed=42)
    for j in range(6):
        col = qs.queries[0][j]
        for row in range(6):
            off = e[0][j] if row == 1 else e[1][j] if row == 4 else 0
            assert col[row] == GF16.add(qs.d_rows[0][row][j], off)


def test_queries_reproducible_and_t1_constant():
    sch = worked_scheme()
    assert make_queries(sch, 7) == make_queries(sch, 7)
    assert make_queries(sch, 7) != make_queries(sch, 8)
    for row in make_queries(sch, 7).d_rows[0]:
        assert len(set(row)) == 1   # RS(n,1) is the repetition code


ROOT = Path(__file__).resolve().parent.parent

# every shape of offsets the query build sees: one sub-round with M = 3
# (burst-window, plain-stream), two sub-rounds with M = 3, and two
# full-support offset rows with M = 1 (byzantine-fixed)
QUERY_MODEL_CONFIGS = ("perfbench/configs/burst-window.ini",
                       "perfbench/configs/plain-stream.ini",
                       "perfbench/configs/byzantine-fixed.ini",
                       "tests/configs/block-two-rounds.ini")


def scheme_at(path):
    """The scheme of the config at ``path``, relative to the repository."""
    return build_scheme(load_config(str(ROOT / path)))[2]


def config_scheme(name):
    return scheme_at(f"perfbench/configs/{name}.ini")


def query_model_errors(qs):
    """Where a QuerySet leaves the model the privacy audit assumes: each
    masking row is a codeword of the retrieval code, and each query column
    minus its masking column is exactly the desired-row offsets."""
    sch = qs.scheme
    f = sch.field
    errors = []
    if ([len(rows) for rows in qs.d_rows] != [sch.query_rows] * sch.rounds
            or [len(cols) for cols in qs.queries] != [sch.n] * sch.rounds):
        errors.append("rows or columns are missing")
    for r, (rows, cols) in enumerate(zip(qs.d_rows, qs.queries)):
        for row, word in enumerate(rows):
            if not in_code(sch.retrieval_code, word):
                errors.append(f"sub-round {r} masking row {row} is no codeword")
        offsets = {z * sch.m + sch.desired: sch.e_offsets[r][z]
                   for z in range(sch.memory + 1)}
        for j, col in enumerate(cols):
            for row, word in enumerate(rows):
                want = offsets[row][j] if row in offsets else 0
                if f.sub(col[row], word[j]) != want:
                    errors.append(f"sub-round {r} server {j} row {row} "
                                  "has the wrong offset")
    return errors


@pytest.mark.parametrize("path", QUERY_MODEL_CONFIGS,
                         ids=lambda path: Path(path).stem)
def test_queries_follow_the_audited_model(path):
    sch = scheme_at(path)
    for seed in (1, 2, 3):
        assert query_model_errors(make_queries(sch, seed)) == []


@pytest.mark.parametrize("path", QUERY_MODEL_CONFIGS,
                         ids=lambda path: Path(path).stem)
def test_query_model_check_catches_an_offset_on_the_wrong_row(path):
    sch = scheme_at(path)
    qs = make_queries(sch, 1)
    f = sch.field
    for r, z in itertools.product(range(sch.rounds), range(sch.memory + 1)):
        right = z * sch.m + sch.desired
        wrong = z * sch.m + (sch.desired + 1) % sch.m
        j = next(j for j in sch.sub_supports[r] if sch.e_offsets[r][z][j])
        offset = sch.e_offsets[r][z][j]
        col = list(qs.queries[r][j])
        col[right] = f.sub(col[right], offset)
        col[wrong] = f.add(col[wrong], offset)
        cols = qs.queries[r][:j] + (tuple(col),) + qs.queries[r][j + 1:]
        moved = dataclasses.replace(
            qs, queries=qs.queries[:r] + (cols,) + qs.queries[r + 1:])
        assert query_model_errors(moved) == [
            f"sub-round {r} server {j} row {row} has the wrong offset"
            for row in sorted((right, wrong))]


@pytest.mark.parametrize("name", ["burst-window", "plain-stream"])
def test_query_rows_draw_their_masking_independently(name):
    # one QuerySet cannot show independence, but a draw that reused one
    # masking codeword for every row would never show two different rows
    sch = config_scheme(name)
    assert any(len(set(rows)) > 1 for seed in range(1, 6)
               for rows in make_queries(sch, seed).d_rows)


def test_byzantine_offsets_example3():
    sch = byzantine_scheme(C10, t=2, m=2, desired=0)
    e1, e2 = sch.e_offsets[0]
    assert e1 == tuple(GF16.pow(a, -2) for a in C10.locators)
    assert e2 == tuple(GF16.pow(a, 3) for a in C10.locators)


def test_scheme_validation():
    with pytest.raises(SupportTooSmall):
        plain_scheme(C6, 1, 1, 3, 0, (3,))
    with pytest.raises(SupportTooLarge):
        plain_scheme(C6, 1, 1, 3, 0, (0, 1, 2, 3, 4))
    with pytest.raises(SupportTooSmall):
        block_scheme(C6, 1, 1, 3, 3, 0, (4, 5))
    with pytest.raises(InvalidParams):
        byzantine_scheme(GrsCode(GF16, 7, 2, tuple(range(1, 8))), 2, 2, 0)
    with pytest.raises(InvalidParams):
        byzantine_scheme(GrsCode(GF16, 10, 2, tuple(range(0, 10))), 2, 2, 0)
    with pytest.raises(InvalidParams):
        plain_scheme(C6, 1, 1, 3, 5, (3, 4, 5))


SPLIT_FIELDS = (GF16, Field(2, 8), Field(13), Field(3, 3))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_byzantine_components_split_uniquely(data):
    # on every code byzantine_scheme accepts, the three desired-file
    # components split uniquely: the stacked generators of the star code,
    # e1*C and e2*C have rank 3k+t-1; and it refuses every other code
    f = data.draw(st.sampled_from(SPLIT_FIELDS), label="field")
    k = data.draw(st.integers(1, 3), label="k")
    t = data.draw(st.integers(1, 3), label="t")
    assume(3 * k + t <= f.q - 1)
    n = data.draw(st.integers(3 * k + t, min(f.q - 1, 3 * k + t + 4)),
                  label="n")
    locators = tuple(data.draw(st.permutations(range(1, f.q)),
                               label="locators")[:n])
    code = GrsCode(f, n, k, locators)
    sch = byzantine_scheme(code, t, m=2, desired=0)
    e1 = tuple(f.pow(a, -k) for a in locators)
    e2 = tuple(f.pow(a, k + t - 1) for a in locators)
    assert sch.e_offsets == ((e1, e2),)
    rows = sch.star_code().generator_matrix()
    for e in (e1, e2):
        rows += [[f.mul(g, x) for g, x in zip(row, e)]
                 for row in code.generator_matrix()]
    assert mat_rank(f, rows) == 3 * k + t - 1

    short = GrsCode(f, 3 * k + t - 1, k, locators[:3 * k + t - 1])
    with pytest.raises(InvalidParams, match="need n > 3k"):
        byzantine_scheme(short, t, 2, 0)
    with pytest.raises(InvalidParams, match="locator 0"):
        byzantine_scheme(GrsCode(f, n, k, (0,) + locators[1:]), t, 2, 0)
    scaled = (1,) * (n - 1) + (data.draw(st.integers(2, f.q - 1)),)
    with pytest.raises(InvalidParams, match="multipliers"):
        byzantine_scheme(GrsCode(f, n, k, locators, scaled), t, 2, 0)


def test_building_a_byzantine_scheme_eliminates_nothing(monkeypatch):
    echelons = []
    echelon = linalg._echelon

    def counted(field, rows):
        echelons.append(len(rows))
        return echelon(field, rows)
    monkeypatch.setattr(linalg, "_echelon", counted)
    byzantine_scheme(C10, t=2, m=2, desired=0)
    byzantine_scheme(GrsCode(Field(13), 12, 3, tuple(range(1, 13))), 2, 3, 1)
    assert echelons == []


def test_server_respond_m0_single_shot():
    sch = plain_scheme(RS42, t=1, memory=0, m=2, desired=0, support=(0, 1))
    files = random_files(GF5, 2, 1, 2, derive_rng(1, "f"))
    sysm = storage_encode(files, RS42)
    qs = make_queries(sch, 3)
    for j in range(4):
        got = server_respond(sysm, sch, qs.queries[0][j], j)[0]
        expect = 0
        for s in range(2):
            expect = GF5.add(expect, GF5.mul(qs.d_rows[0][s][j],
                                             stored_symbol(sysm, 1, s, j)))
        expect = GF5.add(expect, GF5.mul(sch.e_offsets[0][0][j],
                                         stored_symbol(sysm, 1, 0, j)))
        assert got == expect


def test_server_respond_naive_oracle():
    # independent brute-force dot product over the stacked stripes
    sch = worked_scheme()
    files = random_files(GF16, 3, 4, 2, derive_rng(2, "f"))
    sysm = storage_encode(files, C6)
    qs = make_queries(sch, 9)
    rng = random.Random(0)
    for _ in range(20):
        xi = rng.randrange(1, 6)
        j = rng.randrange(6)
        q = qs.queries[0][j]
        stacked = []
        for z in range(2):
            for s in range(3):
                stacked.append(stored_symbol(sysm, xi - z, s, j))
        expect = 0
        for a, b in zip(q, stacked):
            expect = GF16.add(expect, GF16.mul(a, b))
        assert server_respond(sysm, sch, q, j)[xi - 1] == expect


@pytest.mark.parametrize("f", [Field(251), Field(2, 8), GF16, Field(3, 2)],
                         ids=str)
def test_server_respond_reads_its_query_by_the_symbol_rule(f):
    # over GF(p) an unreduced entry is its residue; over any other field it
    # is no symbol, and would read as another one or fail untyped
    code = GrsCode(f, 8, 2, tuple(range(1, 9)))
    sch = plain_scheme(code, t=1, memory=1, m=2, desired=0, support=range(6))
    sysm = storage_encode(random_files(f, 2, 3, 2, derive_rng(0, "f")), code)
    query = make_queries(sch, 1).queries[0][0]
    if f.s == 1:
        want = server_respond(sysm, sch, query, 0)
        for shift in (f.q * 10 ** 6, -f.q):
            shifted = [x + shift for x in query]
            assert server_respond(sysm, sch, shifted, 0) == want
        return
    for bad in (-1, f.q, 300):
        with pytest.raises(SymbolOutsideField, match=f"position 2 holds {bad},"):
            server_respond(sysm, sch, query[:2] + (bad,) + query[3:], 0)


@pytest.mark.parametrize("f, bad", [(GF16, 16), (Field(3, 2), 9),
                                    (Field(2, 8), -1), (Field(2, 8), 256),
                                    (Field(251), -1), (Field(251), 10 ** 20)],
                         ids=str)
def test_storage_encode_reads_its_files_by_the_symbol_rule(f, bad):
    # over GF(p) an unreduced symbol is stored as its residue; over any
    # other field it is no symbol, and would be stored as another one's
    # column or fail untyped
    code = GrsCode(f, 8, 3, tuple(range(1, 9)))
    files = [list(map(list, stripes))
             for stripes in random_files(f, 2, 3, 3, derive_rng(0, "f"))]
    if f.s == 1:
        want = storage_encode(files, code).server_columns
        files[1][2][1] += bad - bad % f.q    # a multiple of p
        assert storage_encode(files, code).server_columns == want
        return
    files[1][2][1] = bad
    with pytest.raises(SymbolOutsideField,
                       match=rf"position \(1, 2, 1\) holds {bad},"):
        storage_encode(files, code)


# One field per kernel path of the stacked map: GF(13) on packed lanes,
# GF(2^8) and GF(2^4) (padded) on translate rows, GF(9) and GF(2^10) on the
# scalar kernel
COLUMN_FIELDS = (Field(13), Field(2, 8), GF16, Field(3, 2), Field(2, 10))


def column_case(f, m, ell):
    """A code with a locator 0 and non-unit multipliers, and m files of
    ell stripes, drawn from ``f``."""
    n, k = 8, 3
    mults = tuple(1 + (5 * j + 1) % (f.q - 1) for j in range(n))
    assert any(v != 1 for v in mults)
    code = GrsCode(f, n, k, (0,) + tuple(range(2, n + 1)), mults)
    files = [list(map(list, stripes))
             for stripes in random_files(f, m, ell, k, derive_rng(m, "f"))]
    return code, files


@pytest.mark.parametrize("m, ell", [(1, 1), (3, 4)])
@pytest.mark.parametrize("f", COLUMN_FIELDS, ids=str)
def test_storage_columns_are_the_per_stripe_codewords(f, m, ell):
    # server column j is symbol j of each stripe's codeword, stripe 1 first
    # and files in order within a stripe; over GF(p) an unreduced symbol
    # is stored as its residue
    code, files = column_case(f, m, ell)
    residues = [[list(stripe) for stripe in stripes] for stripes in files]
    if f.s == 1:
        files[0][0] = [-1, 13, 300]
        residues[0][0] = [x % f.q for x in files[0][0]]
    codewords = [code.encode(residues[s][xi])
                 for xi in range(ell) for s in range(m)]
    columns = storage_encode(files, code).server_columns
    assert columns == tuple(zip(*codewords))
    # the same symbols by Horner's rule, one scalar Field method at a time
    for j, (a, v) in enumerate(zip(code.locators, code.multipliers)):
        assert columns[j] == tuple(f.mul(v, poly_eval(f, residues[s][xi], a))
                                   for xi in range(ell) for s in range(m))


@pytest.mark.parametrize("f", COLUMN_FIELDS, ids=str)
def test_storage_encode_is_one_map_and_no_codeword_encode(f, monkeypatch):
    code, files = column_case(f, 3, 4)
    kernel = type(f.kernel)
    linear_map, maps = kernel.linear_map, []

    def counted(self, matrix):
        maps.append(len(matrix))
        return linear_map(self, matrix)

    def refuse(self, message):
        raise AssertionError("storage_encode called GrsCode.encode")
    monkeypatch.setattr(kernel, "linear_map", counted)
    monkeypatch.setattr(GrsCode, "encode", refuse)
    storage_encode(files, code)
    assert maps == [code.k]


# One field per way of answering: GF(p) with 4-byte lanes (GF(2), GF(5),
# GF(251)) and 8-byte lanes (GF(65521) once (M+1)m >= 2), GF(2^89 - 1) past
# 8 bytes (one dot per iteration), translate rows for q <= 2^8 (padded for
# GF(16)), and the scalar kernel's GF(2^16) and GF(9).
RESPOND_FIELDS = (GF5, Field(251), Field(65521), Field(2 ** 89 - 1),
                  Field(2), GF16, Field(2, 8), Field(2, 16), Field(3, 2))


def respond_scheme(f, m, memory, rounds):
    """A plain scheme, or with ``rounds`` 2 a block scheme whose 8-position
    support exceeds d*-1 = 6 (q > 8 and memory >= 1 only)."""
    if rounds == 2:
        code = GrsCode(f, 8, 1, tuple(range(1, 9)))
        return block_scheme(code, t=2, eps=memory, window=memory + 2, m=m,
                            desired=0, support=range(8))
    if f.q == 2:
        code = GrsCode(f, 2, 1, (0, 1))
    else:
        code = GrsCode(f, 4, 2, (1, 2, 3, 4))
    return plain_scheme(code, t=1, memory=memory, m=m, desired=m - 1,
                        support=range(code.n - code.k, code.n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RESPOND_FIELDS), st.integers(1, 3), st.integers(0, 3),
       st.integers(1, 4), st.sampled_from([1, 2]), st.integers(0, 2 ** 32))
# m = 1 and (M+1)m = 8: 4-byte lanes would carry
@example(Field(65521), 1, 7, 3, 1, 0)
@example(Field(65521), 2, 3, 5, 1, 0)
@example(Field(251), 2, 2, 4, 2, 1)       # two sub-rounds
@example(Field(2), 2, 3, 2, 1, 2)         # ell <= M, 3-entry translate rows
@example(GF5, 1, 0, 1, 1, 3)              # m = 1, M = 0, one stripe
def test_server_respond_matches_a_dot_per_iteration(f, m, memory, ell, rounds,
                                                    seed):
    assume(rounds == 1 or (f.q > 8 and memory >= 1))
    sch = respond_scheme(f, m, memory, rounds)
    assert sch.rounds == rounds
    files = random_files(f, m, ell, sch.k, derive_rng(seed, "files"))
    sysm = storage_encode(files, sch.storage_code)
    qs = make_queries(sch, seed)
    for r in range(rounds):
        for j in range(sch.n):
            query = qs.queries[r][j]
            answers = server_respond(sysm, sch, query, j)
            assert len(answers) == ell + memory
            for xi in range(1, ell + memory + 1):
                expect = 0
                for z in range(memory + 1):
                    for s in range(m):
                        expect = f.add(expect, f.mul(
                            query[z * m + s], stored_symbol(sysm, xi - z, s, j)))
                assert answers[xi - 1] == expect, (r, j, xi)


def test_run_protocol_lengths_and_determinism():
    sch = worked_scheme()
    files = random_files(GF16, 3, 4, 2, derive_rng(3, "f"))
    sysm = storage_encode(files, C6)
    st1 = run_protocol(sysm, sch, seed=5)
    st2 = run_protocol(sysm, sch, seed=5)
    assert st1 == st2
    assert len(st1.blocks) == 5
    assert rate_report(sch, 4).downloaded == sum(
        len(part) for block in st1.blocks for part in block.parts) == 30
    schz = byzantine_scheme(C10, t=2, m=2, desired=0)
    filesz = random_files(GF16, 2, 3, 2, derive_rng(4, "f"))
    stz = run_protocol(storage_encode(filesz, C10), schz, seed=5)
    assert len(stz.blocks) == 4
    sch0 = plain_scheme(RS42, t=1, memory=0, m=2, desired=0, support=(0, 1))
    st0 = run_protocol(storage_encode(random_files(GF5, 2, 1, 2,
                                                   derive_rng(5, "f")), RS42),
                       sch0, seed=1)
    assert len(st0.blocks) == 1


def in_code(code, word) -> bool:
    """Whether ``word`` is a codeword: erasure decoding with no erasures
    cross-checks every position past the first k."""
    try:
        code.erasure_decode(list(word))
    except InconsistentWord:
        return False
    return True


def test_response_decomposition_invariant():
    # r_xi minus the desired-file offsets lies in the star-product code
    sch = worked_scheme()
    files = random_files(GF16, 3, 4, 2, derive_rng(6, "f"))
    sysm = storage_encode(files, C6)
    stream = run_protocol(sysm, sch, seed=8)
    star = sch.star_code()
    e = sch.e_offsets[0]
    for xi in range(1, 6):
        vec = list(stream.block(xi).parts[0])
        for z in range(2):
            for j in range(6):
                y = stored_symbol(sysm, xi - z, 1, j)
                vec[j] = GF16.sub(vec[j], GF16.mul(e[z][j], y))
        assert in_code(star, vec)


def test_offsets_vanish_outside_support():
    sch = worked_scheme()
    g = C6.generator_matrix()
    for z in range(2):
        for grow in g:
            prod = [GF16.mul(sch.e_offsets[0][z][j], grow[j]) for j in range(6)]
            assert all(prod[j] == 0 for j in range(6) if j not in sch.support)


def test_privacy_audit_instances():
    # q=5, n=4, t=1, m=2, M=0: 25 masking draws
    sch = plain_scheme(RS42, t=1, memory=0, m=2, desired=0, support=(0, 1))
    rep = privacy_audit(sch, (2,))
    assert rep.identical and rep.enumerated == 25 and rep.witness is None
    # q=4, n=3, t=1, m=2, M=1: 256 draws
    gf4 = Field(2, 2)
    c3 = GrsCode(gf4, 3, 1, (1, 2, 3))
    sch4 = plain_scheme(c3, t=1, memory=1, m=2, desired=0, support=(0,))
    rep4 = privacy_audit(sch4, (0,))
    assert rep4.identical and rep4.enumerated == 256
    rep4b = privacy_audit(sch4, (2,))
    assert rep4b.identical


def under_dimensioned(scheme, dim):
    """The scheme with a masking code of dimension ``dim`` below t: its
    collusion audit can fail."""
    code = scheme.storage_code
    return dataclasses.replace(
        scheme, retrieval_code=GrsCode(code.field, code.n, dim, code.locators))


def test_privacy_audit_negative_control():
    broken = under_dimensioned(
        plain_scheme(C10, t=2, memory=0, m=2, desired=0, support=(5, 6)), 1)
    rep = privacy_audit(broken, (4, 5))
    assert not rep.identical
    # e_{0,0} is 1 on the support (5, 6); the masking code on T = (4, 5) is
    # spanned by (1, 1), which misses (0, 1)
    assert rep.witness == (0, 0, (0, 1))
    honest = plain_scheme(C10, t=2, memory=0, m=2, desired=0, support=(5, 6))
    assert privacy_audit(honest, (4, 5)).identical


def test_privacy_audit_witness_takes_sub_rounds_in_order():
    # |J| = 2 > d*-1 = 1: the support splits into sub-rounds (0,) and (1,);
    # the dimension-1 masking code is (c, c) on any pair of servers
    broken = under_dimensioned(
        block_scheme(GrsCode(GF4, 3, 1, (1, 2, 3)), t=2, eps=1, window=2, m=2,
                     desired=0, support=(0, 1)), 1)
    assert broken.rounds == 2
    # both sub-rounds leave the masking code on (0, 1); the first names it
    assert privacy_audit(broken, (0, 1)).witness == (0, 0, (1, 0))
    # sub-round 0 has no offset on (1, 2)
    assert privacy_audit(broken, (1, 2)).witness == (1, 0, (1, 0))


def test_privacy_audit_guards():
    sch = worked_scheme()
    rep = privacy_audit(sch, (0,))   # 16^6 joint draws, decided by ranks
    assert rep.identical and rep.enumerated == 16 ** 6
    with pytest.raises(InvalidParams):
        privacy_audit(sch, (6,))   # no server 6
    sch0 = plain_scheme(RS42, t=1, memory=0, m=2, desired=0, support=(0, 1))
    with pytest.raises(InvalidParams):
        privacy_audit(sch0, (0, 1))   # |T| > t


def _enumerate_audit(scheme, colluding):
    """The audit by joint enumeration: every masking draw of every query
    row at once, (q^dim)^rows of them.  Returns (identical, enumerated,
    colluding, restricted): whether the joint view law is the same for
    every desired index, and the set of masking codewords restricted to
    the colluding set."""
    colluding = tuple(sorted(set(colluding)))
    f = scheme.field
    dim = scheme.retrieval_code.k
    codewords = f.q ** dim
    total_rows = scheme.rounds * scheme.query_rows
    restricted = []
    for packed in range(codewords):
        msg = []
        v = packed
        for _ in range(dim):
            msg.append(v % f.q)
            v //= f.q
        cw = scheme.retrieval_code.encode(msg)
        restricted.append(tuple(cw[j] for j in colluding))

    def offsets_for(desired):
        offs = []
        for r in range(scheme.rounds):
            for row in range(scheme.query_rows):
                z, s = divmod(row, scheme.m)
                if s == desired:
                    offs.append(tuple(scheme.e_offsets[r][z][j] for j in colluding))
                else:
                    offs.append((0,) * len(colluding))
        return offs

    distributions = []
    for i in range(scheme.m):
        offs = offsets_for(i)
        counts: dict = {}
        for draw in itertools.product(range(codewords), repeat=total_rows):
            view = tuple(
                tuple(f.add(restricted[c][pos], offs[row][pos])
                      for pos in range(len(colluding)))
                for row, c in enumerate(draw)
            )
            counts[view] = counts.get(view, 0) + 1
        distributions.append(counts)
    identical = all(d == distributions[0] for d in distributions)
    return identical, codewords ** total_rows, colluding, set(restricted)


GF7 = Field(7)
# two sub-rounds: |J| = 3 > d*-1 = 2 splits the support into (0, 1) and (2,);
# one file keeps it at 4^4 joint draws (two files would take 4^8)
BLOCK_TWO_ROUNDS = block_scheme(GrsCode(GF4, 3, 1, (1, 2, 3)), t=1, eps=1,
                                window=2, m=1, desired=0, support=(0, 1, 2))

# an under-dimensioned masking code whose offset at lag 1 leaves the
# masking code on T = (2, 3) while the lag-0 offset stays inside, so the
# witness is not the first offset tested
C4 = GrsCode(GF5, 4, 1, (1, 2, 3, 4))
BROKEN_MEMORY_ONE = under_dimensioned(
    plain_scheme(C4, t=2, memory=1, m=2, desired=0, support=(2, 3)), 1)


@st.composite
def tiny_audited_schemes(draw):
    """Plain schemes over GF(4), GF(5) or GF(7) with at most 4096 joint
    masking draws; a retrieval code of dimension below t is
    under-dimensioned, so its audits can fail."""
    f = draw(st.sampled_from((GF4, GF5, GF7)))
    memory = draw(st.integers(0, 2))
    m = draw(st.integers(2, 3))
    t = draw(st.integers(1, 2))
    dim = draw(st.integers(1, t))
    assume(f.q ** (dim * (memory + 1) * m) <= 4096)
    k = draw(st.integers(1, min(2, (f.q - t) // 2)))
    n = draw(st.integers(2 * k + t - 1, f.q - 1))
    code = GrsCode(f, n, k, tuple(range(1, n + 1)))
    size = draw(st.integers(k, n - (k + t - 1)))
    support = draw(st.permutations(range(n)))[:size]
    return under_dimensioned(
        plain_scheme(code, t, memory, m, draw(st.integers(0, m - 1)), support),
        dim)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(tiny_audited_schemes())
@example(BLOCK_TWO_ROUNDS)
@example(BROKEN_MEMORY_ONE)
def test_privacy_audit_matches_joint_enumeration(scheme):
    for size in range(scheme.t + 1):
        for colluding in itertools.combinations(range(scheme.n), size):
            rep = privacy_audit(scheme, colluding)
            identical, enumerated, coll, restricted = \
                _enumerate_audit(scheme, colluding)
            assert (rep.identical, rep.enumerated, rep.colluding) == \
                (identical, enumerated, coll)
            if rep.identical:
                assert rep.witness is None
                continue
            # the witness is the first (sub-round, lag) whose restricted
            # offset misses every restricted masking codeword
            r, z, offset = rep.witness
            assert offset == tuple(scheme.e_offsets[r][z][j] for j in coll)
            assert offset not in restricted
            earlier = [e for rr, offsets in enumerate(scheme.e_offsets)
                       for zz, e in enumerate(offsets) if (rr, zz) < (r, z)]
            assert all(tuple(e[j] for j in coll) in restricted for e in earlier)


def test_privacy_audit_adds_per_row_not_per_joint_draw(monkeypatch):
    # the privacy-audit benchmark shape: GF(13), n=5, k=2, t=2, m=2, M=0
    gf13 = Field(13)
    sch = plain_scheme(GrsCode(gf13, 5, 2, (1, 2, 3, 4, 5)), t=2, memory=0,
                       m=2, desired=0, support=(3, 4))
    calls = [0]

    def counting(method):
        def call(self, *args):
            calls[0] += 1
            return method(self, *args)
        return call

    for name in ("add", "mul"):
        monkeypatch.setattr(Field, name, counting(getattr(Field, name)))
    rep = privacy_audit(sch, (0, 1))
    assert rep.identical and rep.enumerated == 13 ** 4
    # the 2 x 5 retrieval generator (10 muls) and one small elimination
    # in the mod-p kernel; counting one row's 169 masking draws took 1690
    # adds, and the joint enumeration 230,178
    assert calls[0] < 13 ** 2


def test_privacy_audit_passes_on_full_rank_without_stacking(monkeypatch):
    # a dimension-t GRS masking code has rank |T| on any |T| <= t servers
    ranks = []

    def counted(field, rows):
        ranks.append(len(rows))
        return mat_rank(field, rows)
    monkeypatch.setattr(protocol, "mat_rank", counted)
    sch = plain_scheme(C10, t=2, memory=0, m=2, desired=0, support=(5, 6))
    for colluding in [(4, 5), (0, 9), (6,)]:
        ranks.clear()
        assert privacy_audit(sch, colluding).identical
        assert ranks == [2]   # the 2 x |T| restricted generator only
    broken = under_dimensioned(sch, 1)
    ranks.clear()
    assert not privacy_audit(broken, (4, 5)).identical
    assert ranks == [1, 2]    # rank 1 < |T| = 2: the first offset is stacked


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")
