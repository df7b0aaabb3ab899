import dataclasses
import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from pirstream.errors import (
    AuditTooLarge,
    InconsistentWord,
    InvalidParams,
    ShapeMismatch,
    SupportTooLarge,
    SupportTooSmall,
)
from pirstream.fields import Field
from pirstream.grs import GrsCode
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
from pirstream.seeds import derive_rng, derive_seed

GF5 = Field(5)
GF16 = Field(2, 4)
C6 = GrsCode(GF16, 6, 2, tuple(range(1, 7)))
C10 = GrsCode(GF16, 10, 2, tuple(range(1, 11)))
RS42 = GrsCode(GF5, 4, 2, (1, 2, 3, 4))


def worked_scheme():
    # m=3, M=1, n=6, k=2, t=1, J = servers 4..6 (0-based 3..5), second file
    return plain_scheme(C6, t=1, memory=1, m=3, desired=1, support=(3, 4, 5))


def test_storage_encode_examples():
    sysm = storage_encode((((0, 1),),), RS42)
    assert sysm.encoded[0][0] == (1, 2, 3, 4)
    zeros = storage_encode(
        tuple(tuple((0, 0) for _ in range(2)) for _ in range(2)), RS42)
    assert all(v == 0 for xi in zeros.encoded for f in xi for v in f)
    files = random_files(GF16, 3, 4, 2, derive_rng(0, "f"))
    sysm2 = storage_encode(files, C6)
    assert len(sysm2.encoded) == 4
    assert len(sysm2.encoded[0]) == 3
    assert len(sysm2.encoded[0][0]) == 6
    # re-encode check
    for xi in range(4):
        for s in range(3):
            assert sysm2.encoded[xi][s] == tuple(C6.encode(list(files[s][xi])))
    with pytest.raises(ShapeMismatch):
        storage_encode((((0, 1), (1,)),), RS42)


def test_boundary_stripes_are_zero():
    sysm = storage_encode((((0, 1),),), RS42)
    for xi in (-1, 0, 2, 3):
        assert sysm.stored_symbol(xi, 0, 0) == 0


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


def test_server_respond_m0_single_shot():
    sch = plain_scheme(RS42, t=1, memory=0, m=2, desired=0, support=(0, 1))
    files = random_files(GF5, 2, 1, 2, derive_rng(1, "f"))
    sysm = storage_encode(files, RS42)
    qs = make_queries(sch, 3)
    for j in range(4):
        got = server_respond(sysm, sch, qs.queries[0][j], 1, j)
        expect = 0
        for s in range(2):
            expect = GF5.add(expect, GF5.mul(qs.d_rows[0][s][j],
                                             sysm.stored_symbol(1, s, j)))
        expect = GF5.add(expect, GF5.mul(sch.e_offsets[0][0][j],
                                         sysm.stored_symbol(1, 0, j)))
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
                stacked.append(sysm.stored_symbol(xi - z, s, j))
        expect = 0
        for a, b in zip(q, stacked):
            expect = GF16.add(expect, GF16.mul(a, b))
        assert server_respond(sysm, sch, q, xi, j) == expect


def test_run_protocol_lengths_and_determinism():
    sch = worked_scheme()
    files = random_files(GF16, 3, 4, 2, derive_rng(3, "f"))
    sysm = storage_encode(files, C6)
    st1 = run_protocol(sysm, sch, seed=5)
    st2 = run_protocol(sysm, sch, seed=5)
    assert st1 == st2
    assert len(st1.blocks) == 5
    assert st1.downloaded == 30
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
                y = sysm.stored_symbol(xi - z, 1, j)
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
    assert rep.identical and rep.enumerated == 25
    assert set(rep.distributions[0].values()) == {1}   # uniform marginal
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
    a, b, view, ca, cb = rep.witness
    assert (a, b) == (0, 1) and ca != cb
    honest = plain_scheme(C10, t=2, memory=0, m=2, desired=0, support=(5, 6))
    assert privacy_audit(honest, (4, 5)).identical


def test_privacy_audit_guards():
    sch = worked_scheme()
    with pytest.raises(AuditTooLarge):
        privacy_audit(sch, (0,))   # 16^6 draws
    sch0 = plain_scheme(RS42, t=1, memory=0, m=2, desired=0, support=(0, 1))
    with pytest.raises(InvalidParams):
        privacy_audit(sch0, (0, 1))   # |T| > t


def _enumerate_audit(scheme, colluding, limit=1 << 20):
    """The audit by joint enumeration: every masking draw of every query
    row at once, (q^dim)^rows of them.  Returns the five report values
    (identical, enumerated, colluding, witness, distributions)."""
    colluding = tuple(sorted(set(colluding)))
    f = scheme.field
    dim = scheme.retrieval_code.k
    codewords = f.q ** dim
    total_rows = scheme.rounds * scheme.query_rows
    combos = codewords ** total_rows
    if combos > limit:
        raise AuditTooLarge(f"{combos} masking draws exceed the limit {limit}")
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

    witness = None
    base = distributions[0]
    for i in range(1, scheme.m):
        other = distributions[i]
        for view in sorted(set(base) | set(other)):
            ca, cb = base.get(view, 0), other.get(view, 0)
            if ca != cb:
                witness = (0, i, view, ca, cb)
                break
        if witness:
            break
    return witness is None, combos, colluding, witness, tuple(distributions)


GF4 = Field(2, 2)
GF7 = Field(7)
# two sub-rounds: |J| = 3 > d*-1 = 2 splits the support into (0, 1) and (2,);
# one file keeps it at 4^4 joint draws (two files would take 4^8)
BLOCK_TWO_ROUNDS = block_scheme(GrsCode(GF4, 3, 1, (1, 2, 3)), t=1, eps=1,
                                window=2, m=1, desired=0, support=(0, 1, 2))

# an under-dimensioned masking code whose first differing row law (z=1)
# follows two rows whose laws agree (z=0), so the witness walk must descend
# through prefixes with equal counts
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
            identical, enumerated, coll, witness, dists = \
                _enumerate_audit(scheme, colluding)
            assert (rep.identical, rep.enumerated, rep.colluding,
                    rep.witness) == (identical, enumerated, coll, witness)
            assert [list(d.items()) for d in rep.distributions] == \
                [list(d.items()) for d in dists]
    # both refuse one joint draw past the limit
    for audit in (privacy_audit, _enumerate_audit):
        with pytest.raises(AuditTooLarge):
            audit(scheme, (), limit=rep.enumerated - 1)


def test_privacy_audit_adds_per_row_not_per_joint_draw(monkeypatch):
    # the privacy-audit benchmark shape: GF(13), n=5, k=2, t=2, m=2, M=0
    gf13 = Field(13)
    sch = plain_scheme(GrsCode(gf13, 5, 2, (1, 2, 3, 4, 5)), t=2, memory=0,
                       m=2, desired=0, support=(3, 4))
    calls = [0]
    add = Field.add

    def counting_add(self, a, b):
        calls[0] += 1
        return add(self, a, b)

    monkeypatch.setattr(Field, "add", counting_add)
    rep = privacy_audit(sch, (0, 1))
    assert rep.identical and rep.enumerated == 13 ** 4
    # 169 encodes of 10 adds for the restricted codewords, then
    # m * rows * q^t * |T| = 2 * 2 * 169 * 2 adds for the row laws; the
    # joint enumeration made 230,178
    assert calls[0] <= 1690 + 1352


def test_derive_seed_stable():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a") != derive_seed(2, "a")
