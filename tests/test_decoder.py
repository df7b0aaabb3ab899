import logging
import random
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import oracles
from pirstream import grs
from pirstream.channels import (
    ErasureSchedule,
    ErrorSchedule,
    apply_erasures,
    apply_errors,
    count_budget_weights,
    gen_burst_patterns,
    gen_error_schedule,
    unrank_budget_weights,
)
from pirstream.config import build_scheme, load_config
from pirstream.decoder import (
    UmDistanceProfile,
    _peeling_tables,
    check_guarantee,
    decode_um,
    recover_plain,
    recover_window,
)
from pirstream.errors import (
    DecodingFailure,
    InconsistentBlock,
    InvalidParams,
    PirstreamError,
    RankDeficient,
    UncorrectablePattern,
)
from pirstream.fields import Field, _lane_typecode
from pirstream.grs import GrsCode
from pirstream.linalg import mat_rank
from pirstream.protocol import (
    Block,
    ERASED,
    ERRORED,
    ResponseStream,
    block_scheme,
    byzantine_scheme,
    plain_scheme,
    random_files,
    run_protocol,
    storage_encode,
)
from pirstream.rates import min_gamma, rate_block, rate_conv, rate_report
from pirstream.recovering import build_A, minimal_gamma
from pirstream.seeds import derive_rng, derive_seed

GF16 = Field(2, 4)
C6 = GrsCode(GF16, 6, 2, tuple(range(1, 7)))
C10 = GrsCode(GF16, 10, 2, tuple(range(1, 11)))


def setup_plain(seed=11, ell=4):
    sch = plain_scheme(C6, t=1, memory=1, m=3, desired=1, support=(3, 4, 5))
    files = random_files(GF16, 3, ell, 2, derive_rng(seed, "files"))
    sysm = storage_encode(files, C6)
    stream = run_protocol(sysm, sch, derive_seed(seed, "run"))
    return sch, files, stream


def setup_block(seed=11, ell=4):
    sch = block_scheme(C6, t=1, eps=1, window=3, m=3, desired=1,
                       support=(3, 4, 5))
    files = random_files(GF16, 3, ell, 2, derive_rng(seed, "files"))
    sysm = storage_encode(files, C6)
    stream = run_protocol(sysm, sch, derive_seed(seed, "run"))
    return sch, files, stream


def flip_symbol(stream, b, j, delta=1):
    """The stream with symbol j of block b's first sub-round changed."""
    blocks = list(stream.blocks)
    parts = [list(p) for p in blocks[b - 1].parts]
    parts[0][j] = GF16.add(parts[0][j], delta)
    blocks[b - 1] = Block(ERRORED, tuple(tuple(p) for p in parts))
    return ResponseStream(stream.n, stream.ell, stream.memory, stream.rounds,
                          tuple(blocks))


def setup_byz(seed=9, ell=3, desired=0):
    sch = byzantine_scheme(C10, t=2, m=2, desired=desired)
    files = random_files(GF16, 2, ell, 2, derive_rng(seed, "files"))
    sysm = storage_encode(files, C10)
    stream = run_protocol(sysm, sch, derive_seed(seed, "run"))
    return sch, files, stream


# --- plain -------------------------------------------------------------------

def test_recover_plain_worked_instance():
    sch, files, stream = setup_plain()
    rec = recover_plain(stream, sch)
    assert rec.stripes == files[1]
    assert rec.provenance == ("direct",) * 4


def test_recover_plain_zero_file():
    sch = plain_scheme(C6, t=1, memory=1, m=3, desired=1, support=(3, 4, 5))
    zero_files = tuple(tuple((0, 0) for _ in range(4)) for _ in range(3))
    stream = run_protocol(storage_encode(zero_files, C6), sch, 3)
    assert recover_plain(stream, sch).stripes == tuple(((0, 0),) * 4)


def test_recover_plain_m0_single_shot():
    gf5 = Field(5)
    rs42 = GrsCode(gf5, 4, 2, (1, 2, 3, 4))
    sch = plain_scheme(rs42, t=1, memory=0, m=2, desired=1, support=(0, 1))
    files = random_files(gf5, 2, 1, 2, derive_rng(2, "f"))
    stream = run_protocol(storage_encode(files, rs42), sch, 4)
    assert len(stream.blocks) == 1
    assert recover_plain(stream, sch).stripes == files[1]


def test_streams_no_longer_than_the_memory_round_trip():
    # ell <= M: every block mixes padding at one end or both, and both
    # peeling decoders still read the desired file
    gf13 = Field(13)
    code = GrsCode(gf13, 6, 2, tuple(range(1, 7)))
    sch = plain_scheme(code, t=1, memory=3, m=2, desired=1,
                       support=(2, 3, 4, 5))
    for ell in (1, 3):
        for trial in range(20):
            files = random_files(gf13, 2, ell, 2, derive_rng(trial, "short", ell))
            stream = run_protocol(storage_encode(files, code), sch, trial)
            assert len(stream.blocks) == ell + 3
            assert recover_plain(stream, sch).stripes == files[1]
    # the burst-window benchmark scheme with one file, under its bursts
    gf251 = Field(251)
    code = GrsCode(gf251, 24, 4, tuple(range(1, 25)))
    sch = block_scheme(code, t=2, eps=3, window=7, m=1, desired=0,
                       support=tuple(range(17, 24)))
    schedules = (gen_burst_patterns(3, 3, 7, 3, "shifted-family")
                 + gen_burst_patterns(3, 3, 7, 3, "random", seed=1, count=20))
    assert any(sched.erased for sched in schedules)
    for trial, sched in enumerate(schedules):
        files = random_files(gf251, 1, 3, 4, derive_rng(trial, "short-block"))
        stream = run_protocol(storage_encode(files, code), sch, trial)
        rec = recover_window(apply_erasures(stream, sched), sch)
        assert rec.stripes == files[0], sorted(sched.erased)


def test_recover_plain_randomized_identity():
    rng = random.Random(77)
    fields = {13: Field(13), 16: GF16, 17: Field(17)}
    for trial in range(40):
        q = rng.choice(list(fields))
        f = fields[q]
        t = rng.randrange(1, 3)
        k = rng.randrange(1, 4)
        n_min = 2 * k + t - 1
        n = rng.randrange(n_min, min(12, q - 1) + 1)
        if n <= k + t - 1:
            continue
        m = rng.randrange(1, 5)
        ell = rng.randrange(1, 5)
        memory = rng.randrange(0, min(3, ell))
        d1 = n - (k + t - 1)
        size = rng.randrange(k, d1 + 1)
        support = tuple(rng.sample(range(n), size))
        locs = tuple(rng.sample(range(1, q), n))
        code = GrsCode(f, n, k, locs)
        sch = plain_scheme(code, t, memory, m, rng.randrange(m), support)
        files = random_files(f, m, ell, k, derive_rng(trial, "rf"))
        stream = run_protocol(storage_encode(files, code), sch, trial)
        rec = recover_plain(stream, sch)
        assert rec.stripes == files[sch.desired]
        rep = rate_report(sch, ell)
        assert rep.downloaded == sum(len(p) for b in stream.blocks for p in b.parts)
        assert rep.rate == Fraction(ell * k, (ell + memory) * n)
        assert rep.bound == rate_conv(n, k, t, memory, ell)


def test_recover_plain_rejects_erased():
    sch, files, stream = setup_plain()
    erased = apply_erasures(stream, ErasureSchedule(frozenset({2}), 4, 1, 3, 1))
    with pytest.raises(UncorrectablePattern):
        recover_plain(erased, sch)


def test_off_support_corruption_is_an_inconsistent_block():
    # the star-code cross-check on the off-support positions catches it
    for setup, decode in ((setup_plain, recover_plain),
                          (setup_block, recover_window)):
        sch, files, stream = setup()
        for j in set(range(6)) - set(sch.support):
            with pytest.raises(InconsistentBlock):
                decode(flip_symbol(stream, 2, j), sch)


# --- window ------------------------------------------------------------------

def test_burst_window_matrix_full_rank():
    # the 6x6 solvability matrix displayed for the burst at block 2,
    # built from locators with distinct squares
    a4, a5, a6 = C6.locators[3], C6.locators[4], C6.locators[5]
    sq = [GF16.pow(a, 2) for a in (a4, a5, a6)]
    cb = [GF16.pow(a, 3) for a in (a4, a5, a6)]
    rows = [
        sq + [0, 0, 0],
        cb + [0, 0, 0],
        [1, 1, 1] + sq,
        [a4, a5, a6] + cb,
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, a4, a5, a6],
    ]
    assert mat_rank(GF16, rows) == 6
    assert build_A(GF16, 2, 1, (a4, a5, a6)).verdict


def test_window_needs_the_verdict_of_its_own_window():
    # locators 1, 2, 6, 7 are recovering at N = 2eps+1 = 5, but at N = 4
    # the intact blocks 3 and 4 leave stripes 1..4 one equation short
    support = (0, 1, 5, 6)
    locs = [C10.locators[j] for j in support]
    assert build_A(GF16, 2, 2, locs).verdict
    rm = build_A(GF16, 2, 2, locs, window=4)
    assert (rm.rank, rm.full_rank) == (7, 8)
    sch = block_scheme(C10, t=1, eps=2, window=4, m=2, desired=0,
                       support=support)
    files = random_files(GF16, 2, 4, 2, derive_rng(11, "files"))
    stream = run_protocol(storage_encode(files, C10), sch,
                          derive_seed(11, "run"))
    burst = ErasureSchedule(frozenset({1, 2}), 4, 2, 4, 2)
    with pytest.raises(RankDeficient):
        recover_window(apply_erasures(stream, burst), sch)


def test_window_no_erasures_matches_plain():
    sch, files, stream = setup_block()
    rec = recover_window(stream, sch)
    assert rec.stripes == files[1]
    assert rec.provenance == ("direct",) * 4


def test_window_single_burst_exhaustive():
    # a stripe is direct exactly when its own block alone solved it; the
    # burst and the stripes waiting with it are window-solved, and with
    # b = ell the termination block solves the last stripe
    D, W = "direct", "window-solved"
    expected = {1: (W, W, W, D), 2: (D, W, W, W), 3: (D, D, W, W),
                4: (D, D, D, W), 5: (D, D, D, D)}
    sch, files, stream = setup_block()
    for b, provenance in expected.items():
        sched = ErasureSchedule(frozenset({b}), 4, 1, 3, 1)
        rec = recover_window(apply_erasures(stream, sched), sch)
        assert rec.stripes == files[1], b
        assert rec.provenance == provenance, b


def test_window_all_admissible_schedules():
    sch, files, stream = setup_block()
    for sched in gen_burst_patterns(4, 1, 3, 1, "exhaustive"):
        rec = recover_window(apply_erasures(stream, sched), sch)
        assert rec.stripes == files[1], sorted(sched.erased)


def test_window_shifted_family_longer_stream():
    sch, files, stream = setup_block(seed=23, ell=7)
    for sched in gen_burst_patterns(7, 1, 3, 1, "shifted-family"):
        rec = recover_window(apply_erasures(stream, sched), sch)
        assert rec.stripes == files[1], sorted(sched.erased)


def test_window_overlong_burst_rejected():
    sch, files, stream = setup_block()
    bad = apply_erasures(stream, ErasureSchedule(frozenset({2, 3}), 4, 1, 3, 1))
    with pytest.raises(UncorrectablePattern):
        recover_window(bad, sch)


def test_window_dense_pattern_rejected():
    sch, files, stream = setup_block()
    bad = apply_erasures(stream, ErasureSchedule(frozenset({1, 3}), 4, 1, 3, 1))
    with pytest.raises(UncorrectablePattern):
        recover_window(bad, sch)
    # ell+M = 5 < N = 6: the one window is clipped at the stream end
    sch = block_scheme(C6, t=1, eps=2, window=6, m=2, desired=0,
                       support=(2, 3, 4, 5))
    files = random_files(GF16, 2, 3, 2, derive_rng(4, "short"))
    stream = run_protocol(storage_encode(files, C6), sch, 4)
    bad = apply_erasures(stream, ErasureSchedule(frozenset({1, 2, 4, 5}),
                                                 3, 2, 6, 2))
    with pytest.raises(UncorrectablePattern, match="6-block window at 1"):
        recover_window(bad, sch)


def test_window_wrong_variant():
    sch, files, stream = setup_plain()
    with pytest.raises(InvalidParams):
        recover_window(stream, sch)


def test_window_multi_subround():
    # t=2 shrinks d*-1 to 3, so a 4-position support needs 2 sub-rounds
    sch = block_scheme(C6, t=2, eps=1, window=3, m=2, desired=1,
                       support=(1, 2, 4, 5))
    assert sch.rounds == 2
    files = random_files(GF16, 2, 5, 2, derive_rng(1, "mr"))
    stream = run_protocol(storage_encode(files, C6), sch, 3)
    rep = rate_report(sch, 5)
    assert rep.downloaded == sum(len(p) for b in stream.blocks for p in b.parts)
    assert rep.rate == rate_block(6, 2, 2, 3, 1, 5, gamma=sch.rounds * 3)
    assert recover_window(stream, sch).stripes == files[1]
    for b in range(1, 7):
        sched = ErasureSchedule(frozenset({b}), 5, 1, 3, 1)
        rec = recover_window(apply_erasures(stream, sched), sch)
        assert rec.stripes == files[1], b


# --- guarantee ---------------------------------------------------------------

def test_distance_profile_values():
    prof = UmDistanceProfile.for_byzantine(10, 2, 2)
    assert (prof.d_alpha, prof.d1, prof.d2) == (4, 6, 6)
    assert prof.dbar(1) == 12
    assert prof.dbar(2) == 16
    assert prof.dbar(3) == 20


def test_check_guarantee_examples():
    prof = UmDistanceProfile.for_byzantine(10, 2, 2)
    assert check_guarantee([0, 0, 0, 0], prof)
    assert check_guarantee([0, 5, 0, 0], prof)
    assert not check_guarantee([0, 6, 0, 0], prof)
    assert not check_guarantee([4, 4, 0, 0], prof)
    assert check_guarantee([2, 2, 2, 2], prof)
    assert not check_guarantee([3, 2, 3, 3], prof)


def guarantee_by_windows(weights, profile):
    """The budget check written out window by window, O(L^2)."""
    total = len(weights)
    for start in range(total - 1):
        acc = weights[start]
        for iota in range(1, total - start):
            acc += weights[start + iota]
            if 2 * acc >= profile.dbar(iota):
                return False
    return True


@settings(max_examples=400, deadline=None)
@example(4, 6, 6, [])
@example(4, 6, 7, [9])
@given(st.integers(1, 8), st.integers(1, 12), st.integers(1, 12),
       st.lists(st.integers(0, 12), max_size=12))
def test_check_guarantee_matches_the_window_oracle(d_alpha, d1, d2, weights):
    profile = UmDistanceProfile(d_alpha, d1, d2)
    ok = check_guarantee(weights, profile)
    assert ok == guarantee_by_windows(weights, profile)
    prefixes = [check_guarantee(weights[:b], profile)
                for b in range(len(weights) + 1)]
    # once a prefix fails, every longer prefix and the whole list fail
    assert prefixes == sorted(prefixes, reverse=True)
    assert prefixes[-1] == ok


# --- unit-memory error decoding ------------------------------------------------

def test_decode_um_clean():
    sch, files, stream = setup_byz()
    rec = decode_um(stream, sch)
    assert rec.stripes == files[0]
    assert rec.provenance == ("trellis",) * 3


def test_decode_um_second_file():
    sch, files, stream = setup_byz(desired=1)
    assert decode_um(stream, sch).stripes == files[1]


def test_decode_um_single_error_step1():
    sch, files, stream = setup_byz()
    noisy = apply_errors(stream, ErrorSchedule(((2, 4, 7),), "manual"), 16, 3)
    assert decode_um(noisy, sch).stripes == files[0]


def test_decode_um_two_errors_coset():
    sch, files, stream = setup_byz()
    noisy = apply_errors(stream, ErrorSchedule(((2, 4, 7), (2, 8, 1)), "manual"),
                         16, 4)
    assert decode_um(noisy, sch).stripes == files[0]


def test_decode_um_logs_each_trellis_stage_at_debug(caplog):
    sch, files, stream = setup_byz()
    noisy = apply_errors(stream, ErrorSchedule(((2, 4, 7),), "manual"), 16, 3)
    with caplog.at_level(logging.DEBUG, logger="pirstream.decoder"):
        assert decode_um(noisy, sch).stripes == files[0]
    lines = [r.getMessage() for r in caplog.records
             if r.name == "pirstream.decoder"]
    # blocks 1..ell+1, each with its status, node count and best metric
    assert [line.split(":")[0] for line in lines] == [
        f"block {xi}" for xi in range(1, 5)]
    assert all(" status=" in line and " candidates=" in line
               and " best=" in line for line in lines)
    caplog.clear()
    assert decode_um(noisy, sch).stripes == files[0]
    assert not [r for r in caplog.records if r.name == "pirstream.decoder"]


def test_decode_um_budget_randomized():
    sch, files, stream = setup_byz()
    prof = UmDistanceProfile.for_byzantine(10, 2, 2)
    for i in range(60):
        sched = gen_error_schedule(prof, 3, 1, 10, 16, "budget", seed=500 + i)
        noisy = apply_errors(stream, sched, 16, i)
        assert decode_um(noisy, sch).stripes == files[0], sched.weights(4)


def test_decode_um_fixed_byzantine():
    sch, files, stream = setup_byz()
    prof = UmDistanceProfile.for_byzantine(10, 2, 2)
    sched = gen_error_schedule(prof, 3, 1, 10, 16, "fixed-byzantine",
                               seed=7, b=1)
    noisy = apply_errors(stream, sched, 16, 2)
    assert decode_um(noisy, sch).stripes == files[0]


def test_decode_um_single_erasure_passthrough():
    sch, files, stream = setup_byz()
    for b in range(1, 5):
        blocks = list(stream.blocks)
        blocks[b - 1] = Block(ERASED, None)
        st = ResponseStream(stream.n, stream.ell, stream.memory, stream.rounds,
                            tuple(blocks))
        assert decode_um(st, sch).stripes == files[0], b


def test_decode_um_across_shapes():
    # miscorrected per-block decodes must not suppress the neighbours'
    # candidates: shapes with a small block distance are the hard case
    shapes = [
        (GF16, 8, 2, 1),          # d_alpha = 3: step 1 miscorrects freely
        (GF16, 12, 2, 3),
        (Field(17), 10, 2, 2),    # prime field
        (Field(2, 5), 14, 3, 2),
    ]
    for field, n, k, t in shapes:
        code = GrsCode(field, n, k, tuple(range(1, n + 1)))
        prof = UmDistanceProfile.for_byzantine(n, k, t)
        sch = byzantine_scheme(code, t=t, m=2, desired=0)
        files = random_files(field, 2, 4, k, derive_rng(n, "shape"))
        stream = run_protocol(storage_encode(files, code), sch,
                              derive_seed(n, "shape-run"))
        for i in range(40):
            sched = gen_error_schedule(prof, 4, 1, n, field.q, "budget",
                                       seed=derive_seed(n, "shape-sched", i))
            noisy = apply_errors(stream, sched, field.q,
                                 derive_seed(n, "shape-vals", i))
            rec = decode_um(noisy, sch)
            assert rec.stripes == files[0], (n, k, t, sched.weights(5))


def test_decode_um_coset_chains_decode_each_state_once(monkeypatch):
    # on a clean stream every anchor is correct, so every chain merges onto
    # the true path after one step: one forward and one backward pass of
    # ell coset decodes each, not one pass per anchor
    ell = 8
    sch, files, stream = setup_byz(ell=ell)
    calls: dict[int, int] = {}
    bmd_decode = GrsCode.bmd_decode

    def counted(code, word):
        calls[code.k] = calls.get(code.k, 0) + 1
        return bmd_decode(code, word)
    monkeypatch.setattr(GrsCode, "bmd_decode", counted)
    assert decode_um(stream, sch).stripes == files[0]
    coset_k = 2 * 2 + 2 - 1
    assert calls[coset_k] <= 2 * ell


def test_decode_um_encodes_each_stripe_once(monkeypatch):
    # the block, coset and trellis steps share one encoding per stripe
    sch, files, stream = setup_byz(ell=6)
    noisy = apply_errors(stream, ErrorSchedule(((2, 4, 7), (5, 1, 3)), "manual"),
                         16, 4)
    encodes: dict[tuple, int] = {}
    encode = GrsCode.encode

    def counted(code, message):
        if code is sch.storage_code:
            key = tuple(message)
            encodes[key] = encodes.get(key, 0) + 1
        return encode(code, message)
    monkeypatch.setattr(GrsCode, "encode", counted)
    assert decode_um(noisy, sch).stripes == files[0]
    assert set(files[0]) <= set(encodes)
    assert max(encodes.values()) == 1


def test_decode_um_builds_each_code_once_per_scheme(monkeypatch):
    # the sum, coset and star codes live on the scheme, so a second
    # decode_um call reuses their parity-check tables
    sch, files, stream = setup_byz(ell=4)
    noisy = apply_errors(stream, ErrorSchedule(((2, 4, 7),), "manual"), 16, 4)
    builds: dict[int, list] = {}
    table = GrsCode._parity_checks.func

    def counted(code):
        builds.setdefault(id(code), []).append(code)
        return table(code)
    prop = cached_property(counted)
    prop.__set_name__(GrsCode, "_parity_checks")
    monkeypatch.setattr(GrsCode, "_parity_checks", prop)
    for _ in range(2):
        assert decode_um(noisy, sch).stripes == files[0]
    assert all(len(codes) == 1 for codes in builds.values())
    k, t = sch.k, sch.t
    assert sorted(codes[0].k for codes in builds.values()) == [
        k + t - 1, 2 * k + t - 1, 2 * k + t - 1, 3 * k + t - 1]


def test_window_eps2_bursts():
    code = GrsCode(GF16, 8, 2, tuple(range(1, 9)))
    support = (4, 5, 6, 7)
    cert = build_A(GF16, 2, 2, tuple(code.locators[j] for j in support))
    assert cert.verdict
    sch = block_scheme(code, t=1, eps=2, window=5, m=2, desired=1,
                       support=support)
    files = random_files(GF16, 2, 6, 2, derive_rng(6, "wf"))
    stream = run_protocol(storage_encode(files, code), sch, 66)
    pats = gen_burst_patterns(6, 2, 5, 2, "exhaustive")
    pats += gen_burst_patterns(6, 2, 5, 2, "shifted-family")
    assert len(pats) > 50
    for p in pats:
        rec = recover_window(apply_erasures(stream, p), sch)
        assert rec.stripes == files[1], sorted(p.erased)


def test_decode_um_overwhelmed_is_a_legal_failure():
    # far beyond every radius: failure must surface as DecodingFailure (or
    # a wrong file), never a crash
    sch, files, stream = setup_byz()
    entries = tuple((b, j, 1) for b in range(1, 5) for j in range(8))
    noisy = apply_errors(stream, ErrorSchedule(entries, "manual"), 16, 1)
    try:
        decode_um(noisy, sch)
    except DecodingFailure:
        pass


def test_decode_um_wrong_variant():
    sch, files, stream = setup_plain()
    with pytest.raises(InvalidParams):
        decode_um(stream, sch)


@st.composite
def small_block_setups(draw):
    """A GF(16) block scheme whose support locators are recovering for its
    window, with a stream of random files."""
    n = draw(st.sampled_from((6, 10)))
    t = draw(st.integers(1, 2))
    eps = draw(st.integers(1, 2))
    window = draw(st.integers(eps + 1, eps + 3))
    ell = draw(st.integers(eps + 1, 6))
    code = C6 if n == 6 else C10
    need = max(min_gamma(2, window, eps), minimal_gamma(2, eps))
    assume(need <= n)
    support = tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=need,
                                         max_size=n, unique=True))))
    assume(build_A(GF16, 2, eps, [code.locators[j] for j in support],
                   window=window).verdict)
    desired = draw(st.integers(0, 1))
    sch = block_scheme(code, t=t, eps=eps, window=window, m=2,
                       desired=desired, support=support)
    seed = draw(st.integers(0, 2 ** 32))
    files = random_files(GF16, 2, ell, 2, derive_rng(seed, "files"))
    stream = run_protocol(storage_encode(files, code), sch,
                          derive_seed(seed, "run"))
    return sch, files[desired], stream


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(small_block_setups(), st.data())
def test_window_decodes_every_admissible_schedule(setup, data):
    # test_window_needs_the_verdict_of_its_own_window pins a support that
    # is recovering at N = 2eps+1 but not at the scheme's shorter window
    sch, desired, stream = setup
    ell = stream.ell
    schedules = gen_burst_patterns(ell, sch.burst, sch.window, sch.burst,
                                   "exhaustive")
    for sched in schedules:
        rec = recover_window(apply_erasures(stream, sched), sch)
        assert rec.stripes == desired, sorted(sched.erased)
    # one changed symbol in an intact block: any outcome but a crash
    sched = data.draw(st.sampled_from(schedules))
    intact = [b for b in range(1, ell + sch.memory + 1) if b not in sched.erased]
    b = data.draw(st.sampled_from(intact))
    j = data.draw(st.integers(0, sch.n - 1))
    delta = data.draw(st.integers(1, 15))
    noisy = flip_symbol(apply_erasures(stream, sched), b, j, delta)
    try:
        recover_window(noisy, sch)
    except PirstreamError:
        pass


@st.composite
def small_byzantine_setups(draw):
    """A GF(16) unit-memory Byzantine scheme, a stream of random files,
    and symbol errors within the guarantee of its distance profile."""
    n = draw(st.sampled_from((8, 10, 12)))
    t = draw(st.integers(1, 2))
    ell = draw(st.integers(1, 5))
    desired = draw(st.integers(0, 1))
    code = GrsCode(GF16, n, 2, tuple(range(1, n + 1)))
    sch = byzantine_scheme(code, t=t, m=2, desired=desired)
    seed = draw(st.integers(0, 2 ** 32))
    files = random_files(GF16, 2, ell, 2, derive_rng(seed, "files"))
    stream = run_protocol(storage_encode(files, code), sch,
                          derive_seed(seed, "run"))
    # the weights of one rank among every budget-respecting sequence, so
    # each valid sequence is as likely as any other and none is rejected
    profile = UmDistanceProfile.for_byzantine(n, 2, t)
    total = count_budget_weights(profile, ell + 1)
    weights = unrank_budget_weights(profile, ell + 1,
                                    draw(st.integers(0, total - 1)))
    entries = []
    for b, w in enumerate(weights, 1):
        for j in draw(st.lists(st.integers(0, n - 1), min_size=w, max_size=w,
                               unique=True)):
            entries.append((b, j, draw(st.integers(0, 15))))
    schedule = ErrorSchedule(tuple(entries), "manual")
    noisy = apply_errors(stream, schedule, 16, derive_seed(seed, "values"))
    return sch, files[desired], noisy


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_byzantine_setups())
def test_decode_um_recovers_every_budget_respecting_schedule(setup):
    sch, desired, noisy = setup
    assert decode_um(noisy, sch).stripes == desired


# --- peeling against the rebuild-every-attempt oracle --------------------------

GF13 = Field(13)


def outcome(decode, stream, scheme):
    """(stripes, provenance) of a decode, or the type and message of the
    library error it raises."""
    try:
        rec = decode(stream, scheme)
    except PirstreamError as exc:
        return type(exc), str(exc)
    return rec.stripes, rec.provenance


@st.composite
def peeling_cases(draw):
    """A small block scheme over GF(13) or GF(16), recovering or not, and
    a stream of it with any set of erased blocks and, sometimes, one
    changed symbol."""
    f = draw(st.sampled_from((GF13, GF16)))
    n = draw(st.integers(4, 9))
    k = draw(st.integers(1, 2))
    t = draw(st.integers(1, n - k))
    eps = draw(st.integers(1, 3))
    window = draw(st.integers(eps + 1, eps + 3))
    code = GrsCode(f, n, k, tuple(range(1, n + 1)))
    need = min_gamma(k, window, eps)
    assume(need <= n)
    support = draw(st.lists(st.integers(0, n - 1), min_size=need, max_size=n,
                            unique=True))
    desired = draw(st.integers(0, 1))
    sch = block_scheme(code, t=t, eps=eps, window=window, m=2,
                       desired=desired, support=support)
    ell = draw(st.integers(eps + 1, 6))
    seed = draw(st.integers(0, 2 ** 32))
    files = random_files(f, 2, ell, k, derive_rng(seed, "files"))
    stream = run_protocol(storage_encode(files, code), sch,
                          derive_seed(seed, "run"))
    blocks = ell + eps
    if draw(st.booleans()):
        erased = draw(st.sampled_from(
            gen_burst_patterns(ell, eps, window, eps, "exhaustive"))).erased
    else:
        erased = draw(st.sets(st.integers(1, blocks), max_size=blocks))
    stream = apply_erasures(stream, ErasureSchedule(frozenset(erased), ell,
                                                    eps, window, eps))
    intact = [b for b in range(1, blocks + 1) if b not in erased]
    if intact and draw(st.booleans()):
        b = draw(st.sampled_from(intact))
        parts = [list(p) for p in stream.blocks[b - 1].parts]
        r = draw(st.integers(0, len(parts) - 1))
        j = draw(st.integers(0, n - 1))
        parts[r][j] = f.add(parts[r][j], draw(st.integers(1, f.q - 1)))
        changed = list(stream.blocks)
        changed[b - 1] = Block(ERRORED, tuple(tuple(p) for p in parts))
        stream = ResponseStream(stream.n, stream.ell, stream.memory,
                                stream.rounds, tuple(changed))
    return sch, stream


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(peeling_cases())
def test_peeling_matches_the_rebuild_every_attempt_oracle(case):
    # equations derived once per block give the stripes, provenance and
    # errors of rebuilding every pending equation on each attempt, on
    # schedules that break the erasure rule and supports that are not
    # recovering as well as on valid ones
    sch, stream = case
    assert (outcome(recover_window, stream, sch)
            == outcome(oracles.recover_window, stream, sch))
    assert (outcome(recover_plain, stream, sch)
            == outcome(oracles.recover_plain, stream, sch))


def encodes_per_block(monkeypatch, decode, stream, sch):
    """[(block, {stripe: storage encodes})] of one decode, grouped by the
    block that the peeling loop read last before each encode."""
    groups = []
    block, encode = ResponseStream.block, GrsCode.encode

    def read(self, xi):
        groups.append((xi, {}))
        return block(self, xi)

    def counted(code, message):
        if code is sch.storage_code:
            counts = groups[-1][1]
            counts[tuple(message)] = counts.get(tuple(message), 0) + 1
        return encode(code, message)
    monkeypatch.setattr(ResponseStream, "block", read)
    monkeypatch.setattr(GrsCode, "encode", counted)
    decode(stream, sch)
    monkeypatch.undo()
    return groups


def test_peeling_makes_no_storage_encode(monkeypatch):
    # memory 3 and a burst of two: block 5 has too few rows for stripes
    # 3..5, block 6 has enough, and stripe 2, which block 5 touches, is
    # known.  The known stripes' share of each block comes out of the
    # scheme's known-share map, so neither decoder encodes a stripe, on
    # the burst or on the same stream without it.
    code = GrsCode(GF16, 10, 2, tuple(range(1, 11)))
    support = (4, 5, 6, 7, 8)
    sch = block_scheme(code, t=1, eps=3, window=5, m=2, desired=0,
                       support=support)
    files = random_files(GF16, 2, 8, 2, derive_rng(8, "files"))
    clean = run_protocol(storage_encode(files, code), sch, 8)
    stream = apply_erasures(clean, ErasureSchedule(frozenset({3, 4}), 8, 3, 5, 3))
    assert recover_window(stream, sch).stripes == files[0]
    assert recover_plain(clean, sch).stripes == files[0]
    for decode, s in ((recover_window, stream), (recover_window, clean),
                      (recover_plain, clean)):
        groups = encodes_per_block(monkeypatch, decode, s, sch)
        assert not any(counts for _, counts in groups), decode
    # the oracle encodes each known stripe among xi-3..xi-1 once per support
    # position for block xi, but re-encodes stripe 2 for block 5 when block
    # 6 arrives
    by_stripe = {stripe: xi for xi, stripe in enumerate(files[0], start=1)}
    groups = encodes_per_block(monkeypatch, oracles.recover_window, stream, sch)
    assert any(counts for _, counts in groups)
    assert not all(xi - 3 <= by_stripe[stripe] < xi and calls == len(support)
                   for xi, counts in groups for stripe, calls in counts.items())


# (field, scheme builder): prime fields on packed lanes, GF(2^4) and GF(2^8)
# on translate-row tables, GF(9) and GF(2^10) on the scalar kernel,
# GF(2^31 - 1) past 8-byte lanes (one dot per column), memory 0 (no map)
# and a block support of two sub-rounds (7 + 1 positions)
SHARE_CASES = {
    "GF(13)": (13, 10, 3, lambda c: plain_scheme(c, 1, 2, 2, 0, range(3, 10))),
    "GF(251)": (251, 24, 4, lambda c: plain_scheme(c, 2, 3, 2, 0, range(5, 24))),
    "GF(2^4)": ((2, 4), 12, 3,
                lambda c: plain_scheme(c, 2, 2, 2, 0, range(4, 12))),
    "GF(2^8)": ((2, 8), 24, 4,
                lambda c: plain_scheme(c, 2, 3, 2, 0, range(5, 24))),
    "GF(9)": ((3, 2), 8, 2, lambda c: plain_scheme(c, 1, 2, 2, 0, range(2, 8))),
    "GF(2^10)": ((2, 10), 20, 3,
                 lambda c: plain_scheme(c, 1, 1, 2, 0, range(4, 20))),
    "GF(2^31-1)": (2 ** 31 - 1, 10, 3,
                   lambda c: plain_scheme(c, 1, 4, 2, 0, range(3, 10))),
    "memory 0": (13, 10, 3, lambda c: plain_scheme(c, 1, 0, 2, 0, range(3, 10))),
    "two sub-rounds": (13, 10, 2,
                       lambda c: block_scheme(c, 2, 2, 5, 2, 0, range(2, 10))),
}


def share_scheme(name):
    spec, n, k, build = SHARE_CASES[name]
    f = Field(*spec) if isinstance(spec, tuple) else Field(spec)
    return build(GrsCode(f, n, k, tuple(range(1, n + 1))))


def test_share_cases_cover_every_kernel_path():
    kernels = {name: type(share_scheme(name).field.kernel).__name__
               for name in SHARE_CASES}
    assert set(kernels.values()) == {"_PrimeKernel", "_BinaryKernel",
                                     "_ScalarKernel"}
    wide = share_scheme("GF(2^31-1)")
    assert _lane_typecode(wide.memory * wide.k * (wide.field.p - 1) ** 2) is None
    assert share_scheme("memory 0").memory == 0
    assert len(share_scheme("two sub-rounds").sub_supports) == 2


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SHARE_CASES)), st.data())
def test_known_share_map_matches_the_scalar_sum_of_encodes(name, data):
    # at every support position, the share of the known stripes among
    # s-1..s-M is the sum over them of offset * encode(stripe)[j]; an
    # unknown stripe, or one before 1 or past ell (a termination block),
    # adds nothing
    sch = share_scheme(name)
    f, code, k, memory = sch.field, sch.storage_code, sch.k, sch.memory
    ell = data.draw(st.integers(1, 6))
    s = data.draw(st.integers(1, ell + memory))
    known = {
        xi: tuple(data.draw(st.lists(st.integers(0, f.q - 1),
                                     min_size=k, max_size=k)))
        for xi in data.draw(st.sets(st.integers(1, ell)))}
    by_lag, known_share = _peeling_tables(sch)
    expected = []
    for part, rows in zip(sch.sub_supports, sch.e_offsets):
        for j in part:
            i = len(expected)       # j is the i-th support position
            acc = 0
            for z in range(1, memory + 1):
                if s - z in known:
                    y = code.encode(list(known[s - z]))[j]
                    acc = f.add(acc, f.mul(rows[z][j], y))
            expected.append(acc)
            # the kept coefficients of each lag give the same symbols
            for z in range(memory + 1):
                assert isinstance(by_lag[z][i], tuple)
                if s - z in known:
                    assert (f.kernel.dot(by_lag[z][i], known[s - z])
                            == f.mul(rows[z][j],
                                     code.encode(list(known[s - z]))[j]))
    assert list(known_share(known, s)) == expected


def test_peeling_encodes_no_star_codeword(monkeypatch):
    # each block's interference on the support comes out of the star
    # code's erasure_decode (at=), not from encoding the decoded message
    block, block_files, block_stream = setup_block()
    plain, plain_files, plain_stream = setup_plain()
    multi = block_scheme(C6, t=2, eps=1, window=3, m=2, desired=1,
                         support=(1, 2, 4, 5))
    multi_files = random_files(GF16, 2, 5, 2, derive_rng(1, "mr"))
    multi_stream = apply_erasures(
        run_protocol(storage_encode(multi_files, C6), multi, 3),
        ErasureSchedule(frozenset({2}), 5, 1, 3, 1))
    stars = {id(sch.star_code()) for sch in (block, plain, multi)}
    encode = GrsCode.encode
    star_encodes = [0]

    def counted(self, message):
        star_encodes[0] += id(self) in stars
        return encode(self, message)
    monkeypatch.setattr(GrsCode, "encode", counted)
    assert recover_window(block_stream, block).stripes == block_files[1]
    assert recover_plain(plain_stream, plain).stripes == plain_files[1]
    assert recover_window(multi_stream, multi).stripes == multi_files[1]
    assert star_encodes[0] == 0


def test_star_code_is_built_once_per_scheme(monkeypatch):
    # a second stream of the same scheme erasure-decodes through the
    # systematic form and the readers the first one built
    sch, files, stream = setup_block()
    assert sch.star_code() is sch.star_code()
    assert recover_window(stream, sch).stripes == files[1]
    calls = [0]

    def counted(eliminate):
        def call(*args):
            calls[0] += 1
            return eliminate(*args)
        return call
    for name in ("reduce_with_identity", "rref"):
        monkeypatch.setattr(grs, name, counted(getattr(grs, name)))
    assert recover_window(stream, sch).stripes == files[1]
    assert calls[0] == 0
    byz = setup_byz()[0]
    assert byz.um_codes[3] is byz.star_code()


# --- linearity: decode(w + c(F')) = decode(w) + F' ---------------------------
#
# The decoders are linear maps followed by rank and distance decisions.  So
# adding to a received stream w the clean responses c(F') of other files F'
# to the same queries shifts the decoded file by F' and keeps every failure
# and its text.  A per-process shortcut that read the data (kept solvers,
# erasure plans, kept readers, the trellis's candidate order) would break
# this, and the goldens, which check one seed, would not see it.

CONFIGS = Path(__file__).resolve().parent / "configs"
BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def config_scheme(path):
    """(scheme, ell) of a config file."""
    _, _, scheme, ell = build_scheme(load_config(path))
    return scheme, ell


def linear_pair(scheme, ell, seed):
    """(w, c, F'): the clean response streams of two draws of files to the
    queries of one seed, and the desired file of the second draw."""
    f, run = scheme.field, derive_seed(seed, "run")
    files, other = (random_files(f, scheme.m, ell, scheme.k,
                                 derive_rng(seed, name))
                    for name in ("files", "other files"))
    w, c = (run_protocol(storage_encode(x, scheme.storage_code), scheme, run)
            for x in (files, other))
    return w, c, other[scheme.desired]


def add_streams(f, w, c):
    """w + c block by block; a block erased in w stays erased."""
    return ResponseStream(w.n, w.ell, w.memory, w.rounds, tuple(
        bw if bw.parts is None else
        Block(bw.status, tuple(tuple(map(f.add, x, y))
                               for x, y in zip(bw.parts, bc.parts)))
        for bw, bc in zip(w.blocks, c.blocks)))


def assert_linear(decode, scheme, w, c, extra):
    f = scheme.field
    got = outcome(decode, add_streams(f, w, c), scheme)
    stripes, rest = outcome(decode, w, scheme)
    if not isinstance(stripes, type):    # decoded: shift it by F'
        stripes = tuple(tuple(map(f.add, s, e)) for s, e in zip(stripes, extra))
    assert got == (stripes, rest)


@pytest.mark.parametrize("path", [BENCH_CONFIGS / "plain-stream.ini",
                                  CONFIGS / "plain-gf16.ini",
                                  CONFIGS / "plain-gf251.ini"],
                         ids=lambda path: path.stem)
def test_recover_plain_is_linear_in_the_files(path):
    # clean streams decode; one changed symbol fails with InconsistentBlock
    sch, ell = config_scheme(path)
    for seed in range(4):
        w, c, extra = linear_pair(sch, ell, seed)
        assert_linear(recover_plain, sch, w, c, extra)
        blocks = list(w.blocks)
        b, j = 1 + seed % len(blocks), seed % sch.n
        parts = [list(p) for p in blocks[b - 1].parts]
        parts[0][j] = sch.field.add(parts[0][j], 1)
        blocks[b - 1] = Block(ERRORED, tuple(map(tuple, parts)))
        noisy = ResponseStream(w.n, w.ell, w.memory, w.rounds, tuple(blocks))
        with pytest.raises(InconsistentBlock):
            recover_plain(noisy, sch)
        assert_linear(recover_plain, sch, noisy, c, extra)


def test_recover_window_is_linear_on_every_burst_schedule():
    # the burst-window config at ell = 10: every exhaustive schedule, those
    # that decode and those that fail
    sch, _ = config_scheme(BENCH_CONFIGS / "burst-window.ini")
    ell = 10
    w, c, extra = linear_pair(sch, ell, 11)
    schedules = gen_burst_patterns(ell, sch.memory, sch.window, sch.burst,
                                   "exhaustive")
    assert len(schedules) == 1638
    decoded = 0
    for sched in schedules:
        erased = apply_erasures(w, sched)
        assert_linear(recover_window, sch, erased, c, extra)
        decoded += not isinstance(outcome(recover_window, erased, sch)[0], type)
    assert 0 < decoded < len(schedules)


@pytest.mark.parametrize("name, mode, b", [("byzantine-fixed", "fixed-byzantine", 2),
                                           ("byzantine-budget", "budget", None)])
def test_decode_um_is_linear_within_the_budget(name, mode, b):
    sch, ell = config_scheme(BENCH_CONFIGS / f"{name}.ini")
    f = sch.field
    profile = UmDistanceProfile.for_byzantine(sch.n, sch.k, sch.t)
    for seed in range(10):
        w, c, extra = linear_pair(sch, ell, seed)
        sched = gen_error_schedule(profile, ell, sch.memory, sch.n, f.q, mode,
                                   derive_seed(seed, "errors"), b=b)
        noisy = apply_errors(w, sched, f.q, derive_seed(seed, "values"))
        assert_linear(decode_um, sch, noisy, c, extra)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: beyond the error "
                   "budget decode_um breaks a tie between minimal trellis "
                   "paths by stripe value")
def test_decode_um_linearity_breaks_beyond_the_budget():
    # random-mode weights past the budget: both streams decode, with the
    # same best metric at every trellis stage, to files that differ by
    # more than F' in stripe 4.  The first of 8 such seeds in 0..399 of
    # this scheme; it passes once no tie is broken by the data
    code = GrsCode(GF16, 10, 2, tuple(range(1, 11)))
    sch = byzantine_scheme(code, t=1, m=2, desired=0)
    profile = UmDistanceProfile.for_byzantine(10, 2, 1)
    seed, ell = 146, 6
    w, c, extra = linear_pair(sch, ell, seed)
    sched = gen_error_schedule(profile, ell, 1, 10, 16, "random",
                               derive_seed(seed, "errors"))
    assert sched.weights(ell + 1) == [6, 0, 4, 2, 5, 4, 0]
    noisy = apply_errors(w, sched, 16, derive_seed(seed, "values"))
    assert_linear(decode_um, sch, noisy, c, extra)
