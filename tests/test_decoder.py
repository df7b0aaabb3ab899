import dataclasses
import logging
import random
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import oracles
from pirstream import cli, decoder, grs, linalg
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
    DIRECT,
    UmDistanceProfile,
    check_guarantee,
    decode_um,
    recover_plain,
    recover_window,
)
from pirstream.errors import (
    DecodingFailure,
    InconsistentBlock,
    InvalidParams,
    LengthMismatch,
    PirstreamError,
    RankDeficient,
    ShapeMismatch,
    UncorrectablePattern,
)
from pirstream.fields import Field, _lane_typecode
from pirstream.grs import GrsCode
from pirstream.linalg import mat_rank
from pirstream.protocol import (
    Block,
    BLOCK,
    ERASED,
    ERRORED,
    INTACT,
    PLAIN,
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
from test_grs import count_reader_builds, count_solves, refuse_field_calls

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


def zero_stream(n, ell, memory, rounds):
    """An intact stream of all-zero words of this shape."""
    return ResponseStream(n, ell, memory, rounds, tuple(
        Block(INTACT, ((0,) * n,) * rounds) for _ in range(ell + memory)))


@pytest.mark.parametrize("decode, sch, stream, name", [
    # a memory-0 stream of all-zero files ended in an IndexError
    pytest.param(recover_plain,
                 plain_scheme(C10, t=1, memory=1, m=2, desired=0,
                              support=range(2, 10)),
                 zero_stream(10, 3, 0, 1), "memory", id="plain-memory"),
    # a one-round stream of a two-round scheme failed in the solve with
    # "b has 8 entries, A has 10 rows"
    pytest.param(recover_window,
                 block_scheme(C10, t=2, eps=1, window=3, m=2, desired=0,
                              support=range(10)),
                 zero_stream(10, 3, 1, 1), "rounds", id="window-rounds"),
    pytest.param(recover_plain,
                 plain_scheme(C6, t=1, memory=1, m=2, desired=0,
                              support=(3, 4, 5)),
                 zero_stream(10, 3, 1, 1), "n", id="plain-n"),
    pytest.param(decode_um, byzantine_scheme(C10, t=2, m=2, desired=0),
                 zero_stream(10, 3, 2, 1), "memory", id="um-memory"),
    pytest.param(decode_um, byzantine_scheme(C10, t=2, m=2, desired=0),
                 zero_stream(6, 3, 1, 1), "n", id="um-n"),
])
def test_a_stream_of_another_shape_is_a_shape_mismatch(decode, sch, stream,
                                                        name):
    with pytest.raises(ShapeMismatch, match=f"^stream has {name} "):
        decode(stream, sch)


def replace_block(stream, b, parts):
    """The stream with block b's words replaced by ``parts``."""
    blocks = list(stream.blocks)
    blocks[b - 1] = Block(ERRORED, tuple(parts))
    return ResponseStream(stream.n, stream.ell, stream.memory, stream.rounds,
                          tuple(blocks))


def test_a_block_of_the_wrong_shape_reads_as_erasure_decode_reports_it():
    sch, files, stream = setup_plain()
    word = stream.blocks[1].parts[0]
    with pytest.raises(LengthMismatch, match=r"^word length 5 != n=6$"):
        recover_plain(replace_block(stream, 2, [word[:5]]), sch)
    with pytest.raises(ShapeMismatch, match="^block has 2 sub-rounds"):
        recover_plain(replace_block(stream, 2, [word, word]), sch)


def test_a_clean_plain_stream_makes_no_erasure_decode_and_no_solve(
        monkeypatch):
    # every block of the plain-stream scheme reads its stripe off the
    # scheme's reader: its erasure checks, stripe and support checks are
    # one map of its word and the three stripes before it
    sch, ell = config_scheme(BENCH_CONFIGS / "plain-stream.ini")
    files = random_files(sch.field, sch.m, ell, sch.k, derive_rng(3, "files"))
    stream = run_protocol(storage_encode(files, sch.storage_code), sch, 3)
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(GrsCode, "erasure_decode",
                        counted("erasure_decode", GrsCode.erasure_decode))
    for module in (decoder, linalg):
        monkeypatch.setattr(module, "solve_unique",
                            counted("solve_unique", linalg.solve_unique))
    rec = recover_plain(stream, sch)
    assert rec.stripes == files[sch.desired]
    assert rec.provenance == (DIRECT,) * ell
    assert calls == []


def test_a_block_erasure_decode_makes_no_erasure_decode(monkeypatch):
    # blocks after a burst take the record path through the same reader as
    # clean ones, on a scheme of two sub-rounds too
    calls = []
    erasure_decode = GrsCode.erasure_decode

    def counted(*args, **kwargs):
        calls.append(args)
        return erasure_decode(*args, **kwargs)
    monkeypatch.setattr(GrsCode, "erasure_decode", counted)
    for path, erased in ((BENCH_CONFIGS / "burst-window.ini", {3, 4, 5}),
                         (CONFIGS / "block-two-rounds.ini", {2, 6})):
        sch, _ = config_scheme(path)
        ell = 10
        files = random_files(sch.field, sch.m, ell, sch.k,
                             derive_rng(5, "files"))
        stream = apply_erasures(
            run_protocol(storage_encode(files, sch.storage_code), sch, 5),
            ErasureSchedule(frozenset(erased), ell, sch.memory, sch.window,
                            sch.burst))
        rec = recover_window(stream, sch)
        assert rec.stripes == files[sch.desired]
        assert set(rec.provenance) == {DIRECT, "window-solved"}
    assert len(sch.sub_supports) == 2
    assert calls == []


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


def count_bmd_decodes(monkeypatch):
    """{code dimension: BMD decodes}, filled by every later bmd_decode."""
    calls: dict[int, int] = {}
    bmd_decode = GrsCode.bmd_decode

    def counted(code, word):
        calls[code.k] = calls.get(code.k, 0) + 1
        return bmd_decode(code, word)
    monkeypatch.setattr(GrsCode, "bmd_decode", counted)
    return calls


def test_decode_um_coset_chains_decode_each_state_once(monkeypatch):
    # on a clean stream every anchor holds: each chain step and trellis
    # branch on the true path is read off a split of step 1, so only the
    # ell+1 sum decodes run
    ell = 8
    sch, files, stream = setup_byz(ell=ell)
    k, t = sch.k, sch.t
    calls = count_bmd_decodes(monkeypatch)
    assert decode_um(stream, sch).stripes == files[0]
    assert calls == {3 * k + t - 1: ell + 1}
    # two errors in every block, beyond the sum radius (1) and within the
    # budget and the coset radius (2): every anchor fails, and the chains
    # merge onto the true path after one step, so they decode each state
    # once, not once per chain
    noisy = apply_errors(stream, ErrorSchedule(tuple(
        (b, j, 1) for b in range(1, ell + 2) for j in (b % 10, (b + 3) % 10)),
        "manual"), 16, 4)
    profile = UmDistanceProfile.for_byzantine(sch.n, k, t)
    assert check_guarantee([2] * (ell + 1), profile)
    calls.clear()
    assert decode_um(noisy, sch).stripes == files[0]
    assert 0 < calls.get(2 * k + t - 1, 0) <= 2 * ell
    # and every trellis branch on the true path is read off a chain's split
    assert calls.get(k + t - 1, 0) == 0


def test_decode_um_encodes_each_stripe_once(monkeypatch):
    # the block, coset and trellis steps share one encoding per stripe and
    # coset code: e1*enc(cur) is c_fwd(cur, 0) and e2*enc(prev) is
    # c_bwd(0, prev).  Block 1 carries three errors, past the coset radius
    # (2), and every other block two, past the sum radius (1): no anchor
    # holds, the forward chain stops at block 1, and the backward chain
    # and the trellis decode with every true stripe
    ell = 6
    sch, files, stream = setup_byz(ell=ell)
    entries = [(1, 9, 5)] + [(b, j, 1) for b in range(1, ell + 2)
                             for j in (b % 9, (b + 4) % 9)]
    schedule = ErrorSchedule(tuple(entries), "manual")
    noisy = apply_errors(stream, schedule, 16, 4)
    weights = schedule.weights(ell + 1)
    assert weights == [3] + [2] * ell
    assert check_guarantee(weights, UmDistanceProfile.for_byzantine(
        sch.n, sch.k, sch.t))
    _, c_fwd, c_bwd, _ = sch.um_codes
    k, zeros = sch.k, (0,) * (sch.k + sch.t - 1)
    encodes: dict[tuple, int] = {}
    encode = GrsCode.encode

    def counted(code, message):
        # (code, stripe): c_fwd encodes (cur, 0) and c_bwd (0, prev)
        m = tuple(message)
        if code is c_fwd and m[k:] == zeros:
            key = "fwd", m[:k]
        elif code is c_bwd and m[:len(zeros)] == zeros:
            key = "bwd", m[len(zeros):]
        else:
            key = code, m
        encodes[key] = encodes.get(key, 0) + 1
        return encode(code, message)
    monkeypatch.setattr(GrsCode, "encode", counted)
    assert decode_um(noisy, sch).stripes == files[0]
    assert {name for name, _ in encodes} == {"fwd", "bwd"}
    assert set(files[0]) <= {stripe for _, stripe in encodes}
    assert max(encodes.values()) == 1
    # a stream whose every anchor holds makes no encode
    encodes.clear()
    noisy = apply_errors(stream, ErrorSchedule(((2, 4, 7), (5, 1, 3)), "manual"),
                         16, 4)
    assert decode_um(noisy, sch).stripes == files[0]
    assert encodes == {}


@pytest.mark.parametrize("f", [Field(2, 8), Field(251)], ids=repr)
def test_decode_um_residuals_make_no_field_call(f, monkeypatch):
    # the byzantine-budget shape (n=16, k=3, t=1) with four errors in every
    # block, past the sum radius (3) and within the coset radius (5): no
    # anchor holds, so the chains and the trellis decode residuals of
    # encoded stripes.  Outside its BMD decodes (whose reader builds
    # eliminate with the scalar methods) decode_um, residuals included,
    # makes no Field call; the scheme's tables are built by a first call
    ell = 5
    code = GrsCode(f, 16, 3, tuple(range(1, 17)))
    sch = byzantine_scheme(code, t=1, m=2, desired=0)
    files = random_files(f, 2, ell, 3, derive_rng(3, "files"))
    stream = run_protocol(storage_encode(files, code), sch,
                          derive_seed(3, "run"))
    schedule = ErrorSchedule(tuple(
        (b, (b + 5 * i) % 16, 1 + i) for b in range(1, ell + 2)
        for i in range(4)), "manual")
    assert check_guarantee(schedule.weights(ell + 1),
                           UmDistanceProfile.for_byzantine(16, 3, 1))
    noisy = apply_errors(stream, schedule, f.q, 7)
    assert decode_um(noisy, sch).stripes == files[0]
    armed = refuse_field_calls(monkeypatch)
    bmd_decode = GrsCode.bmd_decode
    with_stripes = [0]

    def unarmed(code, word):
        with_stripes[0] += code.k < 3 * sch.k + sch.t - 1
        armed[0] = False
        try:
            return bmd_decode(code, word)
        finally:
            armed[0] = True
    monkeypatch.setattr(GrsCode, "bmd_decode", unarmed)
    assert decode_um(noisy, sch).stripes == files[0]
    assert with_stripes[0] > 0


def test_decode_um_builds_each_code_once_per_scheme(monkeypatch):
    # the sum, coset and star codes live on the scheme, so a second
    # decode_um call reuses their parity-check tables.  A decode that its
    # code's kept reader answers computes no syndromes, so block 2 carries
    # e = 3 errors of the star code: beyond the radius of the sum code (1)
    # and of the coset codes (2), within the budget.  Every decode of
    # block 2 but the star code's fails, so no step or branch there is
    # read off a split, and each code makes a full decode.
    sch, files, stream = setup_byz(ell=4)
    noisy = apply_errors(stream, ErrorSchedule(
        ((2, 1, 3), (2, 4, 7), (2, 8, 1)), "manual"), 16, 4)
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
GF256 = Field(2, 8)
GF9 = Field(3, 2)


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
    """A small plain or block scheme over GF(13), GF(16), GF(2^8) or GF(9)
    (the scalar kernel), recovering or not, with memory 0 to 3 (plain) or
    one or two sub-rounds (block), and a stream of it with erased blocks
    and, sometimes, one changed symbol: at a surviving position of its
    sub-round off the sub-support, at a sub-support position, or anywhere
    in a termination block."""
    f = draw(st.sampled_from((GF13, GF16, GF256, GF9)))
    n = draw(st.integers(4, min(9, f.q - 1)))
    k = draw(st.integers(1, 2))
    t = draw(st.integers(1, n - k))
    code = GrsCode(f, n, k, tuple(range(1, n + 1)))
    desired = draw(st.integers(0, 1))
    if draw(st.booleans()):
        d_star_1 = n - (k + t - 1)
        assume(d_star_1 >= k)
        memory = draw(st.integers(0, 3))
        support = draw(st.lists(st.integers(0, n - 1), min_size=k,
                                max_size=d_star_1, unique=True))
        sch = plain_scheme(code, t=t, memory=memory, m=2, desired=desired,
                           support=support)
        window = eps = 1
    else:
        eps = memory = draw(st.integers(1, 3))
        window = draw(st.integers(eps + 1, eps + 3))
        need = min_gamma(k, window, eps)
        assume(need <= n)
        support = draw(st.lists(st.integers(0, n - 1), min_size=need,
                                max_size=n, unique=True))
        sch = block_scheme(code, t=t, eps=eps, window=window, m=2,
                           desired=desired, support=support)
    ell = draw(st.integers(1 if sch.variant == PLAIN else eps + 1, 6))
    seed = draw(st.integers(0, 2 ** 32))
    files = random_files(f, 2, ell, k, derive_rng(seed, "files"))
    stream = run_protocol(storage_encode(files, code), sch,
                          derive_seed(seed, "run"))
    blocks = ell + memory
    how = draw(st.sampled_from(("none", "bursts", "any")))
    if how == "bursts" and sch.variant == BLOCK:
        erased = draw(st.sampled_from(
            gen_burst_patterns(ell, eps, window, eps, "exhaustive"))).erased
    elif how == "any":
        erased = draw(st.sets(st.integers(1, blocks), max_size=blocks))
    else:
        erased = ()
    stream = apply_erasures(stream, ErasureSchedule(frozenset(erased), ell,
                                                    memory, window, eps))
    where = draw(st.sampled_from(("none", "off-support", "support",
                                  "termination")))
    intact = [b for b in range(1, blocks + 1) if b not in erased
              and (b > ell) == (where == "termination")]
    if where != "none" and intact:
        b = draw(st.sampled_from(intact))
        parts = [list(p) for p in stream.blocks[b - 1].parts]
        r = draw(st.integers(0, len(parts) - 1))
        part = sch.sub_supports[r]
        j = draw(st.sampled_from(
            part if where == "support" else
            [j for j in range(n) if j not in part] if where == "off-support"
            else range(n)))
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



def test_a_lag0_system_of_rank_below_k_keeps_the_record_path():
    # with the lag-0 offset zero at all support positions but one, the
    # lag-0 system has rank 1 < k = 2: no block reads its stripe off its
    # own reduced equations, every block is a record, and peeling gives
    # what the rebuild-every-attempt oracle gives
    sch, files, _ = setup_plain()
    lag0 = tuple(x if j == 3 else 0 for j, x in enumerate(sch.e_offsets[0][0]))
    low = dataclasses.replace(sch, e_offsets=((lag0,) + sch.e_offsets[0][1:],))
    assert low._peeling[1] == 1
    assert sch._peeling[1] == sch.k
    stream = run_protocol(storage_encode(files, C6), low, 3)
    got = outcome(recover_plain, stream, low)
    assert got[0] is RankDeficient
    assert got == outcome(oracles.recover_plain, stream, low)

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
    # scheme's reader, so neither decoder encodes a stripe, on
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
    # the reader takes a block's words and stripes s-1..s-M to its erasure
    # checks, all zero on a word that is a star codeword off the support,
    # and E b: b is the desired combination at every support position minus
    # the sum over the known stripes of offset * encode(stripe)[j], and E
    # reduces the lag-0 system.  An unknown stripe, or one before 1 or past
    # ell (a termination block), adds nothing.  The kept tables are the
    # lag coefficients premultiplied by the same E
    sch = share_scheme(name)
    f, code, k, memory = sch.field, sch.storage_code, sch.k, sch.memory
    star = grs.star_product_code(code, sch.retrieval_code)
    ell = data.draw(st.integers(1, 6))
    s = data.draw(st.integers(1, ell + memory))
    symbols = st.integers(0, f.q - 1)
    known = {
        xi: tuple(data.draw(st.lists(symbols, min_size=k, max_size=k)))
        for xi in data.draw(st.sets(st.integers(1, ell)))}
    parts = []
    for part in sch.sub_supports:
        word = star.encode(data.draw(st.lists(symbols, min_size=star.k,
                                              max_size=star.k)))
        for j in part:
            word[j] = data.draw(symbols)
        parts.append(tuple(word))
    desired = oracles.desired_combination(sch, star, Block(INTACT, tuple(parts)))
    units = [code.encode([int(r == c) for c in range(k)]) for r in range(k)]
    raw = [[] for _ in range(memory + 1)]
    b = []
    for part, rows in zip(sch.sub_supports, sch.e_offsets):
        for j in part:
            acc = desired[j]
            for z in range(memory + 1):
                raw[z].append([f.mul(rows[z][j], unit[j]) for unit in units])
                if z and s - z in known:
                    y = code.encode(list(known[s - z]))[j]
                    acc = f.sub(acc, f.mul(rows[z][j], y))
            b.append(acc)
    _, e = linalg.reduce_with_identity(f, raw[0])
    by_lag, _, checked, read, _ = sch._peeling
    for z in range(memory + 1):
        assert all(isinstance(coeffs, tuple) for coeffs in by_lag[z])
        assert [list(coeffs) for coeffs in by_lag[z]] == [
            [oracles.scalar_dot(f, row, column) for column in zip(*raw[z])]
            for row in e]
    out = read([x for word in parts for x in word]
               + [x for z in range(1, memory + 1)
                  for x in known.get(s - z, (0,) * k)])
    assert out[:len(checked)] == [0] * len(checked)
    assert out[len(checked):] == [oracles.scalar_dot(f, row, b) for row in e]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SHARE_CASES)), st.data())
def test_stacking_from_the_pattern_equals_stacking_from_the_records(name, data):
    # blocks waiting on the unknown stripes u0..: each record's fragment
    # per support position runs over the unknown stripes its block
    # touches, oldest first (the kept reduced tuple of its lag when there
    # is one), and sits at the column of the first of them.  Stacking the
    # records so equals stacking their pattern, numbered from u0
    sch = share_scheme(name)
    by_lag = sch._peeling[0]
    k, memory, positions = sch.k, sch.memory, len(by_lag[0])
    ell = data.draw(st.integers(1, 8))
    u0 = data.draw(st.integers(1, ell))
    last = data.draw(st.integers(u0, ell + memory))
    blocks = sorted(data.draw(st.sets(st.integers(u0, last), min_size=1)))
    count = min(last, ell) - u0 + 1
    rows = []
    for s in blocks:
        lags = [s - prev for prev in range(max(s - memory, 1), min(s, ell) + 1)
                if prev >= u0]
        fragments = (by_lag[lags[0]] if len(lags) == 1 else
                     [[c for z in lags for c in by_lag[z][i]]
                      for i in range(positions)])
        at = (s - lags[0] - u0) * k
        for fragment in fragments:
            row = [0] * (count * k)
            row[at: at + len(fragment)] = fragment
            rows.append(row)
    pattern = (count, tuple((s - u0, max(s - memory, u0) - u0,
                             min(s, ell) - u0) for s in blocks))
    assert decoder._stack(by_lag, k, pattern) == rows


def test_each_pattern_is_eliminated_once_as_a_b_and_once_as_a_i(
        monkeypatch, capsys):
    # simulate at seed 11 on two freshly built schemes: below the
    # cell cap, each window pattern of a scheme is reduced as [A | b] on
    # its first sight and as [A | I] on its second, and never again
    counts = {}
    current = []
    solve = decoder._solve_pattern

    def spy(field, patterns, pattern, cols, b, stack):
        below = len(b) * (len(b) + cols) <= decoder._KEPT_CELLS
        current.append((id(patterns), pattern) if below else None)
        try:
            return solve(field, patterns, pattern, cols, b, stack)
        finally:
            current.pop()
    for i, name in enumerate(("solve_unique", "reduce_with_identity")):
        def counted(*args, _i=i, _orig=getattr(decoder, name)):
            if current and current[-1] is not None:
                counts.setdefault(current[-1], [0, 0])[_i] += 1
            return _orig(*args)
        monkeypatch.setattr(decoder, name, counted)
    monkeypatch.setattr(decoder, "_solve_pattern", spy)
    for path, trials in ((BENCH_CONFIGS / "burst-window.ini", 30),
                         (CONFIGS / "block-gf331.ini", 5)):
        assert cli.main(["simulate", "--config", str(path), "--seed", "11",
                         "--trials", str(trials), "--workers", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len({table for table, _ in counts}) == 2
    assert set(map(tuple, counts.values())) == {(1, 0), (1, 1)}


def test_kept_patterns_decode_every_exhaustive_schedule_as_on_first_sight(
        monkeypatch):
    # the 1,638 schedules of the exhaustive burst-window config, decoded
    # twice by one freshly built scheme: the second pass reads kept
    # patterns, and both give the stripes, provenance and errors of the
    # oracle that rebuilds every attempt.  A corrupted support symbol in a
    # block whose patterns are kept raises what it raises on first sight,
    # that is, on an equal scheme built afresh
    sch, ell = config_scheme(CONFIGS / "burst-window-exhaustive.ini")
    w, _, _ = linear_pair(sch, ell, 11)
    schedules = gen_burst_patterns(ell, sch.memory, sch.window, sch.burst,
                                   "exhaustive")
    assert len(schedules) == 1638
    streams = [apply_erasures(w, sched) for sched in schedules]
    first = [outcome(recover_window, stream, sch) for stream in streams]
    assert [outcome(recover_window, stream, sch) for stream in streams] == first
    assert first == [outcome(oracles.recover_window, stream, sch)
                     for stream in streams]
    patterns = sch._peeling[4]
    assert any(entry is not None for entry in patterns.values())

    f = sch.field
    stream, erased = next((stream, sorted(sched.erased))
                          for stream, sched, got in zip(streams, schedules, first)
                          if sched.erased and not isinstance(got[0], type))
    b = next(xi for xi in range(erased[0], ell + 1) if xi not in erased)
    blocks = list(stream.blocks)
    parts = [list(word) for word in blocks[b - 1].parts]
    j = sch.sub_supports[0][0]
    parts[0][j] = f.add(parts[0][j], 1)
    blocks[b - 1] = Block(ERRORED, tuple(map(tuple, parts)))
    noisy = ResponseStream(stream.n, stream.ell, stream.memory, stream.rounds,
                           tuple(blocks))
    unseen = outcome(recover_window, noisy, dataclasses.replace(sch))
    assert unseen[0] is InconsistentBlock
    assert unseen == outcome(oracles.recover_window, noisy, sch)
    for _ in range(2):
        recover_window(stream, sch)
    attempts = []
    solve = decoder._solve_pattern

    def kept_only(field, table, pattern, *rest):
        attempts.append(table[pattern] is not None)
        return solve(field, table, pattern, *rest)
    monkeypatch.setattr(decoder, "_solve_pattern", kept_only)
    assert outcome(recover_window, noisy, sch) == unseen
    assert attempts and all(attempts)


def test_the_erasure_rule_bounds_the_patterns_a_scheme_keeps(monkeypatch):
    # the cell cap is the only bound on a scheme's table, and the erasure
    # rule keeps it finite: a pattern spans at most one window of N blocks
    # from the oldest unknown stripe, at most eps of them erased.  The
    # 1,638 schedules of the exhaustive burst-window config meet 116
    # patterns, 6 of them past the cap, and the table keeps the other 110
    # from their second sight, so a second pass over the schedules makes
    # no elimination below the cap
    sch, ell = config_scheme(CONFIGS / "burst-window-exhaustive.ini")
    w, _, _ = linear_pair(sch, ell, 11)
    streams = [apply_erasures(w, sched) for sched in gen_burst_patterns(
        ell, sch.memory, sch.window, sch.burst, "exhaustive")]
    met, below, calls = set(), [], [0, 0]
    solve = decoder._solve_pattern

    def spy(field, patterns, pattern, cols, b, stack):
        met.add(pattern)
        below.append(len(b) * (len(b) + cols) <= decoder._KEPT_CELLS)
        try:
            return solve(field, patterns, pattern, cols, b, stack)
        finally:
            below.pop()
    for i, name in enumerate(("solve_unique", "reduce_with_identity")):
        def counted(*args, _i=i, _orig=getattr(decoder, name)):
            calls[_i] += bool(below and below[-1])
            return _orig(*args)
        monkeypatch.setattr(decoder, name, counted)
    monkeypatch.setattr(decoder, "_solve_pattern", spy)
    first = [outcome(recover_window, stream, sch) for stream in streams]
    patterns = sch._peeling[4]
    assert len(met) == 116 and len(patterns) == 110
    assert all(entry is not None for entry in patterns.values())
    assert calls == [110, 110]
    for count, records in met:
        last = records[-1][0]
        assert count <= sch.window and last < sch.window
        assert last + 1 - len(records) <= sch.burst
    assert [outcome(recover_window, stream, sch) for stream in streams] == first
    assert calls == [110, 110]
    assert len(met) == 116 and len(patterns) == 110


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


# --- kept readers: which reader a BMD decode tries first changes no answer ---
#
# bmd_decode reads each word first through the reader its code keeps
# (``GrsCode._kept``): that of all n positions, or that of the first k
# positions outside the errors its last full decode found, once a later
# word shows them again.  A codeword within the radius of a word is
# unique, so the kept state only picks the reader tried first: with every
# kept state cleared before each BMD decode, each of which then reads
# through all n positions and runs Berlekamp-Massey if that read fails,
# every stream decodes to the same stripes or fails with the same error
# and text.

@pytest.mark.parametrize("path", [BENCH_CONFIGS / "byzantine-budget.ini",
                                  CONFIGS / "byzantine-random-gf16.ini"],
                         ids=lambda path: path.stem)
def test_decode_um_answers_alike_with_and_without_kept_readers(path,
                                                               monkeypatch):
    sch, ell = config_scheme(path)
    f = sch.field
    profile = UmDistanceProfile.for_byzantine(sch.n, sch.k, sch.t)
    streams = []
    for mode, b, seeds in (("budget", None, 6), ("fixed-byzantine", 2, 3),
                           ("random", None, 12)):
        for seed in range(seeds):
            w, _, _ = linear_pair(sch, ell, seed)
            sched = gen_error_schedule(profile, ell, sch.memory, sch.n, f.q,
                                       mode, derive_seed(seed, "errors"), b=b)
            streams.append(apply_errors(w, sched, f.q,
                                        derive_seed(seed, "values")))
    solves = count_solves(monkeypatch)
    kept = [outcome(decode_um, noisy, sch) for noisy in streams]
    with_kept = solves[0]
    bmd_decode = GrsCode.bmd_decode

    def cleared(code, word):
        vars(code).pop("_kept", None)
        return bmd_decode(code, word)
    monkeypatch.setattr(GrsCode, "bmd_decode", cleared)
    solves[0] = 0
    assert [outcome(decode_um, noisy, sch) for noisy in streams] == kept
    # the kept readers were in play, and failures were compared too
    assert with_kept < solves[0]
    assert any(isinstance(got[0], type) for got in kept)


def trial_counts(path, trials, monkeypatch):
    """(Berlekamp-Massey runs, reader builds) of trials 0..trials-1 of the
    config at ``path`` at simulate seed 11, on a freshly built scheme, each
    of which must decode."""
    cfg = load_config(path)
    _, _, sch, ell = build_scheme(cfg)
    channel = cli._check_channel(cfg.channel, sch, ell)
    solves = count_solves(monkeypatch)
    builds = count_reader_builds(monkeypatch)
    for trial in range(trials):
        assert cli._run_one_trial(sch, ell, channel, 11, trial, None)[0]
    return solves[0], builds[0]


def test_splits_and_kept_readers_leave_few_budget_solves(monkeypatch):
    # byzantine-budget's first five trials at simulate seed 11 make 168 BMD
    # decodes once chain steps and trellis branches are read off splits.
    # 150 run Berlekamp-Massey, each a full decode.  The errors move from
    # block to block, so no word's locator is the one its code kept, and
    # the four codes build no reader, where a reader per set of errors
    # made 58 builds
    solves, builds = trial_counts(BENCH_CONFIGS / "byzantine-budget.ini", 5,
                                  monkeypatch)
    assert solves <= 150
    assert builds <= 1


def test_kept_readers_leave_few_fixed_solves(monkeypatch):
    # byzantine-fixed's two bad servers lie at the same positions in every
    # block: of its 105 sum decodes in the first five trials at simulate
    # seed 11, 4 run the full decode, and each of the 4 sets of errors
    # they find is found again by the next word's Berlekamp-Massey run and
    # gets its reader, which reads the rest of the trial: 8 runs in all
    solves, builds = trial_counts(BENCH_CONFIGS / "byzantine-fixed.ini", 5,
                                  monkeypatch)
    assert solves <= 8
    assert builds <= 4


@pytest.mark.parametrize("path, trials, builds", [
    (BENCH_CONFIGS / "burst-window.ini", 30, 1),
    (CONFIGS / "block-two-rounds.ini", 5, 2),
    (BENCH_CONFIGS / "plain-stream.ini", 10, 1),
], ids=["burst-window", "block-two-rounds", "plain-stream"])
def test_peeling_builds_one_reader_per_sub_round(path, trials, builds,
                                                 monkeypatch, capsys):
    # simulate at seed 11, on a freshly built scheme: the peeling tables
    # build each sub-round's star reader once per scheme, and every block
    # reads through the scheme's one map, so no block builds a reader, and
    # no cache of readers would hide one that did
    counted = count_reader_builds(monkeypatch)
    assert cli.main(["simulate", "--config", str(path), "--seed", "11",
                     "--trials", str(trials), "--workers", "1"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert counted[0] == builds


def test_budget_errors_at_n_100_build_few_readers(monkeypatch):
    # at n = 100 budget errors sit at fresh positions in every block: of
    # the 127 BMD decodes of trials 0-1 at simulate seed 11, 123 run
    # Berlekamp-Massey, and no set of errors repeats, so the four codes
    # build no reader, where a reader per set of errors made 73 builds
    solves, builds = trial_counts(CONFIGS / "byzantine-budget-n100.ini", 2,
                                  monkeypatch)
    assert solves <= 123
    assert builds == 0


# --- splits: a decode that fixes both stripes answers the smaller codes ------

@pytest.mark.parametrize("path", [CONFIGS / "byzantine-random-gf16.ini",
                                  BENCH_CONFIGS / "byzantine-budget.ini"],
                         ids=lambda p: p.stem)
def test_decode_um_matches_the_decode_every_step_oracle(path):
    # the splits and the seen states only spare decodes: within the budget
    # and beyond it, where anchors and chain steps miscorrect and trials
    # fail, decode_um answers as the oracle that decodes every step does,
    # failures and their text included
    sch, ell = config_scheme(path)
    f = sch.field
    profile = UmDistanceProfile.for_byzantine(sch.n, sch.k, sch.t)
    for mode, seeds in (("budget", 10), ("random", 200)):
        for seed in range(seeds):
            w, _, _ = linear_pair(sch, ell, seed)
            sched = gen_error_schedule(profile, ell, sch.memory, sch.n, f.q,
                                       mode, derive_seed(seed, "errors"))
            noisy = apply_errors(w, sched, f.q, derive_seed(seed, "values"))
            assert outcome(decode_um, noisy, sch) == outcome(
                oracles.decode_um, noisy, sch), (mode, seed)


NESTED_SCHEMES = ((GF16, 10, 2, 2), (GF256, 16, 3, 1), (GF13, 12, 2, 2))


def scaled_encode(scheme, offsets, stripe):
    """offsets * enc(stripe), position by position."""
    f = scheme.field
    return list(map(f.mul, offsets, scheme.storage_code.encode(list(stripe))))


# (field, n, k, t) of Byzantine schemes whose coset codes encode the scaled
# stripes of decode_um's residuals, GF(27) on the scalar kernel
COSET_SCHEMES = ((GF16, 10, 2, 2), (GF256, 16, 3, 1), (GF13, 12, 2, 2),
                 (Field(3, 3), 14, 3, 2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COSET_SCHEMES), st.data())
def test_coset_codes_encode_the_scaled_stripes(shape, data):
    # with the other message terms zero, c_fwd(cur, 0) = e1*enc(cur) and
    # c_bwd(0, prev) = e2*enc(prev), since e1_j a_j^(k+i) = a_j^i and
    # e2_j a_j^i = a_j^(k+t-1+i): the products decode_um's residuals
    # subtract, here against Field.mul entry by entry
    f, n, k, t = shape
    locs = data.draw(st.lists(st.integers(1, f.q - 1), min_size=n,
                              max_size=n, unique=True))
    sch = byzantine_scheme(GrsCode(f, n, k, tuple(locs)), t=t, m=2,
                           desired=0)
    e1, e2 = sch.e_offsets[0]
    _, c_fwd, c_bwd, _ = sch.um_codes
    stripe = data.draw(st.lists(st.integers(0, f.q - 1), min_size=k,
                                max_size=k))
    zeros = [0] * (k + t - 1)
    assert c_fwd.encode(stripe + zeros) == scaled_encode(sch, e1, stripe)
    assert c_bwd.encode(zeros + stripe) == scaled_encode(sch, e2, stripe)


def minus(f, word, *terms):
    """word minus each of the terms, position by position."""
    for term in terms:
        word = list(map(f.sub, word, term))
    return word


def assert_split_decodes(scheme, word, prev, cur, z, errors):
    """The coset and star codes decode block word ``word``'s residuals for
    (prev, cur) to that split, with the errors ``errors``."""
    f = scheme.field
    e1, e2 = scheme.e_offsets[0]
    _, c_fwd, c_bwd, c_int = scheme.um_codes
    s_cur, s_prev = scaled_encode(scheme, e1, cur), scaled_encode(scheme, e2, prev)
    assert c_fwd.bmd_decode(minus(f, word, s_prev)) == (
        list(cur) + list(z), errors)
    assert c_bwd.bmd_decode(minus(f, word, s_cur)) == (
        list(z) + list(prev), errors)
    assert c_int.bmd_decode(minus(f, word, s_cur, s_prev)) == (list(z), errors)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NESTED_SCHEMES), st.sampled_from(("sum", "fwd", "bwd")),
       st.data())
def test_a_split_decodes_alike_in_every_smaller_code(shape, start, data):
    # decode_um reads a chain step or a trellis branch off a sum or coset
    # decode of the same block that fixed both stripes: c_sum(cur, z, prev)
    # = e1*enc(cur) + c_int(z) + e2*enc(prev), and c_fwd and c_bwd drop one
    # term each.  Words carry up to the star radius in errors, so some
    # decodes fail and some land on a wrong codeword; any split a decode
    # returns must come back from the smaller codes
    f, n, k, t = shape
    code = GrsCode(f, n, k, tuple(range(1, n + 1)))
    sch = byzantine_scheme(code, t=t, m=2, desired=0)
    e1, e2 = sch.e_offsets[0]
    c_sum, c_fwd, c_bwd, c_int = sch.um_codes
    symbols = st.integers(0, f.q - 1)
    stripe = st.lists(symbols, min_size=k, max_size=k).map(tuple)
    msg = data.draw(st.lists(symbols, min_size=c_sum.k, max_size=c_sum.k))
    word = c_sum.encode(msg)
    weight = data.draw(st.integers(0, (c_int.d - 1) // 2))
    for j in data.draw(st.lists(st.integers(0, n - 1), min_size=weight,
                                max_size=weight, unique=True)):
        word[j] = f.add(word[j], data.draw(st.integers(1, f.q - 1)))
    true_prev, true_cur = tuple(msg[2 * k + t - 1:]), tuple(msg[:k])
    try:
        if start == "sum":
            got, errors = c_sum.bmd_decode(word)
            prev, cur = tuple(got[2 * k + t - 1:]), tuple(got[:k])
            z = got[k:2 * k + t - 1]
        elif start == "fwd":
            prev = data.draw(st.just(true_prev) | stripe)
            got, errors = c_fwd.bmd_decode(
                minus(f, word, scaled_encode(sch, e2, prev)))
            cur, z = tuple(got[:k]), got[k:]
        else:
            cur = data.draw(st.just(true_cur) | stripe)
            got, errors = c_bwd.bmd_decode(
                minus(f, word, scaled_encode(sch, e1, cur)))
            z, prev = got[:k + t - 1], tuple(got[k + t - 1:])
    except DecodingFailure:
        return
    assert len(errors) <= (c_fwd.d - 1) // 2
    assert_split_decodes(sch, word, prev, cur, z, errors)


def min_weight_codeword(code, zeros, one):
    """The codeword of ``code`` that is 0 at the k-1 positions ``zeros`` and
    1 at ``one``: nonzero at exactly d = n-k+1 positions."""
    word = [None] * code.n
    for j in zeros:
        word[j] = 0
    word[one] = 1
    return code.encode(code.erasure_decode(word))


def test_decode_um_recovers_through_wrong_anchors():
    # ROADMAP item 8's adversarial values: a block of weight w, with
    # d_alpha - (d_alpha-1)//2 <= w < d_alpha, carries w symbols of a
    # minimum-weight codeword of the sum code, so its word lies within the
    # sum radius of a wrong codeword and step 1 anchors it wrongly.  The
    # wrong split is kept, and chain steps from the wrong anchor derive
    # from it; the budget still holds, so the files must come back
    f, n, k, t, ell = GF256, 16, 3, 1, 6
    code = GrsCode(f, n, k, tuple(range(1, n + 1)))
    sch = byzantine_scheme(code, t=t, m=2, desired=0)
    c_sum = sch.um_codes[0]
    profile = UmDistanceProfile.for_byzantine(n, k, t)
    low = profile.d_alpha - (profile.d_alpha - 1) // 2
    rng = random.Random(8)
    zero = (0,) * k
    wrong = 0
    for trial in range(30):
        weights = []
        while max(weights, default=0) < low or not check_guarantee(weights,
                                                                   profile):
            weights = [rng.randint(low, profile.d_alpha - 1)
                       if rng.random() < 0.3 else rng.randint(0, 3)
                       for _ in range(ell + 1)]
        files = random_files(f, 2, ell, k, derive_rng(trial, "files"))
        stream = run_protocol(storage_encode(files, code), sch,
                              derive_seed(trial, "run"))
        entries = []
        for b, w in enumerate(weights, 1):
            if w < low:
                entries += [(b, j, rng.randrange(f.q))
                            for j in rng.sample(range(n), w)]
                continue
            order = rng.sample(range(n), n)
            cw = min_weight_codeword(c_sum, order[:c_sum.k - 1],
                                     order[c_sum.k - 1])
            word = stream.block(b).parts[0]
            entries += [(b, j, f.add(word[j], cw[j]))
                        for j in rng.sample([j for j in range(n) if cw[j]], w)]
        noisy = apply_errors(stream, ErrorSchedule(tuple(entries), "manual"),
                             f.q, trial)
        truth = (zero,) + files[0] + (zero,)
        for b in range(1, ell + 2):
            try:
                msg, _ = c_sum.bmd_decode(noisy.block(b).parts[0])
            except DecodingFailure:
                continue
            wrong += (tuple(msg[:k]), tuple(msg[2 * k + t - 1:])) != (
                truth[b], truth[b - 1])
        assert decode_um(noisy, sch).stripes == files[0], weights
    assert wrong > 0


@pytest.mark.parametrize("name", ["byzantine-fixed", "byzantine-budget"])
def test_decode_um_reads_anchored_blocks_off_their_splits(name, monkeypatch):
    # the first five trials at simulate seed 11 made 410 BMD decodes on
    # byzantine-fixed (105 sum, 200 coset, 105 star) and 308 coset and
    # star decodes on byzantine-budget; with chain steps and trellis
    # branches read off the splits, byzantine-fixed makes only its 105
    # sum decodes, and byzantine-budget 63 coset and star decodes
    cfg = load_config(BENCH_CONFIGS / f"{name}.ini")
    _, _, sch, ell = build_scheme(cfg)
    channel = cli._check_channel(cfg.channel, sch, ell)
    calls = count_bmd_decodes(monkeypatch)
    for trial in range(5):
        assert cli._run_one_trial(sch, ell, channel, 11, trial, None)[0]
    sum_k = 3 * sch.k + sch.t - 1
    if name == "byzantine-fixed":
        assert calls == {sum_k: 105}
    else:
        assert sum(v for key, v in calls.items() if key != sum_k) <= 100
