import pytest

from pirstream.channels import (
    ErasureSchedule,
    ErrorSchedule,
    apply_erasures,
    apply_errors,
    gen_burst_patterns,
    gen_error_schedule,
)
from pirstream.decoder import UmDistanceProfile, check_guarantee
from pirstream.errors import InvalidParams
from pirstream.fields import Field
from pirstream.grs import GrsCode
from pirstream.protocol import ERASED, ERRORED, byzantine_scheme, random_files, run_protocol, storage_encode
from pirstream.seeds import derive_rng

GF16 = Field(2, 4)
C10 = GrsCode(GF16, 10, 2, tuple(range(1, 11)))
PROF = UmDistanceProfile.for_byzantine(10, 2, 2)


def byz_stream(seed=9):
    sch = byzantine_scheme(C10, t=2, m=2, desired=0)
    files = random_files(GF16, 2, 3, 2, derive_rng(5, "fz"))
    return run_protocol(storage_encode(files, C10), sch, seed=seed)


def test_shifted_family_reference_pattern():
    pats = gen_burst_patterns(22, 2, 5, 2, "shifted-family")
    assert len(pats) == 5
    assert pats[0].erased == frozenset({1, 2, 6, 7, 11, 12, 16, 17, 21, 22})
    assert pats[3].erased == frozenset({4, 5, 9, 10, 14, 15, 19, 20, 24})
    assert pats[4].erased == frozenset({1, 5, 6, 10, 11, 15, 16, 20, 21})
    for p in pats:
        assert p.is_valid()


def test_eps_zero_single_empty_schedule():
    pats = gen_burst_patterns(4, 0, 3, 0, "shifted-family")
    assert len(pats) == 1 and pats[0].erased == frozenset()


def test_exhaustive_contains_all_singletons():
    pats = gen_burst_patterns(4, 1, 3, 1, "exhaustive")
    singles = {tuple(sorted(p.erased)) for p in pats if len(p.erased) == 1}
    assert singles == {(1,), (2,), (3,), (4,), (5,)}
    for p in pats:
        assert p.is_valid()


def test_schedule_validity():
    ok = ErasureSchedule(frozenset({2}), 4, 1, 3, 1)
    assert ok.is_valid()
    too_long = ErasureSchedule(frozenset({2, 3}), 4, 1, 3, 1)
    assert not too_long.is_valid()
    too_dense = ErasureSchedule(frozenset({1, 3}), 4, 1, 3, 1)
    assert not too_dense.is_valid()
    spaced = ErasureSchedule(frozenset({1, 4}), 4, 1, 3, 1)
    assert spaced.is_valid()
    # a stream shorter than the window: the one window is clipped at the
    # stream end and still holds at most eps erasures
    short_dense = ErasureSchedule(frozenset({1, 2, 4, 5}), 3, 2, 6, 2)
    assert not short_dense.is_valid()
    assert not ErasureSchedule(frozenset({1, 3, 5}), 3, 2, 6, 2).is_valid()
    assert ErasureSchedule(frozenset({1, 5}), 3, 2, 6, 2).is_valid()
    short = gen_burst_patterns(3, 2, 6, 2, "exhaustive")
    assert short_dense not in short
    assert all(len(p.erased) <= 2 for p in short)


def test_random_burst_mode_valid_and_deterministic():
    a = gen_burst_patterns(12, 2, 5, 2, "random", seed=3, count=25)
    b = gen_burst_patterns(12, 2, 5, 2, "random", seed=3, count=25)
    assert [p.erased for p in a] == [p.erased for p in b]
    assert all(p.is_valid() for p in a)


def test_apply_erasures():
    stream = byz_stream()
    sched = ErasureSchedule(frozenset({2}), 3, 1, 3, 1)
    out = apply_erasures(stream, sched)
    assert out.block(2).status == ERASED and out.block(2).parts is None
    assert out.block(1) == stream.block(1)
    empty = ErasureSchedule(frozenset(), 3, 1, 3, 1)
    assert apply_erasures(stream, empty).blocks == stream.blocks
    full = ErasureSchedule(frozenset(range(1, 5)), 3, 1, 3, 1)
    assert all(b.status == ERASED for b in apply_erasures(stream, full).blocks)


def test_budget_mode_respects_guarantee():
    for i in range(30):
        sched = gen_error_schedule(PROF, 3, 1, 10, 16, "budget", seed=100 + i)
        assert check_guarantee(sched.weights(4), PROF)


def test_fixed_byzantine_same_servers():
    sched = gen_error_schedule(PROF, 3, 1, 10, 16, "fixed-byzantine", seed=4, b=2)
    per_block = {}
    for b, j, _ in sched.entries:
        per_block.setdefault(b, set()).add(j)
    assert len(per_block) == 4
    servers = next(iter(per_block.values()))
    assert all(s == servers for s in per_block.values())
    assert len(servers) == 2


def test_none_mode_empty():
    sched = gen_error_schedule(PROF, 3, 1, 10, 16, "none", seed=1)
    assert sched.entries == ()


def test_apply_errors_changes_exactly_listed_symbols():
    stream = byz_stream()
    sched = ErrorSchedule(((2, 4, 7), (3, 1, 2)), "manual")
    out = apply_errors(stream, sched, q=16, seed=5)
    assert out.block(2).status == ERRORED
    assert out.block(1) == stream.block(1)
    diffs2 = [j for j in range(10)
              if out.block(2).part(0)[j] != stream.block(2).part(0)[j]]
    assert diffs2 == [4]
    diffs3 = [j for j in range(10)
              if out.block(3).part(0)[j] != stream.block(3).part(0)[j]]
    assert diffs3 == [1]


def test_apply_errors_never_noop():
    stream = byz_stream()
    for seed in range(30):
        sched = gen_error_schedule(PROF, 3, 1, 10, 16, "budget", seed=seed)
        out = apply_errors(stream, sched, q=16, seed=seed)
        for b, j, _ in sched.entries:
            assert out.block(b).part(0)[j] != stream.block(b).part(0)[j]


def test_apply_errors_deterministic():
    stream = byz_stream()
    sched = gen_error_schedule(PROF, 3, 1, 10, 16, "budget", seed=2)
    a = apply_errors(stream, sched, q=16, seed=7)
    b = apply_errors(stream, sched, q=16, seed=7)
    assert a.blocks == b.blocks


def test_error_schedule_csv():
    sched = ErrorSchedule(((2, 4, 7),), "manual")
    assert sched.to_csv() == "block,server,kind\n2,4,error\n"
    es = ErasureSchedule(frozenset({3, 1}), 4, 1, 3, 1)
    assert es.to_csv() == "block,server,kind\n1,,erase\n3,,erase\n"


def test_gen_burst_bad_mode():
    with pytest.raises(InvalidParams):
        gen_burst_patterns(4, 1, 3, 1, "nope")


def test_schedule_csv_replay():
    from pirstream.channels import erasure_schedule_from_csv, error_schedule_from_csv
    es = ErasureSchedule(frozenset({1, 4}), 4, 1, 3, 1)
    back = erasure_schedule_from_csv(es.to_csv(), 4, 1, 3, 1)
    assert back.erased == es.erased
    sched = ErrorSchedule(((2, 4, 7), (3, 1, 2)), "manual")
    replay = error_schedule_from_csv(sched.to_csv())
    assert [(b, j) for b, j, _ in replay.entries] == [(2, 4), (3, 1)]
    stream = byz_stream()
    out = apply_errors(stream, replay, q=16, seed=3)
    for b, j, _ in replay.entries:
        assert out.block(b).part(0)[j] != stream.block(b).part(0)[j]
