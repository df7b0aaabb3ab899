import random

import pytest
from hypothesis import given, settings, strategies as st

from pirstream import channels
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
from pirstream.seeds import derive_rng, derive_seed

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


def full_draw_schedule(profile, ell, memory, n, q, mode, seed):
    """The budget sampler that draws every block of an attempt before it
    checks the budget once; returns the schedule and its attempt count."""
    cap = (profile.dbar(1) - 1) // 2
    for attempt in range(10000):
        rng = derive_rng(seed, "errors", attempt)
        entries = []
        weights = []
        for blk in range(1, ell + memory + 1):
            w = rng.randint(0, cap)
            weights.append(w)
            for j in sorted(rng.sample(range(n), w)):
                entries.append((blk, j, rng.randrange(q)))
        if mode == "random" or check_guarantee(weights, profile):
            return ErrorSchedule(tuple(entries), mode), attempt + 1
    raise InvalidParams("could not sample a budget-respecting schedule")


def counting_attempts(monkeypatch):
    """Count the per-attempt ``derive_rng(seed, "errors", i)`` calls of
    ``gen_error_schedule``."""
    attempts = []
    orig = channels.derive_rng

    def rng(master, *labels):
        if labels[:1] == ("errors",) and isinstance(labels[-1], int):
            attempts.append(labels[-1])
        return orig(master, *labels)
    monkeypatch.setattr(channels, "derive_rng", rng)
    return attempts


# (field order, n, k, t): GF(16) shapes and the benchmark's GF(2^8) shape
SAMPLER_SHAPES = ((16, 8, 2, 1), (16, 10, 2, 2), (16, 12, 2, 1),
                  (256, 16, 3, 1), (256, 12, 3, 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SAMPLER_SHAPES), st.integers(1, 8), st.integers(0, 1),
       st.sampled_from(("budget", "random")), st.integers(0, 2 ** 32))
def test_budget_sampler_matches_full_draws(shape, ell, memory, mode, seed):
    q, n, k, t = shape
    profile = UmDistanceProfile.for_byzantine(n, k, t)
    expected, expected_attempts = full_draw_schedule(
        profile, ell, memory, n, q, mode, seed)
    with pytest.MonkeyPatch.context() as mp:
        attempts = counting_attempts(mp)
        sched = gen_error_schedule(profile, ell, memory, n, q, mode, seed)
    assert sched == expected
    assert attempts == list(range(expected_attempts))


# The benchmark's byzantine-budget shape, whose sampler gives up at seed 11,
# trial 4 after 10,000 rejected attempts.
GIVE_UP = (UmDistanceProfile.for_byzantine(16, 3, 1), 20, 1, 16, 256,
           "budget", derive_seed(11, "errors", 4))


def test_budget_sampler_gives_up_like_full_draws(monkeypatch):
    with pytest.raises(InvalidParams) as expected:
        full_draw_schedule(*GIVE_UP)
    attempts = counting_attempts(monkeypatch)
    with pytest.raises(InvalidParams) as raised:
        gen_error_schedule(*GIVE_UP)
    assert str(raised.value) == str(expected.value)
    assert attempts == list(range(10000))


def test_budget_sampler_stops_an_attempt_at_its_first_failing_block(monkeypatch):
    # drawing all 21 blocks of each rejected attempt would make 21 weight
    # draws per attempt
    draws = []

    class CountingRandom(random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)
    monkeypatch.setattr(channels, "derive_rng", lambda master, *labels:
                        CountingRandom(derive_seed(master, *labels)))
    attempts = counting_attempts(monkeypatch)
    with pytest.raises(InvalidParams):
        gen_error_schedule(*GIVE_UP)
    assert len(attempts) == 10000
    assert len(draws) < 5 * len(attempts)


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
              if out.block(2).parts[0][j] != stream.block(2).parts[0][j]]
    assert diffs2 == [4]
    diffs3 = [j for j in range(10)
              if out.block(3).parts[0][j] != stream.block(3).parts[0][j]]
    assert diffs3 == [1]


def test_apply_errors_never_noop():
    stream = byz_stream()
    for seed in range(30):
        sched = gen_error_schedule(PROF, 3, 1, 10, 16, "budget", seed=seed)
        # the drawn values, every value 0, and every value equal to the
        # stored symbol: each entry must still change its symbol
        stored = tuple((b, j, stream.block(b).parts[0][j])
                       for b, j, _ in sched.entries)
        for entries in (sched.entries,
                        tuple((b, j, 0) for b, j, _ in sched.entries),
                        stored):
            out = apply_errors(stream, ErrorSchedule(entries, "manual"),
                               q=16, seed=seed)
            for b, j, _ in entries:
                assert out.block(b).parts[0][j] != stream.block(b).parts[0][j]


def test_apply_errors_deterministic():
    stream = byz_stream()
    sched = gen_error_schedule(PROF, 3, 1, 10, 16, "budget", seed=2)
    a = apply_errors(stream, sched, q=16, seed=7)
    b = apply_errors(stream, sched, q=16, seed=7)
    assert a.blocks == b.blocks


def test_gen_burst_bad_mode():
    with pytest.raises(InvalidParams):
        gen_burst_patterns(4, 1, 3, 1, "nope")


def test_eps_zero_still_checks_the_mode():
    with pytest.raises(InvalidParams, match="unknown mode 'bogus'"):
        gen_burst_patterns(4, 0, 3, 0, "bogus")


def test_eps_zero_still_checks_the_window():
    with pytest.raises(InvalidParams, match="need N > eps"):
        gen_burst_patterns(4, 0, 0, 0, "random")
