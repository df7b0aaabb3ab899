import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pirstream import channels
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
from pirstream.decoder import UmDistanceProfile, _erasure_violation, check_guarantee
from pirstream.errors import ChannelGeneratorError, InvalidParams
from pirstream.fields import Field
from pirstream.grs import GrsCode
from pirstream.protocol import ERASED, ERRORED, byzantine_scheme, random_files, run_protocol, storage_encode
from pirstream.seeds import derive_rng, derive_seed

import oracles

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


@pytest.mark.parametrize("stream_len", [1, 5, 8])
def test_erasure_rule_matches_the_window_by_window_oracle(stream_len):
    # every subset of the blocks, with a block just outside the stream on
    # either side, against every window from empty to past the stream
    # end and every eps: the sliding count gives the reason, and so the
    # first window, that counting every window afresh gives
    blocks = range(0, stream_len + 2)
    for r in range(len(blocks) + 1):
        for erased in itertools.combinations(blocks, r):
            for window in range(0, stream_len + 3):
                for eps in range(0, 4):
                    assert _erasure_violation(
                        erased, stream_len, window, eps) == oracles.erasure_violation(
                        erased, stream_len, window, eps), (erased, window, eps)


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


def full_draw_schedule(profile, ell, memory, n, q, seed):
    """Random mode written out: from ``derive_rng(seed, "errors", 0)``,
    each block's weight up to (dbar(1) - 1) // 2, then its servers and
    proposed values, block by block."""
    cap = (profile.dbar(1) - 1) // 2
    rng = derive_rng(seed, "errors", 0)
    entries = []
    for blk in range(1, ell + memory + 1):
        w = rng.randint(0, cap)
        for j in sorted(rng.sample(range(n), w)):
            entries.append((blk, j, rng.randrange(q)))
    return ErrorSchedule(tuple(entries), "random")


def counting_rngs(monkeypatch):
    """Record the labels of every ``derive_rng`` call of
    ``gen_error_schedule``."""
    labels_seen = []
    orig = channels.derive_rng

    def rng(master, *labels):
        labels_seen.append(labels)
        return orig(master, *labels)
    monkeypatch.setattr(channels, "derive_rng", rng)
    return labels_seen


# (field order, n, k, t): GF(16) shapes and the benchmark's GF(2^8) shape
SAMPLER_SHAPES = ((16, 8, 2, 1), (16, 10, 2, 2), (16, 12, 2, 1),
                  (256, 16, 3, 1), (256, 12, 3, 2))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SAMPLER_SHAPES), st.integers(1, 8), st.integers(0, 1),
       st.integers(0, 2 ** 32))
def test_random_mode_matches_full_draws(shape, ell, memory, seed):
    q, n, k, t = shape
    profile = UmDistanceProfile.for_byzantine(n, k, t)
    with pytest.MonkeyPatch.context() as mp:
        labels = counting_rngs(mp)
        sched = gen_error_schedule(profile, ell, memory, n, q, "random", seed)
    assert sched == full_draw_schedule(profile, ell, memory, n, q, seed)
    assert labels == [("errors", 0)]


def brute_force_budget_weights(profile, stream_len):
    """Every weight sequence up to (dbar(1) - 1) // 2 per block that passes
    ``check_guarantee``, in lexicographic order."""
    cap = (profile.dbar(1) - 1) // 2
    return [list(w) for w in itertools.product(range(cap + 1),
                                               repeat=stream_len)
            if check_guarantee(w, profile)]


# the profiles of GF(16) shapes (n, k, t) with block distances 3, 4, 5, 7
# and 2, then profiles no scheme gives: window limits d1 + d2 - 2 d_alpha
# at or below zero, and block distances above the coset ones
BUDGET_PROFILES = tuple(
    UmDistanceProfile.for_byzantine(*shape)
    for shape in ((8, 2, 1), (10, 2, 2), (12, 2, 3), (12, 2, 1), (10, 3, 1))
) + tuple(UmDistanceProfile(*d) for d in ((1, 1, 1), (5, 2, 9), (2, 7, 3),
                                          (4, 4, 4), (3, 1, 12)))


@pytest.mark.parametrize("profile", BUDGET_PROFILES,
                         ids=lambda p: f"{p.d_alpha}-{p.d1}-{p.d2}")
def test_unranking_lists_every_budget_sequence_once(profile):
    # streams of up to 4 blocks (ell <= 4), against brute force
    for stream_len in range(5):
        expected = brute_force_budget_weights(profile, stream_len)
        assert count_budget_weights(profile, stream_len) == len(expected)
        assert [unrank_budget_weights(profile, stream_len, r)
                for r in range(len(expected))] == expected


@pytest.mark.parametrize("profile", BUDGET_PROFILES + tuple(
    UmDistanceProfile.for_byzantine(*shape)
    for shape in ((16, 3, 1), (100, 10, 1), (30, 5, 3))),
    ids=lambda p: f"{p.d_alpha}-{p.d1}-{p.d2}")
def test_budget_tables_match_the_sum_over_weights(profile):
    # every entry of the tables, at the byzantine-budget and n = 100
    # shapes too, is the oracle's sum over the block weights
    for stream_len in (0, 1, 2, 5, 21, 41):
        assert (channels._budget_counts(profile, stream_len)
                == oracles.budget_counts(profile, stream_len))


def test_budget_count_on_the_benchmark_shape():
    # n=16, k=3, t=1 over GF(2^8) with ell=20, M=1: 21 blocks, cap 10
    profile = UmDistanceProfile.for_byzantine(16, 3, 1)
    assert (profile.dbar(1) - 1) // 2 == 10
    assert count_budget_weights(profile, 21) == 775_044_599_654_655_490


def test_unranking_rejects_a_rank_out_of_range():
    total = count_budget_weights(PROF, 4)
    for rank in (-1, total):
        with pytest.raises(InvalidParams, match="outside"):
            unrank_budget_weights(PROF, 4, rank)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SAMPLER_SHAPES), st.integers(1, 8), st.integers(0, 1),
       st.integers(0, 2 ** 32))
def test_budget_mode_unranks_one_draw(shape, ell, memory, seed):
    # one rank from derive_rng(seed, "errors", 0), then the positions and
    # values of each block from the same stream
    q, n, k, t = shape
    profile = UmDistanceProfile.for_byzantine(n, k, t)
    stream_len = ell + memory
    with pytest.MonkeyPatch.context() as mp:
        labels = counting_rngs(mp)
        sched = gen_error_schedule(profile, ell, memory, n, q, "budget", seed)
    assert labels == [("errors", 0)]
    rng = derive_rng(seed, "errors", 0)
    weights = unrank_budget_weights(
        profile, stream_len,
        rng.randrange(count_budget_weights(profile, stream_len)))
    entries = tuple((blk, j, rng.randrange(q))
                    for blk, w in enumerate(weights, 1)
                    for j in sorted(rng.sample(range(n), w)))
    assert sched == ErrorSchedule(entries, "budget")
    assert sched.weights(stream_len) == weights


def test_budget_mode_never_gives_up_on_the_benchmark_shape():
    # the benchmark's byzantine-budget trials at seed 11, trial 4 among them
    profile = UmDistanceProfile.for_byzantine(16, 3, 1)
    for trial in range(40):
        sched = gen_error_schedule(profile, 20, 1, 16, 256, "budget",
                                   derive_seed(11, "errors", trial))
        assert check_guarantee(sched.weights(21), profile)


def test_budget_mode_reports_weights_that_fail_the_check(monkeypatch):
    # a counter that disagrees with check_guarantee is the generator's fault
    monkeypatch.setattr(channels, "unrank_budget_weights",
                        lambda profile, stream_len, rank: [5] * stream_len)
    with pytest.raises(ChannelGeneratorError, match="gen_error_schedule"):
        gen_error_schedule(PROF, 3, 1, 10, 16, "budget", seed=1)


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
