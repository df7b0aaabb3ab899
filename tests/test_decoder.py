import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from pirstream.channels import ErasureSchedule, ErrorSchedule, apply_erasures, apply_errors, gen_burst_patterns, gen_error_schedule
from pirstream.decoder import (
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
    PirstreamError,
    UncorrectablePattern,
)
from pirstream.fields import Field
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
from pirstream.rates import min_gamma
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
                          tuple(blocks), stream.downloaded)


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
        assert stream.downloaded == (ell + memory) * n


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
    assert stream.downloaded == (5 + 1) * 2 * 6
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
                            tuple(blocks), stream.downloaded)
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
    """A GF(16) block scheme whose support locators are recovering, with a
    stream of random files."""
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
    assume(build_A(GF16, 2, eps, [code.locators[j] for j in support]).verdict)
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
    # a pair of blocks carries fewer than dbar(1)/2 errors, so no block
    # weight above that cap can pass the guarantee check
    profile = UmDistanceProfile.for_byzantine(n, 2, t)
    cap = (profile.dbar(1) - 1) // 2
    weights = draw(st.lists(st.integers(0, cap), min_size=ell + 1,
                            max_size=ell + 1))
    assume(check_guarantee(weights, profile))
    entries = []
    for b, w in enumerate(weights, 1):
        for j in draw(st.lists(st.integers(0, n - 1), min_size=w, max_size=w,
                               unique=True)):
            entries.append((b, j, draw(st.integers(0, 15))))
    schedule = ErrorSchedule(tuple(entries), "manual")
    noisy = apply_errors(stream, schedule, 16, derive_seed(seed, "values"))
    return sch, files[desired], noisy


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(small_byzantine_setups())
def test_decode_um_recovers_every_budget_respecting_schedule(setup):
    sch, desired, noisy = setup
    assert decode_um(noisy, sch).stripes == desired
