"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

These run the full-size workloads (10000-trial searches, 1000-trial
decoding campaigns); the rest of the suite uses smaller counts.
"""

import dataclasses
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from pirstream.channels import (
    apply_erasures,
    apply_errors,
    gen_burst_patterns,
    gen_error_schedule,
)
from pirstream.cli import rates_csv
from pirstream.decoder import (
    UmDistanceProfile,
    decode_um,
    recover_plain,
    recover_window,
)
from pirstream.errors import NoSuitableSubgroup, OrderNotDividing
from pirstream.fields import Field, is_prime
from pirstream.grs import GrsCode
from pirstream.protocol import (
    block_scheme,
    byzantine_scheme,
    plain_scheme,
    privacy_audit,
    random_files,
    run_protocol,
    storage_encode,
)
from pirstream.rates import rate_block, rate_conv, rate_report
from pirstream.recovering import (
    build_A,
    construct_regset,
    construct_unit_memory,
    minimal_gamma,
    random_search_counts,
)
from pirstream.seeds import derive_rng, derive_seed

from oracles import check_direct_sum, codewords

GF16 = Field(2, 4)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        q = p
        s = 1
        while q <= limit:
            out.append((q, p, s))
            q *= p
            s += 1
    return sorted(out)


_FIELD_CACHE = {}


def field_of(q, p, s):
    if q not in _FIELD_CACHE:
        _FIELD_CACHE[q] = Field(p, s)
    return _FIELD_CACHE[q]


def test_criterion_1_search_probabilities():
    with criterion("1 locator-search table"):
        start = time.time()
        rows = [
            (2, 1, 16, 0.99, 1.00),
            (4, 1, 16, 0.90, 0.96),
            (3, 2, 16, 0.65, 0.73),
            (2, 1, 256, 0.99, 1.00),
        ]
        for k, M, q, lo, hi in rows:
            field = field_of(q, 2, {16: 4, 256: 8}[q])
            hits, trials = random_search_counts(field, k, M, trials=10000,
                                                seed=20240)
            p = hits / trials
            assert lo <= p <= hi, (k, M, q, p)
        elapsed = time.time() - start
        print(f"  search runtime {elapsed:.1f}s")
        assert elapsed < 300


def test_criterion_2_construction_guarantees():
    with criterion("2 explicit constructions full rank"):
        cases = 0
        for q, p, s in _prime_powers(256):
            for M in range(1, 4):
                for k in range(1, 9):
                    base = minimal_gamma(k, M)
                    for gamma in range(base, base + 3):
                        order = M * k + gamma
                        if (q - 1) % order != 0:
                            continue
                        field = field_of(q, p, s)
                        try:
                            locs = construct_regset(field, k, M, gamma)
                        except OrderNotDividing:
                            continue
                        assert build_A(field, k, M, locs).verdict, (q, k, M, gamma)
                        cases += 1
        um_cases = 0
        for q, p, s in _prime_powers(256):
            for k in (2, 4, 6, 8):
                gamma = 3 * k // 2
                if (q - 1) % gamma != 0 or (p == 2 and gamma % 2 == 0):
                    continue
                field = field_of(q, p, s)
                try:
                    locs = construct_unit_memory(field, k)
                except NoSuitableSubgroup:
                    continue
                assert build_A(field, k, 1, locs).verdict, (q, k)
                um_cases += 1
        print(f"  regset cases={cases} unit-memory cases={um_cases}")
        assert cases >= 100 and um_cases >= 30


def test_criterion_3_direct_sum_equivalence():
    with criterion("3 direct-sum criterion equivalence"):
        rng = random.Random(333)
        fields = [GF16, Field(7), Field(13), Field(23), Field(3, 2), Field(2, 6)]
        agreements = 0
        while agreements < 500:
            f = rng.choice(fields)
            k = rng.randrange(1, 5)
            M = rng.randrange(1, 4)
            gamma = minimal_gamma(k, M) + rng.randrange(0, 2)
            if f.q - 1 < gamma:
                continue
            locs = rng.sample(range(1, f.q), gamma)
            assert check_direct_sum(f, k, M, locs) == build_A(f, k, M, locs).verdict
            agreements += 1


def test_criterion_4_streaming_end_to_end():
    with criterion("4 streaming end-to-end + accounting"):
        rng = random.Random(444)
        fields = [Field(13), GF16, Field(17), Field(5, 2), Field(3, 3)]
        done = 0
        while done < 200:
            f = rng.choice(fields)
            t = rng.randrange(1, 3)
            k = rng.randrange(1, 5)
            n_lo = 2 * k + t - 1
            if n_lo > 12:
                continue
            n = rng.randrange(n_lo, 13)
            m = rng.randrange(1, 5)
            ell = rng.randrange(1, 9)
            memory = rng.randrange(0, min(2, ell - 1) + 1)
            d1 = n - (k + t - 1)
            support = tuple(rng.sample(range(n), rng.randrange(k, d1 + 1)))
            code = GrsCode(f, n, k, tuple(rng.sample(range(1, f.q), n)))
            scheme = plain_scheme(code, t, memory, m, rng.randrange(m), support)
            files = random_files(f, m, ell, k, derive_rng(done, "c4"))
            stream = run_protocol(storage_encode(files, code), scheme,
                                  derive_seed(done, "c4run"))
            rec = recover_plain(stream, scheme)
            assert rec.stripes == files[scheme.desired]
            rep = rate_report(scheme, ell)
            assert rep.downloaded == sum(
                len(p) for b in stream.blocks for p in b.parts)
            assert rep.rate == Fraction(ell * k, (ell + memory) * n)
            assert rep.bound == rate_conv(n, k, t, memory, ell)
            done += 1


def test_criterion_5_block_erasure_scheme():
    with criterion("5 block-erasure recovery + rate"):
        code = GrsCode(GF16, 6, 2, tuple(range(1, 7)))
        squares = {GF16.mul(a, a) for a in code.locators[3:]}
        assert len(squares) == 3
        scheme = block_scheme(code, t=1, eps=1, window=3, m=3, desired=1,
                              support=(3, 4, 5))
        files = random_files(GF16, 3, 4, 2, derive_rng(55, "c5"))
        stream = run_protocol(storage_encode(files, code), scheme, 505)
        schedules = gen_burst_patterns(4, 1, 3, 1, "exhaustive")
        singles = [s for s in schedules if len(s.erased) == 1]
        assert len(singles) == 5
        for sched in schedules:
            rec = recover_window(apply_erasures(stream, sched), scheme)
            assert rec.stripes == files[1], sorted(sched.erased)
        assert rate_block(6, 2, 1, 3, 1, None, gamma=3) == Fraction(4, 9)


def test_criterion_6_byzantine_scheme():
    with criterion("6 byzantine decoding campaign"):
        code = GrsCode(GF16, 10, 2, tuple(range(1, 11)))
        scheme = byzantine_scheme(code, t=2, m=2, desired=0)
        prof = UmDistanceProfile.for_byzantine(10, 2, 2)
        assert (prof.d_alpha, prof.d1, prof.d2) == (4, 6, 6)
        files = random_files(GF16, 2, 3, 2, derive_rng(66, "c6"))
        stream = run_protocol(storage_encode(files, code), scheme, 606)
        for i in range(1000):
            sched = gen_error_schedule(prof, 3, 1, 10, 16, "budget",
                                       seed=derive_seed(606, "sched", i))
            noisy = apply_errors(stream, sched, 16, derive_seed(606, "apply", i))
            rec = decode_um(noisy, scheme)
            assert rec.stripes == files[0], (i, sched.weights(4))
        for i in range(50):
            sched = gen_error_schedule(prof, 3, 1, 10, 16, "fixed-byzantine",
                                       seed=derive_seed(707, "b1", i), b=1)
            noisy = apply_errors(stream, sched, 16, derive_seed(707, "a", i))
            assert decode_um(noisy, scheme).stripes == files[0]


def test_criterion_7_privacy_audit():
    with criterion("7 collusion audit"):
        gf5 = Field(5)
        rs42 = GrsCode(gf5, 4, 2, (1, 2, 3, 4))
        sch1 = plain_scheme(rs42, t=1, memory=0, m=2, desired=0, support=(0, 1))
        for j in range(4):
            rep = privacy_audit(sch1, (j,))
            assert rep.identical and rep.enumerated == 25
        gf4 = Field(2, 2)
        c3 = GrsCode(gf4, 3, 1, (1, 2, 3))
        sch2 = plain_scheme(c3, t=1, memory=1, m=2, desired=0, support=(0,))
        for j in range(3):
            rep = privacy_audit(sch2, (j,))
            assert rep.identical and rep.enumerated == 256
        c10 = GrsCode(GF16, 10, 2, tuple(range(1, 11)))
        broken = dataclasses.replace(
            plain_scheme(c10, t=2, memory=0, m=2, desired=0, support=(5, 6)),
            retrieval_code=GrsCode(GF16, 10, 1, tuple(range(1, 11))))
        rep = privacy_audit(broken, (4, 5))
        assert not rep.identical and rep.witness is not None


def test_criterion_8_rate_curves():
    with criterion("8 rate-curve spot values"):
        base = Fraction(25, 103)
        spots_a = {
            4: Fraction(1, 4) * base,
            5: Fraction(2, 5) * base,
            6: Fraction(1, 2) * base,
            10: Fraction(7, 10) * base,
            15: Fraction(4, 5) * base,
            30: Fraction(45, 206),
        }
        spots_b = {window: Fraction(25, 200 + window)
                   for window in (2, 4, 10, 20, 26, 30)}
        spots_c = {
            0: Fraction(1, 4),
            1: Fraction(275, 1212),
            2: Fraction(125, 612),
            3: Fraction(75, 412),
            6: Fraction(25, 212),
            11: Fraction(25, 1332),
        }
        bounds_a = {window: Fraction(window - 3, window) * Fraction(1, 4)
                    for window in spots_a}
        bounds_c = {eps: Fraction(12 - eps, 48) for eps in spots_c}
        for window, expect in spots_a.items():
            assert rate_block(100, 75, 1, window, 3, 100) == expect, window
        for window, expect in spots_b.items():
            assert rate_block(100, 75, 1, window, window // 2, 100) == expect
        for eps, expect in spots_c.items():
            assert rate_block(100, 75, 1, 12, eps, 100) == expect, eps
        lines = rates_csv().splitlines()
        table = {}
        for ln in lines[1:]:
            panel, x, r, b = ln.split(",")
            table[(panel, int(x))] = (r, b)
        for window, expect in spots_a.items():
            r, b = table[("a", window)]
            assert r == f"{float(expect):.10f}"
            assert b == f"{float(bounds_a[window]):.10f}"
        for window, expect in spots_b.items():
            r, b = table[("b", window)]
            assert r == f"{float(expect):.10f}"
            assert b == f"{float(Fraction(1, 8)):.10f}"
        for eps, expect in spots_c.items():
            r, b = table[("c", eps)]
            assert r == f"{float(expect):.10f}"
            assert b == f"{float(bounds_c[eps]):.10f}"


def test_criterion_9_codec_properties():
    with criterion("9 codec round-trip + exhaustive BMD"):
        rng = random.Random(999)
        fields = [Field(5), Field(7), Field(13), GF16, Field(3, 2)]
        for _ in range(1000):
            f = rng.choice(fields)
            n = rng.randrange(2, min(f.q - 1, 9) + 1)
            k = rng.randrange(1, n + 1)
            locs = tuple(rng.sample(range(1, f.q), n))
            mults = tuple(rng.randrange(1, f.q) for _ in range(n))
            code = GrsCode(f, n, k, locs, mults)
            msg = [rng.randrange(f.q) for _ in range(k)]
            word = code.encode(msg)
            erased = rng.sample(range(n), rng.randrange(0, n - k + 1))
            got = code.erasure_decode(
                [None if j in erased else word[j] for j in range(n)])
            assert got == msg
        gf5 = Field(5)
        rs42 = GrsCode(gf5, 4, 2, (1, 2, 3, 4))
        codebook = [tuple(cw) for cw in codewords(rs42)]
        assert len(codebook) == 25
        for word in itertools.product(range(5), repeat=4):
            near = [cw for cw in codebook
                    if sum(a != b for a, b in zip(word, cw)) <= 1]
            try:
                msg, errors = rs42.bmd_decode(list(word))
                cw = tuple(rs42.encode(msg))
                assert sum(a != b for a, b in zip(word, cw)) <= 1
                assert near == [cw]
            except Exception:
                assert not near
