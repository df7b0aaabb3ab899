"""Cache isolation: a trial gives the same outcome whatever ran before it
in the process.

Every per-process cache of the package is keyed by what its value
depends on: the field with its modulus, a code's locators and
multipliers, a scheme's window, a matrix's bytes.  A key that drops one
of them still passes every single-scheme run, so this test runs trials
of several small schemes interleaved in one process and compares each
outcome with the same trial run alone after the caches are emptied.
The schemes share what a careless key would confuse: GF(2^4) under two
moduli, codes on the same locators with different multipliers, block
schemes that differ only in window, plain schemes on one code and
support that differ only in memory, Byzantine schemes whose codes
share locators, budget error schedules of two distance profiles over
streams of one length, and a block scheme on the scalar kernel.
"""

from hypothesis import given, settings, strategies as st

from pirstream import (channels, clear_caches, cli, decoder, grs, protocol,
                       recovering)
from pirstream.fields import parse_field_spec
from pirstream.grs import GrsCode
from pirstream.recovering import build_A

SEED = 5

# (variant, field spec, parameters): x^4+x+1 is 2^4:13, x^4+x^3+1 is 2^4:19
SCHEMES = (
    ("plain", "2^4:13", dict(n=10, k=2, t=2, memory=1, support=range(5, 10))),
    ("plain", "2^4:13", dict(n=10, k=2, t=2, memory=1, support=range(5, 10),
                             multipliers=(3, 1, 7, 2, 9, 4, 11, 5, 6, 8))),
    ("plain", "2^4:19", dict(n=10, k=2, t=2, memory=1, support=range(5, 10))),
    ("plain", "13", dict(n=10, k=3, t=1, memory=2, support=range(3, 10))),
    # the code and support of the first scheme, with other peeling tables
    ("plain", "2^4:13", dict(n=10, k=2, t=2, memory=2, support=range(5, 10))),
    ("plain", "2^4:13", dict(n=10, k=2, t=2, memory=0, support=range(5, 10))),
    ("block", "2^4:13", dict(n=12, k=2, t=1, eps=1, window=3,
                             support=range(8, 12))),
    ("block", "2^4:13", dict(n=12, k=2, t=1, eps=1, window=4,
                             support=range(8, 12))),
    ("block", "2^4:19", dict(n=12, k=2, t=1, eps=1, window=3,
                             support=range(8, 12))),
    ("block", "2^4:13", dict(n=12, k=2, t=1, eps=2, window=5,
                             support=range(4, 12))),
    ("byzantine", "2^4:13", dict(n=10, k=1, t=1)),
    ("byzantine", "2^4:13", dict(n=10, k=2, t=1)),
    ("byzantine", "2^4:19", dict(n=10, k=2, t=1)),
    # budget schedules of two distance profiles over one stream length
    ("byzantine", "2^4:13", dict(n=10, k=2, t=1, mode="budget")),
    ("byzantine", "2^4:13", dict(n=10, k=1, t=1, mode="budget")),
    # GF(2^10) runs on the scalar kernel, whose schemes keep window
    # patterns like any other
    ("block", "2^10", dict(n=12, k=2, t=1, eps=1, window=3,
                           support=range(8, 12))),
)


def run_trial(index, trial):
    """The outcome of one trial of scheme ``index``, built from scratch:
    (decoded correctly, channel description), and for a block scheme the
    rank of its support's window matrix."""
    variant, spec, params = SCHEMES[index]
    field = parse_field_spec(spec)
    n = params["n"]
    code = GrsCode(field, n, params["k"], tuple(range(1, n + 1)),
                   params.get("multipliers", ()))
    ell, extra, schedules = 4, (), None
    if variant == "plain":
        scheme = protocol.plain_scheme(code, params["t"], params["memory"], 2,
                                       1, params["support"])
        section = {}
    elif variant == "block":
        scheme = protocol.block_scheme(code, params["t"], params["eps"],
                                       params["window"], 2, 0,
                                       params["support"])
        section = {"kind": "block-erasure", "mode": "shifted-family"}
        ell = 6
        schedules = channels.gen_burst_patterns(
            ell, scheme.memory, scheme.window, scheme.burst, "shifted-family")
        locators = [code.locators[j] for j in scheme.support]
        extra = (build_A(field, code.k, scheme.burst, locators,
                         window=scheme.window).rank,)
    else:
        scheme = protocol.byzantine_scheme(code, params["t"], 2, 1)
        section = {"kind": "symbol-errors", "mode": "fixed-byzantine", "b": "1"}
        if "mode" in params:
            section = {"kind": "symbol-errors", "mode": params["mode"]}
    channel = cli._check_channel(section, scheme, ell)
    return cli._run_one_trial(scheme, ell, channel, SEED, trial,
                              schedules) + extra


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(SCHEMES) - 1), st.integers(0, 3)),
                min_size=2, max_size=5))
def test_interleaved_trials_match_trials_run_alone(runs):
    clear_caches()
    together = [run_trial(index, trial) for index, trial in runs]
    for (index, trial), outcome in zip(runs, together):
        clear_caches()
        assert outcome == run_trial(index, trial), SCHEMES[index]
        # every channel here is within its scheme's guarantee
        assert outcome[0], SCHEMES[index]


def test_clear_caches_empties_every_cache(monkeypatch):
    # a Byzantine trial with budget errors fills the kept BMD state, dual
    # checks and root maps of its codes and the budget weight counts, and
    # a block trial the peeling tables, with the scheme's table of window
    # patterns, and the window ranks
    caches = (grs._bmd_kept, grs._dual_checks, grs._root_map,
              decoder._peeling_tables, recovering._orbit_rank,
              channels._budget_counts)
    tables = []
    solve = decoder._solve_pattern

    def spy(field, patterns, *rest):
        tables.append(patterns)
        return solve(field, patterns, *rest)
    monkeypatch.setattr(decoder, "_solve_pattern", spy)
    run_trial(13, 0)
    run_trial(6, 0)
    assert all(cache.cache_info().currsize for cache in caches)
    kept = tables[0]
    assert kept and all(table is kept for table in tables)
    clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * 6
    # the scheme's next trial starts a table of its own
    tables.clear()
    run_trial(6, 0)
    assert tables and tables[0] is not kept
