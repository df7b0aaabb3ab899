"""Cache isolation: a trial gives the same outcome whatever ran before it
in the process.

What a code or scheme builds and learns lives on that object, so a
freshly built one starts cold.  The package's two per-process caches,
the window ranks of ``recovering`` and the budget weight counts of
``channels``, are keyed by what their values depend on: the field with
its modulus, the locators, the window, a distance profile and a stream
length.  A key that drops one of them still passes every single-scheme
run, so this test runs trials of several small schemes interleaved in
one process and compares each outcome with the same trial run alone
after the caches are emptied.  The schemes share what a careless key
would confuse: GF(2^4) under two moduli, codes on the same locators
with different multipliers, block schemes that differ only in window,
plain schemes on one code and support that differ only in memory,
Byzantine schemes whose codes share locators, budget error schedules of
two distance profiles over streams of one length, and a block scheme on
the scalar kernel.  Further tests find every module-level cache and
check that ``clear_caches`` empties it, and that a scheme pickled before
its first trial, as a worker gets it, carries no decode state.
"""

import functools
import importlib
import pickle
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import pirstream
from pirstream import channels, clear_caches, cli, decoder, protocol
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


def build(index):
    """(scheme, ell, channel, schedules, extra) of scheme ``index``, built
    from scratch, with ``extra`` the rank of a block scheme's support's
    window matrix as a 1-tuple, and empty for the other variants."""
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
    return scheme, ell, channel, schedules, extra


def run_trial(index, trial):
    """The outcome of one trial of scheme ``index``, built from scratch:
    (decoded correctly, channel description), and for a block scheme the
    rank of its support's window matrix."""
    scheme, ell, channel, schedules, extra = build(index)
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


def module_caches():
    """{name: wrapper} of every ``functools.lru_cache`` bound at module
    level in a ``pirstream`` module, under the module that defines it."""
    wrapper = type(functools.lru_cache()(lambda: None))
    caches = {}
    for info in pkgutil.iter_modules(pirstream.__path__):
        module = importlib.import_module(f"pirstream.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, wrapper)
                    and value.__module__ == module.__name__):
                caches[f"{info.name}.{name}"] = value
    return caches


def test_clear_caches_empties_every_cache():
    # a Byzantine trial with budget errors fills the budget weight counts,
    # and a block trial the window ranks; a module-level cache that these
    # trials leave empty needs a trial here that fills it
    caches = module_caches()
    assert caches
    run_trial(13, 0)
    run_trial(6, 0)
    assert [name for name, cache in caches.items()
            if not cache.cache_info().currsize] == []
    clear_caches()
    assert {name: cache.cache_info().currsize
            for name, cache in caches.items()} == dict.fromkeys(caches, 0)


def test_each_scheme_keeps_its_own_window_patterns(monkeypatch):
    # every solve of a block trial reads its scheme's one table of window
    # patterns, and an equal scheme built afresh starts a table of its own
    tables = []
    solve = decoder._solve_pattern

    def spy(field, patterns, *rest):
        tables.append(patterns)
        return solve(field, patterns, *rest)
    monkeypatch.setattr(decoder, "_solve_pattern", spy)
    run_trial(6, 0)
    kept = tables[0]
    assert kept and all(table is kept for table in tables)
    tables.clear()
    run_trial(6, 0)
    assert tables and all(table is not kept for table in tables)


def state_keys(obj, seen=None):
    """Every ``__dict__`` key of the objects reachable from ``obj`` through
    instance attributes, tuples, lists and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return set()
    seen.add(id(obj))
    keys, parts = set(), []
    if isinstance(obj, (tuple, list, set, frozenset)):
        parts = list(obj)
    elif isinstance(obj, dict):
        parts = [*obj.keys(), *obj.values()]
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        keys = set(vars(obj))
        parts = list(vars(obj).values())
    for part in parts:
        keys |= state_keys(part, seen)
    return keys


# a plain scheme, a block scheme and a Byzantine scheme with budget errors
@pytest.mark.parametrize("index", [0, 6, 13])
def test_a_scheme_pickled_before_its_first_trial_carries_no_decode_state(
        index):
    # a worker gets the scheme and channel by pickle (``cli._fan_out``)
    # before any trial: the copy holds no kept BMD state and no peeling
    # tables, and its trials decode as the original's do
    scheme, ell, channel, schedules, _ = build(index)
    data = pickle.dumps((scheme, ell, channel, SEED, schedules))
    copy = pickle.loads(data)
    assert not {"_kept", "_peeling"} & state_keys(copy)
    assert copy[0] == scheme
    for trial in range(2):
        assert (cli._run_one_trial(*copy[:4], trial, copy[4])
                == cli._run_one_trial(scheme, ell, channel, SEED, trial,
                                      schedules))
    # the original kept state of its own meanwhile
    assert {"_kept", "_peeling"} & state_keys(scheme)
