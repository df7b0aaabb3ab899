"""Cache isolation: a trial gives the same outcome whatever ran before it
in the process.

The package keeps no process-wide state.  What a code, a scheme or a
distance profile builds and learns lives on that object, and a locator
search keeps its orbit verdicts for one call, so a freshly built object
starts cold and a pickled copy carries none of it.  Kept state that an
object shares with an equal one, or with one that differs from it in a
single parameter, still passes every single-scheme run, so this test
runs trials of several small schemes interleaved in one process and
compares each outcome with the same trial run alone on freshly built
objects.  The schemes share what such sharing would confuse: GF(2^4)
under two moduli, codes on the same locators with different
multipliers, block schemes that differ only in window, plain schemes
on one code and support that differ only in memory, Byzantine schemes
whose codes share locators, budget error schedules of two distance
profiles over streams of one length, and a block scheme on the scalar
kernel.  Further tests check that no module binds a ``functools``
cache, that each scheme and profile keeps its own tables, and that a
scheme pickled before or after a trial, as a worker gets it, carries
no decode state.
"""

import functools
import importlib
import pickle
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import pirstream
from pirstream import channels, cli, decoder, protocol
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
    together = [run_trial(index, trial) for index, trial in runs]
    for (index, trial), outcome in zip(runs, together):
        assert outcome == run_trial(index, trial), SCHEMES[index]
        # every channel here is within its scheme's guarantee
        assert outcome[0], SCHEMES[index]


def module_caches():
    """{name: wrapper} of every ``functools`` cache (``lru_cache`` or
    ``cache``) bound at module level in ``pirstream`` or one of its
    modules."""
    wrapper = type(functools.lru_cache()(lambda: None))
    modules = [pirstream] + [
        importlib.import_module(f"pirstream.{info.name}")
        for info in pkgutil.iter_modules(pirstream.__path__)]
    return {f"{module.__name__}.{name}": value for module in modules
            for name, value in vars(module).items()
            if isinstance(value, wrapper)}


def test_no_functools_cache_is_bound_at_module_level(monkeypatch):
    # a search, a code, a scheme and a distance profile keep what they
    # build and learn, so the package keeps no process-wide state and has
    # nothing to reset between runs
    assert module_caches() == {}
    assert not hasattr(pirstream, "clear_caches")
    # the finder does find a cache bound at module level
    probe = functools.lru_cache(maxsize=4)(abs)
    monkeypatch.setattr(channels, "_probe", probe, raising=False)
    assert module_caches() == {"pirstream.channels._probe": probe}


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


# every name under which a code, a scheme or a distance profile keeps
# what it builds or learns
KEPT = {name for cls in (GrsCode, protocol.PirScheme,
                    decoder.UmDistanceProfile)
        for name, value in vars(cls).items()
        if isinstance(value, functools.cached_property)}


def test_a_budget_run_builds_its_tables_once_per_profile_and_length(
        monkeypatch):
    # the trials of one run draw against one profile, which builds the
    # tables of its stream length once; an equal profile built afresh
    # builds its own
    tables = []
    counts = channels._budget_counts

    def spy(profile, stream_len):
        tables.append((profile, stream_len, counts(profile, stream_len)))
        return tables[-1][2]
    monkeypatch.setattr(channels, "_budget_counts", spy)
    scheme, ell, channel, schedules, _ = build(13)
    for trial in range(3):
        cli._run_one_trial(scheme, ell, channel, SEED, trial, schedules)
    assert len(tables) >= 3
    kept = tables[0][2]
    assert all(profile is channel.profile and length == ell + scheme.memory
               and table is kept for profile, length, table in tables)
    assert vars(channel.profile)["_budget"] == {ell + scheme.memory: kept}
    tables.clear()
    fresh = build(13)[2]
    assert fresh.profile == channel.profile
    cli._run_one_trial(scheme, ell, fresh, SEED, 0, schedules)
    assert tables and all(profile is fresh.profile and table is not kept
                          and table == kept for profile, _, table in tables)


# a plain scheme, a block scheme and a Byzantine scheme with budget errors
@pytest.mark.parametrize("index", [0, 6, 13])
def test_a_scheme_pickled_before_its_first_trial_carries_no_decode_state(
        index):
    # a worker gets the scheme and channel by pickle (``cli._fan_out``)
    # before any trial: the copy holds no kept BMD state, no peeling
    # tables and no budget tables, and its trials decode as the
    # original's do
    scheme, ell, channel, schedules, _ = build(index)
    data = pickle.dumps((scheme, ell, channel, SEED, schedules))
    copy = pickle.loads(data)
    assert not KEPT & state_keys(copy)
    assert copy[0] == scheme
    for trial in range(2):
        assert (cli._run_one_trial(*copy[:4], trial, copy[4])
                == cli._run_one_trial(scheme, ell, channel, SEED, trial,
                                      schedules))
    # the original kept state of its own meanwhile
    assert {"_kept", "_peeling", "_budget"} & state_keys((scheme, channel))
    # a scheme that has decoded pickles too, as cold as before its first
    # trial, and the copy's next trials decode as the original's do
    copy = pickle.loads(pickle.dumps((scheme, ell, channel, SEED, schedules)))
    assert not KEPT & state_keys(copy)
    for trial in range(2, 4):
        assert (cli._run_one_trial(*copy[:4], trial, copy[4])
                == cli._run_one_trial(scheme, ell, channel, SEED, trial,
                                      schedules))
