"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

They run every workload at a reduced op count through the same fresh
process harness as the benchmark (about half a minute in all), so that a
refactor which bypasses a wrapper shows up as a missing call here rather
than as a zero time in a traced run.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, check, classify_failures  # noqa: E402

# Ops per process here; byzantine-budget keeps trial 4, where the sampler
# gives up, and locator-search keeps enough sets for its band gate.
SMALL_OPS = {"plain-stream": 2, "burst-window": 10, "byzantine-budget": 5,
             "byzantine-fixed": 1, "locator-search": 4000, "privacy-audit": 10}

# Which workloads each wrapped name must be active on (the workload ->
# layer table in README.md).
ACTIVE_ON = {
    "grs.encode": ("plain-stream", "burst-window"),
    "grs.erasure_decode": ("plain-stream", "burst-window"),
    "decoder.support_solve": ("plain-stream", "burst-window"),
    "decoder.window_solve": ("burst-window",),
    "decoder.recover_window": ("burst-window",),
    "decoder.recover_plain": ("plain-stream",),
    "grs.bmd_decode": ("byzantine-fixed", "byzantine-budget"),
    "decoder.um.block_bmd": ("byzantine-fixed", "byzantine-budget"),
    "decoder.um.coset_bmd": ("byzantine-fixed", "byzantine-budget"),
    "decoder.um.trellis_bmd": ("byzantine-fixed", "byzantine-budget"),
    "decoder.decode_um": ("byzantine-fixed", "byzantine-budget"),
    "channels.gen_error_schedule": ("byzantine-budget", "byzantine-fixed"),
    "channels.gen_burst_patterns": ("burst-window",),
    "channels.apply_erasures": ("burst-window",),
    "channels.apply_errors": ("byzantine-budget", "byzantine-fixed"),
    "protocol.storage_encode": ("plain-stream", "burst-window"),
    "protocol.make_queries": ("plain-stream", "burst-window"),
    "protocol.run_protocol": ("plain-stream", "burst-window"),
    "protocol.server_respond": ("plain-stream", "burst-window"),
    "linalg.rref": ("byzantine-fixed", "burst-window"),
    "linalg.mat_rank": ("locator-search",),
    "recovering.build_A": ("locator-search",),
    "seeds.derive_seed": ("locator-search",),
    "protocol.privacy_audit": ("privacy-audit",),
    "config.build_scheme": ("plain-stream", "burst-window", "byzantine-budget",
                            "byzantine-fixed", "privacy-audit"),
}
COUNTERS_ON = {
    "channels.gen_error_schedule.attempts": ("byzantine-budget",),
    "decoder.check_guarantee.calls": ("byzantine-budget",),
    "linalg.rref.cells": ("byzantine-fixed", "burst-window"),
    "protocol.privacy_audit.draws": ("privacy-audit",),
    "grs.solve_any.calls": ("byzantine-fixed",),
}
# Predicted zero: the workload bypasses the mechanism.
BYPASSED_ON = {
    "decoder.window_solve": ("plain-stream",),
    "channels.gen_error_schedule.attempts": ("byzantine-fixed",),
    "decoder.check_guarantee.calls": ("byzantine-fixed",),
    "grs.bmd_decode": ("plain-stream", "burst-window", "locator-search",
                       "privacy-audit"),
}


@pytest.fixture(scope="module")
def runner():
    r = run.Runner(ROOT)
    r.build()
    return r


@pytest.fixture(scope="module")
def passes(runner):
    """{workload: (workload, untraced record, traced record)}"""
    out = {}
    for name, w in WORKLOADS.items():
        small = dataclasses.replace(w, ops=SMALL_OPS[name])
        seed = small.cli_seed(1, 0)
        out[name] = (small, runner.spawn(small, "plain", seed),
                     runner.spawn(small, "trace", seed))
    return out


def test_every_wrapped_name_is_called_where_it_should_be(passes):
    missing = []
    for name, active in ACTIVE_ON.items():
        for workload in active:
            if passes[workload][2]["spans"]["calls"].get(name, 0) < 1:
                missing.append((name, workload))
    for name, active in COUNTERS_ON.items():
        for workload in active:
            if passes[workload][2]["spans"]["counters"].get(name, 0) < 1:
                missing.append((name, workload))
    assert not missing


def test_bypassed_mechanisms_record_nothing(passes):
    for name, workloads in BYPASSED_ON.items():
        for workload in workloads:
            spans = passes[workload][2]["spans"]
            assert spans["calls"].get(name, 0) == 0, (name, workload)
            assert spans["counters"].get(name, 0) == 0, (name, workload)


def test_window_solves_are_wider_than_one_stripe(passes):
    w, _, traced = passes["burst-window"]
    assert traced["spans"]["maxima"]["decoder.window_solve.cols_max"] > w.k


def test_traced_and_untraced_runs_complete_the_same_ops(passes):
    for name, (w, plain, traced) in passes.items():
        assert len(plain["latencies"]) == len(traced["latencies"]) == w.ops, name
        assert plain["verdict"].ok and traced["verdict"].ok, name
        assert plain["stdout"] == traced["stdout"], name


def test_self_times_sum_to_at_most_the_traced_wall_time(passes):
    for name, (_, _, traced) in passes.items():
        self_s = traced["spans"]["self_s"]
        assert all(v >= 0 for v in self_s.values()), name
        total = sum(self_s.get(n, 0.0) for n in layers.PRIMARY_SPANS)
        assert 0 < total <= traced["wall"], name


def test_hot_spots_of_the_roadmap(passes):
    def hottest(workload):
        self_s = passes[workload][2]["spans"]["self_s"]
        return max(layers.PRIMARY_SPANS, key=lambda n: self_s.get(n, 0.0))
    assert hottest("plain-stream") == "grs.encode"
    assert hottest("byzantine-budget") == "channels.gen_error_schedule"


def test_sampler_give_ups_are_classified_from_the_fail_lines(passes):
    _, _, traced = passes["byzantine-budget"]
    parsed = classify_failures(traced["stdout"])
    assert parsed == {"gave_up": 1, "decode": 0, "wrong": 0}
    assert traced["spans"]["counters"]["channels.gen_error_schedule.raised"] == 1
    no_fields = dict.fromkeys(("mul", "add", "inv", "pow"), 0)
    metrics = layers.layer_metrics(["channels.gen_error_schedule.gave_up"],
                                   traced["spans"], no_fields,
                                   traced["verdict"].gave_up)
    assert metrics["channels.gen_error_schedule.gave_up"] == 1
    assert 0 < metrics["channels.gen_error_schedule.accept_ratio"] < 1


def test_classify_failures_by_exception_type():
    out = "\n".join([
        "trials=4 ok=1 success_rate=0.2500",
        "FAIL trial=0 clean: InvalidParams: could not sample a schedule",
        "FAIL trial=1 weights=[1, 0]: DecodingFailure: no trellis path: x",
        "FAIL trial=2 erased=3+4",
    ])
    assert classify_failures(out) == {"gave_up": 1, "decode": 1, "wrong": 1}


def test_gates_reject_changed_output(passes):
    w, plain, _ = passes["plain-stream"]
    lines = plain["stdout"].splitlines()
    assert check(w, 0, plain["stdout"]).ok
    shape = "\n".join([lines[0].replace("n=24", "n=25")] + lines[1:]) + "\n"
    assert not check(w, 0, shape).ok
    wrong = (plain["stdout"].replace(f"ok={w.ops}", f"ok={w.ops - 1}")
             + "FAIL trial=1 clean\n")
    assert not check(w, 3, wrong).ok
    w, plain, _ = passes["privacy-audit"]
    assert not check(w, 0, plain["stdout"].replace("PASS", "FAIL", 1)).ok
    w, plain, _ = passes["locator-search"]
    assert not check(w, 4, plain["stdout"]).ok


def test_two_counting_passes_give_identical_counts(runner):
    w = dataclasses.replace(WORKLOADS["burst-window"], ops=3)
    seed = w.cli_seed(1, 0)
    first = runner.spawn(w, "count", seed)["fields"]
    second = runner.spawn(w, "count", seed)["fields"]
    assert first == second
    assert all(first[g] > 0 for g in ("mul", "add", "inv", "pow"))


def test_refuses_to_run_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "plain-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
