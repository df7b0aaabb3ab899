"""The benchmark's workloads and the correctness gate of each.

Every workload is one CLI command with a committed config under
``configs/``.  One op is one simulate trial, one locator set tested
(recovering-search) or one colluding set audited (privacy-audit).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
EXPECTED = HERE / "expected"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    ops: int                 # trials or sets per process
    process_s: float         # one process's duration on the reference machine
    base_seed: int | None    # None: the command takes no seed
    vary_seed: bool          # False: every process uses base_seed
    k: int = 0               # scheme dimensions that name the BMD codes
    t: int = 0

    def reps(self, seconds: float) -> int:
        """Processes per run: a fixed count for a given run length, so that
        every run pools the same number of ops."""
        return max(3, round(seconds / self.process_s))

    def cli_seed(self, run_seed: int, rep: int) -> int | None:
        """The CLI seed of process ``rep`` of a run with seed ``run_seed``."""
        if not self.vary_seed:
            return self.base_seed
        text = f"{self.name}/{self.base_seed}/{run_seed}/{rep}"
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")

    def argv(self, cli_seed: int | None) -> list[str]:
        argv = [self.command, "--config", str(CONFIGS / f"{self.name}.ini"),
                "--workers", "1"]
        if cli_seed is not None:
            argv += ["--seed", str(cli_seed), "--trials", str(self.ops)]
        return argv


# The "why" of each workload is in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("plain-stream", "simulate", ops=10, process_s=1.75, base_seed=11,
             vary_seed=True, k=4, t=2),
    Workload("burst-window", "simulate", ops=30, process_s=2.05, base_seed=11,
             vary_seed=True, k=4, t=2),
    Workload("byzantine-budget", "simulate", ops=5, process_s=3.8, base_seed=11,
             vary_seed=False, k=3, t=1),
    Workload("byzantine-fixed", "simulate", ops=5, process_s=2.4, base_seed=11,
             vary_seed=True, k=3, t=1),
    Workload("locator-search", "recovering-search", ops=4000, process_s=1.2,
             base_seed=20240, vary_seed=True),
    Workload("privacy-audit", "privacy-audit", ops=10, process_s=3.8,
             base_seed=None, vary_seed=False),
)}

FAIL_LINE = re.compile(r"FAIL trial=(\d+) (.*)")


def classify_failures(stdout: str) -> dict:
    """Count simulate's FAIL lines by cause.

    ``gave_up``: the error-schedule sampler raised InvalidParams (the CLI
    labels these ``clean:``, as the schedule never existed); ``decode``:
    any other exception; ``wrong``: no exception but the decoded file
    differs from the truth.
    """
    out = {"gave_up": 0, "decode": 0, "wrong": 0}
    for line in stdout.splitlines():
        m = FAIL_LINE.fullmatch(line)
        if not m:
            continue
        parts = m.group(2).split(": ", 2)
        if len(parts) < 3:
            out["wrong"] += 1
        elif parts[1] == "InvalidParams":
            out["gave_up"] += 1
        else:
            out["decode"] += 1
    return out


@dataclass
class Verdict:
    problems: list
    attempted: int
    failed: int
    gave_up: int

    @property
    def ok(self) -> bool:
        return not self.problems


def check(w: Workload, rc: int, stdout: str) -> Verdict:
    """Gate one process's CLI output against the committed expectations."""
    expected = (EXPECTED / f"{w.name}.txt").read_text().splitlines()
    lines = stdout.splitlines()
    problems = []
    failed = gave_up = 0
    if w.command == "simulate":
        # shape and rate-accounting lines are exact; every failed trial is
        # listed; only sampler give-ups may fail in these guaranteed regimes
        fails = classify_failures(stdout)
        failed = sum(fails.values())
        gave_up = fails["gave_up"]
        if len(lines) < 3 or lines[0] != expected[0] or lines[2] != expected[1]:
            problems.append("shape or rate-accounting line differs")
        counts = re.match(r"trials=(\d+) ok=(\d+) ", lines[1] if len(lines) > 1 else "")
        if not counts or counts.groups() != (str(w.ops), str(w.ops - failed)):
            problems.append("trial count line disagrees with the FAIL lines")
        if fails["decode"] or fails["wrong"]:
            problems.append(f"decode failures: {fails}")
        if rc != 0 and not (rc == 3 and failed):
            problems.append(f"exit code {rc}")
    elif w.command == "recovering-search":
        # exit code 0 means p_full fell inside the configured band
        if rc != 0:
            problems.append(f"exit code {rc}: p_full outside its band")
        if (len(lines) != 2 or lines[0] != expected[0]
                or not lines[1].startswith(expected[1])):
            problems.append("search output differs")
    else:
        passes = sum(1 for line in lines if " PASS " in line)
        failed = len(lines) - passes
        if rc != 0 or lines != expected:
            problems.append(f"audit output differs (exit code {rc})")
    return Verdict(problems, w.ops, failed, gave_up)
