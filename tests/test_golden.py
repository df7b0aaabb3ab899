"""The CLI contract: stdout, exit code and ``--out`` CSV of fixed-seed runs
on the benchmark configs and the configs under ``tests/configs``, byte for
byte.

Each case has ``golden/<case>.out`` (stdout), ``golden/<case>.rc`` (exit
code) and, for ``simulate``, ``golden/<case>.csv`` (the ``--out`` file).
A change that alters any of them on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.

Every case also runs with every field on the scalar kernel
(``fields._ScalarKernel``), against the same files: one ``Field`` method
call per symbol, with none of the fast paths (packed GF(p) lanes,
``bytes.translate`` rows).  Window patterns are kept on both kernels, so
a scalar-kernel run keeps each one's map of dot products.  A case that
passes on the scalar kernel and fails on the native one names a fast
path at fault.
"""

import contextlib
import inspect
import io
import sys
from pathlib import Path

import pytest

from pirstream.cli import main
from pirstream.fields import (
    Field, _BinaryKernel, _PrimeKernel, _ScalarKernel)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CONFIGS = HERE.parent / "perfbench" / "configs"
OWN_CONFIGS = HERE / "configs"

SIM = ["--seed", "11", "--workers", "1"]
CASES = {
    "simulate-plain-stream": ["simulate", "plain-stream", *SIM, "--trials", "2"],
    "simulate-byzantine-fixed": ["simulate", "byzantine-fixed", *SIM, "--trials", "2"],
    "simulate-burst-window": ["simulate", "burst-window", *SIM, "--trials", "5"],
    "simulate-burst-window-40": ["simulate", "burst-window", *SIM,
                                 "--trials", "40"],
    "simulate-byzantine-budget": ["simulate", "byzantine-budget", *SIM,
                                  "--trials", "5"],
    # 2-byte symbols: the byzantine-fixed scheme over GF(2^16)
    "simulate-byzantine-fixed-gf2-16": [
        "simulate", OWN_CONFIGS / "byzantine-fixed-gf2-16.ini", *SIM,
        "--trials", "3"],
    # two sub-rounds: a 22-position support past d*-1 = 19
    "simulate-block-two-rounds": [
        "simulate", OWN_CONFIGS / "block-two-rounds.ini", *SIM, "--trials", "5"],
    # n = 100, the server count of the paper's rate plots: um codes with
    # e = 35-45 and 100-symbol residuals
    "simulate-byzantine-budget-n100": [
        "simulate", OWN_CONFIGS / "byzantine-budget-n100.ini", *SIM,
        "--trials", "2"],
    # the byzantine-budget shape over a prime field, integers mod 251
    "simulate-byzantine-budget-gf251": [
        "simulate", OWN_CONFIGS / "byzantine-budget-gf251.ini", *SIM,
        "--trials", "20"],
    # the byzantine-budget shape over GF(3^3), an odd-characteristic
    # extension field on the scalar kernel
    "simulate-byzantine-budget-gf27": [
        "simulate", OWN_CONFIGS / "byzantine-budget-gf27.ini", *SIM,
        "--trials", "20"],
    # random error weights over GF(2^4), beyond the budget: most trials
    # fail, each with its own error text
    "simulate-byzantine-random-gf16": [
        "simulate", OWN_CONFIGS / "byzantine-random-gf16.ini", *SIM,
        "--trials", "40"],
    # a binary field with q < 256
    "simulate-plain-gf16": [
        "simulate", OWN_CONFIGS / "plain-gf16.ini", *SIM, "--trials", "5"],
    # a prime field on the plain path: the packed-lane maps of GF(251)
    "simulate-plain-gf251": [
        "simulate", OWN_CONFIGS / "plain-gf251.ini", *SIM, "--trials", "5"],
    # 2-byte symbols over a prime field: the burst-window shape over GF(331)
    "simulate-block-gf331": [
        "simulate", OWN_CONFIGS / "block-gf331.ini", *SIM, "--trials", "5"],
    # 2-byte symbols over a binary field past the translate rows: the
    # burst-window shape over GF(2^10)
    "simulate-block-gf2-10": [
        "simulate", OWN_CONFIGS / "block-gf2-10.ini", *SIM, "--trials", "5"],
    # every schedule the burst rule admits at ell = 10: the only case whose
    # blocks after a burst take the record path in bulk.  1,107 of 1,638
    # schedules fail, so it exits 3; ROADMAP item 15's deadline-optimal
    # window decoding regenerates it on purpose
    "simulate-burst-window-exhaustive": [
        "simulate", OWN_CONFIGS / "burst-window-exhaustive.ini", *SIM],
    "privacy-audit-privacy-audit": ["privacy-audit", "privacy-audit"],
    "privacy-audit-plain-stream": ["privacy-audit", "plain-stream"],
    "recovering-search-locator-search": ["recovering-search", "locator-search",
                                         "--seed", "1", "--trials", "500"],
}


# the six benchmark workloads (``perfbench/configs``) at their golden
# trial counts
WORKLOADS = ["simulate-plain-stream", "simulate-burst-window",
             "simulate-byzantine-budget", "simulate-byzantine-fixed",
             "recovering-search-locator-search", "privacy-audit-privacy-audit"]


def run_case(name, out_dir, extra=()):
    """(exit code, stdout, stderr, --out CSV or None) of one case, with
    the arguments ``extra`` after its own."""
    command, config, *rest = CASES[name]
    if not isinstance(config, Path):
        config = CONFIGS / f"{config}.ini"     # a benchmark config by name
    argv = [command, "--config", str(config), *rest, *extra]
    csv_path = Path(out_dir) / f"{name}.csv"
    if command == "simulate":
        argv += ["--out", str(csv_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    csv = csv_path.read_text(encoding="utf-8") if command == "simulate" else None
    return rc, out.getvalue(), err.getvalue(), csv


def check_case(name, out_dir, extra=()):
    rc, out, err, csv = run_case(name, out_dir, extra)
    assert err == ""
    assert rc == int((GOLDEN / f"{name}.rc").read_text())
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    if csv is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


@pytest.fixture
def scalar_kernel(monkeypatch):
    """Every ``Field`` built meanwhile computes through the scalar kernel;
    yields the list of those fields.

    The package keeps nothing between runs: each CLI run builds its own
    fields, codes and scheme, and a search its own orbit verdicts, so
    nothing computed on one kernel can serve the other."""
    init = Field.__init__
    built = []

    def scalar_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.kernel = _ScalarKernel(self)
        built.append(self)
    monkeypatch.setattr(Field, "__init__", scalar_init)
    yield built


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(tmp_path, name):
    check_case(name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scalar_kernel_output_matches_golden(tmp_path, name, scalar_kernel):
    check_case(name, tmp_path)
    assert scalar_kernel


def test_every_kernel_override_runs_in_a_workload(tmp_path, monkeypatch):
    # every kernel extends the scalar reference and overrides an operation
    # only where a benchmark workload runs it on the kernel's fields
    calls = {}
    for kernel in (_PrimeKernel, _BinaryKernel):
        for name, method in list(vars(kernel).items()):
            if inspect.isfunction(method) and not name.startswith("__"):
                key = f"{kernel.__name__}.{name}"
                calls[key] = 0

                def counted(self, *args, _key=key, _method=method):
                    calls[_key] += 1
                    return _method(self, *args)
                monkeypatch.setattr(kernel, name, counted)
    init = Field.__init__
    built = []

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
    monkeypatch.setattr(Field, "__init__", recording_init)
    for name in WORKLOADS:
        check_case(name, tmp_path)
    assert [name for name, count in calls.items() if not count] == []
    assert built and all(isinstance(f.kernel, _ScalarKernel) for f in built)


# A worker process gets the scheme by pickle before its first trial, and
# its codes build their own tables and kept state: both workers must
# decode as one process does.
@pytest.mark.parametrize("name", ["simulate-byzantine-budget",
                                  "simulate-byzantine-fixed"])
def test_two_workers_output_matches_golden(tmp_path, name):
    check_case(name, tmp_path, ["--workers", "2"])


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        rc, out, err, _ = run_case(name, GOLDEN)
        if err:
            sys.exit(f"{name}: unexpected stderr: {err}")
        (GOLDEN / f"{name}.rc").write_text(f"{rc}\n")
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        print(f"{name}: rc={rc}")


if __name__ == "__main__":
    regenerate()
