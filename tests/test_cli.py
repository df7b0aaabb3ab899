import concurrent.futures
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from pirstream import channels, cli
from pirstream.cli import main, parse_search_rows, rates_csv
from pirstream.config import load_config, build_scheme
from pirstream.errors import ChannelGeneratorError, ConfigError
from pirstream.fields import Field, factorize
from pirstream.grs import GrsCode

PLAIN_CFG = """\
[scheme]
variant = plain
field = 2^4
n = 6
k = 2
t = 1
m = 3
ell = 4
memory = 1
support = 3,4,5
desired = 1

[run]
trials = 3
seed = 11
"""

BLOCK_CFG = """\
[scheme]
variant = block-erasure
field = 2^4
n = 6
k = 2
t = 1
m = 3
ell = 4
epsilon = 1
window = 3
support = 3,4,5
desired = 1

[channel]
kind = block-erasure
mode = exhaustive

[run]
seed = 11
"""

BYZ_CFG = """\
[scheme]
variant = byzantine
field = 2^4
n = 10
k = 2
t = 2
m = 2
ell = 3
desired = 0

[channel]
kind = symbol-errors
mode = budget

[run]
trials = 10
seed = 5
"""

AUDIT_CFG = """\
[scheme]
variant = plain
field = 5
n = 4
k = 1
t = 1
m = 2
ell = 1
memory = 0
support = 0
desired = 0
"""

EXHAUSTIVE_CFG = (Path(__file__).parent / "configs"
                  / "burst-window-exhaustive.ini").read_text()

SEARCH_CFG = """\
[search]
rows = 2:1:16 4:1:16
trials = 200
seed = 7
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_parsing(tmp_path):
    path = write(tmp_path, "c.ini", PLAIN_CFG)
    cfg = load_config(path)
    field, code, scheme, ell = build_scheme(cfg)
    assert field.q == 16 and scheme.memory == 1 and ell == 4
    assert scheme.support == (3, 4, 5)


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))
    bad = write(tmp_path, "bad.ini", "[scheme]\nvariant = plain\n")
    with pytest.raises(ConfigError):
        build_scheme(load_config(bad))
    nonint = write(tmp_path, "n.ini", PLAIN_CFG.replace("n = 6", "n = six"))
    with pytest.raises(ConfigError):
        build_scheme(load_config(nonint))
    badsec = write(tmp_path, "s.ini", "[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(badsec)


def test_simulate_plain(tmp_path, capsys):
    path = write(tmp_path, "c.ini", PLAIN_CFG)
    assert main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "trials=3 ok=3" in out
    assert "simulated_rate=4/15" in out


def test_simulate_block_exhaustive(tmp_path, capsys):
    path = write(tmp_path, "c.ini", BLOCK_CFG)
    assert main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "ok=9" in out   # all admissible schedules recovered


def test_simulate_byzantine(tmp_path, capsys):
    path = write(tmp_path, "c.ini", BYZ_CFG)
    assert main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "ok=10" in out
    assert "simulated_rate=3/20" in out


# ell <= M: streams no longer than the memory
SHORT_PLAIN_CFG = """\
[scheme]
variant = plain
field = 13
n = 6
k = 2
t = 1
m = 2
ell = 1
memory = 3
"""

SHORT_BLOCK_CFG = """\
[scheme]
variant = block-erasure
field = 251
n = 24
k = 4
t = 2
m = 1
ell = 3
epsilon = 3
window = 7
support = 17,18,19,20,21,22,23

[channel]
kind = block-erasure
mode = random
"""


@pytest.mark.parametrize("config", [SHORT_PLAIN_CFG, SHORT_BLOCK_CFG],
                         ids=["plain", "block"])
def test_simulate_streams_no_longer_than_the_memory(tmp_path, capsys, config):
    path = write(tmp_path, "c.ini", config)
    assert main(["simulate", "--config", path, "--seed", "3",
                 "--trials", "5"]) == 0
    assert "trials=5 ok=5" in capsys.readouterr().out


def test_simulate_csv_deterministic(tmp_path, capsys):
    path = write(tmp_path, "c.ini", PLAIN_CFG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "trial,success,downloaded,channel"


def test_simulate_workers_match_serial(tmp_path, capsys, monkeypatch):
    # the pool is imported inside _fan_out, so a spy on the package
    # attribute sees whether --workers 3 ran in one
    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    path = write(tmp_path, "c.ini", PLAIN_CFG)
    a = tmp_path / "serial.csv"
    b = tmp_path / "pool.csv"
    assert main(["simulate", "--config", path, "--trials", "6",
                 "--out", str(a)]) == 0
    assert pools == []
    assert main(["simulate", "--config", path, "--trials", "6",
                 "--workers", "3", "--out", str(b)]) == 0
    assert pools == [3]
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_exit_code_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["simulate", "--config", missing]) == 2
    capsys.readouterr()


def test_rates_csv_shape(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "panel,x,r_pir_b,upper_bound"
    panels = {ln.split(",")[0] for ln in lines[1:]}
    assert panels == {"a", "b", "c"}
    assert len([ln for ln in lines if ln.startswith("a,")]) == 27
    assert len([ln for ln in lines if ln.startswith("b,")]) == 15
    assert len([ln for ln in lines if ln.startswith("c,")]) == 12
    # deterministic output
    assert rates_csv() == rates_csv()


@pytest.mark.parametrize("command, config", [
    ("simulate", PLAIN_CFG), ("rates", None),
    ("recovering-search", SEARCH_CFG.replace("trials = 200", "trials = 10")),
    ("privacy-audit", AUDIT_CFG),
])
@pytest.mark.parametrize("target", ["missing/x.csv", "."],
                         ids=["missing-dir", "a-directory"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, command, config,
                                          target):
    argv = [command, "--out", str(tmp_path / target)]
    if config is not None:
        argv += ["--config", write(tmp_path, "c.ini", config)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""    # refused before the run, not after its report
    assert err.startswith(f"config error: --out {tmp_path / target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, config", [("rates", None),
                                             ("simulate", PLAIN_CFG)])
def test_out_in_a_missing_directory_prints_nothing(tmp_path, capsys, command,
                                                   config):
    argv = [command, "--out", "/nonexistent/x.csv"]
    if config is not None:
        argv += ["--config", write(tmp_path, "c.ini", config)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: --out /nonexistent/x.csv: "
                   "No such file or directory\n")


def test_out_check_leaves_an_existing_file_alone(tmp_path, capsys):
    # the early check neither creates nor truncates: a run that then fails
    # its config keeps the old file, and a fresh path stays absent
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    missing = str(tmp_path / "nope.ini")
    assert main(["simulate", "--config", missing, "--out", str(kept)]) == 2
    assert kept.read_text() == "old\n"
    fresh = tmp_path / "fresh.csv"
    assert main(["simulate", "--config", missing, "--out", str(fresh)]) == 2
    assert not fresh.exists()
    capsys.readouterr()


def test_out_that_fails_after_the_check_is_still_a_config_error(
        tmp_path, capsys, monkeypatch):
    # a path that becomes unwritable during the run fails when written
    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    target = tmp_path / "missing" / "x.csv"
    assert main(["rates", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: --out {target}: "
                   "No such file or directory\n")


def test_rates_spot_value():
    lines = rates_csv().splitlines()
    row = next(ln for ln in lines if ln.startswith("a,30,"))
    assert row.split(",")[2] == f"{45 / 206:.10f}"


def test_recovering_search_cli(tmp_path, capsys):
    path = write(tmp_path, "s.ini", SEARCH_CFG)
    out = tmp_path / "t.csv"
    assert main(["recovering-search", "--config", path, "--trials", "150",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "k,M,N,q,gamma,trials,p_full"
    assert lines[1].startswith("2,1,3,16,3,150,")
    assert lines[2].startswith("4,1,3,16,6,150,")


def test_recovering_search_band_miss(tmp_path, capsys):
    cfg = SEARCH_CFG + "bands = 0.99:1.0 0.999:1.0\n"
    path = write(tmp_path, "s.ini", cfg)
    assert main(["recovering-search", "--config", path, "--trials", "150"]) == 4
    capsys.readouterr()


def test_recovering_search_workers_match_serial(tmp_path, capsys):
    path = write(tmp_path, "s.ini", SEARCH_CFG)
    a = tmp_path / "serial.csv"
    b = tmp_path / "pool.csv"
    assert main(["recovering-search", "--config", path, "--trials", "120",
                 "--out", str(a)]) == 0
    assert main(["recovering-search", "--config", path, "--trials", "120",
                 "--workers", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_unguaranteed_regime_reports_only(tmp_path, capsys):
    cfg = BYZ_CFG.replace("mode = budget", "mode = random")
    path = write(tmp_path, "c.ini", cfg)
    # unconstrained errors may defeat the decoder, but that is not a
    # guaranteed regime, so the exit code stays 0
    assert main(["simulate", "--config", path, "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "trials=5" in out


@pytest.mark.parametrize("b, within_budget", [(2, True), (3, False)])
def test_fixed_byzantine_is_guaranteed_only_within_the_budget(
        tmp_path, capsys, b, within_budget):
    # GF(16) n=10 k=2 t=2: d_alpha = 4, d1 = d2 = 6, so b errors on every
    # block keep within the budget iff 2(2b - 4) < d1 + d2 - 2 d_alpha = 4
    cfg = BYZ_CFG.replace("mode = budget", f"mode = fixed-byzantine\nb = {b}")
    path = write(tmp_path, "c.ini", cfg)
    # an over-budget b may defeat the decoder; its FAIL lines are reported,
    # but a regime the decoder does not guarantee exits 0
    assert main(["simulate", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    if within_budget:
        assert lines[1].startswith("trials=10 ok=10 ") and not fails
    else:
        assert lines[1].startswith("trials=10 ok=0 ") and len(fails) == 10
        assert all("DecodingFailure" in line for line in fails)


def test_a_channel_generator_that_raises_is_named_in_its_fail_line(
        tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ChannelGeneratorError("gen_error_schedule: budget weights "
                                    "[5, 5, 5, 5] fail check_guarantee")
    monkeypatch.setattr(channels, "gen_error_schedule", broken)
    path = write(tmp_path, "c.ini", BYZ_CFG)
    out_csv = tmp_path / "out.csv"
    # the budget regime is guaranteed, so a trial without a schedule fails
    assert main(["simulate", "--config", path, "--trials", "2",
                 "--out", str(out_csv)]) == 3
    lines = capsys.readouterr().out.splitlines()
    message = ("errors=budget: ChannelGeneratorError: gen_error_schedule: "
               "budget weights [5, 5, 5, 5] fail check_guarantee")
    assert lines[1].startswith("trials=2 ok=0 ")
    assert lines[3:] == [f"FAIL trial={i} {message}" for i in range(2)]
    assert out_csv.read_text().splitlines()[1] == f"0,0,40,{message}"
    assert not any("clean" in line for line in lines)


def test_search_rows_parse():
    rows = parse_search_rows("2:1:16, 3:2:64:6")
    assert rows == [(2, 1, Field(2, 4), 3), (3, 2, Field(2, 6), 6)]
    with pytest.raises(ConfigError):
        parse_search_rows("2:1")
    for bad in ("2:-1:16", "0:1:16", "-2:1:16", "2:1:16:2", "3:2:16:4",
                "2:1:4:5", "2:1:6", "2:1:83521"):
        with pytest.raises(ConfigError, match=r"\[search\] rows"):
            parse_search_rows(f"2:1:16 {bad}")


def test_field_for_order_factorizes_only_what_is_not_prime(monkeypatch):
    factorized = []
    monkeypatch.setattr(cli, "factorize",
                        lambda n: factorized.append(n) or factorize(n))
    assert cli.field_for_order(65537) == Field(65537)
    assert cli.field_for_order(13) == Field(13)
    assert factorized == []
    assert cli.field_for_order(16) == Field(2, 4)
    assert factorized == [16]


def test_privacy_audit_cli(tmp_path, capsys):
    path = write(tmp_path, "a.ini", AUDIT_CFG)
    assert main(["privacy-audit", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


@pytest.mark.parametrize("command, text, names", [
    ("privacy-audit", AUDIT_CFG + "[audit]\nsets = 0,x\n", "[audit] sets"),
    ("recovering-search", "[search]\nrows = 3:2:x\n", "[search] rows"),
    ("recovering-search", "[search]\nrows = 2:-1:16\n", "[search] rows"),
    ("recovering-search", "[search]\nrows = 0:1:16\n", "[search] rows"),
    ("recovering-search", "[search]\nrows = 2:1:16:2\n", "[search] rows"),
    ("recovering-search", "[search]\nrows = 2:1:4:5\n", "[search] rows"),
    # the default gamma of k = 4, M = 1 is 6 locators, more than GF(5) has
    ("recovering-search", "[search]\nrows = 4:1:5\n",
     "[search] rows entry '4:1:5' needs 6 <= gamma <= q"),
    # a q that is no prime power, or whose field is refused, names its row
    ("recovering-search", "[search]\nrows = 2:1:16 2:1:6\n",
     "[search] rows entry '2:1:6': q = 6 is not a prime power"),
    ("recovering-search", "[search]\nrows = 2:1:16 2:1:83521\n",
     "[search] rows entry '2:1:83521': GF(17^4) has more than 2^16"),
    ("recovering-search", "[search]\nrows = 2:1:16\nbands = 0.6-0.7\n",
     "[search] bands"),
    # an extension field past 2^16 elements is refused before any work
    ("simulate", PLAIN_CFG.replace("field = 2^4", "field = 17^4"),
     "[scheme] field = '17^4': GF(17^4) has more than 2^16"),
    ("privacy-audit", AUDIT_CFG.replace("field = 5", "field = 17^4"),
     "[scheme] field = '17^4': GF(17^4) has more than 2^16"),
    ("recovering-search", SEARCH_CFG.replace("trials = 200", "trials = many"),
     "[search] trials"),
    ("recovering-search", SEARCH_CFG.replace("trials = 200", "trials = 0"),
     "[search] trials"),
    ("recovering-search", SEARCH_CFG.replace("trials = 200", "trials = -3"),
     "[search] trials"),
    ("simulate", PLAIN_CFG.replace("seed = 11", "seed = eleven"), "[run] seed"),
    ("simulate", PLAIN_CFG.replace("trials = 3", "trials = 0"), "[run] trials"),
    ("simulate", BYZ_CFG.replace("mode = budget", "mode = fixed-byzantine\nb = two"),
     "[channel] b"),
    ("rates", "[rates]\nell = 1e2\n", "[rates] ell"),
    ("rates", "[rates]\nk = 0\n", "[rates] n = 100, k = 0,"),
    ("rates", "[rates]\nell = 0\n", "[rates] n = 100, k = 75, t = 1, ell = 0:"),
    ("rates", "[rates]\nn = 0\n", "[rates] n = 0,"),
    ("rates", "[rates]\nt = 0\n", "[rates] n = 100, k = 75, t = 0,"),
], ids=["audit-sets", "search-rows", "search-rows-negative-memory",
        "search-rows-zero-k", "search-rows-gamma-below-minimum",
        "search-rows-gamma-above-q", "search-rows-default-gamma-above-q",
        "search-rows-not-a-prime-power", "search-rows-field-past-2-16",
        "search-bands", "simulate-field-past-2-16", "audit-field-past-2-16",
        "search-trials", "search-trials-zero", "search-trials-negative",
        "run-seed", "run-trials-zero", "channel-b", "rates-ell",
        "rates-k-zero", "rates-ell-zero", "rates-n-zero", "rates-t-zero"])
def test_malformed_numbers_are_config_errors(tmp_path, capsys, command, text,
                                             names):
    path = write(tmp_path, "c.ini", text)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and names in captured.err


def test_simulate_trials_flag_below_one_names_the_flag(tmp_path, capsys):
    path = write(tmp_path, "c.ini", PLAIN_CFG)
    assert main(["simulate", "--config", path, "--trials", "0"]) == 2
    assert capsys.readouterr().err == "config error: --trials = 0 must be >= 1\n"


def test_search_trials_flag_below_one_names_the_flag(tmp_path, capsys):
    path = write(tmp_path, "s.ini", SEARCH_CFG)
    assert main(["recovering-search", "--config", path, "--trials", "0"]) == 2
    assert capsys.readouterr().err == "config error: --trials = 0 must be >= 1\n"


@pytest.mark.parametrize("command, config, extra, message", [
    ("simulate", PLAIN_CFG, ["--workers", "0"], "--workers = 0"),
    ("simulate", PLAIN_CFG, ["--workers", "-3"], "--workers = -3"),
    ("simulate", PLAIN_CFG + "workers = 0\n", [], "[run] workers = 0"),
    ("recovering-search", SEARCH_CFG, ["--workers", "0"], "--workers = 0"),
    ("recovering-search", SEARCH_CFG, ["--workers", "-3"], "--workers = -3"),
], ids=["simulate-flag-zero", "simulate-flag-negative", "run-workers-zero",
        "search-flag-zero", "search-flag-negative"])
def test_workers_below_one_name_their_source(tmp_path, capsys, command, config,
                                             extra, message):
    path = write(tmp_path, "c.ini", config)
    assert main([command, "--config", path, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {message} must be >= 1\n"


@pytest.mark.parametrize("command, config, message", [
    ("simulate", PLAIN_CFG.replace("trials = 3", "trials = 0"),
     "[run] trials = 0 must be >= 1"),
    ("simulate", PLAIN_CFG.replace("seed = 11", "seed = x"),
     "[run] seed = 'x' is not an integer"),
    ("recovering-search", SEARCH_CFG.replace("trials = 200", "trials = 0"),
     "[search] trials = 0 must be >= 1"),
], ids=["run-trials-zero", "run-seed-x", "search-trials-zero"])
def test_run_settings_in_the_config_name_their_key(tmp_path, capsys, command,
                                                   config, message):
    path = write(tmp_path, "c.ini", config)
    assert main([command, "--config", path]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["rates", "--seed", "1"],
    ["rates", "--workers", "2"],
    ["privacy-audit", "--config", "a.ini", "--trials", "1"],
    ["privacy-audit", "--config", "a.ini", "--seed", "1"],
], ids=["rates-seed", "rates-workers", "audit-trials", "audit-seed"])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, names", [
    ("privacy-audit", AUDIT_CFG + "[audit]\nlimit = 100\n", "[audit] limit"),
    ("simulate", PLAIN_CFG.replace("memory = 1", "memory = 1\neps = 2"),
     "[scheme] eps"),
    ("simulate", BYZ_CFG.replace("kind = symbol-errors", "kinds = symbol-errors"),
     "[channel] kinds"),
    ("simulate", PLAIN_CFG.replace("field = 2^4", "q = 2^4"), "[scheme] q"),
    ("simulate", BLOCK_CFG.replace("window = 3", "n_window = 3"),
     "[scheme] n_window"),
], ids=["audit-limit", "scheme-eps", "channel-kinds", "scheme-q",
        "scheme-n-window"])
def test_unknown_keys_are_config_errors(tmp_path, capsys, command, text, names):
    path = write(tmp_path, "c.ini", text)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: unknown key ")
    assert names in captured.err


@pytest.mark.parametrize("variant", ["plain_conv", "block_erasure",
                                     "byzantine_um", "plian"])
def test_unknown_variants_are_config_errors(tmp_path, capsys, variant):
    # the internal names printed on the first simulate line are not
    # config spellings
    path = write(tmp_path, "c.ini",
                 PLAIN_CFG.replace("variant = plain", f"variant = {variant}"))
    assert main(["simulate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: [scheme] variant = {variant!r}; expected one of "
        "['block-erasure', 'byzantine', 'plain']\n")


@pytest.mark.parametrize("text, names", [
    (BYZ_CFG.replace("kind = symbol-errors", "kind = symbol-error"),
     "[channel] kind"),
    (BYZ_CFG.replace("mode = budget", "mode = budjet"), "[channel] mode"),
    (BLOCK_CFG.replace("mode = exhaustive", "mode = randm"), "[channel] mode"),
    (PLAIN_CFG + "[channel]\nmode = random\n", "[channel] mode"),
    (BYZ_CFG.replace("mode = budget", "mode = fixed-byzantine"), "[channel] b"),
    (BYZ_CFG.replace("mode = budget", "mode = fixed-byzantine\nb = 11"),
     "[channel] b"),
    (BYZ_CFG.replace("mode = budget", "mode = fixed-byzantine\nb = -1"),
     "[channel] b"),
    (BYZ_CFG.replace("mode = budget", "mode = budget\nb = 7"), "[channel] b"),
    (PLAIN_CFG + "[channel]\nkind = none\nb = 1\n", "[channel] b"),
    # 20 stripes and memory 3: a stream too long to enumerate
    (EXHAUSTIVE_CFG.replace("ell = 10", "ell = 20"),
     "[channel] mode = exhaustive takes at most 22 blocks, not ell + M = 23"),
], ids=["kind-typo", "symbol-errors-mode", "block-erasure-mode",
        "mode-without-kind", "fixed-byzantine-no-b", "b-above-n", "b-negative",
        "b-with-budget", "b-with-kind-none", "exhaustive-too-long"])
def test_channel_values_are_checked_before_any_trial(tmp_path, capsys, text,
                                                     names):
    path = write(tmp_path, "c.ini", text)
    assert main(["simulate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and names in captured.err


def test_privacy_audit_at_the_byzantine_fixed_shape(tmp_path, capsys):
    # 256^(1*1*4) = 2^32 joint draws per set, decided by ranks
    cfg = ("[scheme]\nvariant = byzantine\nfield = 2^8\nn = 16\nk = 3\n"
           "t = 1\nm = 2\nell = 20\n")
    path = write(tmp_path, "a.ini", cfg)
    assert main(["privacy-audit", "--config", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"T=[{j}] PASS enumerated={2 ** 32}" for j in range(16)]


def test_privacy_audit_fail_line_names_the_witness(tmp_path, capsys,
                                                   monkeypatch):
    # a masking code of dimension 1 < t = 2: on T = (0, 1) it is spanned by
    # (1, 1), which misses the offset (1, 0) of the support (0,)
    def under_dimensioned(cfg):
        field, code, scheme, ell = build_scheme(cfg)
        masking = GrsCode(field, code.n, 1, code.locators)
        return field, code, dataclasses.replace(scheme, retrieval_code=masking), ell

    monkeypatch.setattr(cli, "build_scheme", under_dimensioned)
    cfg = AUDIT_CFG.replace("t = 1", "t = 2") + "[audit]\nsets = 0 1 ; 1 2\n"
    path = write(tmp_path, "a.ini", cfg)
    assert main(["privacy-audit", "--config", path]) == 3
    assert capsys.readouterr().out == (
        "T=[0, 1] FAIL witness: sub-round 0 lag 0 offset [1, 0] is outside "
        "the masking code on T\n"
        "T=[1, 2] PASS enumerated=25\n")


@pytest.mark.parametrize("sets, problem", [
    ("0 1;0 9", "servers must be in [0, 3]"),
    ("0 0", "repeats a server"),
    ("-1", "servers must be in [0, 3]"),
    ("0 1;0 1 2", "has more than t = 2 servers"),
], ids=["out-of-range", "repeated", "negative", "more-than-t"])
def test_privacy_audit_sets_are_validated(tmp_path, capsys, sets, problem):
    cfg = AUDIT_CFG.replace("t = 1", "t = 2") + f"[audit]\nsets = {sets}\n"
    path = write(tmp_path, "a.ini", cfg)
    assert main(["privacy-audit", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[audit] sets entry" in captured.err and problem in captured.err


def test_privacy_audit_explicit_sets(tmp_path, capsys):
    cfg = AUDIT_CFG + "[audit]\nsets = 2; 0,;\n"
    path = write(tmp_path, "a.ini", cfg)
    assert main(["privacy-audit", "--config", path]) == 0
    assert capsys.readouterr().out == ("T=[2] PASS enumerated=25\n"
                                       "T=[0] PASS enumerated=25\n")


def test_privacy_audit_prints_counts_past_the_int_to_str_limit(tmp_path,
                                                                capsys):
    # 331^(t * rounds * (M+1)m) = 331^(2 * 1 * 4 * 300) has 6,048 digits,
    # more than str() of an int may print by default
    text = (Path(__file__).parent / "configs" / "block-gf331.ini").read_text()
    path = write(tmp_path, "a.ini", text.replace("\nm = 2\n", "\nm = 300\n")
                 + "\n[audit]\nsets = 0 1\n")
    assert main(["privacy-audit", "--config", path]) == 0
    n, chunks = 331 ** 2400, []
    while n >= 10 ** 1000:
        n, low = divmod(n, 10 ** 1000)
        chunks.append(f"{low:01000d}")
    digits = str(n) + "".join(reversed(chunks))
    assert len(digits) == 6048
    assert capsys.readouterr().out == f"T=[0, 1] PASS enumerated={digits}\n"


def test_privacy_audit_sets_split_at_spaced_semicolons(tmp_path, capsys):
    # only "#" starts an inline comment; a spaced ";" still splits sets
    cfg = AUDIT_CFG + "[audit]\nsets = 2 ; 0  # both sets\n; a full-line comment\n"
    path = write(tmp_path, "a.ini", cfg)
    assert main(["privacy-audit", "--config", path]) == 0
    assert capsys.readouterr().out == ("T=[2] PASS enumerated=25\n"
                                       "T=[0] PASS enumerated=25\n")


def test_privacy_audit_refuses_too_many_sets_before_building_any(
        tmp_path, capsys, monkeypatch):
    # every 7-subset of n = 100 servers is C(100, 7) ~ 1.6e10 colluding
    # sets, far more than memory holds; the command refuses before it
    # builds one, so any set built fails the test instead
    def no_sets(*args):
        raise AssertionError("a colluding set was built")

    monkeypatch.setattr(cli.itertools, "combinations", no_sets)
    n100 = Path(__file__).parent / "configs" / "byzantine-budget-n100.ini"
    cfg = n100.read_text().replace("t = 1", "t = 7")
    path = write(tmp_path, "a.ini", cfg)
    assert main(["privacy-audit", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: auditing every t-subset takes C(100, 7) = 16007560800 "
        f"colluding sets, more than {cli.MAX_AUDIT_SETS}; list the sets to "
        "audit in [audit] sets\n")


def test_privacy_audit_at_the_bound_audits_every_set(tmp_path, capsys,
                                                     monkeypatch):
    # C(4, 2) = 6 sets at a bound of 6 are audited, at 5 refused
    path = write(tmp_path, "a.ini", AUDIT_CFG.replace("t = 1", "t = 2"))
    monkeypatch.setattr(cli, "MAX_AUDIT_SETS", 6)
    assert main(["privacy-audit", "--config", path]) == 0
    assert capsys.readouterr().out.count("PASS") == 6
    monkeypatch.setattr(cli, "MAX_AUDIT_SETS", 5)
    assert main(["privacy-audit", "--config", path]) == 2
    assert "C(4, 2) = 6 colluding sets, more than 5" in capsys.readouterr().err


def test_simulate_deeper_memory(tmp_path, capsys):
    cfg = PLAIN_CFG.replace("ell = 4", "ell = 10").replace(
        "memory = 1", "memory = 2")
    path = write(tmp_path, "c.ini", cfg)
    assert main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "ok=3" in out
    # downloads (ell+M)n = 72; rate lk/((l+M)n) = 20/72 = 5/18
    assert "simulated_rate=5/18" in out


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pirstream.cli", "rates"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("panel,x,")
