import subprocess
import sys

import pytest

from pirstream.cli import main, parse_search_rows, rates_csv
from pirstream.config import load_config, build_scheme
from pirstream.errors import ConfigError

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


def test_simulate_workers_match_serial(tmp_path, capsys):
    path = write(tmp_path, "c.ini", PLAIN_CFG)
    a = tmp_path / "serial.csv"
    b = tmp_path / "pool.csv"
    assert main(["simulate", "--config", path, "--trials", "6",
                 "--out", str(a)]) == 0
    assert main(["simulate", "--config", path, "--trials", "6",
                 "--workers", "3", "--out", str(b)]) == 0
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


def test_search_rows_parse():
    rows = parse_search_rows("2:1:16, 3:2:64:6")
    assert rows == [(2, 1, 16, None), (3, 2, 64, 6)]
    with pytest.raises(ConfigError):
        parse_search_rows("2:1")


def test_privacy_audit_cli(tmp_path, capsys):
    path = write(tmp_path, "a.ini", AUDIT_CFG)
    assert main(["privacy-audit", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


@pytest.mark.parametrize("command, text, names", [
    ("privacy-audit", AUDIT_CFG + "[audit]\nsets = 0,x\n", "[audit] sets"),
    ("privacy-audit", AUDIT_CFG + "[audit]\nlimit = lots\n", "[audit] limit"),
    ("recovering-search", "[search]\nrows = 3:2:x\n", "[search] rows"),
    ("recovering-search", "[search]\nrows = 2:1:16\nbands = 0.6-0.7\n",
     "[search] bands"),
    ("recovering-search", SEARCH_CFG.replace("trials = 200", "trials = many"),
     "[search] trials"),
    ("recovering-search", SEARCH_CFG.replace("trials = 200", "trials = 0"),
     "[search] trials"),
    ("recovering-search", SEARCH_CFG.replace("trials = 200", "trials = -3"),
     "[search] trials"),
    ("simulate", PLAIN_CFG.replace("seed = 11", "seed = eleven"), "[run] seed"),
    ("simulate", BYZ_CFG.replace("mode = budget", "mode = fixed-byzantine\nb = two"),
     "[channel] b"),
    ("rates", "[rates]\nell = 1e2\n", "[rates] ell"),
], ids=["audit-sets", "audit-limit", "search-rows", "search-bands",
        "search-trials", "search-trials-zero", "search-trials-negative",
        "run-seed", "channel-b", "rates-ell"])
def test_malformed_numbers_are_config_errors(tmp_path, capsys, command, text,
                                             names):
    path = write(tmp_path, "c.ini", text)
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err


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


def test_privacy_audit_sets_split_at_spaced_semicolons(tmp_path, capsys):
    # only "#" starts an inline comment; a spaced ";" still splits sets
    cfg = AUDIT_CFG + "[audit]\nsets = 2 ; 0  # both sets\n; a full-line comment\n"
    path = write(tmp_path, "a.ini", cfg)
    assert main(["privacy-audit", "--config", path]) == 0
    assert capsys.readouterr().out == ("T=[2] PASS enumerated=25\n"
                                       "T=[0] PASS enumerated=25\n")


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
