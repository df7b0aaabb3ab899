"""What a fresh CLI process imports.

Each check runs in its own ``python -I -S`` process: isolated, as the
benchmark runs the CLI, and without the ``site`` module, so that no
``.pth`` file in site-packages loads modules before the check.  Importing
``pirstream.cli`` loads no process pool, no OpenSSL, and none of
``dataclasses``, ``inspect``, ``logging`` or ``typing`` (the package's
records are ``pirstream.records``, and ``decode_um`` logs only through a
``logging`` that a caller imported), and ``cli.main`` at ``--workers 1``
imports nothing: a module imported lazily inside ``main`` (as argparse's
gettext lookup once imported ``locale``) lands in every command's timed
interval.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import pirstream

SRC = str(Path(pirstream.__file__).resolve().parent.parent)
CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def run_fresh(code: str) -> str:
    """The last line that ``code`` prints, run in a new isolated
    interpreter without ``site`` that finds this checkout's package."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_importing_the_cli_loads_no_process_pool_or_openssl():
    loaded = run_fresh(
        "import pirstream.cli\n"
        "names = ['multiprocessing', 'concurrent.futures.process', '_hashlib']\n"
        "print([n for n in names if n in sys.modules])")
    assert loaded == "[]"


def test_importing_the_cli_loads_no_dataclasses_inspect_logging_or_typing():
    loaded = run_fresh(
        "import pirstream.cli\n"
        "names = ['dataclasses', 'inspect', 'logging', 'typing']\n"
        "print([n for n in names if n in sys.modules])")
    assert loaded == "[]"


def test_decode_um_logs_its_stages_once_a_caller_imports_logging():
    # the first run leaves logging unimported; after the caller imports it
    # and sets the decoder's logger to debug, the same run logs one line
    # per trellis stage
    argv = ["simulate", "--config", str(CONFIGS / "byzantine-fixed.ini"),
            "--seed", "11", "--trials", "1", "--workers", "1"]
    lines = run_fresh(
        "import io\n"
        "import pirstream.cli\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"pirstream.cli.main({argv!r})\n"
        "before = 'logging' in sys.modules\n"
        "import logging\n"
        "lines = []\n"
        "handler = logging.Handler()\n"
        "handler.emit = lambda record: lines.append(record.getMessage())\n"
        "logger = logging.getLogger('pirstream.decoder')\n"
        "logger.addHandler(handler)\n"
        "logger.setLevel(logging.DEBUG)\n"
        f"pirstream.cli.main({argv!r})\n"
        "sys.stdout = out\n"
        "print(before, [line.split(':')[0] for line in lines])")
    # byzantine-fixed streams ell = 20 stripes: stages 1..ell+1
    assert lines == f"False {[f'block {xi}' for xi in range(1, 22)]}"


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", str(CONFIGS / "plain-stream.ini"),
     "--seed", "11", "--trials", "1", "--workers", "1"],
    ["simulate", "--config", str(CONFIGS / "burst-window.ini"),
     "--seed", "11", "--trials", "2", "--workers", "1"],
    ["simulate", "--config", str(CONFIGS / "byzantine-fixed.ini"),
     "--seed", "11", "--trials", "1", "--workers", "1"],
    ["recovering-search", "--config", str(CONFIGS / "locator-search.ini"),
     "--seed", "1", "--trials", "20", "--workers", "1"],
    ["privacy-audit", "--config", str(CONFIGS / "privacy-audit.ini"),
     "--workers", "1"],
    ["rates"],
], ids=["simulate-plain", "simulate-block", "simulate-byzantine",
        "recovering-search", "privacy-audit", "rates"])
def test_one_worker_main_imports_nothing(argv):
    # stdout goes to a StringIO (io is loaded at start-up), so that the
    # report is the only line printed
    added = run_fresh(
        "import io\n"
        "import pirstream.cli\n"
        "before = set(sys.modules)\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"pirstream.cli.main({argv!r})\n"
        "sys.stdout = out\n"
        "print(sorted(set(sys.modules) - before))")
    assert added == "[]"
