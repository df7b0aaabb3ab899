"""Seed derivation is SHA-256 of the label path, whatever module hashes it."""

import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pirstream
from pirstream.seeds import derive_rng, derive_seed

LABEL_PATHS = [
    (0,),
    (11, "files", 0),
    (11, "protocol", 39),
    (-1, "errors", -7),
    (2 ** 64 - 1, "erasure-schedules"),
    (10 ** 40, -(10 ** 40), 2 ** 200),
    (1, ""),
    (7, "sched", 3, "apply"),
    (5, "é", "naïve"),
    (3, "流", "ストリーム"),
    (9, "emoji \U0001f600", "tab\tand\nnewline"),
]


@pytest.mark.parametrize("path", LABEL_PATHS)
def test_derive_seed_is_the_first_8_bytes_of_sha256(path):
    text = "/".join(str(x) for x in path)
    expect = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
    assert derive_seed(*path) == expect


def test_derive_rng_is_seeded_with_derive_seed():
    assert (derive_rng(11, "files", 2).random()
            == random.Random(derive_seed(11, "files", 2)).random())


def test_hashlib_fallback_gives_the_same_seeds():
    # an interpreter built without the built-in SHA-256 module falls back
    # to hashlib; a None entry in sys.modules makes its import fail, and
    # without site no .pth file can have loaded hashlib already
    src = str(Path(pirstream.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from pirstream import seeds\n"
            "print('hashlib' in sys.modules,"
            f" [seeds.derive_seed(*p) for p in {LABEL_PATHS!r}])")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    assert out.strip() == f"True {[derive_seed(*p) for p in LABEL_PATHS]}"
