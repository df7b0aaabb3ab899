"""Seed derivation is SHA-256 of the label path, whatever module hashes it,
and bulk draws give the symbols of one ``randrange`` call each."""

import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pirstream
from pirstream.fields import Field
from pirstream.protocol import random_files
from pirstream.seeds import derive_rng, derive_seed, draw_below

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


@pytest.mark.parametrize("count", [0, 1, 7, 1280])
@pytest.mark.parametrize("q", [2, 3, 13, 251, 256, 331, 2 ** 16, 2 ** 31 - 1,
                               2 ** 32, 2 ** 32 + 15])
def test_draw_below_gives_the_randrange_sequence(q, count):
    # the interpreter's own randrange is the oracle, so each interpreter
    # the tests run on checks its own
    rng, twin = derive_rng(q, "draw", count), derive_rng(q, "draw", count)
    assert draw_below(rng, q, count) == [twin.randrange(q) for _ in range(count)]


@pytest.mark.parametrize("spec, m, ell, k", [((2, 8), 8, 40, 4), ((251,), 2, 40, 4),
                                             ((2, 4), 3, 4, 2), ((331,), 1, 3, 5)])
def test_random_files_are_one_randrange_per_symbol(spec, m, ell, k):
    field = Field(*spec)
    rng = derive_rng(11, "files", 0)
    expect = tuple(
        tuple(tuple(rng.randrange(field.q) for _ in range(k)) for _ in range(ell))
        for _ in range(m))
    assert random_files(field, m, ell, k, derive_rng(11, "files", 0)) == expect
