"""Deterministic seed derivation.

One master seed per experiment; every consumer (query randomness, channel
draws, per-trial workers) gets its own stream through a counter-style
hash expansion, so runs are reproducible bit-for-bit regardless of trial
order or worker count.

The hash is SHA-256 from the interpreter's built-in module (``_sha2`` on
3.12+, ``_sha256`` on 3.10-3.11), as stdlib ``random`` takes SHA-512, so
deriving a seed loads no OpenSSL; ``hashlib`` is the last fallback.
"""

from __future__ import annotations

import random
import struct

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


def derive_seed(master: int, *labels) -> int:
    """64-bit seed derived from the master seed and a label path."""
    text = "/".join(str(x) for x in (master, *labels))
    digest = _sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(master: int, *labels) -> random.Random:
    return random.Random(derive_seed(master, *labels))


def draw_below(rng: random.Random, q: int, count: int) -> list:
    """The ``count`` symbols in [0, q) that ``count`` successive calls of
    ``rng.randrange(q)`` return, drawn in bulk.

    ``randrange(q)`` keeps drawing ``getrandbits(b)``, b = q.bit_length(),
    until a value is below q (CPython's ``_randbelow_with_getrandbits``,
    3.10-3.13), and for b <= 32 each draw is the top b bits of one 32-bit
    Mersenne Twister output.  ``getrandbits(32 * w)`` holds the next w
    outputs, the first in the lowest 32 bits, so the same values come out
    of one call per batch of w words, rejection included.  The last batch
    may draw words past the ``count``-th accepted symbol, which leaves
    ``rng`` further along than the ``randrange`` calls would: callers
    derive an rng for one call and read it no further.  Past b = 32
    (q >= 2^32) the symbols are ``randrange`` calls.
    """
    bits = q.bit_length()
    if bits > 32:
        return [rng.randrange(q) for _ in range(count)]
    shift = 32 - bits
    out: list = []
    while len(out) < count:
        # the expected number of words for the symbols still missing
        words = -(-(count - len(out) << bits) // q)
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        out += [x for x in (w >> shift for w in
                            struct.unpack(f"<{words}I", raw)) if x < q]
    del out[count:]
    return out
