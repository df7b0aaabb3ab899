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
