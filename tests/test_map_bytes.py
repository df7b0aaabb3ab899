"""What the GF(2^8) linear maps hold, measured with ``tracemalloc``.

A binary-kernel map keeps only its matrix rows, as ``bytes``, so a kept
solver at the cell cap and the BMD maps and kept state of a code at
n = 64 each stay within a few tens of KiB, where a 256-entry table per row
held hundreds of KiB to MiB.
"""

import random
import tracemalloc

from pirstream import clear_caches, grs, linalg
from pirstream.fields import Field
from pirstream.grs import GrsCode

from oracles import scalar_dot

GF256 = Field(2, 8)
BUDGET = 64 * 1024


def held(build):
    """The bytes still allocated after ``build()``, which fills caches,
    from empty caches."""
    clear_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        clear_caches()


def test_a_kept_solver_at_the_cell_cap_is_small():
    # 44 x 2: [A | I] has 44 * 46 = 2,024 cells, the most under the cap
    rng = random.Random(4)
    a = [[rng.randrange(256) for _ in range(2)] for _ in range(44)]
    x = [17, 200]
    b = [scalar_dot(GF256, row, x) for row in a]
    assert 44 * 46 <= linalg._SOLVER_CELLS

    def solve():
        assert linalg.solve_unique(GF256, a, b) == x
        assert linalg._kept_solver.cache_info().currsize == 1
    assert held(solve) < BUDGET


def test_the_bmd_maps_of_a_code_at_n_64_are_small():
    # the syndrome map with the dual weights, the root map, the code's map
    # of all n positions, and, once a second word shows the same errors,
    # the reader of the first k positions outside them with the kept state
    code = GrsCode(GF256, 64, 9, tuple(range(1, 65)))
    rng = random.Random(5)
    msg = [rng.randrange(256) for _ in range(9)]
    word = code.encode(msg)
    for j in (3, 30, 61):
        word[j] ^= 0x5A

    def decode():
        assert code.bmd_decode(word) == (msg, frozenset({3, 30, 61}))
        assert grs._reader.cache_info().currsize == 0
        assert code.bmd_decode(word) == (msg, frozenset({3, 30, 61}))
        assert grs._reader.cache_info().currsize == 1
    assert held(decode) < BUDGET
