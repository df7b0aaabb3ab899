"""Information-theoretically private streaming over coded storage.

Star-product retrieval with block-convolutional queries on generalized
Reed-Solomon storage: exact finite-field arithmetic, the three scheme
variants (plain streaming, block-erasure bursts, Byzantine symbol
errors), their decoders, locator-set search, rate formulas, and a
seeded simulation CLI.
"""

from . import channels, decoder, grs, recovering
from .channels import (
    ErasureSchedule,
    ErrorSchedule,
    apply_erasures,
    apply_errors,
    gen_burst_patterns,
    gen_error_schedule,
)
from .decoder import (
    RecoveredFile,
    UmDistanceProfile,
    check_guarantee,
    decode_um,
    recover_plain,
    recover_window,
)
from .fields import Field, parse_field_spec
from .grs import GrsCode, star_product_code
from .protocol import (
    AuditReport,
    Block,
    PirScheme,
    QuerySet,
    ResponseStream,
    StorageSystem,
    block_scheme,
    byzantine_scheme,
    make_queries,
    plain_scheme,
    privacy_audit,
    random_files,
    run_protocol,
    server_respond,
    storage_encode,
)
from .rates import (
    RateReport,
    bound_block,
    rate_block,
    rate_byz,
    rate_conv,
    rate_report,
    rate_star,
)
from .recovering import (
    RecoveringMatrix,
    build_A,
    construct_regset,
    construct_unit_memory,
    minimal_gamma,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every per-process cache of the package: the kept BMD state
    (last errors, their locator and the reader tried first), dual checks
    and root maps of GRS codes (``grs``), the peeling tables of each plain
    or block-erasure scheme (``decoder``), with the scheme's table of
    window patterns and their kept solvers, the window ranks of
    ``recovering`` and the budget weight counts of ``channels``.  Each is
    a ``functools.lru_cache`` that bounds itself; clearing one changes no
    result, only what the next call recomputes.  So after it a code's next
    BMD decode reads through its map of all n positions, as its first
    did, and a scheme's next window pattern is a first sight.  What a code
    keeps on itself, its cached tables (generator rows, systematic form
    with its map of all n positions, parity checks and locator values),
    lives as long as the code and changes no result either."""
    for cache in (grs._bmd_kept, grs._dual_checks, grs._root_map,
                  decoder._peeling_tables, recovering._orbit_rank,
                  channels._budget_counts):
        cache.cache_clear()
