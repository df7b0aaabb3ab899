"""Information-theoretically private streaming over coded storage.

Star-product retrieval with block-convolutional queries on generalized
Reed-Solomon storage: exact finite-field arithmetic, the three scheme
variants (plain streaming, block-erasure bursts, Byzantine symbol
errors), their decoders, locator-set search, rate formulas, and a
seeded simulation CLI.
"""

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
    rate_star,
    verify_accounting,
)
from .recovering import (
    RecoveringMatrix,
    build_A,
    check_direct_sum,
    construct_regset,
    construct_unit_memory,
    minimal_gamma,
)

__version__ = "0.1.0"
