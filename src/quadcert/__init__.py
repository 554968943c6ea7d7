"""Machine-checkable certificates that a multiplicative solution of the
parallelogram equation on primes is the quadratic function n^2.

The pipeline: an exact-rational bootstrap pins f(1..20) = n^2 and shows the
alternative branch is contradictory; the derivation engine extends that to
any bound by emitting certificate steps (coprime products/quotients and
parallelogram closes over Goldbach pairs); an independent checker re-verifies
every step from scratch; probes explore which instance sets force uniqueness.
"""

from .bootstrap import (
    BootstrapError,
    BootstrapResult,
    ProbeReport,
    prime_powers_upto,
    solve_bootstrap,
    uniqueness_probe,
)
from .checker import CheckReport, check_store, spot_check_numeric
from .engine import (
    BoundViolation,
    EngineResult,
    EngineStats,
    certify_range,
    table_limit,
)
from .model import (
    BASE_LIMIT,
    CANONICAL_CODES,
    Base,
    CertificateFormatError,
    CertificateStep,
    CoprimeProduct,
    CoprimeQuotient,
    ParallelogramClose,
    Violation,
    demanded_prereqs,
    iter_steps,
    parallelogram_solve,
    parse_step,
    serialize_step,
    slot_values,
    validate_step,
)
from .primes import (
    MAX_Q,
    MIN_Q,
    POLICIES,
    GoldbachFailure,
    GoldbachPair,
    PrimeTable,
    SieveBudgetError,
    UnsupportedIntegerError,
    build_prime_table,
    goldbach_pair,
    goldbach_sweep,
    is_prime,
    primes_upto,
    select_q_for_prime,
    select_r,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_LIMIT",
    "CANONICAL_CODES",
    "Base",
    "BootstrapError",
    "BootstrapResult",
    "BoundViolation",
    "CertificateFormatError",
    "CertificateStep",
    "CheckReport",
    "CoprimeProduct",
    "CoprimeQuotient",
    "EngineResult",
    "EngineStats",
    "GoldbachFailure",
    "GoldbachPair",
    "MAX_Q",
    "MIN_Q",
    "POLICIES",
    "ParallelogramClose",
    "PrimeTable",
    "ProbeReport",
    "SieveBudgetError",
    "UnsupportedIntegerError",
    "Violation",
    "build_prime_table",
    "certify_range",
    "check_store",
    "demanded_prereqs",
    "goldbach_pair",
    "goldbach_sweep",
    "is_prime",
    "iter_steps",
    "parallelogram_solve",
    "parse_step",
    "prime_powers_upto",
    "primes_upto",
    "select_q_for_prime",
    "select_r",
    "serialize_step",
    "slot_values",
    "solve_bootstrap",
    "spot_check_numeric",
    "table_limit",
    "uniqueness_probe",
    "validate_step",
]
