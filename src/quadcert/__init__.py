"""Machine-checkable certificates that a multiplicative solution of the
parallelogram equation on primes is the quadratic function n^2.

The pipeline: an exact-rational bootstrap pins f(1..20) = n^2 and shows the
alternative branch is contradictory; the derivation engine extends that to
any bound by emitting certificate steps (coprime products/quotients and
parallelogram closes over Goldbach pairs); an independent checker re-verifies
every step from scratch; probes explore which instance sets force uniqueness.
"""

import os

# quadcert makes no BLAS call: OpenBLAS, loaded by numpy, reads this once and
# starts no idle pool, so `phases.forked` forks one thread. A caller's count
# stands; ours is not inherited by the caller's subprocesses.
_ours = "OPENBLAS_NUM_THREADS" not in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy  # noqa: E402
if _ours:
    del os.environ["OPENBLAS_NUM_THREADS"]

from .bootstrap import solve_bootstrap, uniqueness_probe
from .checker import check_store, spot_check_numeric
from .engine import certify_range
from .goldbach import goldbach_sweep
from .model import iter_steps, validate_step
from .primes import build_prime_table, is_prime

__version__ = "0.1.0"
