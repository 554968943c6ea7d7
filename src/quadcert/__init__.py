"""Machine-checkable certificates that a multiplicative solution of the
parallelogram equation on primes is the quadratic function n^2.

The pipeline: an exact-rational bootstrap pins f(1..20) = n^2 and shows the
alternative branch is contradictory; the derivation engine extends that to
any bound by emitting certificate steps (coprime products/quotients and
parallelogram closes over Goldbach pairs); an independent checker re-verifies
every step from scratch; probes explore which instance sets force uniqueness.
"""

from .bootstrap import solve_bootstrap, uniqueness_probe
from .checker import check_store, spot_check_numeric
from .engine import certify_range
from .model import iter_steps, validate_step
from .primes import build_prime_table, goldbach_sweep, is_prime

__version__ = "0.1.0"
