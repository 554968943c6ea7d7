"""Prime infrastructure: sieve-backed table, 64-bit primality, Goldbach pairs.

The derivation engine needs three things from this module: fast primality for
integers up to a few times the certification bound, Goldbach decompositions of
even numbers under a deterministic selection policy, and two residue-based
selectors that keep auxiliary quantities odd (so coprime-split inferences
stay available downstream).

The table is a true bitset (one bit per integer) built by a segmented sieve,
so construction memory stays O(segment) on top of the packed result. Queries
above the table limit fall back to deterministic Miller-Rabin, valid for all
64-bit inputs. A segmented smallest-prime-factor sieve gives the engine each
target's factorization one segment at a time, and both sieves their base
primes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

SEGMENT_SIZE = 1 << 20  # sieve segment length; a multiple of 8, so it packs
# Refuse tables above this many bits (packed size 1 GiB). Desk-scale runs
# need ~2x the certification bound, far below this.
DEFAULT_MAX_TABLE_BITS = 1 << 33

MAX_Q = "max-q"
MIN_Q = "min-q"
POLICIES = (MAX_Q, MIN_Q)
HIST_CAP = 64  # distinct Goldbach histogram keys before the "other" bucket

# Deterministic Miller-Rabin witness tiers. Each entry (bound, witnesses)
# means: for n < bound the listed witnesses decide primality exactly.
# The final tier covers everything below 2^64.
_MR_TIERS: tuple[tuple[int, tuple[int, ...]], ...] = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


class GoldbachFailure(RuntimeError):
    """An even number in range admitted no prime pair.

    This would falsify the Goldbach conjecture below the search bound, so it
    must abort the whole run loudly rather than be swallowed.
    """

    def __init__(self, m: int):
        super().__init__(f"no Goldbach pair exists for {m}")
        self.m = m


class SieveBudgetError(RuntimeError):
    """Requested table exceeds the configured memory budget."""


class UnsupportedIntegerError(ValueError):
    """Primality queried beyond the supported 64-bit range."""


@dataclass(frozen=True)
class PrimeTable:
    """Packed primality bitset over 0..limit (bit n set iff n is prime)."""

    limit: int
    _bits: bytes = field(repr=False)

    def __contains__(self, n: int) -> bool:
        if n < 0 or n > self.limit:
            raise ValueError(f"{n} outside table range 0..{self.limit}")
        return bool((self._bits[n >> 3] >> (n & 7)) & 1)

    def lookup(self, values: np.ndarray) -> np.ndarray:
        """Vectorised membership for integers in 0..limit, read off the
        packed bits (no unpacked copy)."""
        return lookup_bits(np.frombuffer(self._bits, dtype=np.uint8), values)

    def as_bool_array(self) -> np.ndarray:
        """Unpacked bool view (index n -> n is prime), length limit+1."""
        raw = np.frombuffer(self._bits, dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.limit + 1].view(bool)

    def count(self) -> int:
        return int(self.as_bool_array().sum())


def lookup_bits(bits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bit v of a little-endian packed uint8 bitset, for each v in values."""
    return ((bits[values >> 3] >> (values & 7)) & 1).astype(bool)


def spf_segment(lo: int, hi: int, base_primes: list[int]) -> np.ndarray:
    """Smallest prime factor of each n in lo..hi-1 (0 and 1 map to themselves).

    A segmented sieve of Eratosthenes (Bays and Hudson, BIT 1977):
    `base_primes` must hold, ascending, every prime <= isqrt(hi - 1). Each
    prime, largest first, writes itself on its multiples from its square up,
    so the last write on n is its smallest prime factor; n is prime (or 0, 1)
    iff nothing was written, and then maps to itself.
    """
    spf = np.zeros(hi - lo, dtype=np.int64)
    for p in reversed(base_primes):
        spf[max(p * p, -(-lo // p) * p) - lo :: p] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset + lo
    return spf


def spf_array(limit: int) -> np.ndarray:
    """Smallest prime factor for 0..limit (0 and 1 map to themselves).

    n >= 2 is prime iff spf[n] == n.
    """
    return spf_segment(0, limit + 1, primes_upto(math.isqrt(limit)))


def build_prime_table(limit: int, max_bits: int = DEFAULT_MAX_TABLE_BITS) -> PrimeTable:
    """Segmented sieve of Eratosthenes packed into a bitset."""
    if limit < 2:
        raise ValueError(f"table limit must be >= 2, got {limit}")
    if limit + 1 > max_bits:
        raise SieveBudgetError(
            f"limit {limit} needs {limit + 1} bits, budget is {max_bits}"
        )
    base_primes = primes_upto(math.isqrt(limit))
    bits = bytearray((limit >> 3) + 1)
    packed = np.frombuffer(bits, dtype=np.uint8)
    whole = np.empty(min(SEGMENT_SIZE, limit + 1), dtype=bool)  # refilled per segment
    for low in range(0, limit + 1, SEGMENT_SIZE):
        high = min(low + SEGMENT_SIZE, limit + 1)
        seg = whole[: high - low]
        seg[:] = True
        if low == 0:
            seg[:2] = False
        for p in base_primes:
            start = max(p * p, ((low + p - 1) // p) * p)
            if start < high:
                seg[start - low :: p] = False
        packed[low >> 3 : (high + 7) >> 3] = np.packbits(seg, bitorder="little")
    return PrimeTable(limit=limit, _bits=bits)


def _miller_rabin(n: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            break
    for a in witnesses:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int, table: PrimeTable | None = None) -> bool:
    """Exact primality for 0 <= n < 2^64; uses the table when it covers n."""
    if n >= 1 << 64:
        raise UnsupportedIntegerError(f"{n} is beyond the supported 64-bit range")
    if n < 2:
        return False
    if table is not None and n <= table.limit:
        return n in table
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    return _miller_rabin(n)


def primes_upto(limit: int) -> list[int]:
    """Ascending primes <= limit (convenience for small bounds)."""
    if limit < 2:
        return []
    spf = spf_array(limit)
    return np.flatnonzero(spf == np.arange(limit + 1))[2:].tolist()  # past 0, 1


@dataclass(frozen=True)
class GoldbachPair:
    """Decomposition m = p + q with p >= q, both prime."""

    m: int
    p: int
    q: int
    policy: str


def goldbach_pair(m: int, table: PrimeTable | None = None, policy: str = MAX_Q) -> GoldbachPair:
    """Find m = p + q, p >= q both prime, under a deterministic policy.

    max-q picks the largest prime q <= m/2 with m-q prime (minimizes p-q);
    min-q picks the smallest such q. Raises GoldbachFailure if no pair
    exists, which must abort the caller's run.
    """
    if m < 4 or m % 2:
        raise ValueError(f"Goldbach search needs even m >= 4, got {m}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, options: {POLICIES}")
    half = m // 2
    if policy == MAX_Q:
        # Descend over odd candidates from m//2; q = 2 only works for m = 4.
        q = half if half % 2 else half - 1
        while q >= 3:
            if is_prime(q, table) and is_prime(m - q, table):
                return GoldbachPair(m, m - q, q, policy)
            q -= 2
        if is_prime(m - 2, table):
            return GoldbachPair(m, m - 2, 2, policy)
    else:
        if is_prime(m - 2, table):
            return GoldbachPair(m, m - 2, 2, policy)
        q = 3
        while q <= half:
            if is_prime(q, table) and is_prime(m - q, table):
                return GoldbachPair(m, m - q, q, policy)
            q += 2
    raise GoldbachFailure(m)


# Residue selectors. select_r feeds the auxiliary-prime derivation: r is an
# odd prime with p + r ≡ 4 (mod 8), so (p+r)/4 and (p-r)/2 are both odd.
_R_BY_RESIDUE = {1: 3, 3: 17, 5: 7, 7: 5}
# select_q_for_prime feeds the odd-prime derivation: q makes (n+q)/2 odd.
_Q_BY_RESIDUE = {1: 5, 3: 3}


def select_r(p: int) -> int:
    """Prime r in {3,5,7,17} with (p + r) ≡ 4 (mod 8); p must be odd."""
    if p % 2 == 0:
        raise ValueError(f"select_r needs odd p, got {p}")
    return _R_BY_RESIDUE[p % 8]


def select_q_for_prime(n: int) -> int:
    """q in {3,5} with (n + q) ≡ 2 (mod 4), i.e. (n+q)/2 odd; n must be odd."""
    if n % 2 == 0:
        raise ValueError(f"select_q_for_prime needs odd n, got {n}")
    return _Q_BY_RESIDUE[n % 4]


@dataclass
class GoldbachSweepReport:
    """Bulk statistics for every even m in 4..limit under both policies."""

    limit: int
    evens_checked: int
    min_q_max: int
    min_q_max_at: int
    min_q_hist: dict[int, int]
    max_gap_max: int  # largest p-q over the max-q policy witnesses
    max_gap_max_at: int
    max_gap_hist: dict[int, int]
    elapsed_s: float

    def to_dict(self) -> dict:
        return {
            "limit": self.limit,
            "evens_checked": self.evens_checked,
            "min_q_policy": {
                "largest_min_q": self.min_q_max,
                "at_m": self.min_q_max_at,
                "histogram": {str(k): v for k, v in self.min_q_hist.items()},
            },
            "max_q_policy": {
                "largest_p_minus_q": self.max_gap_max,
                "at_m": self.max_gap_max_at,
                "histogram_p_minus_q": {str(k): v for k, v in self.max_gap_hist.items()},
            },
            "elapsed_s": round(self.elapsed_s, 3),
        }


def goldbach_sweep(limit: int) -> GoldbachSweepReport:
    """Verify every even 4 <= m <= limit has a pair under both policies.

    Index h stands for m = 2h. Both witness searches step through the prime
    list and test only p = 2h - q against the sieve, on the h still open:
    the min-q search takes each odd prime q ascending and stops with a
    GoldbachFailure at the first open h < q; the max-q search starts each h
    at the largest prime <= h (from a prime-count prefix sum) and steps down
    the primes.
    Both witness arrays are then re-verified against the sieve. Histograms
    are exact below HIST_CAP distinct keys, then bucketed into "other".
    Raises GoldbachFailure naming the smallest uncovered m.
    """
    t0 = time.monotonic()
    if limit < 4:
        raise ValueError("sweep needs limit >= 4")
    limit -= limit % 2
    sieve = build_prime_table(limit).as_bool_array()
    index_t = np.int32 if limit < 1 << 31 else np.int64
    primes = np.flatnonzero(sieve).astype(index_t)
    h_all = np.arange(2, limit // 2 + 1, dtype=index_t)

    # min-q policy: the smallest prime q <= h with 2h - q prime. Position i
    # of a witness array stands for h = i + 2.
    min_q = np.zeros(h_all.size, dtype=index_t)
    min_q[0] = 2  # 4 = 2 + 2; for m >= 6, m - 2 is even and not prime
    open_h = h_all[1:]
    for q in primes[primes > 2].tolist():
        if not open_h.size or open_h[0] < q:
            break
        ok = sieve[2 * open_h - q]
        min_q[open_h[ok] - 2] = q
        open_h = open_h[~ok]
    if open_h.size:
        raise GoldbachFailure(int(2 * open_h[0]))

    # max-q policy: the largest prime q <= h with 2h - q prime. at[j] is the
    # index in primes of the next q to try for open_h[j]; both stay sorted.
    # It starts at pi(h) - 1, the index of the largest prime <= h.
    max_q = np.zeros(h_all.size, dtype=index_t)
    open_h = h_all
    at = np.cumsum(sieve[2 : h_all.size + 2], dtype=index_t)
    at -= 1
    while open_h.size:
        if at[0] < 0:
            raise GoldbachFailure(int(2 * open_h[0]))
        q = primes[at]
        ok = sieve[2 * open_h - q]
        max_q[open_h[ok] - 2] = q[ok]
        open_h = open_h[~ok]
        at = at[~ok] - 1

    # Independent re-verification of both witness arrays against the sieve.
    for name, q in (("min-q", min_q), ("max-q", max_q)):
        if not ((q <= h_all) & sieve[q] & sieve[2 * h_all - q]).all():
            raise AssertionError(f"{name} witness failed sieve re-verification")

    def _hist(values: np.ndarray) -> dict[int, int]:
        counts = np.bincount(values)
        keys = np.flatnonzero(counts)
        out: dict[int, int] = {}
        other = 0
        for k, c in zip(keys.tolist(), counts[keys].tolist()):
            if len(out) < HIST_CAP:
                out[k] = c
            else:
                other += c
        if other:
            out[-1] = other  # key -1 marks the overflow bucket
        return out

    gaps = 2 * (h_all - max_q)
    i_minmax = int(np.argmax(min_q))
    i_gapmax = int(np.argmax(gaps))
    return GoldbachSweepReport(
        limit=limit,
        evens_checked=int(h_all.size),
        min_q_max=int(min_q[i_minmax]),
        min_q_max_at=int(2 * h_all[i_minmax]),
        min_q_hist=_hist(min_q),
        max_gap_max=int(gaps[i_gapmax]),
        max_gap_max_at=int(2 * h_all[i_gapmax]),
        max_gap_hist=_hist(gaps),
        elapsed_s=time.monotonic() - t0,
    )
