"""Prime infrastructure: sieve-backed table and 64-bit primality.

The engine and the checker need fast primality for integers up to a few
times the certification bound; this module imports no other package module.

The table is a true bitset (one bit per integer) built by a segmented sieve,
so construction memory stays O(segment) on top of the packed result. Queries
above the table limit fall back to deterministic Miller-Rabin, valid for all
64-bit inputs. A segmented smallest-prime-factor sieve gives the engine each
target's factorization one segment at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SEGMENT_SIZE = 1 << 20  # sieve segment length; a multiple of 8, so it packs
# Refuse tables above this many bits (packed size 1 GiB). Desk-scale runs
# need ~2x the certification bound, far below this.
DEFAULT_MAX_TABLE_BITS = 1 << 33

# Miller-Rabin to the first 12 prime bases decides primality exactly below
# psi_12 = 318665857834031151167461 > 2^64 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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

    def as_bool_array(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Unpacked bools for lo..hi-1 (index i -> lo + i is prime), 0..limit
        by default; 0 <= lo <= hi <= limit + 1."""
        hi = self.limit + 1 if hi is None else hi
        raw = np.frombuffer(self._bits, dtype=np.uint8)[lo >> 3 : (hi + 7) >> 3]
        return np.unpackbits(raw, bitorder="little")[lo & 7 :][: hi - lo].view(bool)


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


def build_prime_table(limit: int, max_bits: int = DEFAULT_MAX_TABLE_BITS) -> PrimeTable:
    """Segmented sieve of Eratosthenes packed into a bitset."""
    if limit < 2:
        raise ValueError(f"table limit must be >= 2, got {limit}")
    if limit + 1 > max_bits:
        raise SieveBudgetError(
            f"limit {limit} needs {limit + 1} bits, sieve budget is {max_bits}"
        )
    return _sieve(limit)


def _sieve(limit: int) -> PrimeTable:
    """build_prime_table's sieve, its base primes read off a table of their own."""
    root = math.isqrt(limit)
    base_primes = np.flatnonzero(_sieve(root).as_bool_array()).tolist() if root > 1 else []
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
    for a in _MR_WITNESSES:
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
    """Ascending primes <= limit, read off the packed table."""
    if limit < 2:
        return []
    return np.flatnonzero(build_prime_table(limit).as_bool_array()).tolist()
