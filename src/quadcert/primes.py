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
target's factorization one segment at a time. The Goldbach sweep walks the
even numbers in blocks and reads the packed table through bool windows of a
block and a margin, so beside the table its memory is O(block); a forked
child runs every other block of a large sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .phases import Phases, forked

SEGMENT_SIZE = 1 << 20  # sieve segment length; a multiple of 8, so it packs
# Refuse tables above this many bits (packed size 1 GiB). Desk-scale runs
# need ~2x the certification bound, far below this.
DEFAULT_MAX_TABLE_BITS = 1 << 33

MAX_Q = "max-q"
MIN_Q = "min-q"
POLICIES = (MAX_Q, MIN_Q)
HIST_CAP = 64  # distinct Goldbach histogram keys before the "other" bucket
SWEEP_BLOCK = 1 << 15  # evens per block of goldbach_sweep, chosen by measurement
# A sweep of more evens than this runs every other block in a forked child;
# below, the fork's few ms would cost more than the whole sweep.
FORK_EVENS = 1 << 15
# How far the sweep's windows first reach past their block (min-q's primes up to
# it, max-q's down to it below the block); both double on demand.
SWEEP_MARGIN = 1 << 10

# Miller-Rabin to the first 12 prime bases decides primality exactly below
# psi_12 = 318665857834031151167461 > 2^64 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class GoldbachFailure(RuntimeError):
    """An even number in range admitted no prime pair.

    This would falsify the Goldbach conjecture below the search bound, so it
    must abort the whole run loudly rather than be swallowed.
    """

    def __init__(self, m: int):
        super().__init__(f"no Goldbach pair exists for {m}")
        self.m = m

    def __reduce__(self):  # pickled from m, not from args
        return type(self), (self.m,)


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
    down = range((m // 2 - 1) | 1, 1, -2)  # the odd q <= m/2, descending
    for q in chain(down, (2,)) if policy == MAX_Q else chain((2,), reversed(down)):
        if is_prime(q, table) and is_prime(m - q, table):
            return GoldbachPair(m, m - q, q, policy)
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


def _min_q(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """The smallest prime q <= h with 2h - q prime, for each h in lo..hi-1.

    Each odd q, ascending, tests every open h on one contiguous slice of an
    odd-only window from 2lo - reach, for a reach that starts at SWEEP_MARGIN
    and doubles. An open h meeting some q > h reads False, as 2h - q is a
    prime below q, tried before; q = 2 finds only 4 = 2 + 2. The first open
    h below q is uncovered.
    """
    n = hi - lo
    min_q = np.zeros(n, dtype=np.int64)
    open_ = np.ones(n, dtype=bool)
    if lo == 2 and 2 in table:
        min_q[0], open_[0] = 2, False
    left, first = int(np.count_nonzero(open_)), int(open_.argmax())  # the first open h
    tried, reach = 2, max(3, SWEEP_MARGIN | 1)
    while left and lo + first > tried:
        qs = table.as_bool_array(tried + 1, min(reach, table.limit) + 1)
        base = 2 * lo - reach  # win[i] says whether base + 2i is prime
        win = np.zeros(n + reach // 2, dtype=bool)  # the n < 1 read composite
        win[max(0, (1 - base) // 2) :] = table.as_bool_array(max(base, 1), 2 * hi - 2)[::2]
        for q in (qs.nonzero()[0] + tried + 1).tolist():
            if lo + first < q:
                break
            ok = win[(reach - q) // 2 :][:n] & open_
            if ok.any():
                np.copyto(min_q, q, where=ok)
                open_ ^= ok
                left -= int(np.count_nonzero(ok))
                if not left:
                    break
                first = int(open_.argmax())
        tried, reach = reach, 2 * reach + 1
    if left:
        raise GoldbachFailure(2 * (lo + first))
    return min_q


def _max_q_gap(table: PrimeTable, lo: int, hi: int) -> np.ndarray:
    """h - q for the largest prime q <= h with 2h - q prime, each h in lo..hi-1.

    The open h read the table from v0, a margin below the block, up to 2h -
    v0 for the largest of them, so each can step down every prime q >= v0:
    at[i] is the index of the next q to try for the i-th open h and t[i] is
    2(h - v0); both stay sorted. Once the first open h has stepped below v0,
    the h still open start over with the margin doubled; an h that steps
    below 0 is uncovered.
    """
    gap = np.zeros(hi - lo, dtype=np.int64)
    h = np.arange(lo, hi)  # the open h
    margin = SWEEP_MARGIN
    while True:
        v0 = max(0, lo - margin)
        win = table.as_bool_array(v0, 2 * int(h[-1]) - v0 + 1)
        qs = win[: int(h[-1]) - v0 + 1].nonzero()[0]
        at = qs.searchsorted(h - v0, side="right") - 1  # the largest prime <= h
        t = 2 * (h - v0)
        while at.size and at[0] >= 0:
            d = qs.take(at)
            np.subtract(t, d, out=d)  # 2h - q - v0
            ok = win.take(d)
            if ok.any():
                found = ok.nonzero()[0]
                half = t.take(found) // 2  # h - v0
                gap[half + (v0 - lo)] = d.take(found) - half
                keep = np.logical_not(ok, out=ok).nonzero()[0]
                t, at = t.take(keep), at.take(keep)
            at -= 1
        if not at.size:
            return gap
        h = t // 2 + v0
        if v0 == 0:
            raise GoldbachFailure(2 * int(h[0]))
        margin *= 2


def goldbach_sweep(limit: int, phases: Phases | None = None, *,
                   max_bits: int = DEFAULT_MAX_TABLE_BITS) -> GoldbachSweepReport:
    """Verify every even 4 <= m <= limit has a pair under both policies.

    Index h stands for m = 2h. The h are walked in ascending blocks of
    SWEEP_BLOCK, and both searches read the packed table through bool
    windows of a block and a margin, so that the table is the only array
    that grows with limit. A sweep of two blocks or more and over
    FORK_EVENS evens runs every other block in a child that `phases.forked`
    forks (one process runs them all otherwise). Each process re-verifies
    its witness arrays against the table's bits; the parent folds the
    blocks' results, in block order, into histograms (exact below HIST_CAP
    distinct keys, then bucketed into "other") and first-occurrence maxima.
    Raises GoldbachFailure naming the smallest uncovered m, and
    SieveBudgetError if the table over 0..limit needs more than `max_bits`.
    `phases`, when given, accumulates table, then min_q, max_q and verify
    over both processes, and wait.
    """
    t0 = time.monotonic()
    if limit < 4:
        raise ValueError("sweep needs limit >= 4")
    limit -= limit % 2
    ph = Phases() if phases is None else phases
    table = build_prime_table(limit, max_bits)
    top = limit // 2
    ph.add("table", t0, top - 1)

    def block(lo: int, charge: Phases) -> list[tuple]:
        """Per policy (min-q, then max-q's p - q), the block's counts of
        each value, its largest value and the first m at which it occurs."""
        t, h = time.monotonic(), np.arange(lo, min(lo + SWEEP_BLOCK, top + 1))
        min_q = _min_q(table, lo, lo + h.size)
        t = charge.add("min_q", t, h.size)
        gap = _max_q_gap(table, lo, lo + h.size)
        t = charge.add("max_q", t, h.size)
        for name, w in (("min-q", min_q), ("max-q", h - gap)):
            if not ((w <= h) & table.lookup(w) & table.lookup(2 * h - w)).all():
                raise AssertionError(f"{name} witness failed sieve re-verification")
        stats = [(np.bincount(v), int(v.max()), 2 * (lo + int(v.argmax())))
                 for v in (min_q, 2 * gap)]
        charge.add("verify", t, h.size)
        return stats

    starts = range(2, top + 1, SWEEP_BLOCK)
    child = lambda mine: (block(lo, mine) for lo in starts[1::2])
    # a block's min-q counts sum to its evens
    theirs = (forked(child, ph, lambda stats: int(stats[0][0].sum()))
              if top - 1 > FORK_EVENS else child(ph))
    hists = [np.zeros(0, dtype=np.int64) for _ in range(2)]
    best = [(-1, 0), (-1, 0)]  # (largest min-q, at m), (largest p - q, at m)
    try:
        for i, lo in enumerate(starts):
            for k, (counts, value, at) in enumerate(next(theirs) if i % 2 else block(lo, ph)):
                small, hists[k] = sorted((hists[k], counts), key=len)
                hists[k][: small.size] += small
                if value > best[k][0]:
                    best[k] = (value, at)
        if len(starts) > 1:
            next(theirs, None)  # the child's end: its phases merged, or its error raised
    finally:
        theirs.close()

    def _hist(counts: np.ndarray) -> dict[int, int]:
        keys = np.flatnonzero(counts)
        out = dict(zip(keys[:HIST_CAP].tolist(), counts[keys[:HIST_CAP]].tolist()))
        other = int(counts[keys[HIST_CAP:]].sum())
        if other:
            out[-1] = other  # key -1 marks the overflow bucket
        return out

    return GoldbachSweepReport(
        limit=limit,
        evens_checked=top - 1,
        min_q_max=best[0][0],
        min_q_max_at=best[0][1],
        min_q_hist=_hist(hists[0]),
        max_gap_max=best[1][0],
        max_gap_max_at=best[1][1],
        max_gap_hist=_hist(hists[1]),
        elapsed_s=time.monotonic() - t0,
    )
