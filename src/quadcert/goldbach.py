"""Goldbach pairs: the engine's pair search and the `goldbach` command's sweep.

The paper takes Goldbach's conjecture as a hypothesis only, and `check`
re-verifies each pair a certificate cites with its own primality test, so the
checker imports nothing from here. goldbach_pair picks a pair under one of
`model`'s POLICIES. The sweep reads the packed table through bool windows of
a block of evens and a margin, so beside the table its memory is O(block); a
forked child runs every other block of a large sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .model import MAX_Q, POLICIES
from .phases import Phases, forked
from .primes import DEFAULT_MAX_TABLE_BITS, PrimeTable, build_prime_table, is_prime

HIST_CAP = 64  # distinct Goldbach histogram keys before the "other" bucket
SWEEP_BLOCK = 1 << 15  # evens per block of goldbach_sweep, chosen by measurement
# A sweep of more evens than this runs every other block in a forked child;
# below, the fork's few ms would cost more than the whole sweep.
FORK_EVENS = 1 << 15
# How far the sweep's windows first reach past their block (min-q's primes up to
# it, max-q's down to it below the block); both double on demand.
SWEEP_MARGIN = 1 << 10


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
