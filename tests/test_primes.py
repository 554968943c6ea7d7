"""Prime infrastructure tests against independent oracles.

The oracles here (trial division, a from-scratch sieve, brute-force Goldbach
search) are deliberately written without using the package's own sieve or
Miller-Rabin code, so agreement is meaningful.
"""

import hashlib
import json
import math
import os
import pickle
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadcert import goldbach, primes
from quadcert.engine import select_q_for_prime, select_r
from quadcert.goldbach import HIST_CAP, GoldbachFailure, goldbach_pair, goldbach_sweep
from quadcert.model import MAX_Q, MIN_Q
from quadcert.phases import Phases
from quadcert.primes import (
    PrimeTable,
    SieveBudgetError,
    UnsupportedIntegerError,
    build_prime_table,
    is_prime,
    primes_upto,
    spf_segment,
)


# --- oracles ---------------------------------------------------------------


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def oracle_sieve(limit: int) -> np.ndarray:
    """Plain one-shot sieve, independent of the segmented implementation."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def oracle_goldbach(m: int, policy: str) -> tuple[int, int]:
    qs = range(2, m // 2 + 1) if policy == MIN_Q else range(m // 2, 1, -1)
    for q in qs:
        if trial_division_is_prime(q) and trial_division_is_prime(m - q):
            return (m - q, q)
    raise AssertionError(f"oracle found no pair for {m}")


# --- prime table -----------------------------------------------------------


def test_primes_up_to_30_exact():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def trial_division_spf(n: int) -> int:
    i = 2
    while i * i <= n:
        if n % i == 0:
            return i
        i += 1
    return n


@pytest.mark.parametrize("lo,hi", [(0, 2), (0, 500), (21, 22), (97, 98),
                                   (1000, 1100), (9_990, 10_050)])
def test_spf_segment_matches_trial_division(lo, hi):
    base = primes_upto(math.isqrt(hi - 1))
    expect = [n if n < 2 else trial_division_spf(n) for n in range(lo, hi)]
    assert spf_segment(lo, hi, base).tolist() == expect


def test_table_matches_oracle_sieve_to_100k():
    table = build_prime_table(100_000)
    assert np.array_equal(table.as_bool_array(), oracle_sieve(100_000))


def test_lookup_reads_the_packed_bits():
    table = build_prime_table(100_003)  # a prime limit, not a multiple of 8
    values = np.arange(100_001)
    assert np.array_equal(table.lookup(values), table.as_bool_array()[:100_001])
    assert table.lookup(np.array([table.limit - 1, table.limit])).tolist() == [False, True]


@pytest.mark.parametrize("lo,hi", [(0, 0), (0, 1), (3, 11), (8, 16), (13, 100_004),
                                   (99_990, 100_004)])
def test_windows_read_the_packed_bits(lo, hi):
    table = build_prime_table(100_003)
    assert np.array_equal(table.as_bool_array(lo, hi), oracle_sieve(100_003)[lo:hi])


def test_primes_upto_matches_the_oracle_sieve():
    assert [primes_upto(n) for n in range(-1, 4)] == [[], [], [], [2], [2, 3]]
    assert primes_upto(10_007) == np.flatnonzero(oracle_sieve(10_007)).tolist()


def test_prime_count_to_one_million():
    table = build_prime_table(1_000_000)
    assert table.as_bool_array().sum() == 78_498  # pi(10^6)


def test_table_membership_and_segmentation_boundaries(monkeypatch):
    # A tiny segment size forces many segment joins; results must not differ.
    big = build_prime_table(10_000)
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 64)
    small = build_prime_table(10_000)
    assert small.as_bool_array().tolist() == big.as_bool_array().tolist()


def test_table_budget_guard():
    with pytest.raises(SieveBudgetError):
        build_prime_table(100, max_bits=50)


def test_table_build_memory_stays_near_the_table():
    # the table of `verify --max 10^7`: each segment is packed straight into
    # the result, so no list of packed segments or joined copy coexists with it
    tracemalloc.start()
    try:
        table = build_prime_table(2 * 10**7 + 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(table._bits)


# --- single-number primality ------------------------------------------------


def test_is_prime_agrees_with_trial_division_small():
    for n in range(0, 2_000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_known_large_values():
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31 + 1)
    assert is_prime(1_000_000_007)
    assert not is_prime(3_215_031_751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_rejects_out_of_range():
    with pytest.raises(UnsupportedIntegerError):
        is_prime(2**64)


def strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: n passes base a (n odd, a not a multiple of n)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


# psi_k, the least composite that passes Miller-Rabin to the first k prime
# bases, for each k below 12 (psi_7 = psi_8, psi_9 = psi_10 = psi_11), mapped to
# the largest such k: a witness set of fewer prime bases calls it prime.
PSI = {
    2047: 1,
    1373653: 2,
    25326001: 3,
    3215031751: 4,
    2152302898747: 5,
    3474749660383: 6,
    341550071728321: 8,
    3825123056546413051: 11,
}
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@pytest.mark.parametrize("n,k", sorted(PSI.items()))
def test_is_prime_rejects_psi_k(n, k):
    assert all(strong_probable_prime(n, a) for a in FIRST_PRIMES[:k])
    assert not is_prime(n)


@pytest.mark.parametrize(
    "n", [561, 41041, 825265, 321197185, 5394826801, 232250619601, 9746347772161]
)
def test_is_prime_rejects_carmichael_numbers(n):
    assert not trial_division_is_prime(n)  # each has a factor below 20
    assert not is_prime(n)


def test_is_prime_at_the_top_of_the_64_bit_range():
    assert is_prime(2**64 - 59)  # the largest prime below 2^64
    assert not is_prime(2**64 - 1)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=300, deadline=None)
def test_is_prime_property_vs_trial_division(n):
    assert is_prime(n) == trial_division_is_prime(n)


# --- Goldbach pairs ----------------------------------------------------------


def test_goldbach_frozen_examples():
    assert (goldbach_pair(32).p, goldbach_pair(32).q) == (19, 13)
    gp = goldbach_pair(32, policy=MIN_Q)
    assert (gp.p, gp.q) == (29, 3)
    assert (goldbach_pair(54).p, goldbach_pair(54).q) == (31, 23)
    assert (goldbach_pair(4).p, goldbach_pair(4).q) == (2, 2)
    assert (goldbach_pair(50).p, goldbach_pair(50).q) == (31, 19)


def test_goldbach_matches_bruteforce_oracle_small():
    table = build_prime_table(2_000)
    for m in range(4, 1_000, 2):
        for policy in (MAX_Q, MIN_Q):
            got = goldbach_pair(m, table, policy)
            want = oracle_goldbach(m, policy)
            assert (got.p, got.q) == want, (m, policy)
            assert got.p + got.q == m and got.p >= got.q


def test_goldbach_rejects_bad_input():
    with pytest.raises(ValueError):
        goldbach_pair(7)
    with pytest.raises(ValueError):
        goldbach_pair(2)
    with pytest.raises(ValueError, match="unknown policy"):
        goldbach_pair(32, policy="mid-q")


def _without(table, cleared):
    """A copy of `table` that reads the primes in `cleared` as composite."""
    bits = bytearray(table._bits)
    for c in cleared:
        bits[c >> 3] &= ~(1 << (c & 7))
    return PrimeTable(limit=table.limit, _bits=bytes(bits))


@pytest.mark.parametrize("policy", [MAX_Q, MIN_Q])
def test_goldbach_pair_names_the_even_it_cannot_split(policy):
    # 28 = 23 + 5 = 17 + 11 only: with 5 and 11 read as composite, no pair
    table = _without(build_prime_table(100), (5, 11))
    assert goldbach_pair(26, table, policy).policy == policy  # 26 still splits
    with pytest.raises(GoldbachFailure) as exc:
        goldbach_pair(28, table, policy)
    assert exc.value.m == 28


def test_goldbach_failure_survives_a_pickle_round_trip():
    # a forked sweep's child sends its failure to the parent pickled
    back = pickle.loads(pickle.dumps(GoldbachFailure(68)))
    assert type(back) is GoldbachFailure and back.m == 68
    assert str(back) == "no Goldbach pair exists for 68"


@given(st.integers(min_value=2, max_value=50_000).map(lambda k: 2 * k))
@settings(max_examples=200, deadline=None)
def test_goldbach_postconditions_property(m):
    gp = goldbach_pair(m)
    assert gp.p + gp.q == m
    assert gp.p >= gp.q
    assert trial_division_is_prime(gp.p) and trial_division_is_prime(gp.q)
    # max-q means no prime strictly between q and m/2 also works
    for q in range(gp.q + 1, m // 2 + 1):
        if trial_division_is_prime(q) and trial_division_is_prime(m - q):
            raise AssertionError(f"{m}: policy max-q missed q={q}")


# --- residue selectors --------------------------------------------------------


def test_select_r_frozen_examples():
    assert select_r(41) == 3  # 41 = 1 (mod 8)
    assert select_r(23) == 5  # 23 = 7 (mod 8)
    assert select_r(11) == 17  # 11 = 3 (mod 8)
    assert select_r(31) == 5
    assert select_r(97) == 3


def test_select_q_frozen_examples():
    assert select_q_for_prime(29) == 5  # 29 = 1 (mod 4)
    assert select_q_for_prime(23) == 3  # 23 = 3 (mod 4)
    assert select_q_for_prime(3) == 3
    assert select_q_for_prime(37) == 5


def test_selectors_reject_even_input():
    with pytest.raises(ValueError):
        select_r(10)
    with pytest.raises(ValueError):
        select_q_for_prime(8)


def test_selector_congruences_exhaustive_small():
    for n in range(3, 20_001, 2):
        q = select_q_for_prime(n)
        assert q in (3, 5) and (n + q) % 4 == 2
        assert ((n + q) // 2) % 2 == 1  # the cofactor is odd
        r = select_r(n)
        assert r in (3, 5, 7, 17) and (n + r) % 8 == 4
        assert ((n + r) // 4) % 2 == 1
        assert (n - r) % 4 == 2 or n <= r
        if n > r:
            assert ((n - r) // 2) % 2 == 1


# --- sweep ---------------------------------------------------------------------


def test_sweep_matches_bruteforce_small():
    rep = goldbach_sweep(2_000)
    assert rep.evens_checked == (2_000 - 4) // 2 + 1
    # recompute extremes by brute force
    worst_minq, worst_at = 0, 0
    for m in range(4, 2_001, 2):
        _, q = oracle_goldbach(m, MIN_Q)
        if q > worst_minq:
            worst_minq, worst_at = q, m
    assert rep.min_q_max == worst_minq and rep.min_q_max_at == worst_at
    worst_gap, gap_at = -1, 0
    for m in range(4, 2_001, 2):
        p, q = oracle_goldbach(m, MAX_Q)
        if p - q > worst_gap:
            worst_gap, gap_at = p - q, m
    assert rep.max_gap_max == worst_gap and rep.max_gap_max_at == gap_at


def test_sweep_histograms_account_for_all_evens():
    rep = goldbach_sweep(10_000)
    assert sum(rep.min_q_hist.values()) == rep.evens_checked
    assert sum(rep.max_gap_hist.values()) == rep.evens_checked


def test_sweep_tiny():
    rep = goldbach_sweep(4)
    assert rep.evens_checked == 1
    assert rep.min_q_max == 2  # 4 = 2 + 2


# sha256 of the sorted-key JSON of to_dict() minus elapsed_s, computed with
# the sweep that scanned t = (p-q)/2 upward for every open m.
SWEEP_DIGESTS = {
    100_000: "4085558324fec5dbbb936f35b1038715983a7b983fb0a1952b824bca0db1692b",
    1_000_000: "a91d183db3aeae129667f3664bb1d415a98657c56e2f3d065c343044333aa1dd",
}


@pytest.mark.parametrize("limit", sorted(SWEEP_DIGESTS))
def test_sweep_report_is_pinned(limit):
    blob = goldbach_sweep(limit).to_dict()
    del blob["elapsed_s"]
    digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
    assert digest == SWEEP_DIGESTS[limit]


def _capped(counts: Counter) -> dict[int, int]:
    keys = sorted(counts)
    out = {k: counts[k] for k in keys[:HIST_CAP]}
    other = sum(counts[k] for k in keys[HIST_CAP:])
    if other:
        out[-1] = other
    return out


# 58 distinct values of p - q below 2,000 and 65 below 5,000, so the second
# limit exercises the overflow bucket.
@pytest.mark.parametrize("limit", [2_000, 5_000])
def test_sweep_histograms_match_bruteforce(limit):
    rep = goldbach_sweep(limit)
    min_qs, gaps = Counter(), Counter()
    for m in range(4, limit + 1, 2):
        min_qs[oracle_goldbach(m, MIN_Q)[1]] += 1
        p, q = oracle_goldbach(m, MAX_Q)
        gaps[p - q] += 1
    assert rep.min_q_hist == _capped(min_qs)
    assert rep.max_gap_hist == _capped(gaps)


@pytest.mark.parametrize(
    "cleared, m",
    [
        ((3,), 6),  # 6 = 3 + 3 only
        ((7,), 12),  # 10 = 5 + 5 survives, 12 = 5 + 7 does not
        ((31, 61), 68),  # 68 = 7 + 61 = 31 + 37
        ((2,), 4),  # 4 = 2 + 2 only
        ((2, 3), 4),  # 6 = 3 + 3 is uncovered too, but 4 is smaller
        ((2, 31, 61), 4),
    ],
)
def test_sweep_names_the_smallest_uncovered_even(monkeypatch, cleared, m):
    _clear_primes(monkeypatch, cleared)
    with pytest.raises(GoldbachFailure) as exc:
        goldbach_sweep(1_000)
    assert exc.value.m == m


def _clear_primes(monkeypatch, cleared):
    """Make the sweep's table read the primes in `cleared` as composite."""
    real = goldbach.build_prime_table
    monkeypatch.setattr(goldbach, "build_prime_table",
                        lambda *args, **kwargs: _without(real(*args, **kwargs), cleared))


# with blocks of 16, h = 34 (m = 68) opens the third block; with blocks of
# 7, it lies in the fifth, which starts at h = 30
@pytest.mark.parametrize("block", [7, 16])
def test_sweep_names_an_uncovered_even_in_a_later_block(monkeypatch, block):
    _clear_primes(monkeypatch, (31, 61))
    monkeypatch.setattr(goldbach, "SWEEP_BLOCK", block)
    with pytest.raises(GoldbachFailure) as exc:
        goldbach_sweep(1_000)
    assert exc.value.m == 68


BLOCK_LIMITS = [*range(4, 601), 10**5]


def _sweep_blobs():
    blobs = [goldbach_sweep(n).to_dict() for n in BLOCK_LIMITS]
    for blob in blobs:
        del blob["elapsed_s"]
    return blobs


@pytest.fixture(scope="module")
def one_block_blobs():
    return _sweep_blobs()  # SWEEP_BLOCK exceeds the 49,999 evens 4..10^5


# 10,000 does not divide the 49,999 evens 4..10^5 into whole blocks
@pytest.mark.parametrize("block", [1, 7, 64, 10_000])
def test_sweep_blocks_leave_the_report_unchanged(monkeypatch, one_block_blobs, block):
    monkeypatch.setattr(goldbach, "SWEEP_BLOCK", block)
    assert _sweep_blobs() == one_block_blobs


def test_sweep_memory_stays_near_the_sieve():
    # at 10^6 the packed table is 0.12 MB and building it takes a 1 MB
    # segment; no array of the 499,999 evens is ever built
    tracemalloc.start()
    try:
        goldbach_sweep(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_sweep_memory_does_not_follow_the_bound():
    # at 4 * 10^6 a bool sieve alone would be 4 MB: the sweep reads the
    # 0.5 MB packed table through windows of a block and its margins
    tracemalloc.start()
    try:
        goldbach_sweep(4 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


# Margins of 1, 2 and 8 widen nearly every window of the sweep, the min-q
# window as its primes run past the margin, the max-q window as an h steps
# below its start.
@pytest.mark.parametrize("margin", [1, 2, 8])
def test_sweep_margins_leave_the_report_unchanged(monkeypatch, one_block_blobs, margin):
    monkeypatch.setattr(goldbach, "SWEEP_MARGIN", margin)
    assert _sweep_blobs() == one_block_blobs


def test_one_h_blocks_through_the_narrowest_windows(monkeypatch, one_block_blobs):
    # each h is its own block and widens from a margin of 1, so some max-q
    # search reads the last bit of its window: 2h - q with q at its start
    monkeypatch.setattr(goldbach, "SWEEP_BLOCK", 1)
    monkeypatch.setattr(goldbach, "SWEEP_MARGIN", 1)
    blobs = [goldbach_sweep(n).to_dict() for n in range(4, 101)]
    for blob in blobs:
        del blob["elapsed_s"]
    assert blobs == one_block_blobs[:97]


UNCOVERED = test_sweep_names_the_smallest_uncovered_even.pytestmark[0].args[1]


@pytest.mark.parametrize("cleared, m", UNCOVERED)
def test_narrow_windows_name_the_same_uncovered_even(monkeypatch, cleared, m):
    monkeypatch.setattr(goldbach, "SWEEP_MARGIN", 1)
    test_sweep_names_the_smallest_uncovered_even(monkeypatch, cleared, m)


# The min-q search runs first and names every uncovered even; the max-q
# search must name the same one on its own, widening from either margin.
@pytest.mark.parametrize("margin", [1, goldbach.SWEEP_MARGIN])
@pytest.mark.parametrize("cleared, m", UNCOVERED)
def test_max_q_search_names_the_uncovered_even(monkeypatch, cleared, m, margin):
    _clear_primes(monkeypatch, cleared)
    monkeypatch.setattr(goldbach, "SWEEP_MARGIN", margin)
    with pytest.raises(GoldbachFailure) as exc:
        goldbach._max_q_gap(goldbach.build_prime_table(1_000), 2, 501)
    assert exc.value.m == m


# --- the sweep in two processes ----------------------------------------------


def _outcome(limit, fork):
    """The report of goldbach_sweep(limit), without its timing, and its
    phase names; or the m its GoldbachFailure names. `fork` stands in for
    os.fork."""
    ph = Phases()
    with mock.patch.object(os, "fork", fork):
        try:
            blob = goldbach_sweep(limit, ph).to_dict()
        except GoldbachFailure as exc:
            return exc.m
    del blob["elapsed_s"]
    return blob, list(ph.to_dict())


def _forks():
    return mock.Mock(wraps=os.fork)


def _fails():
    return mock.Mock(side_effect=OSError(11, "no process"))


_PHASES = ["table", "min_q", "max_q", "verify"]


# 32,768 evens 4..65,538 fill one default block and do not fork, 8 evens
# in two blocks of 7 are too few to, and 65,536 evens fill one block of 2^16
@pytest.mark.parametrize("block, limit, two", [
    (goldbach.SWEEP_BLOCK, 65_538, False), (goldbach.SWEEP_BLOCK, 65_540, True),
    (7, 18, False), (64, 65_540, True), (1 << 16, 131_074, False)])
def test_a_sweep_forks_iff_it_has_two_blocks_of_enough_evens(monkeypatch, block, limit, two):
    monkeypatch.setattr(goldbach, "SWEEP_BLOCK", block)
    fork, fail = _forks(), _fails()
    (forked, phases), (alone, alone_phases) = _outcome(limit, fork), _outcome(limit, fail)
    assert fork.called == fail.called == two
    assert forked == alone
    assert phases == _PHASES + ["wait"] * two and alone_phases == _PHASES


# test_sweep_blocks_leave_the_report_unchanged pins the forked sweeps of
# these blocks (and of blocks of 1) to the same one-block reports
@pytest.mark.parametrize("block", [7, 64, 10_000])
def test_a_sweep_whose_fork_fails_reports_in_one_process(monkeypatch, one_block_blobs, block):
    monkeypatch.setattr(goldbach, "SWEEP_BLOCK", block)
    fail = _fails()
    assert _outcome(10**5, fail) == (one_block_blobs[-1], _PHASES)
    assert fail.called


# Blocks of 1, 4 and 17 put m = 6, 12 and 68 (h = 3, 6 and 34) in the
# child's first block: the child fails first, and its failure must wait
# for the parent's blocks before it. The sweep forks once its first block
# (the parent's) passes.
@pytest.mark.parametrize("block", [1, 4, 17])
@pytest.mark.parametrize("cleared, m", UNCOVERED)
def test_forked_and_one_process_sweeps_name_the_same_uncovered_even(
        monkeypatch, cleared, m, block):
    _clear_primes(monkeypatch, cleared)
    monkeypatch.setattr(goldbach, "SWEEP_BLOCK", block)
    fork = _forks()
    assert _outcome(70_000, fork) == _outcome(70_000, _fails()) == m
    assert fork.called == (m // 2 - 2 >= block)
