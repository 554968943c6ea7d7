"""Certificate generation: case split, auxiliary derivations, determinism."""

import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest

import quadcert.engine
from quadcert.engine import (
    AUX_MARGIN,
    MIN_TARGET,
    POW2_DEPTH_LIMIT,
    WINDOW,
    BoundViolation,
    _Engine,
    _NONE,
    _PRIME,
    _PRIME_AUX,
    certify_range,
    select_q_for_prime,
    table_limit,
)
from quadcert.model import (
    BASE_LIMIT,
    BASE_LINE,
    CLOSE_P_LINE,
    COPRIME_PRODUCT_LINE,
    MAX_Q,
    MIN_Q,
    CertificateStep,
    CoprimeProduct,
    ParallelogramClose,
    demanded_prereqs,
    parse_step,
    serialize_step,
)
from quadcert.primes import build_prime_table, primes_upto, spf_segment


def spf_array(limit):
    """Smallest prime factor of 0..limit (0 and 1 map to themselves), from one
    full-length spf segment: the reference's factor table."""
    return spf_segment(0, limit + 1, primes_upto(math.isqrt(limit)))


def _streamed(limit, policy=MAX_Q):
    """(stats, steps) of a run streamed to a buffer, its lines parsed back."""
    buf = io.StringIO()
    stats = certify_range(limit, policy=policy, sink=buf).stats
    buf.seek(0)
    return stats, [parse_step(line, i) for i, line in enumerate(buf, start=1)]


@pytest.fixture(scope="module")
def run130():
    return _streamed(130)


@pytest.fixture(scope="module")
def lines130(run130):
    return {s.fact: serialize_step(s) for s in run130[1]}


def _fresh_engine(limit=130, policy=MAX_Q):
    eng = _Engine(limit, policy, None, None)
    for i in range(21):
        eng._emit(BASE_LINE, i)
    return eng


def _tail(eng, k):
    """The engine's last k lines, parsed."""
    return [parse_step(line, 0) for line in eng.text[-k:]]


# ---------------------------------------------------------------------------
# frozen derivations, one per case of the split
# ---------------------------------------------------------------------------


def test_composite_splits_on_smallest_prime_power(lines130):
    assert lines130[21] == (
        '{"n":21,"just":{"type":"coprime_product","a":3,"b":7},"prereqs":[3,7]}\n'
    )
    assert lines130[22] == (
        '{"n":22,"just":{"type":"coprime_product","a":2,"b":11},"prereqs":[2,11]}\n'
    )
    # the full power of the smallest prime is peeled off: 24 = 8 * 3
    assert lines130[24] == (
        '{"n":24,"just":{"type":"coprime_product","a":8,"b":3},"prereqs":[8,3]}\n'
    )


def test_odd_prime_closes_on_p_slot(lines130):
    # 23 = 3 (mod 4) pairs with q = 3: auxiliary 26 = 2 * 13, then close
    assert lines130[26] == (
        '{"n":26,"just":{"type":"coprime_product","a":2,"b":13},"prereqs":[2,13]}\n'
    )
    assert lines130[23] == (
        '{"n":23,"just":{"type":"parallelogram","p":23,"q":3,"target":"p"},'
        '"prereqs":[26,20,3]}\n'
    )
    # 29 = 1 (mod 4) pairs with q = 5
    assert lines130[29] == (
        '{"n":29,"just":{"type":"parallelogram","p":29,"q":5,"target":"p"},'
        '"prereqs":[34,24,5]}\n'
    )
    assert lines130[37] == (
        '{"n":37,"just":{"type":"parallelogram","p":37,"q":5,"target":"p"},'
        '"prereqs":[42,32,5]}\n'
    )


def test_odd_prime_square_goes_through_twice_n(lines130):
    # 25: Goldbach 50 = 31 + 19; 31 sits above the frontier and is derived
    # from r = 5 (31 + 5 = 36 = 4 * 9, 31 - 5 = 26 = 2 * 13).
    assert lines130[36] == (
        '{"n":36,"just":{"type":"coprime_product","a":4,"b":9},"prereqs":[4,9]}\n'
    )
    assert lines130[31] == (
        '{"n":31,"just":{"type":"parallelogram","p":31,"q":5,"target":"p"},'
        '"prereqs":[36,26,5]}\n'
    )
    assert lines130[50] == (
        '{"n":50,"just":{"type":"parallelogram","p":31,"q":19,"target":"sum"},'
        '"prereqs":[12,31,19],"meta":{"policy":"max-q"}}\n'
    )
    assert lines130[25] == (
        '{"n":25,"just":{"type":"coprime_quotient","product":50,"divisor":2},'
        '"prereqs":[2,50]}\n'
    )


def test_odd_prime_cube_reuses_memoized_aux(lines130):
    # 27: Goldbach 54 = 31 + 23; 31 is already on file from the n = 25 work,
    # and the difference 8 is a base fact, so only two new steps appear.
    assert lines130[54] == (
        '{"n":54,"just":{"type":"parallelogram","p":31,"q":23,"target":"sum"},'
        '"prereqs":[8,31,23],"meta":{"policy":"max-q"}}\n'
    )
    assert lines130[27] == (
        '{"n":27,"just":{"type":"coprime_quotient","product":54,"divisor":2},'
        '"prereqs":[2,54]}\n'
    )


def test_higher_prime_power_with_aux_chain(lines130):
    # 49: Goldbach 98 = 61 + 37; 61 derived via r = 7 (68 = 4*17, 54 on file)
    assert lines130[68] == (
        '{"n":68,"just":{"type":"coprime_product","a":4,"b":17},"prereqs":[4,17]}\n'
    )
    assert lines130[61] == (
        '{"n":61,"just":{"type":"parallelogram","p":61,"q":7,"target":"p"},'
        '"prereqs":[68,54,7]}\n'
    )
    assert lines130[98] == (
        '{"n":98,"just":{"type":"parallelogram","p":61,"q":37,"target":"sum"},'
        '"prereqs":[24,61,37],"meta":{"policy":"max-q"}}\n'
    )
    assert lines130[49] == (
        '{"n":49,"just":{"type":"coprime_quotient","product":98,"divisor":2},'
        '"prereqs":[2,98]}\n'
    )


def test_powers_of_two_close_a_goldbach_pair(lines130):
    assert lines130[32] == (
        '{"n":32,"just":{"type":"parallelogram","p":19,"q":13,"target":"sum"},'
        '"prereqs":[6,19,13],"meta":{"policy":"max-q"}}\n'
    )
    assert lines130[64] == (
        '{"n":64,"just":{"type":"parallelogram","p":41,"q":23,"target":"sum"},'
        '"prereqs":[18,41,23],"meta":{"policy":"max-q"}}\n'
    )
    assert lines130[128] == (
        '{"n":128,"just":{"type":"parallelogram","p":67,"q":61,"target":"sum"},'
        '"prereqs":[6,67,61],"meta":{"policy":"max-q"}}\n'
    )


def test_aux_facts_precede_their_use(run130):
    position = {}
    for i, s in enumerate(run130[1]):
        position[s.fact] = i
    assert position[26] < position[23]
    assert position[36] < position[31] < position[50] < position[25]
    assert position[54] < position[27]


# ---------------------------------------------------------------------------
# independent establishment sweep (structural re-check without the checker)
# ---------------------------------------------------------------------------


def test_every_step_cites_only_prior_facts():
    _, steps = _streamed(400)
    seen = set()
    for s in steps:
        for v in demanded_prereqs(s):
            assert v == 0 or v <= 20 or v in seen, (s.fact, v)
        assert s.fact not in seen, s.fact
        seen.add(s.fact)
    assert set(range(401)) <= seen


def test_close_targets_square_consistently():
    # every parallelogram step in a run names slots making the target exact
    from quadcert.model import parallelogram_solve, slot_values

    _, steps = _streamed(300)
    closes = [s for s in steps if isinstance(s.just, ParallelogramClose)]
    assert closes
    for s in closes:
        j = s.just
        slots = slot_values(j.p, j.q)
        assert slots[j.target] == s.fact
        known = {k: v for k, v in slots.items() if k != j.target}
        assert parallelogram_solve(known, j.target) == s.fact * s.fact


# ---------------------------------------------------------------------------
# direct auxiliary-op behavior
# ---------------------------------------------------------------------------


def test_aux_prime_31():
    eng = _fresh_engine()
    eng.frontier = 25
    eng._mark(13)  # base range anyway; explicit for clarity
    eng._aux_prime(31)
    tail = _tail(eng, 3)
    assert tail[0] == CertificateStep(36, CoprimeProduct(4, 9), (4, 9))
    assert tail[1] == CertificateStep(26, CoprimeProduct(2, 13), (2, 13))
    assert tail[2] == CertificateStep(
        31, ParallelogramClose(31, 5, "p"), (36, 26, 5)
    )


def test_aux_prime_41_uses_r_3():
    # 41 = 1 (mod 8) selects r = 3: 44 = 4 * 11 and 38 = 2 * 19
    eng = _fresh_engine()
    eng.frontier = 38
    eng._aux_prime(41)
    tail = _tail(eng, 3)
    assert tail[0] == CertificateStep(44, CoprimeProduct(4, 11), (4, 11))
    assert tail[1] == CertificateStep(38, CoprimeProduct(2, 19), (2, 19))
    assert tail[2] == CertificateStep(
        41, ParallelogramClose(41, 3, "p"), (44, 38, 3)
    )


def test_aux_prime_97_uses_r_3():
    eng = _fresh_engine(limit=200)
    eng.frontier = 60
    eng._mark(25)
    eng._mark(47)
    eng._aux_prime(97)
    tail = _tail(eng, 3)
    assert tail[0] == CertificateStep(100, CoprimeProduct(4, 25), (4, 25))
    assert tail[1] == CertificateStep(94, CoprimeProduct(2, 47), (2, 47))
    assert tail[2] == CertificateStep(
        97, ParallelogramClose(97, 3, "p"), (100, 94, 3)
    )


def test_ensure_fact_splits_even_difference():
    eng = _fresh_engine()
    eng.frontier = 25
    eng._mark(13)
    eng._ensure_fact(52, 0)  # 52 = 4 * 13
    assert _tail(eng, 1)[0] == CertificateStep(52, CoprimeProduct(4, 13), (4, 13))


def test_ensure_fact_pow2_difference_recurses():
    # a difference that is exactly a power of two is closed from its own
    # Goldbach pair instead of a coprime split
    eng = _fresh_engine(limit=200)
    eng.frontier = 128
    eng._ensure_fact(128, 0)
    assert _tail(eng, 1)[0] == CertificateStep(
        128,
        ParallelogramClose(67, 61, "sum"),
        (6, 67, 61),
        meta={"policy": "max-q"},
    )
    assert eng.stats.pow2_depth_max == 1


# ---------------------------------------------------------------------------
# bound diagnostics name the violated inequality
# ---------------------------------------------------------------------------


def test_odd_composite_aux_is_refused():
    eng = _fresh_engine()
    eng.frontier = 30
    with pytest.raises(BoundViolation, match="odd composite auxiliary"):
        eng._ensure_fact(45, 0)


def test_aux_above_margin_is_refused():
    eng = _fresh_engine()
    with pytest.raises(BoundViolation, match="table margin"):
        eng._ensure_fact(10**9, 0)


def test_even_difference_needs_small_factors():
    eng = _fresh_engine()
    eng.frontier = 10
    with pytest.raises(BoundViolation, match="below the frontier"):
        eng._ensure_fact(2 * 31, 0)


def test_aux_prime_frontier_inequalities():
    eng = _fresh_engine()
    eng.frontier = 5
    with pytest.raises(BoundViolation, match=r"p\+r <= 4\*frontier"):
        eng._aux_prime(31)
    eng.frontier = 12
    with pytest.raises(BoundViolation, match=r"p-r <= 2\*frontier"):
        eng._aux_prime(31)


def test_pow2_recursion_depth_capped():
    eng = _fresh_engine(limit=200)
    eng.frontier = 150
    with pytest.raises(BoundViolation, match="depth"):
        eng._aux_pow2(128, POW2_DEPTH_LIMIT + 1)


def test_duplicate_emission_is_a_hard_error():
    eng = _fresh_engine()
    with pytest.raises(BoundViolation, match="twice"):
        eng._emit(BASE_LINE, 5)


def test_emission_below_the_frontier_is_a_hard_error():
    # 30 was never emitted, but every fact below the frontier counts as made
    eng = _fresh_engine()
    eng.frontier = 40
    with pytest.raises(BoundViolation, match="below the frontier 40"):
        eng._emit(COPRIME_PRODUCT_LINE, 30, 2, 15, 2, 15)


def test_ensure_fact_below_the_frontier_emits_nothing():
    eng = _fresh_engine(limit=200)
    eng.frontier = 150
    for v in (31, 52, 128):  # an odd prime, a coprime split, a power of two
        eng._ensure_fact(v, 0)
    assert len(eng.text) == 21 and eng.stats.goldbach_calls == 0


def _settle(eng, primes):
    """Run the batch prime case over `primes` (window start 0)."""
    rows = np.array(primes, dtype=np.int64)
    kind = np.zeros(max(primes) + 1, dtype=np.int8)
    eng._primes(rows, 0, kind, np.zeros_like(kind, dtype=np.int64))
    return kind


def test_batch_prime_needs_half_below_n():
    # 3 + 3 = 6 and 6 / 2 = 3 is not below 3; no base facts are marked here
    eng = _Engine(130, MAX_Q, None, None)
    with pytest.raises(BoundViolation, match=r"\(n\+q\)/2 = 3 must stay below n = 3"):
        _settle(eng, [3])


def test_batch_prime_aux_above_four_limit_is_refused():
    eng = _Engine(21, MAX_Q, None, None)  # 83 + 3 = 86 > 84
    with pytest.raises(BoundViolation, match=r"auxiliary fact 86 exceeds 4\*limit"):
        _settle(eng, [83])


def test_batch_primes_out_of_order_are_refused():
    # n + q must not decrease along a batch, or a line could be written twice
    eng = _fresh_engine()
    with pytest.raises(BoundViolation, match="fact 42 is already established"):
        _settle(eng, [41, 37])


def test_batch_reads_memoized_primes_and_made_aux_off_the_bitset():
    eng = _fresh_engine()
    eng._mark(31)  # as if a walked target had made prime 31
    eng._mark(34)  # and 29's n + q
    aux = eng.stats.aux_steps
    kind = _settle(eng, [29, 31, 37, 41, 43])
    # 29 finds 34 made; 41 = 1 (mod 4) writes 46, which its twin 43 shares
    assert kind[[29, 31, 37, 41, 43]].tolist() == [
        _PRIME, _NONE, _PRIME_AUX, _PRIME_AUX, _PRIME]
    assert eng.stats.memoized_targets == 1 and eng.stats.aux_steps == aux + 2
    assert eng._known(42) and eng._known(46) and not eng._known(48)


def test_fact_above_four_limit_is_refused():
    eng = _Engine(21, MAX_Q, None, None)
    with pytest.raises(BoundViolation, match=r"4\*limit"):
        eng._emit(BASE_LINE, 90)


# ---------------------------------------------------------------------------
# certify_range surface
# ---------------------------------------------------------------------------


def test_limit_below_induction_start_rejected():
    with pytest.raises(ValueError):
        certify_range(MIN_TARGET - 1)


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        certify_range(100, policy="median-q")


def test_runs_are_byte_identical():
    a, b = io.StringIO(), io.StringIO()
    certify_range(250, sink=a)
    certify_range(250, sink=b)
    assert a.getvalue() == b.getvalue()


@pytest.mark.parametrize("policy,sha256,lines,size", [
    (MAX_Q, "667b856ab76892fe2b7f020bc1bbbd1834579e3aebcc0458ccb3264d00b7b335",
     100_024, 8_282_371),
    (MIN_Q, "700f6a5c80b2de531243f8bebe2167c29b09681f8d0ae9472e2161ef56de1b40",
     100_116, 8_290_201),
])
def test_certificate_bytes_are_pinned(policy, sha256, lines, size):
    # any generator refactor must reproduce these files byte for byte
    buf = io.StringIO()
    certify_range(100_000, policy=policy, sink=buf)
    data = buf.getvalue().encode("utf-8")
    assert (hashlib.sha256(data).hexdigest(), data.count(b"\n"), len(data)) == (
        sha256, lines, size)


_COMMON_STATS_1E5 = {
    "limit": 100_000, "base_steps": 21, "goldbach_calls": 104,
    "pow2_depth_max": 1,
}


@pytest.mark.parametrize("policy,stats", [
    (MAX_Q, {"steps": 100_024, "aux_steps": 9_234, "memoized_targets": 9_191,
             "case_counts": {"coprime_split": 81_192, "pow2": 12,
                             "prime": 9_493, "prime_power": 92},
             "max_fact": 195_938}),
    (MIN_Q, {"steps": 100_116, "aux_steps": 9_367, "memoized_targets": 9_232,
             "case_counts": {"coprime_split": 81_127, "pow2": 12,
                             "prime": 9_517, "prime_power": 92},
             "max_fact": 195_948}),
])
def test_engine_stats_are_pinned(policy, stats):
    # the stats of the pinned files above; the per-target oracle shares _emit
    # with the engine, so only a pin catches a counting change made there
    got = certify_range(100_000, policy=policy, retain=False).stats.to_dict()
    del got["elapsed_s"]
    assert got == {**_COMMON_STATS_1E5, "policy": policy, **stats}


class _PerTargetEngine(_Engine):
    """Reference generator: every n from MIN_TARGET up, one at a time.

    The windowed `_Engine.run` must reproduce its lines and its stats. It
    factors from its own full-length spf table and settles each prime on its
    own, so it shares no window, segment or batch code with the engine.
    """

    def run(self) -> None:
        spf = spf_array(self.limit)
        for i in range(BASE_LIMIT + 1):
            self._emit(BASE_LINE, i)
            self.stats.base_steps += 1
        for n in range(MIN_TARGET, self.limit + 1):
            self.frontier = n
            if self._known(n):
                self.stats.memoized_targets += 1
                continue
            p = int(spf[n])
            a = p
            rest = n // p
            while rest % p == 0:
                a *= p
                rest //= p
            if rest > 1:
                self._emit(COPRIME_PRODUCT_LINE, n, a, rest, a, rest)
                self.stats.case_counts["coprime_split"] += 1
            elif p == 2:
                self._aux_pow2(n, 1)
                self.stats.case_counts["pow2"] += 1
            elif p == n:
                self._prime_case(n)
            else:
                self._odd_prime_power(n)
        if self.sink is not None:
            self.sink.write("".join(self.text))

    def _prime_case(self, n: int) -> None:
        q = select_q_for_prime(n)
        s = n + q
        half = s // 2
        if half >= n:
            raise BoundViolation(
                f"(n+q)/2 = {half} must stay below n = {n} (requires n > q)"
            )
        if not self._known(s):
            self._emit(COPRIME_PRODUCT_LINE, s, 2, half, 2, half)
        self._emit(CLOSE_P_LINE, n, n, q, s, n - q, q)
        self.stats.case_counts["prime"] += 1


def _generate(engine_cls, limit, policy):
    """(streamed text, stats minus elapsed_s)."""
    buf = io.StringIO()
    eng = engine_cls(limit, policy, None, buf)
    eng.run()
    stats = eng.stats.to_dict()
    del stats["elapsed_s"]
    return buf.getvalue(), stats


def _assert_matches_reference(limit, policy):
    text, stats = _generate(_Engine, limit, policy)
    ref_text, ref_stats = _generate(_PerTargetEngine, limit, policy)
    assert text == ref_text
    assert stats == ref_stats
    # every line parses back to a step that serializes to the same line
    lines = text.splitlines(True)
    assert [serialize_step(parse_step(x, i)) for i, x in enumerate(lines)] == lines


@pytest.mark.parametrize("policy", [MAX_Q, MIN_Q])
@pytest.mark.parametrize("limit", [
    21, 22, 100, WINDOW - 1, WINDOW, WINDOW + 1,
    MIN_TARGET + WINDOW - 1, MIN_TARGET + WINDOW,  # one full window, one more n
    3 * WINDOW + 7,
])
def test_windows_match_the_per_target_walk(limit, policy):
    _assert_matches_reference(limit, policy)


@pytest.mark.parametrize("policy", [MAX_Q, MIN_Q])
@pytest.mark.parametrize("window", [1, 7])
def test_small_windows_match_the_per_target_walk(monkeypatch, window, policy):
    # memoized targets and auxiliary facts land on every side of a window edge
    monkeypatch.setattr(quadcert.engine, "WINDOW", window)
    _assert_matches_reference(2000, policy)


class _RecordingEngine(_PerTargetEngine):
    """The per-target walk, noting the frontier at which each fact is made."""

    def __init__(self, *args):
        super().__init__(*args)
        self.made_at: dict[int, int] = {}

    def _emit(self, template, fact, *fields):
        self.made_at[fact] = self.frontier
        super()._emit(template, fact, *fields)


def _made_at(limit, policy):
    eng = _RecordingEngine(limit, policy, None, None)
    eng.run()
    return eng.made_at


@pytest.mark.parametrize("policy", [MAX_Q, MIN_Q])
@pytest.mark.parametrize("edge", ["WINDOW", "SEGMENT"])
@pytest.mark.parametrize("m", [41, 1481])
def test_twin_primes_across_an_edge_match_the_per_target_walk(
        monkeypatch, m, edge, policy):
    # m = 1 (mod 4) and m + 2 share n + q = m + 5: m writes its line and
    # m + 2, the first target past the edge, must find it made
    assert m % 4 == 1 and spf_array(m + 2)[[m, m + 2]].tolist() == [m, m + 2]
    made = _made_at(2 * m, policy)
    assert made[m] == m and made[m + 2] == m + 2 and made[m + 5] == m
    monkeypatch.setattr(quadcert.engine, edge, m + 2 - MIN_TARGET)
    _assert_matches_reference(2 * m, policy)


@pytest.mark.parametrize("policy", [MAX_Q, MIN_Q])
@pytest.mark.parametrize("edge", ["WINDOW", "SEGMENT"])
@pytest.mark.parametrize("n", [49, 125, 343])
def test_window_starting_on_an_odd_prime_power_matches_the_per_target_walk(
        monkeypatch, n, edge, policy):
    spf = int(spf_array(n)[n])
    assert spf not in (2, n) and spf ** round(math.log(n, spf)) == n
    assert _made_at(2 * n, policy)[n] == n  # walked, not memoized
    monkeypatch.setattr(quadcert.engine, edge, n - MIN_TARGET)
    _assert_matches_reference(2 * n, policy)


@pytest.mark.parametrize("policy,prime,walked", [
    (MAX_Q, 47, 25), (MAX_Q, 131, 125), (MAX_Q, 1453, 729),
    (MIN_Q, 37, 25), (MIN_Q, 71, 49), (MIN_Q, 1031, 529),
])
@pytest.mark.parametrize("window", [None, "between"])
def test_prime_whose_aux_a_walked_target_made_matches_the_per_target_walk(
        monkeypatch, policy, prime, walked, window):
    # the prime's n + q was written while walking an earlier prime power, so
    # the batch must read it off the bitset, in the same window or a later one
    made = _made_at(prime + 64, policy)
    assert made[prime] == prime
    assert made[prime + select_q_for_prime(prime)] == walked
    if window == "between":
        monkeypatch.setattr(quadcert.engine, "WINDOW", prime - MIN_TARGET)
    _assert_matches_reference(prime + 64, policy)


def test_generator_memory_does_not_grow_with_the_bound():
    # the only table as long as the bound is the 2N-bit established bitset:
    # 0.25 byte per n, against ~6 with an int32 spf table and a byte per
    # established fact. The prime table is built outside the traced call,
    # because below 4*10^6 its sieve segment grows with the bound too.
    def peak(limit):
        table = build_prime_table(table_limit(limit))
        tracemalloc.start()
        try:
            certify_range(limit, table=table, sink=None, retain=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(400_000) - peak(100_000)) / 300_000 < 1


def test_retain_is_refused():
    # a run keeps no steps; they are read back from the text it wrote
    with pytest.raises(ValueError, match="iter_steps"):
        certify_range(150, sink=io.StringIO(), retain=True)


def test_null_sink_run_counts_what_a_streamed_run_writes():
    # the derive-only call: no sink, the stats of a streamed run
    res = certify_range(3000, sink=None, retain=False)
    streamed = certify_range(3000, sink=io.StringIO())
    assert res.stats.to_dict() | {"elapsed_s": 0} == (
        streamed.stats.to_dict() | {"elapsed_s": 0})


def test_sink_only_run_retains_nothing():
    buf = io.StringIO()
    res = certify_range(60, sink=buf)
    assert buf.getvalue().count("\n") == res.stats.steps


def test_min_q_policy_also_covers_and_validates():
    _, steps = _streamed(200, MIN_Q)
    seen = set()
    for s in steps:
        for v in demanded_prereqs(s):
            assert v == 0 or v <= 20 or v in seen
        seen.add(s.fact)
    assert set(range(201)) <= seen
    metas = {s.meta["policy"] for s in steps if s.meta}
    assert metas == {"min-q"}


def test_stats_account_for_every_target(run130):
    st, steps = run130
    assert st.base_steps == 21
    assert st.steps == len(steps)
    handled = sum(st.case_counts.values())
    assert handled + st.memoized_targets == 130 - 20
    assert st.case_counts["pow2"] == 3  # 32, 64, 128
    assert st.pow2_depth_max <= POW2_DEPTH_LIMIT
    assert st.max_fact <= 2 * 130 + 14
    d = st.to_dict()
    assert d["limit"] == 130 and d["policy"] == "max-q"


def test_aux_margin_covers_worst_case(run130):
    assert AUX_MARGIN >= 14
    assert run130[0].max_fact <= 2 * 130 + AUX_MARGIN


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_spf_array_small():
    spf = spf_array(30)
    assert list(spf[:10]) == [0, 1, 2, 3, 2, 5, 2, 7, 2, 3]
    assert spf[25] == 5 and spf[29] == 29 and spf[30] == 2

