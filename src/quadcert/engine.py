"""Certificate generation: the induction establishing f(n) = n^2 for all n.

Facts 0..20 are axioms. For each n from 21 to the requested bound, in
ascending order, emit certificate steps justifying fact n from facts already
established, by a four-way case split:

  (i)   n = a * b with a, b > 1 coprime  -> one CoprimeProduct step;
  (ii)  n = 2^e                          -> Goldbach pair p + q = n, close on
        the sum slot (p, q, p-q are all below n, hence established);
  (iii) n an odd prime                   -> pick q in {3, 5} with
        n + q = 2 (mod 4), justify the auxiliary fact n + q = 2 * (n+q)/2,
        then close on the p slot from {n+q, n-q, q};
  (iv)  n an odd prime power p^e, e >= 2 -> Goldbach pair p + q = 2n, derive
        the above-frontier prime p and the difference p - q, close on the sum
        slot for the auxiliary fact 2n, then CoprimeQuotient(2n, 2) gives n.

Auxiliary facts never exceed 2n + 14 (an above-frontier prime p <= 2n - 3
needs p + r with r <= 17). They are memoized globally: a fact is justified by
the first step that establishes it and later steps simply cite it.

An above-frontier prime p is established by choosing r with
p + r = 4 (mod 8): then p + r = 4 * odd and p - r = 2 * odd are both coprime
products of established facts, and the close on the p slot yields p. An
above-frontier even difference d = 2^k * a is a coprime product when a > 1;
when a = 1 the power of two is itself closed from a Goldbach pair, and that
recursion is at most two deep (the nested difference is below the frontier).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import isqrt
from typing import IO

import numpy as np

from .model import (
    BASE_LIMIT,
    SLOT_P,
    SLOT_SUM,
    SLOTS,
    Base,
    CertificateStep,
    CertificateStore,
    CoprimeProduct,
    CoprimeQuotient,
    ParallelogramClose,
    serialize_step,
    slot_values,
)
from .primes import (
    MAX_Q,
    POLICIES,
    PrimeTable,
    build_prime_table,
    goldbach_pair,
    select_q_for_prime,
    select_r,
)

MIN_TARGET = BASE_LIMIT + 1
AUX_MARGIN = 64  # auxiliary facts reach at most 2*limit + 14; pad a little
POW2_DEPTH_LIMIT = 2


def table_limit(limit: int) -> int:
    """Largest fact (and prime) a certificate for 0..limit may need."""
    return 2 * limit + AUX_MARGIN


class BoundViolation(RuntimeError):
    """An internal magnitude bound failed; the message names the inequality."""


@dataclass
class EngineStats:
    limit: int
    policy: str
    steps: int = 0
    base_steps: int = 0
    aux_steps: int = 0
    memoized_targets: int = 0
    case_counts: dict[str, int] = field(
        default_factory=lambda: {
            "coprime_split": 0,
            "pow2": 0,
            "prime": 0,
            "prime_power": 0,
        }
    )
    goldbach_calls: int = 0
    pow2_depth_max: int = 0
    max_fact: int = 0
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "limit": self.limit,
            "policy": self.policy,
            "steps": self.steps,
            "base_steps": self.base_steps,
            "aux_steps": self.aux_steps,
            "memoized_targets": self.memoized_targets,
            "case_counts": dict(self.case_counts),
            "goldbach_calls": self.goldbach_calls,
            "pow2_depth_max": self.pow2_depth_max,
            "max_fact": self.max_fact,
            "elapsed_s": round(self.elapsed_s, 3),
        }


@dataclass
class EngineResult:
    stats: EngineStats
    store: CertificateStore | None


def _spf_array(limit: int) -> np.ndarray:
    """Smallest prime factor for 0..limit (0 and 1 map to themselves)."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    idx = np.nonzero(spf == 0)[0]
    spf[idx] = idx
    return spf


def _close_prereqs(p: int, q: int, target: str) -> tuple[int, ...]:
    vals = slot_values(p, q)
    out: list[int] = []
    for slot in SLOTS:
        if slot == target:
            continue
        v = vals[slot]
        if v not in out:
            out.append(v)
    return tuple(out)


class _Engine:
    def __init__(
        self,
        limit: int,
        policy: str,
        table: PrimeTable | None,
        sink: IO[str] | None,
        retain: bool,
    ):
        self.limit = limit
        self.policy = policy
        self.margin = table_limit(limit)
        if table is None or table.limit < self.margin:
            table = build_prime_table(self.margin)
        self.table = table
        self.established = bytearray(self.margin + 1)
        self.spf = _spf_array(limit)
        self.sink = sink
        self.steps: list[CertificateStep] | None = [] if retain else None
        self.frontier = 0
        self.stats = EngineStats(limit=limit, policy=policy)

    # -- emission -----------------------------------------------------------

    def _emit(self, step: CertificateStep) -> None:
        fact = step.fact
        if self.established[fact]:
            raise BoundViolation(f"fact {fact} emitted twice (memoization broken)")
        self.established[fact] = 1
        if self.sink is not None:
            self.sink.write(serialize_step(step))
        if self.steps is not None:
            self.steps.append(step)
        st = self.stats
        st.steps += 1
        if fact > st.max_fact:
            st.max_fact = fact
        if fact > self.frontier:
            st.aux_steps += 1
        if fact > 4 * self.limit:
            raise BoundViolation(
                f"auxiliary fact {fact} exceeds 4*limit = {4 * self.limit}"
            )

    def _goldbach(self, m: int):
        self.stats.goldbach_calls += 1
        return goldbach_pair(m, self.table, self.policy)

    # -- auxiliary derivations ------------------------------------------------

    def _ensure_fact(self, v: int, depth: int) -> None:
        """Establish fact v (above the frontier) if it is not already."""
        if v <= self.margin and self.established[v]:
            return
        if v > self.margin:
            raise BoundViolation(
                f"required fact {v} exceeds the table margin {self.margin}"
            )
        if v % 2 == 1:
            if v not in self.table:
                raise BoundViolation(
                    f"odd composite auxiliary {v} above frontier {self.frontier}"
                    " has no derivation"
                )
            self._aux_prime(v)
            return
        k = (v & -v).bit_length() - 1
        a = v >> k
        if a == 1:
            self._aux_pow2(v, depth + 1)
            return
        pow2 = 1 << k
        if pow2 >= self.frontier or a >= self.frontier:
            raise BoundViolation(
                f"difference {v} = {pow2}*{a} needs both factors below the"
                f" frontier {self.frontier} (requires p-q <= 2*frontier-6)"
            )
        self._emit(
            CertificateStep(v, CoprimeProduct(pow2, a), (pow2, a))
        )

    def _aux_prime(self, p: int) -> None:
        """Establish an above-frontier prime p via r with p+r = 4 (mod 8)."""
        r = select_r(p)
        s = p + r
        sq = s // 4
        d = p - r
        dh = d // 2
        if sq >= self.frontier:
            raise BoundViolation(
                f"(p+r)/4 = {sq} is not below the frontier {self.frontier}"
                f" (requires p+r <= 4*frontier; p={p}, r={r})"
            )
        if dh >= self.frontier:
            raise BoundViolation(
                f"(p-r)/2 = {dh} is not below the frontier {self.frontier}"
                f" (requires p-r <= 2*frontier; p={p}, r={r})"
            )
        if not self.established[s]:
            self._emit(CertificateStep(s, CoprimeProduct(4, sq), (4, sq)))
        if not self.established[d]:
            self._emit(CertificateStep(d, CoprimeProduct(2, dh), (2, dh)))
        self._emit(
            CertificateStep(p, ParallelogramClose(p, r, SLOT_P),
                            _close_prereqs(p, r, SLOT_P))
        )

    def _aux_pow2(self, v: int, depth: int) -> None:
        """Establish a power of two >= 32 by closing a Goldbach pair's sum."""
        if depth > POW2_DEPTH_LIMIT:
            raise BoundViolation(
                f"power-of-two recursion for {v} exceeded depth"
                f" {POW2_DEPTH_LIMIT} (nested difference should sit below the"
                " frontier)"
            )
        if depth > self.stats.pow2_depth_max:
            self.stats.pow2_depth_max = depth
        gp = self._goldbach(v)
        p, q = gp.p, gp.q
        if p == q:
            raise BoundViolation(f"degenerate Goldbach pair for {v}")
        self._ensure_fact(q, depth)
        self._ensure_fact(p, depth)
        self._ensure_fact(p - q, depth)
        self._emit(
            CertificateStep(v, ParallelogramClose(p, q, SLOT_SUM),
                            _close_prereqs(p, q, SLOT_SUM),
                            meta={"policy": self.policy})
        )

    # -- per-target cases -----------------------------------------------------

    def _prime_case(self, n: int) -> None:
        q = select_q_for_prime(n)
        s = n + q
        half = s // 2
        if half >= n:
            raise BoundViolation(
                f"(n+q)/2 = {half} must stay below n = {n} (requires n > q)"
            )
        if not self.established[s]:
            self._emit(CertificateStep(s, CoprimeProduct(2, half), (2, half)))
        self._emit(
            CertificateStep(n, ParallelogramClose(n, q, SLOT_P),
                            _close_prereqs(n, q, SLOT_P))
        )
        self.stats.case_counts["prime"] += 1

    def _odd_prime_power(self, n: int) -> None:
        gp = self._goldbach(2 * n)
        p, q = gp.p, gp.q
        if q >= n:
            raise BoundViolation(
                f"Goldbach pair for {2 * n} has q = {q} >= n = {n}"
                " (q < n must hold because n is composite)"
            )
        self._ensure_fact(p, 0)
        self._ensure_fact(p - q, 0)
        if not self.established[2 * n]:
            self._emit(
                CertificateStep(2 * n, ParallelogramClose(p, q, SLOT_SUM),
                                _close_prereqs(p, q, SLOT_SUM),
                                meta={"policy": self.policy})
            )
        self._emit(
            CertificateStep(n, CoprimeQuotient(2 * n, 2), (2, 2 * n))
        )
        self.stats.case_counts["prime_power"] += 1

    # -- driver ----------------------------------------------------------------

    def run(self) -> None:
        t0 = time.monotonic()
        for i in range(BASE_LIMIT + 1):
            self._emit(CertificateStep(i, Base(), ()))
            self.stats.base_steps += 1
        for n in range(MIN_TARGET, self.limit + 1):
            self.frontier = n
            if self.established[n]:
                self.stats.memoized_targets += 1
                continue
            p = int(self.spf[n])
            a = p
            rest = n // p
            while rest % p == 0:
                a *= p
                rest //= p
            if rest > 1:
                self._emit(CertificateStep(n, CoprimeProduct(a, rest), (a, rest)))
                self.stats.case_counts["coprime_split"] += 1
            elif p == 2:
                self._aux_pow2(n, 1)
                self.stats.case_counts["pow2"] += 1
            elif p == n:
                self._prime_case(n)
            else:
                self._odd_prime_power(n)
        self.frontier = self.limit + 1
        self.stats.elapsed_s = time.monotonic() - t0


def certify_range(
    limit: int,
    policy: str = MAX_Q,
    table: PrimeTable | None = None,
    sink: IO[str] | None = None,
    retain: bool | None = None,
) -> EngineResult:
    """Generate a certificate establishing f(n) = n^2 for all 0 <= n <= limit.

    Steps stream to `sink` (a text file object) when given; `retain` controls
    whether the steps are also kept in memory as a CertificateStore (default:
    retain only when there is no sink). Deterministic: identical (limit,
    policy) produce byte-identical serialized output.
    """
    if limit < MIN_TARGET:
        raise ValueError(f"limit must be >= {MIN_TARGET}, got {limit}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if retain is None:
        retain = sink is None
    eng = _Engine(limit, policy, table, sink, retain)
    eng.run()
    store = None
    if eng.steps is not None:
        store = CertificateStore(target_bound=limit, steps=eng.steps)
    return EngineResult(stats=eng.stats, store=store)
