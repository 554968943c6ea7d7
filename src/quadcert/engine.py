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

The engine's only output is certificate text: each step is one of `model`'s
line templates (BASE_LINE, COPRIME_PRODUCT_LINE, ...) filled with its fields,
so the wire format is defined in `model` alone.

Targets are taken in windows of WINDOW consecutive n. The smallest-prime-
factor table gives each target's case as numpy columns. Python walks only the
window's prime powers, cases (ii)-(iv), in ascending order, and the frontier
is the prime power being walked. One rule makes this the same as a walk over
every n in ascending order: every fact below the frontier counts as
established. Reads about such facts go through one predicate, `_known`, and
`_emit` refuses them. After the walk, the window's splits of case (i) that no
auxiliary step established are read off `established` once. That is exact,
because an auxiliary fact lies above the prime power that emits it, so a
split target is established before its turn only by the walk of an earlier
prime power. The splits and the walk's lines, in target order, are then
formatted with one `%` and written out.

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

import io
import time
from dataclasses import asdict, dataclass, field
from typing import IO

import numpy as np

from .model import (
    BASE_LIMIT,
    BASE_LINE,
    CLOSE_P_LINE,
    CLOSE_SUM_LINE,
    COPRIME_PRODUCT_LINE,
    COPRIME_QUOTIENT_LINE,
    CertificateStore,
    parse_step,
)
from .primes import (
    MAX_Q,
    POLICIES,
    PrimeTable,
    build_prime_table,
    goldbach_pair,
    select_q_for_prime,
    select_r,
    spf_array,
)

MIN_TARGET = BASE_LIMIT + 1
AUX_MARGIN = 64  # auxiliary facts reach at most 2*limit + 14; pad a little
POW2_DEPTH_LIMIT = 2
WINDOW = 2048  # targets per window; its columns and text take well under 1 MB


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
        return asdict(self) | {"elapsed_s": round(self.elapsed_s, 3)}


@dataclass
class EngineResult:
    stats: EngineStats
    store: CertificateStore | None


class _Engine:
    def __init__(
        self,
        limit: int,
        policy: str,
        table: PrimeTable | None,
        sinks: list[IO[str]],
    ):
        self.limit = limit
        self.policy = policy
        self.margin = table_limit(limit)
        if table is None or table.limit < self.margin:
            table = build_prime_table(self.margin)
        self.table = table
        self.established = bytearray(self.margin + 1)
        self.spf = spf_array(limit)
        self.sinks = sinks
        # Lines of the current window not yet written, one per _emit.
        self.text: list[str] = []
        # The target being derived; every fact below it counts as established.
        self.frontier = 0
        self.stats = EngineStats(limit=limit, policy=policy)

    # -- emission -----------------------------------------------------------

    def _known(self, v: int) -> bool:
        """Whether fact v is established: every fact below the frontier is."""
        return v < self.frontier or self.established[v]

    def _emit(self, template: str, fact: int, *fields) -> None:
        """Write fact's line: a `model` line template filled with fact, *fields."""
        if self._known(fact):
            raise BoundViolation(
                f"fact {fact} is already established: emitted twice or below"
                f" the frontier {self.frontier} (memoization broken)"
            )
        self.established[fact] = 1
        self.text.append(template % (fact, *fields))
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
        """Establish fact v if it is not already."""
        if v > self.margin:
            raise BoundViolation(
                f"required fact {v} exceeds the table margin {self.margin}"
            )
        if self._known(v):
            return
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
        self._emit(COPRIME_PRODUCT_LINE, v, pow2, a, pow2, a)

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
            self._emit(COPRIME_PRODUCT_LINE, s, 4, sq, 4, sq)
        if not self._known(d):
            self._emit(COPRIME_PRODUCT_LINE, d, 2, dh, 2, dh)
        self._emit(CLOSE_P_LINE, p, p, r, s, d, r)

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
        self._emit(CLOSE_SUM_LINE, v, p, q, p - q, p, q, self.policy)

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
            self._emit(COPRIME_PRODUCT_LINE, s, 2, half, 2, half)
        self._emit(CLOSE_P_LINE, n, n, q, s, n - q, q)
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
            self._emit(CLOSE_SUM_LINE, 2 * n, p, q, p - q, p, q, self.policy)
        self._emit(COPRIME_QUOTIENT_LINE, n, 2 * n, 2, 2, 2 * n)
        self.stats.case_counts["prime_power"] += 1

    # -- driver ----------------------------------------------------------------

    def run(self) -> None:
        t0 = time.monotonic()
        for i in range(BASE_LIMIT + 1):
            self._emit(BASE_LINE, i)
            self.stats.base_steps += 1
        for lo in range(MIN_TARGET, self.limit + 1, WINDOW):
            self._window(lo, min(lo + WINDOW, self.limit + 1))
        self.stats.elapsed_s = time.monotonic() - t0

    def _window(self, lo: int, hi: int) -> None:
        """Targets lo..hi-1: walk the prime powers, then write the splits."""
        n = np.arange(lo, hi, dtype=np.int64)
        p = self.spf[lo:hi].astype(np.int64)
        a = p.copy()  # the largest power of spf(n) dividing n
        rest = n // p
        i = np.flatnonzero(rest % p == 0)
        while i.size:
            a[i] *= p[i]
            rest[i] //= p[i]
            i = i[rest[i] % p[i] == 0]
        st = self.stats
        anchors: list[int] = []  # walked targets, ascending
        slots: list[int] = []  # where in self.text the splits below each go
        powers = np.flatnonzero(rest == 1)
        for m, q in zip(n[powers].tolist(), p[powers].tolist()):
            self.frontier = m
            if self.established[m]:
                st.memoized_targets += 1
                continue
            anchors.append(m)
            slots.append(len(self.text))
            self.text.append("")
            if q == 2:
                self._aux_pow2(m, 1)
                st.case_counts["pow2"] += 1
            elif q == m:
                self._prime_case(m)
            else:
                self._odd_prime_power(m)
        slots.append(len(self.text))  # and the splits above the last one
        self.text.append("")
        # The whole window is below the frontier now: a split still unset in
        # `established` is one no auxiliary step made, and its line is due.
        self.frontier = hi
        split = rest > 1
        est = np.frombuffer(self.established, np.uint8, hi - lo, lo)
        todo = split & (est == 0)
        cn, ca, cb = n[todo], a[todo], rest[todo]
        st.memoized_targets += int(np.count_nonzero(split)) - len(cn)
        st.case_counts["coprime_split"] += len(cn)
        st.steps += len(cn)
        if len(cn):
            st.max_fact = max(st.max_fact, int(cn[-1]))
        # Each slot takes a template line per split between the previous
        # walked target and its own; walked lines hold no '%', so the one
        # '%' below passes them through and fills in only the splits.
        counts = np.diff(np.searchsorted(cn, anchors + [hi]), prepend=0)
        for k, c in zip(slots, counts.tolist()):
            self.text[k] = COPRIME_PRODUCT_LINE * c
        chunk = "".join(self.text) % tuple(
            np.column_stack((cn, ca, cb, ca, cb)).ravel().tolist())
        self.text.clear()
        for sink in self.sinks:
            sink.write(chunk)


def certify_range(
    limit: int,
    policy: str = MAX_Q,
    table: PrimeTable | None = None,
    sink: IO[str] | None = None,
    retain: bool | None = None,
) -> EngineResult:
    """Generate a certificate establishing f(n) = n^2 for all 0 <= n <= limit.

    Lines stream to `sink` (a text file object) when given. With `retain`
    (default: only when there is no sink) the result's store holds the steps
    parsed back from exactly the text written; without it no text outlives
    its window. Deterministic: identical (limit, policy) produce byte-identical
    output.
    """
    if limit < MIN_TARGET:
        raise ValueError(f"limit must be >= {MIN_TARGET}, got {limit}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if retain is None:
        retain = sink is None
    kept = io.StringIO() if retain else None
    eng = _Engine(limit, policy, table, [f for f in (sink, kept) if f is not None])
    eng.run()
    store = None
    if kept is not None:
        kept.seek(0)
        steps = [parse_step(line, i) for i, line in enumerate(kept, start=1)]
        store = CertificateStore(target_bound=limit, steps=steps)
    return EngineResult(stats=eng.stats, store=store)
