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

Targets are taken in windows of WINDOW consecutive n. Each window's
smallest prime factors come from a segment of SEGMENT targets sieved from the
primes below its square root, so no table as long as the bound is built. They
give each target's case as numpy columns. Python walks only the window's
powers of two and odd prime powers with e >= 2, cases (ii) and (iv), in
ascending order, and the frontier is the target being walked. One rule makes
this the same as a walk over every n in ascending order: every fact below the
frontier counts as established. Facts made above it are bits of the 2N-bit
`established` bitset. Python reads go through one predicate, `_known`, and
`_emit` refuses such facts; Python writes go through `_mark`.

The primes between two walked targets, case (iii), are settled as one numpy
batch. They write only even auxiliary facts, so which of them a walked target
already made is read off the bitset once, before the batch. Their n + q never
decreases (twins m, m + 2 with m = 1 (mod 4) share it), so its line is due at
its first occurrence among the batch's unmade primes, where its bit is unset.
After the walk, the window's splits of case (i) that no auxiliary step made
are read off the bitset once. That is exact, because an auxiliary fact lies
above the target that makes it, so a split target is made before its turn
only at an earlier frontier. Each target that writes then takes its
templates, or a walked target its finished lines, and the window is
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
select_r picks that r, and select_q_for_prime the q of case (iii).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import IO

import numpy as np

from .goldbach import goldbach_pair
from .model import (
    BASE_LIMIT,
    BASE_LINE,
    CLOSE_P_LINE,
    CLOSE_SUM_LINE,
    COPRIME_PRODUCT_LINE,
    COPRIME_QUOTIENT_LINE,
    MAX_Q,
    POLICIES,
)
from .phases import Phases
from .primes import PrimeTable, build_prime_table, lookup_bits, primes_upto, spf_segment

MIN_TARGET = BASE_LIMIT + 1
AUX_MARGIN = 64  # auxiliary facts reach at most 2*limit + 14; pad a little
POW2_DEPTH_LIMIT = 2
WINDOW = 2048  # targets per window; its columns and text take well under 1 MB
SEGMENT = 32 * WINDOW  # targets per spf sieve: one numpy pass per base prime

# Residue selectors. select_r feeds the auxiliary-prime derivation: r is an
# odd prime with p + r ≡ 4 (mod 8), so (p+r)/4 and (p-r)/2 are both odd.
_R_BY_RESIDUE = {1: 3, 3: 17, 5: 7, 7: 5}
# select_q_for_prime's q by n % 4 for odd n, so (n+q)/2 is odd (case (iii)).
_Q_BY_MOD4 = np.array([0, 5, 0, 3])


def select_r(p: int) -> int:
    """Prime r in {3,5,7,17} with (p + r) ≡ 4 (mod 8); p must be odd."""
    if p % 2 == 0:
        raise ValueError(f"select_r needs odd p, got {p}")
    return _R_BY_RESIDUE[p % 8]


def select_q_for_prime(n: int) -> int:
    """q in {3,5} with (n + q) ≡ 2 (mod 4), i.e. (n+q)/2 odd; n must be odd."""
    if n % 2 == 0:
        raise ValueError(f"select_q_for_prime needs odd n, got {n}")
    return int(_Q_BY_MOD4[n % 4])


# What a target writes at its place in the window's text, by kind: nothing
# (memoized, or walked: its finished lines go in the template's place), a
# split, or a prime with or without its auxiliary n + q line. A row's 11
# columns are (s, a, b, a, b, n, n, q, n+q, n-q, q): a split takes the first
# five with s = n, a prime its n + q line's (s = n+q, a = 2, b = s/2) and the
# last six.
_NONE, _SPLIT, _PRIME_AUX, _PRIME = range(4)
_TEMPLATES = np.array(
    ["", COPRIME_PRODUCT_LINE, COPRIME_PRODUCT_LINE + CLOSE_P_LINE, CLOSE_P_LINE],
    dtype=object,
)
_FIELDS = np.array(
    [[0] * 11, [1] * 5 + [0] * 6, [1] * 11, [0] * 5 + [1] * 6], dtype=bool
)


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


class _Engine:
    def __init__(
        self,
        limit: int,
        policy: str,
        table: PrimeTable | None,
        sink: IO[str] | None,
        phases: Phases | None = None,
    ):
        self.limit = limit
        self.policy = policy
        self.margin = table_limit(limit)
        self.phases = Phases() if phases is None else phases
        if table is None or table.limit < self.margin:
            t = time.monotonic()
            table = build_prime_table(self.margin)
            self.phases.add("table", t, table.limit + 1)
        self.table = table
        # Bit v set: a step wrote fact v. Bits below the frontier are never
        # read, because every fact there counts as established.
        self.established = bytearray((self.margin >> 3) + 1)
        self.bits = np.frombuffer(self.established, dtype=np.uint8)
        self.sink = sink
        # Lines of the target being walked not yet placed, one per _emit.
        self.text: list[str] = []
        # The target being derived; every fact below it counts as established.
        self.frontier = 0
        self.stats = EngineStats(limit=limit, policy=policy)

    # -- emission -----------------------------------------------------------

    def _known(self, v: int) -> bool:
        """Whether fact v is established: every fact below the frontier is."""
        return v < self.frontier or bool(self.established[v >> 3] >> (v & 7) & 1)

    def _mark(self, v: int) -> None:
        """Record fact v as established."""
        self.established[v >> 3] |= 1 << (v & 7)

    def _emit(self, template: str, fact: int, *fields) -> None:
        """Write fact's line: a `model` line template filled with fact, *fields."""
        if self._known(fact):
            raise BoundViolation(
                f"fact {fact} is already established: emitted twice or below"
                f" the frontier {self.frontier} (memoization broken)"
            )
        self._mark(fact)
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
        if not self._known(s):
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

    def _primes(self, rows: np.ndarray, lo: int, kind: np.ndarray,
                q: np.ndarray) -> None:
        """Settle the primes lo + rows (ascending, no walked target among
        them) as the walk would one at a time; kind and q of their rows record
        what each writes."""
        m = rows + lo
        fresh = ~lookup_bits(self.bits, m)
        st = self.stats
        st.memoized_targets += m.size - int(np.count_nonzero(fresh))
        rows, m = rows[fresh], m[fresh]
        if not m.size:
            return
        mq = _Q_BY_MOD4[m & 3]
        s = m + mq
        low = np.flatnonzero(s // 2 >= m)
        if low.size:
            n = int(m[low[0]])
            raise BoundViolation(
                f"(n+q)/2 = {int(s[low[0]]) // 2} must stay below n = {n}"
                " (requires n > q)"
            )
        aux = np.ones(m.size, dtype=bool)  # the first occurrence of each n + q
        aux[1:] = s[1:] != s[:-1]
        aux &= ~lookup_bits(self.bits, s)
        made = s[aux]
        twice = np.flatnonzero(made[1:] <= made[:-1])
        if twice.size:  # n + q decreased: a line would be written twice
            raise BoundViolation(
                f"fact {int(made[twice[0] + 1])} is already established:"
                f" emitted twice or below the frontier {int(m[-1])}"
                " (memoization broken)"
            )
        if made.size and made[-1] > 4 * self.limit:
            raise BoundViolation(
                f"auxiliary fact {int(made[-1])} exceeds 4*limit = {4 * self.limit}"
            )
        np.bitwise_or.at(self.bits, made >> 3,
                         np.left_shift(1, made & 7).astype(np.uint8))
        kind[rows] = np.where(aux, _PRIME_AUX, _PRIME)
        q[rows] = mq
        st.case_counts["prime"] += m.size
        st.aux_steps += made.size
        st.steps += m.size + made.size
        st.max_fact = max(st.max_fact, int(m[-1]), *made[-1:].tolist())

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
        if not self._known(2 * n):
            self._emit(CLOSE_SUM_LINE, 2 * n, p, q, p - q, p, q, self.policy)
        self._emit(COPRIME_QUOTIENT_LINE, n, 2 * n, 2, 2, 2 * n)
        self.stats.case_counts["prime_power"] += 1

    # -- driver ----------------------------------------------------------------

    def run(self) -> None:
        t0 = time.monotonic()
        for i in range(BASE_LIMIT + 1):
            self._emit(BASE_LINE, i)
            self.stats.base_steps += 1
        if self.sink is not None:
            self.sink.write("".join(self.text))
        self.text.clear()
        base = primes_upto(math.isqrt(self.limit))
        for seg_lo in range(MIN_TARGET, self.limit + 1, SEGMENT):
            t = time.monotonic()
            seg_hi = min(seg_lo + SEGMENT, self.limit + 1)
            spf = spf_segment(seg_lo, seg_hi, base)
            self.phases.add("spf", t, seg_hi - seg_lo)
            for lo in range(seg_lo, seg_hi, WINDOW):
                self._window(lo, min(lo + WINDOW, seg_hi), spf[lo - seg_lo :])
            del spf  # so the next segment is not sieved while this one lives
        self.stats.elapsed_s = time.monotonic() - t0

    def _window(self, lo: int, hi: int, spf: np.ndarray) -> None:
        """Targets lo..hi-1, whose smallest prime factors spf starts with."""
        ph, st = self.phases, self.stats
        t = time.monotonic()
        steps = st.steps
        n = np.arange(lo, hi, dtype=np.int64)
        p = spf[: hi - lo]
        a = p.copy()  # the largest power of spf(n) dividing n
        rest = n // p
        i = np.flatnonzero(rest % p == 0)
        while i.size:
            a[i] *= p[i]
            rest[i] //= p[i]
            i = i[rest[i] % p[i] == 0]
        t = ph.add("spf", t)
        kind = np.zeros(hi - lo, dtype=np.int8)
        q = np.zeros(hi - lo, dtype=np.int64)
        prime = np.flatnonzero(p == n)
        stops = np.flatnonzero((rest == 1) & (p != n))
        walked: list[tuple[int, str]] = []  # (row, its lines)
        done = 0  # primes settled so far
        for k, upto, f in zip(stops.tolist(),
                              np.searchsorted(prime, stops).tolist(),
                              p[stops].tolist()):
            self._primes(prime[done:upto], lo, kind, q)
            done = upto
            self.frontier = m = lo + k
            if self._known(m):
                st.memoized_targets += 1
                continue
            if f == 2:
                self._aux_pow2(m, 1)
                st.case_counts["pow2"] += 1
            else:
                self._odd_prime_power(m)
            walked.append((k, "".join(self.text)))
            self.text.clear()
        self._primes(prime[done:], lo, kind, q)
        # The whole window is below the frontier now: a split still unset in
        # `established` is one no auxiliary step made, and its line is due.
        self.frontier = hi
        split = rest > 1
        todo = split & ~lookup_bits(self.bits, n)
        count = int(np.count_nonzero(todo))
        st.memoized_targets += int(np.count_nonzero(split)) - count
        st.case_counts["coprime_split"] += count
        st.steps += count
        if count:
            st.max_fact = max(st.max_fact, lo + int(np.flatnonzero(todo)[-1]))
        kind[todo] = _SPLIT
        t = ph.add("walk", t, len(walked))
        if self.sink is None:  # a derive-only run: no one reads the text
            return
        s = n + q
        a[prime] = 2
        rest[prime] = s[prime] // 2
        cols = np.column_stack((s, a, rest, a, rest, n, n, q, s, n - q, q))
        templates = _TEMPLATES[kind]
        for k, lines in walked:
            templates[k] = lines
        chunk = "".join(templates.tolist()) % tuple(cols[_FIELDS[kind]].tolist())
        t = ph.add("format", t, st.steps - steps)
        self.sink.write(chunk)
        ph.add("write", t, len(chunk))


def certify_range(
    limit: int,
    policy: str = MAX_Q,
    table: PrimeTable | None = None,
    sink: IO[str] | None = None,
    retain: bool = False,
    phases: Phases | None = None,
) -> EngineResult:
    """Generate a certificate establishing f(n) = n^2 for all 0 <= n <= limit.

    Lines stream to `sink` (a text file object), and no text outlives its
    window; with no sink the run derives and counts every step but formats
    none. Only stats are returned: read the steps back from the file with
    `model.iter_steps`. `retain` accepts only False. Deterministic: identical
    (limit, policy) produce byte-identical output. `phases`, when given,
    accumulates the run's table, spf, walk, format and write phases.
    """
    if limit < MIN_TARGET:
        raise ValueError(f"limit must be >= {MIN_TARGET}, got {limit}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if retain:
        raise ValueError("certify_range keeps no steps: pass sink= and read"
                         " the file back with model.iter_steps")
    eng = _Engine(limit, policy, table, sink, phases)
    eng.run()
    return EngineResult(stats=eng.stats)
