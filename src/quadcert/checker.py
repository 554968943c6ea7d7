"""Independent certificate verification, trusting nothing from the generator.

A certificate file is accepted iff:

  1. every line parses under the JSON-lines contract;
  2. no fact is justified twice;
  3. every prerequisite of a step is fact 0, a base-range fact (<= 20), or
     the fact of an earlier line (line order must be a valid topological
     order; `reorder=True` first applies a topological sort for files
     produced by tools that do not guarantee ordering);
  4. every step passes the core validation rules with primality, gcd, and
     congruence facts recomputed here (never read from the certificate);
  5. every n in 1..claimed_bound has a justifying step.

All violations are collected and reported, never just the first. A
prerequisite that is neither base-range nor previously established is
classified at end of file: if some later line justifies it, the violation is
a "cycle" (forward reference); otherwise "missing_prereq".

The file is read once, with the same text-mode line iteration as
`model.iter_steps` (so line numbers, blank-line skipping, universal newlines
and decode errors are the reference's), in chunks of CHUNK_LINES lines. Each
line of a chunk takes one of two paths:

  fast path   a line in one of the four layouts `serialize_step` writes
              (base, coprime_product, coprime_quotient, parallelogram; at
              most three prereqs in any order; an optional meta of
              {"policy":"max-q"} or {"policy":"min-q"}), where every integer
              has at most 9 digits and no leading zero, is matched by one
              anchored regex and validated with numpy for the whole chunk
              at once. Nine digits keep every product exact in int64;
              longer integers could wrap around and forge a match.
  reference   every other non-blank line, and every fast-path row that
              fails any vectorised check, goes through `model.parse_step`
              and `model.validate_step`, so its violations, their codes and
              their text are exactly the reference's.

Duplicates, establishment, cycle vs. missing and coverage come from a
fact-indexed array of first-provider positions, and the topological depth
from a fact-indexed array of first-provider depths. The arrays grow to at
most 4 * (lines read) + 64 entries; larger facts live in a dict, so memory
never follows an integer the file or the caller typed.

The optional numeric spot check re-evaluates a seeded random sample of steps
directly against f(x) = x^2 in exact integer arithmetic: for a parallelogram
step (p+q)^2 + (p-q)^2 = 2p^2 + 2q^2, for products a^2 b^2 = (ab)^2. The
sample is drawn during the same pass. On an accepted store these are
identities, so any mismatch is a fatal internal inconsistency rather than a
reportable rejection.
"""

from __future__ import annotations

import heapq
import random
import re
import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .model import (
    BASE_LIMIT,
    COVERAGE_GAP,
    CYCLE,
    DUPLICATE_FACT,
    MISSING_PREREQ,
    Base,
    CertificateStep,
    CoprimeProduct,
    CoprimeQuotient,
    ParallelogramClose,
    Violation,
    parse_step,
    slot_values,
    validate_step,
)
from .primes import build_prime_table, is_prime

CHUNK_LINES = 1 << 14

_INT = "(0|[1-9][0-9]{0,8})"
_CANONICAL = re.compile(
    r'^(?:\{"n":' + _INT + r',"just":\{"type":"(?:'
    r'coprime_product","a":' + _INT + r',"b":' + _INT
    + r'|coprime_quotient","product":' + _INT + r',"divisor":' + _INT
    + r'|parallelogram","p":' + _INT + r',"q":' + _INT
    + r',"target":"(sum|diff|p|q)"|base")\},"prereqs":\[(?:'
    + _INT + "(?:," + _INT + "(?:," + _INT + r")?)?)?\]"
    r'(?:,"meta":\{"policy":"(?:max-q|min-q)"\})?\}|.*)$',
    re.MULTILINE,
)
# Slot words as digits 1..4 in SLOTS order; the longest-first order keeps
# "p"/"q" from hitting the other words (which contain neither letter).
_TARGET_DIGITS = (("sum", "1"), ("diff", "2"), ("p", "3"), ("q", "4"))
_POW10 = 10 ** np.arange(11, dtype=np.int64)
# Columns of _columns(): kind, n, x (a | product | p), y (b | divisor | q),
# target, prereqs. Kinds: -1 not canonical, 0 base, 1 coprime_product,
# 2 coprime_quotient, 3 parallelogram.
_KIND, _N, _X, _Y, _T = range(5)
_PRE = slice(5, 8)
_UNSET = np.iinfo(np.int32).max  # first-provider position of an unseen fact


@dataclass
class CheckReport:
    accepted: bool
    violations: list[Violation]
    coverage_gaps: list[int]
    stats: dict
    spot_check: dict | None = None

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "violations": [v.to_dict() for v in self.violations],
            "coverage_gaps": list(self.coverage_gaps),
            "stats": dict(self.stats),
        }


def _sort_key(v: Violation):
    return (v.line if v.line is not None else 0, v.code, v.detail)


def _columns(lines: list[str]) -> np.ndarray:
    """One int64 row per line (see the column constants); -1 marks an absent
    field, and a line that is not canonical has kind -1."""
    rows = _CANONICAL.findall("".join(lines))
    del rows[len(lines):]
    # Prefix every captured field with "1": an absent field reads as 1 and a
    # present one as 10^digits + value, so one parse call reads them all.
    text = "1" + ",1".join(chain.from_iterable(rows))
    for word, digit in _TARGET_DIGITS:
        text = text.replace(word, digit)
    raw = np.fromstring(text, dtype=np.int64, sep=",").reshape(len(lines), -1)
    lead = _POW10[np.searchsorted(_POW10, raw, side="right") - 1]
    g = np.where(raw == 1, -1, raw - lead)
    # g: n, a, b, product, divisor, p, q, target, r1, r2, r3
    out = np.empty((len(lines), 8), dtype=np.int64)
    out[:, _KIND] = np.select(
        [g[:, 1] >= 0, g[:, 3] >= 0, g[:, 5] >= 0, g[:, 0] >= 0], [1, 2, 3, 0], -1)
    out[:, _N] = g[:, 0]
    out[:, _X] = g[:, [1, 3, 5]].max(axis=1)
    out[:, _Y] = g[:, [2, 4, 6]].max(axis=1)
    out[:, _T] = g[:, 7]
    out[:, _PRE] = g[:, 8:11]
    return out


def _arith_ok(cols: np.ndarray, prime_x: np.ndarray, prime_y: np.ndarray) -> np.ndarray:
    """Rows for which validate_step would report nothing but establishment:
    the kind's arithmetic holds and the listed prereqs are exactly the
    demanded set, without repeats. Values are below 10^9, so int64 is exact."""
    kind, n, x, y, t = (cols[:, c] for c in (_KIND, _N, _X, _Y, _T))
    listed = np.sort(cols[:, _PRE], axis=1)
    no_repeats = ((listed[:, 1:] > listed[:, :-1]) | (listed[:, :-1] < 0)).all(axis=1)
    none = np.full(len(cols), -1, dtype=np.int64)
    slots = np.stack([x + y, x - y, x, y], axis=1)
    par = kind == 3
    others = slots[par][np.arange(4) != t[par, None] - 1].reshape(-1, 3)
    demanded = np.sort(np.stack([none, x, y], axis=1), axis=1)
    demanded[par] = np.sort(others, axis=1)
    # The parallelogram equation forces the target slot's square for every
    # integer p and q, so with p >= q it holds exactly when the slot is n.
    slot = np.take_along_axis(slots, np.clip(t - 1, 0, 3)[:, None], axis=1)[:, 0]
    arith = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [
            n <= BASE_LIMIT,
            (x > 1) & (y > 1) & (x * y == n) & (np.gcd(x, y) == 1),
            (x >= 1) & (y >= 1) & (y * n == x) & (np.gcd(y, n) == 1),
            prime_x & prime_y & (x >= y) & (slot == n),
        ],
        False,
    )
    return arith & no_repeats & (listed == demanded).all(axis=1)


class _Pass:
    """The state of one pass over certificate steps in check order.

    A step's position is its index in check order (blank lines take a
    position and provide nothing); "established before a step" means
    provided at a smaller position.
    """

    def __init__(self, sample_size: int = 0, seed: int = 0):
        self.first = np.full(64, _UNSET, dtype=np.int32)  # fact -> position
        self.depth = np.zeros(64, dtype=np.int32)  # fact -> first depth
        self.big: dict[int, list[int]] = {}  # larger facts: [position, depth]
        self.primes = np.zeros(0, dtype=bool)  # sieve: index -> is prime
        self.slots = 0  # positions handed out so far
        self.steps = 0
        self.max_depth = 0
        self.immediate: list[Violation] = []
        self.deferred: list[Violation] = []
        self.sample_size = sample_size
        self.seed = seed
        self.rng = random.Random(seed)
        self.sample_keys = np.zeros(0)
        self.sample: list[tuple[int, CertificateStep]] = []
        self.eligible = 0

    # -- fact lookups (arrays below len(self.first), the dict above) --------

    def _first_pos(self, v: int) -> int:
        if 0 <= v < len(self.first):
            return int(self.first[v])
        return self.big.get(v, (_UNSET,))[0]

    def _depth_of(self, v: int) -> int:
        return int(self.depth[v]) if v < len(self.first) else self.big[v][1]

    def _grow(self, size: int, cap: int) -> None:
        old = len(self.first)
        if size <= old:
            return
        new = min(cap, max(size, 2 * old))
        self.first = np.concatenate([self.first, np.full(new - old, _UNSET, np.int32)])
        self.depth = np.concatenate([self.depth, np.zeros(new - old, np.int32)])
        for fact in [f for f in self.big if f < new]:
            self.first[fact], self.depth[fact] = self.big.pop(fact)

    def _is_prime(self, values: np.ndarray) -> np.ndarray:
        """Sieved primality below the fact-array size. A larger value reads
        as not prime, which only sends its row to the reference path: its
        demanded prereqs would lie beyond the arrays, so it cannot pass."""
        size = len(self.first)
        if len(self.primes) < size and values.max(initial=0) >= len(self.primes):
            self.primes = build_prime_table(max(size - 1, 2)).as_bool_array()
        inside = values < len(self.primes)
        return inside & self.primes[np.where(inside, values, 0)]

    # -- one chunk ------------------------------------------------------------

    def feed(self, lines: list[str], line_nos: Sequence[int], lines_read: int) -> None:
        """Check the next chunk of lines in check order; `line_nos` are their
        file line numbers and `lines_read` counts the file's lines read."""
        k = len(lines)
        start = self.slots
        if start + k >= _UNSET:
            raise ValueError(f"more than {_UNSET - 1} certificate lines")
        cap = 4 * lines_read + 64
        cols = _columns(lines)
        kind = cols[:, _KIND]
        steps: dict[int, CertificateStep] = {}  # reference-path rows
        for i in np.flatnonzero(kind < 0).tolist():
            if lines[i].strip() != "":
                steps[i] = parse_step(lines[i], line_nos[i])

        values = np.concatenate([cols[:, _N], cols[:, _PRE].ravel()])
        need = int(values[values < cap].max(initial=-1))
        for step in steps.values():
            need = max([need, *(v for v in (step.fact, *step.prereqs) if v < cap)])
        self._grow(need + 1, cap)
        size = len(self.first)
        reg = (kind >= 0) & (cols[:, _N] < size) & (cols[:, _PRE].max(axis=1) < size)
        for i in np.flatnonzero((kind >= 0) & ~reg).tolist():
            steps[i] = parse_step(lines[i], line_nos[i])
        irr = sorted(steps)
        pos = start + np.arange(k)

        # providers: first positions, duplicates
        fact = np.where(reg, cols[:, _N], -1)
        for i in irr:
            f = steps[i].fact
            if f < size:
                fact[i] = f
            else:
                self.big.setdefault(f, [start + i, 0])
        sel = np.flatnonzero(fact >= 0)
        new_facts, first_idx = np.unique(fact[sel], return_index=True)
        new_rows = sel[first_idx]
        was = self.first[new_facts]
        self.first[new_facts] = np.minimum(was, pos[new_rows])
        dup = sel[self.first[fact[sel]] < pos[sel]].tolist()
        dup += [i for i in irr if steps[i].fact >= size
                and self.big[steps[i].fact][0] < start + i]
        for i in sorted(dup):
            f = steps[i].fact if i in steps else int(cols[i, _N])
            self.immediate.append(Violation(
                DUPLICATE_FACT, f"fact {f} was already justified",
                line=line_nos[i], fact=f))

        # fast-path validation; failing rows fall back to the reference
        pre = cols[:, _PRE]
        listed = (pre >= 0) & reg[:, None]
        pre_ix = np.where(listed, pre, 0)
        fp = np.where(listed, self.first[pre_ix], _UNSET)
        est = ~listed | (pre <= BASE_LIMIT) | (fp < pos[:, None])
        par = np.flatnonzero(reg & (kind == 3))
        prime_x = np.zeros(k, dtype=bool)
        prime_y = np.zeros(k, dtype=bool)
        if len(par):
            both = self._is_prime(np.concatenate([cols[par, _X], cols[par, _Y]]))
            prime_x[par], prime_y[par] = both[: len(par)], both[len(par):]
        clean = reg & _arith_ok(cols, prime_x, prime_y) & est.all(axis=1)
        for i in sorted(irr + np.flatnonzero(reg & ~clean).tolist()):
            step = steps.get(i) or parse_step(lines[i], line_nos[i])
            here = start + i

            def established(v: int, here: int = here) -> bool:
                return 0 <= v <= BASE_LIMIT or self._first_pos(v) < here

            for v in validate_step(step, established, is_prime, line=line_nos[i]):
                (self.deferred if v.establishment else self.immediate).append(v)

        # depth: edges to providers outside this chunk are read from the
        # depth array; edges inside it are relaxed in position order
        inside = listed & (fp >= start) & (fp < pos[:, None])
        outside_depth = np.where(fp < start, self.depth[pre_ix], pre <= BASE_LIMIT)
        rd = np.maximum(1, np.where(listed & ~inside, 1 + outside_depth, 0).max(axis=1))
        dst, col = np.nonzero(inside)
        src = (fp[dst, col] - start).tolist()
        dst = dst.tolist()
        for i in irr:
            d = 1
            for v in steps[i].prereqs:
                f = self._first_pos(v)
                if start <= f < start + i:
                    src.append(f - start)
                    dst.append(i)
                elif f < start:
                    d = max(d, 1 + self._depth_of(v))
                else:
                    d = max(d, 2 if v <= BASE_LIMIT else 1)
            rd[i] = d
        rd = rd.tolist()
        for j in np.argsort(dst, kind="stable").tolist():
            if rd[src[j]] + 1 > rd[dst[j]]:
                rd[dst[j]] = rd[src[j]] + 1
        rd = np.array(rd, dtype=np.int64)
        active = reg.copy()
        active[irr] = True
        base = kind == 0
        base[irr] = [isinstance(steps[i].just, Base) for i in irr]
        self.max_depth = max(self.max_depth, int(rd[active].max(initial=0)))
        fresh = was == _UNSET
        self.depth[new_facts[fresh]] = rd[new_rows[fresh]]
        for i in irr:
            entry = self.big.get(steps[i].fact)
            if entry is not None and entry[0] == start + i:
                entry[1] = int(rd[i])

        self._sample(lines, line_nos, steps, np.flatnonzero(active & ~base).tolist())
        self.steps += int(active.sum())
        self.slots += k

    def _sample(self, lines, line_nos, steps, eligible: list[int]) -> None:
        """Priority sampling: every eligible (non-base) step draws a seeded
        uniform key and the sample_size smallest keys so far are kept."""
        self.eligible += len(eligible)
        if self.sample_size <= 0 or not eligible:
            return
        draw = self.rng.random
        keys = np.concatenate([self.sample_keys, [draw() for _ in eligible]])
        keep = np.arange(len(keys))
        if len(keys) > self.sample_size:
            keep = np.sort(np.argpartition(keys, self.sample_size - 1)[: self.sample_size])
        old = len(self.sample)
        picked = []
        for j in keep.tolist():
            if j < old:
                picked.append(self.sample[j])
            else:
                i = eligible[j - old]
                picked.append((line_nos[i], steps.get(i) or parse_step(lines[i], line_nos[i])))
        self.sample, self.sample_keys = picked, keys[keep]

    # -- results ----------------------------------------------------------------

    def report(self, claimed_bound: int) -> tuple[list[Violation], list[int]]:
        violations = list(self.immediate)
        for v in self.deferred:
            if self._first_pos(v.value) != _UNSET:
                violations.append(Violation(
                    CYCLE,
                    f"prerequisite {v.value} is justified only on a later line"
                    " (line order must be topological)",
                    line=v.line, fact=v.fact, value=v.value))
            else:
                violations.append(Violation(
                    MISSING_PREREQ, f"prerequisite {v.value} is never justified",
                    line=v.line, fact=v.fact, value=v.value))
        violations.sort(key=_sort_key)
        size = len(self.first)
        top = min(claimed_bound, size - 1)
        gaps = (np.flatnonzero(self.first[1: top + 1] == _UNSET) + 1).tolist()
        gaps.extend(n for n in range(size, claimed_bound + 1) if n not in self.big)
        for n in gaps:
            violations.append(
                Violation(COVERAGE_GAP, f"no step justifies fact {n}", value=n))
        return violations, gaps

    def distinct_facts(self) -> int:
        return int((self.first != _UNSET).sum()) + len(self.big)

    def spot_check(self) -> dict:
        for line_no, step in sorted(self.sample, key=lambda s: s[0]):
            if not _identities_hold(step):
                raise RuntimeError(
                    f"numeric spot check failed on line {line_no}: step for fact"
                    f" {step.fact} does not satisfy the f(x) = x^2 identities"
                )
        return {
            "sampled": len(self.sample),
            "eligible": self.eligible,
            "seed": self.seed,
            "mismatches": 0,
        }


def _identities_hold(step: CertificateStep) -> bool:
    j = step.just
    n = step.fact
    if isinstance(j, CoprimeProduct):
        return j.a * j.b == n and (j.a**2) * (j.b**2) == (j.a * j.b) ** 2
    if isinstance(j, CoprimeQuotient):
        return j.divisor * n == j.product and (n**2) * (j.divisor**2) == j.product**2
    if isinstance(j, ParallelogramClose):
        vals = slot_values(j.p, j.q)
        s, d = vals["sum"], vals["diff"]
        return vals[j.target] == n and s * s + d * d == 2 * j.p * j.p + 2 * j.q * j.q
    return False  # pragma: no cover - the sample excludes Base


def _read_chunks(path: str) -> Iterator[list[str]]:
    """The file's lines in CHUNK_LINES batches, read as iter_steps reads
    them. A decode error is raised only after the lines before it were
    handed out, so a malformed line before it is reported first, as in a
    line-by-line read."""
    with open(path, "r", encoding="utf-8") as fh:
        lines: list[str] = []
        try:
            for line in fh:
                lines.append(line)
                if len(lines) == CHUNK_LINES:
                    yield lines
                    lines = []
        except ValueError:
            if lines:
                yield lines
            raise
        if lines:
            yield lines


def _toposort(facts: list[int], prereqs: list[Sequence[int]]) -> list[int]:
    """Kahn's algorithm keyed on first-provider lines, smallest original
    index first; unsortable steps (true cycles) are appended in original
    order so validation reports them."""
    provider: dict[int, int] = {}
    for idx, fact in enumerate(facts):
        provider.setdefault(fact, idx)
    adj: list[list[int]] = [[] for _ in facts]
    indeg = [0] * len(facts)
    for idx, pre in enumerate(prereqs):
        for pv in set(pre):
            j = provider.get(pv)
            if j is not None and j != idx:
                adj[j].append(idx)
                indeg[idx] += 1
    ready = [i for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for k in adj[i]:
            indeg[k] -= 1
            if indeg[k] == 0:
                heapq.heappush(ready, k)
    placed = set(order)
    order.extend(i for i in range(len(facts)) if i not in placed)
    return order


def _scan(path: str, run: _Pass, reorder: bool) -> None:
    """Feed every line of the file to `run`, in file or topological order."""
    if not reorder:
        read = 0
        for chunk in _read_chunks(path):
            run.feed(chunk, range(read + 1, read + 1 + len(chunk)), read + len(chunk))
            read += len(chunk)
        return
    lines: list[str] = []
    line_nos: list[int] = []
    facts: list[int] = []
    prereqs: list[Sequence[int]] = []
    read = 0
    for chunk in _read_chunks(path):
        for i, row in enumerate(_columns(chunk).tolist()):
            line = chunk[i]
            if row[_KIND] >= 0:
                facts.append(row[_N])
                prereqs.append([v for v in row[_PRE] if v >= 0])
            elif line.strip() == "":
                continue
            else:
                step = parse_step(line, read + i + 1)
                facts.append(step.fact)
                prereqs.append(step.prereqs)
            lines.append(line if line.endswith("\n") else line + "\n")
            line_nos.append(read + i + 1)
        read += len(chunk)
    order = _toposort(facts, prereqs)
    for lo in range(0, len(order), CHUNK_LINES):
        idx = order[lo: lo + CHUNK_LINES]
        run.feed([lines[i] for i in idx], [line_nos[i] for i in idx], read)


def check_store(
    path: str,
    claimed_bound: int,
    *,
    reorder: bool = False,
    spot_check: int = 0,
    seed: int = 0,
) -> CheckReport:
    """Verify a certificate file; accept iff no violations and full coverage.

    Raises CertificateFormatError (parse) and OSError (I/O) rather than
    reporting them as logical violations. `reorder` topologically sorts the
    steps first. With `spot_check` K > 0, an accepted report also carries
    the numeric spot check of K seeded sample steps, drawn in the same pass.
    """
    if claimed_bound < 0:
        raise ValueError(f"claimed bound must be >= 0, got {claimed_bound}")
    t0 = time.monotonic()
    run = _Pass(spot_check, seed)
    _scan(path, run, reorder)
    violations, gaps = run.report(claimed_bound)
    stats = {
        "steps": run.steps,
        "distinct_facts": run.distinct_facts(),
        "topological_depth": run.max_depth,
        "claimed_bound": claimed_bound,
        "coverage_gap_count": len(gaps),
        "reordered": reorder,
        "elapsed_s": round(time.monotonic() - t0, 3),
    }
    accepted = not violations
    return CheckReport(
        accepted=accepted,
        violations=violations,
        coverage_gaps=gaps,
        stats=stats,
        spot_check=run.spot_check() if accepted and spot_check > 0 else None,
    )


def spot_check_numeric(path: str, sample_size: int, seed: int = 0) -> dict:
    """Re-evaluate a seeded sample of non-base steps against f(x) = x^2.

    These are exact integer identities on any structurally accepted store, so
    a mismatch raises RuntimeError (it would mean the validator itself is
    inconsistent, not that the certificate is merely invalid).
    """
    run = _Pass(sample_size, seed)
    _scan(path, run, reorder=False)
    return run.spot_check()
