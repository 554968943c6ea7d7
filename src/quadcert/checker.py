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
  5. every n in 1..claimed_bound has a justifying step (gaps are reported
     as [lo, hi] runs, one violation each);
  6. the bootstrap, rerun here, pins f(n) = n^2 on 1..20 on one branch.

All violations are collected and reported, never just the first. A
prerequisite that is neither base-range nor previously established is
classified at end of file: if some later line justifies it, the violation is
a "cycle" (forward reference); otherwise "missing_prereq".

The file is read once, in blocks of whole lines: in binary (a block is
CHUNK_LINES * 64 bytes and the rest of its last line) while a block is ASCII
without a carriage return, then with the text-mode line iteration of
`model.iter_steps` (so line numbers, universal newlines and decode errors
are the reference's). A block's line ends are found in one pass, and its
lines are checked in chunks of at most CHUNK_LINES.

A file larger than one block is read by a child that `phases.forked`
forks, while the parent checks the chunk before: the child turns chunks
into int32 columns and parses the lines that are not canonical, about one
chunk ahead. The parent raises an error of the child's once every chunk
before it is checked, and always reaps the child; where `forked` does not
fork, the same code reads in-process. The phases then overlap (read,
columns and reference are the child's; wait is the parent's time blocked
on the pipe), so they can sum past the wall time.

Each line takes one of two paths:

  fast path   a line in a layout `serialize_step` writes (any kind, at most
              three prereqs, no meta or a policy tag) whose integers have at
              most 9 digits and no leading zero. A line's shape (its bytes
              with every run of digits written as one 0) names its layout
              exactly, and is found by a binary search among the layouts'
              shapes of its length. The runs are found from one digit mask,
              each is read from the 8 bytes at its start by a
              multiply-and-shift parse, and its length alone tells whether
              its line stays: nine digits keep every product exact in int64;
              longer integers could wrap around and forge a valid row. The
              rows are validated with numpy for the whole chunk at once.
  reference   every other non-blank line is decoded and parsed by
              `model.parse_step`. It, and every fast-path row that fails
              any vectorised check (its step rebuilt from its columns by
              `_step`), goes through `model.validate_step`, so its
              violations, their codes and their text are the reference's.

Either way a row then becomes one fact index plus a flat list of prereq
edges, and duplicates, establishment, cycle vs. missing, coverage and the
exact topological depth are computed once for all rows of a chunk, from one
byte per fact index, its first provider's depth (0: not yet provided; over
254: in a dict); first-provider rows are read off the chunk itself. A fact
below the table size (at most 4 * (lines read) + 64) is its own index; a
larger one is given the next index above that size when first provided. So
memory follows the lines read, never an integer the file or the caller typed.

The optional numeric spot check draws a seeded random sample of non-base
steps during the same pass and, once the file is accepted, runs each of them
through `model.validate_step` again, with primality from Miller-Rabin rather
than the sieve of the fast path (establishment was the pass's to judge). A
step the pass accepted and the reference rejects is a fault of the checker
itself, so it raises RuntimeError rather than making a reportable rejection.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .bootstrap import BootstrapError, solve_bootstrap
from .model import (
    BASE_LIMIT,
    BOOTSTRAP_FAILED,
    COVERAGE_GAP,
    CYCLE,
    DUPLICATE_FACT,
    MISSING_PREREQ,
    SLOTS,
    Base,
    CertificateStep,
    CoprimeProduct,
    CoprimeQuotient,
    ParallelogramClose,
    Violation,
    as_decimal,
    parse_step,
    serialize_step,
    validate_step,
)
from .phases import Phases, forked
from .primes import MAX_Q, MIN_Q, PrimeTable, build_prime_table, is_prime

CHUNK_LINES = 1 << 14
GAP_SLICE = 1 << 20  # facts per slice of the report's coverage-gap scan
_PAIRS = np.uint64(0x000000FF000000FF)  # two digit pairs of a word, 4 bytes apart
# Columns of _columns(): kind, n, x (a | product | p), y (b | divisor | q),
# target (1..4 in SLOTS order), prereqs. Kinds: -1 not canonical, 0 base,
# 1 coprime_product, 2 coprime_quotient, 3 parallelogram.
_KIND, _N, _X, _Y, _T = range(5)
_PRE = slice(5, 8)
_FAR = 1 << 40  # the position of an absent field: past every run


def _layouts() -> tuple[dict[bytes, int], np.ndarray, dict]:
    """The canonical line layouts by shape (serialize_step's text for a step
    whose integers are all 0); a table row per layout: kind, target, then
    the positions among its integers of n, x, y and three prereqs (_FAR when
    absent), and a last row for any other line; and per length of a shape
    with its newline, those shapes sorted (dtype S<length>) and their ids."""
    shapes: dict[bytes, int] = {}
    table = []
    for i, just in enumerate([Base(), CoprimeProduct(0, 0), CoprimeQuotient(0, 0)]
                             + [ParallelogramClose(0, 0, s) for s in SLOTS]):
        first = 3 if i else 1  # the position of the first prereq
        # i = 3..6 are parallelogram steps on the slots of SLOTS, in order
        for k in range(4):
            for meta in (None, {"policy": MAX_Q}, {"policy": MIN_Q}):
                line = serialize_step(CertificateStep(0, just, (0,) * k, meta))
                shapes[line[:-1].encode()] = len(table)
            table.append([min(i, 3), i - 2 if i > 2 else -1, 0,
                          *((1, 2) if i else (_FAR, _FAR)),
                          *(first + j if j < k else _FAR for j in range(3))])
    widths: dict[int, list[bytes]] = {}
    for shape in sorted(shapes):
        widths.setdefault(len(shape) + 1, []).append(shape + b"\n")
    return shapes, np.array(table + [[-1, -1] + [_FAR] * 6], dtype=np.int64), {
        n: (np.array(group, dtype=f"S{n}"), np.array([shapes[g[:-1]] for g in group]))
        for n, group in widths.items()}


_SHAPES, _LAYOUT, _WIDTHS = _layouts()
_DEEP = 255  # a depth table entry whose depth is held in `_Pass.deep`


@dataclass
class CheckReport:
    accepted: bool
    violations: list[Violation]
    coverage_gaps: list[list[int]]  # [lo, hi] runs of unjustified facts
    stats: dict
    bootstrap: dict
    spot_check: dict | None = None
    phases: dict = field(default_factory=dict)  # not part of to_dict()

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "violations": [v.to_dict() for v in self.violations],
            "coverage_gaps": list(self.coverage_gaps),
            "stats": dict(self.stats),
            "bootstrap": dict(self.bootstrap),
        }


def _columns(data: bytes, ends: np.ndarray) -> np.ndarray:
    """One int64 row per line of `data`, whose line ends are `ends` (see
    `_read_chunks` and the column constants); -1 marks an absent field, and
    a line that is not canonical has kind -1."""
    size = int(ends[-1]) + 1  # a last line without a newline gets one
    buf = np.frombuffer(bytearray().join((data, b"\n", bytes(8))), dtype=np.uint8)  # 8 pad loads
    text = buf[:size]
    digit = text - np.uint8(48) < np.uint8(10)
    step = np.flatnonzero(np.diff(digit, prepend=False))  # runs of digits
    starts, length = step[0::2], step[1::2] - step[0::2]
    # a run's first 8 digits: the little-endian word at its start, shifted so
    # that the bytes past the run fall off the top and zeros lead, read by
    # Lemire's three multiply-and-shift steps; a 9th digit is added apart
    shift = np.uint64(8) * (np.uint64(8) - np.minimum(length, 8).astype(np.uint64))
    v = np.ndarray((size,), dtype="<u8", buffer=buf, strides=(1,))[starts] << shift
    v -= np.uint64(0x3030303030303030) << shift
    v = v * np.uint64(10) + (v >> np.uint64(8))
    v = ((v & _PAIRS) * np.uint64(100 + (10**6 << 32))
         + ((v >> np.uint64(16)) & _PAIRS) * np.uint64(1 + (10**4 << 32))) >> np.uint64(32)
    val = np.append(v.astype(np.int64), -1)  # then the -1 absent fields read
    nine = np.flatnonzero(length == 9)
    val[nine] = val[nine] * 10 + buf[starts[nine] + 8] - 48
    # exact, canonical JSON integers: at most 9 digits (so products stay
    # exact in int64) and no leading zero; odd: the runs that are not
    odd = np.flatnonzero((length > 9) | ((length > 1) & (buf[starts] == 48)))
    text[starts] = 48  # a line's shape: each run of digits as one 0
    keep = ~digit
    keep[starts] = True
    shape = text[keep]
    last = np.searchsorted(starts, ends)  # the runs before each line's end
    first = np.append(0, last[:-1])
    # each line's shape, newline included (so no padding NUL of the S dtype
    # can match), is searched for among the layouts' shapes of its length;
    # it ends where the line does, less the digits before, plus the runs
    stop = ends + 1 - np.append(0, np.cumsum(length))[last] + last
    width = stop - np.append(0, stop[:-1])
    order = np.argsort(width)
    bounds = np.searchsorted(width[order], np.add.outer(list(_WIDTHS), [0, 1])).tolist()
    lid = np.full(len(ends), -1)  # the layout table's last row: any other line
    for (n, (known, ids)), (lo, hi) in zip(_WIDTHS.items(), bounds):
        if hi > lo:
            rows = order[lo:hi]
            seen = np.ndarray((len(shape) - n + 1,), f"S{n}", shape, strides=(1,))[stop[rows] - n]
            at = np.searchsorted(known, seen)
            hit = np.searchsorted(known, seen, side="right") > at
            lid[rows[hit]] = ids[at[hit]]
    lay = _LAYOUT[lid]
    out = np.empty((len(ends), 8), dtype=np.int64)
    out[:, [_KIND, _T]] = lay[:, :2]
    out[:, [_N, _X, _Y, 5, 6, 7]] = val[np.minimum(first[:, None] + lay[:, 2:], len(starts))]
    out[np.searchsorted(last, odd, side="right")] = -1
    return out


def _step(row: np.ndarray) -> CertificateStep:
    """The step of a canonical row of `_columns`, without its meta."""
    kind, n, x, y, t, *pre = row.tolist()
    just = (Base() if kind == 0 else CoprimeProduct(x, y) if kind == 1
            else CoprimeQuotient(x, y) if kind == 2 else ParallelogramClose(x, y, SLOTS[t - 1]))
    return CertificateStep(n, just, tuple(v for v in pre if v >= 0))


def _sort3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Three columns sorted across each row, by a min/max sorting network."""
    a, b = np.minimum(a, b), np.maximum(a, b)
    b, c = np.minimum(b, c), np.maximum(b, c)
    return np.minimum(a, b), np.maximum(a, b), c


def _arith_ok(cols: np.ndarray, prime: np.ndarray) -> np.ndarray:
    """Rows for which validate_step would report nothing but establishment:
    the kind's arithmetic holds and the listed prereqs are exactly the
    demanded set, without repeats. `prime` tells, per row, whether x and y
    are prime. Values are below 10^9, so int64 is exact."""
    kind, n, x, y, t = (cols[:, c] for c in (_KIND, _N, _X, _Y, _T))
    l0, l1, l2 = _sort3(*cols[:, _PRE].T)
    no_repeats = ((l1 > l0) | (l0 < 0)) & ((l2 > l1) | (l1 < 0))
    slots = (x + y, x - y, x, y)
    par = kind == 3
    # a parallelogram step demands the three slots besides its target; a
    # product or quotient its two operands (and -1, an absent field)
    d0, d1, d2 = _sort3(np.where(par, np.where(t > 1, slots[0], slots[1]), -1),
                        np.where(par, np.where(t > 2, slots[1], slots[2]), x),
                        np.where(par, np.where(t > 3, slots[2], slots[3]), y))
    # The parallelogram equation forces the target slot's square for every
    # integer p and q, so with p >= q it holds exactly when the slot is n.
    slot = np.choose(np.clip(t - 1, 0, 3), slots)
    arith = np.select([kind == 0, kind == 1, kind == 2, kind == 3], [
        n <= BASE_LIMIT,
        (x > 1) & (y > 1) & (x * y == n) & (np.gcd(x, y) == 1),
        (x >= 1) & (y >= 1) & (y * n == x) & (np.gcd(y, n) == 1),
        prime.all(axis=1) & (x >= y) & (slot == n)], False)
    return arith & no_repeats & (l0 == d0) & (l1 == d1) & (l2 == d2)


class _Pass:
    """The state of one pass over certificate steps in check order.

    "Established before a step" means provided by an earlier step in check
    order: of an earlier chunk, or on an earlier row of the same chunk.
    Every fact has an index into `depth`, the depth of its first provider
    in one byte (0: none yet; 255: see `deep`): a fact below `size` is its
    own index, a larger one is given the next index above `size` in `ids`
    when it is first provided.
    """

    def __init__(self, sample_size: int = 0, seed: int = 0):
        self.size = 64
        self.ids: dict[int, int] = {}  # fact >= size -> index
        self.depth = np.zeros(64, dtype=np.uint8)  # index -> first depth
        self.deep: dict[int, int] = {}  # index -> first depth >= _DEEP
        self.primes: PrimeTable | None = None  # sieved below `size`
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
        self.phases = Phases()

    # -- the fact-index table -------------------------------------------------

    def _index(self, values: list[int], provide: bool) -> list[int]:
        """The indices of `values`; with `provide`, a large fact seen for the
        first time gets the next free index, else it reads as -1."""
        size, ids = self.size, self.ids
        if provide:
            return [v if v < size else ids.setdefault(v, size + len(ids)) for v in values]
        return [v if v < size else ids.get(v, -1) for v in values]

    def _before(self, v: int, rows: dict[int, int], row: int) -> bool:
        """Whether fact v is established before `row` of a chunk whose facts
        are first provided on `rows` (by index)."""
        i = v if v < self.size else self.ids.get(v)
        return 0 <= v <= BASE_LIMIT or i is not None and (
            self.depth[i] != 0 or rows.get(i, row) < row)

    def _grow(self, need: int, cap: int, room: int) -> None:
        """Let facts below `need` (at most `cap`) index themselves, renumber
        the larger ones above the new size, and leave room for `room` more."""
        old = self.size
        size = min(cap, max(need, 2 * old)) if need > old else old
        if size == old and size + len(self.ids) + room <= len(self.depth):
            return
        facts, src = list(self.ids), list(self.ids.values())
        self.size, self.ids = size, {}
        dst = self._index(facts, True)
        depth = np.zeros(size + 2 * (len(self.ids) + room), dtype=np.uint8)
        depth[:old], depth[dst] = self.depth[:old], self.depth[src]
        moved = dict(zip(src, dst))
        self.depth, self.deep = depth, {moved.get(i, i): d for i, d in self.deep.items()}

    def _is_prime(self, values: np.ndarray) -> np.ndarray:
        """Sieved primality below `size`. A larger value reads as not prime,
        which only sends its row to the reference path."""
        top = self.primes.limit if self.primes else -1
        if top + 1 < self.size and values.max(initial=0) > top:
            self.primes = build_prime_table(max(self.size - 1, 2))
            top = self.primes.limit
        inside = values <= top
        return inside & self.primes.lookup(np.where(inside, values, 0))

    # -- one chunk ------------------------------------------------------------

    def feed(self, line_nos: Sequence[int], lines_read: int, cols: np.ndarray,
             steps: dict[int, CertificateStep]) -> None:
        """Check the next chunk of lines in check order; `line_nos` are their
        file line numbers, `lines_read` counts the file's lines read and
        `cols, steps` the chunk's columns and parsed steps (see `_scan`)."""
        t = time.monotonic()
        k = len(cols)
        kind = cols[:, _KIND]

        # every non-blank row as a fact index and prereq edges (erow[j]
        # cites eix[j]); parsed values may exceed int64, so stay Python ints
        cap = 4 * lines_read + 64
        parsed = list(steps)
        pfacts = [steps[i].fact for i in parsed]
        prow = [i for i in parsed for _ in steps[i].prereqs]
        pvals = [v for i in parsed for v in steps[i].prereqs]
        erow, col = np.nonzero(cols[:, _PRE] >= 0)
        evals = cols[:, _PRE][erow, col]
        small = np.array([v for v in chain(pfacts, pvals) if v < cap], dtype=np.int64)
        values = np.concatenate([cols[:, _N], evals, small])
        self._grow(int(values[values < cap].max(initial=-1)) + 1, cap, k)
        fix = cols[:, _N].copy()  # -1 on rows that are not canonical
        large = fix >= self.size
        fix[large] = self._index(fix[large].tolist(), True)
        fix[parsed] = self._index(pfacts, True)
        large = evals >= self.size
        evals[large] = self._index(evals[large].tolist(), False)
        eix = np.concatenate([evals, np.array(self._index(pvals, False), dtype=np.int64)])
        erow = np.concatenate([erow, np.array(prow, dtype=np.int64)])

        # providers: each fact's first row in this chunk; a row is a
        # duplicate unless it is that row of a fact not provided before
        depth = self.depth
        active = np.flatnonzero(fix >= 0)
        new_facts, first_idx = np.unique(fix[active], return_index=True)
        new_rows = active[first_idx]
        fresh = depth[new_facts] == 0
        dup = np.ones(k, dtype=bool)
        dup[new_rows] = ~fresh
        for i in active[dup[active]].tolist():
            f = steps[i].fact if i in steps else int(cols[i, _N])
            self.immediate.append(Violation(
                DUPLICATE_FACT, f"fact {f} was already justified",
                line=line_nos[i], fact=f))

        # per edge, the cited fact's first row here: -1 if an earlier chunk
        # provided it, k if none has yet (eix -1 reads an entry it drops)
        loc = np.searchsorted(new_facts, eix)
        fr = np.where(np.append(new_facts, -2)[loc] == eix, np.append(new_rows, k)[loc], k)
        fr[(eix >= 0) & (depth[eix] != 0)] = -1

        # establishment and arithmetic; any other row goes to the reference
        base_range = (eix >= 0) & (eix <= BASE_LIMIT)
        t = self.phases.add("bookkeeping", t)
        xy = np.where(kind[:, None] == 3, cols[:, [_X, _Y]], 0)
        clean = _arith_ok(cols, self._is_prime(xy))
        t = self.phases.add("arithmetic", t, k)
        clean[erow[~base_range & (fr >= erow)]] = False
        todo = active[~clean[active]].tolist()
        rows = dict(zip(new_facts.tolist(), new_rows.tolist())) if todo else {}
        for i in todo:
            step = steps.get(i) or _step(cols[i])
            established = partial(self._before, rows=rows, row=i)
            for v in validate_step(step, established, is_prime, line=line_nos[i]):
                (self.deferred if v.establishment else self.immediate).append(v)
        t = self.phases.add("reference", t, len(todo))

        # depth: edges to providers before this chunk read the depth table,
        # edges inside it are relaxed in row order
        inside = (fr >= 0) & (fr < erow)
        before = depth[eix].astype(np.int64)
        for j in np.flatnonzero((before == _DEEP) & (fr < 0)).tolist():
            before[j] = self.deep[int(eix[j])]
        rd = np.ones(k, dtype=np.int64)
        outside = 1 + np.where(fr < 0, before, base_range)
        np.maximum.at(rd, erow[~inside], outside[~inside])
        src, dst, rd = fr[inside].tolist(), erow[inside].tolist(), rd.tolist()
        for j in np.argsort(dst, kind="stable").tolist():
            if rd[src[j]] + 1 > rd[dst[j]]:
                rd[dst[j]] = rd[src[j]] + 1
        rd = np.array(rd, dtype=np.int64)
        self.max_depth = max(self.max_depth, int(rd[active].max(initial=0)))
        new_facts, got = new_facts[fresh], rd[new_rows[fresh]]
        depth[new_facts] = np.minimum(got, _DEEP)
        self.deep.update(zip(new_facts[got >= _DEEP].tolist(), got[got >= _DEEP].tolist()))

        base = kind == 0
        base[parsed] = [isinstance(steps[i].just, Base) for i in parsed]
        self._sample(line_nos, cols, steps, active[~base[active]].tolist())
        self.steps += len(active)
        self.phases.add("bookkeeping", t, k)

    def _sample(self, line_nos, cols, steps, eligible: list[int]) -> None:
        """Priority sampling: every eligible (non-base) step draws a seeded
        uniform key and the sample_size smallest keys so far are kept. Keys
        are below 1; once the sample is full, only those below its largest
        can enter it."""
        self.eligible += len(eligible)
        if self.sample_size <= 0 or not eligible:
            return
        new = _random_keys(self.rng, len(eligible))
        old = len(self.sample)
        enter = np.flatnonzero(new < (self.sample_keys.max() if old == self.sample_size else 1))
        keys = np.concatenate([self.sample_keys, new[enter]])
        keep = np.arange(len(keys))
        if len(keys) > self.sample_size:
            keep = np.sort(np.argpartition(keys, self.sample_size - 1)[: self.sample_size])
        # keep is sorted: old entries come first
        self.sample = [self.sample[j] for j in keep.tolist() if j < old] + [
            (line_nos[i], steps.get(i) or _step(cols[i]))
            for i in (eligible[enter[j - old]] for j in keep.tolist() if j >= old)]
        self.sample_keys = keys[keep]

    # -- results ----------------------------------------------------------------

    def report(self, bound: int) -> tuple[list[Violation], list[list[int]]]:
        violations = list(self.immediate)
        for v in self.deferred:
            later = self._before(v.value, {}, 0)  # v.value is above the base range
            violations.append(Violation(
                CYCLE if later else MISSING_PREREQ,
                f"prerequisite {as_decimal(v.value)} is justified only on a later line"
                " (line order must be topological)" if later
                else f"prerequisite {as_decimal(v.value)} is never justified",
                line=v.line, fact=v.fact, value=v.value))
        violations.sort(key=lambda v: (v.line or 0, v.code, v.detail))
        # the facts 1..bound no step provides, as [lo, hi] runs: of `depth`
        # below `size`, GAP_SLICE facts at a time, then between the sorted
        # facts of `ids` above it
        gaps: list[list[int]] = []
        top = min(bound, self.size - 1) + 1
        for start in range(1, top, GAP_SLICE):
            miss = np.flatnonzero(self.depth[start: min(start + GAP_SLICE, top)] == 0) + start
            cut = np.flatnonzero(np.diff(miss) > 1)
            runs = np.column_stack([np.r_[miss[:1], miss[cut + 1]],
                                    np.r_[miss[cut], miss[-1:]]]).tolist()
            if runs and gaps and gaps[-1][1] + 1 == runs[0][0]:  # across the edge
                gaps[-1][1] = runs.pop(0)[1]
            gaps += runs
        lo = gaps.pop()[0] if gaps and gaps[-1][1] == self.size - 1 else self.size
        for v in sorted(v for v in self.ids if v <= bound) + [bound + 1]:
            if v > lo:
                gaps.append([lo, v - 1])
            lo = v + 1
        for lo, hi in gaps:
            facts = f"fact {lo}" if lo == hi else f"facts {lo}..{hi}"
            violations.append(Violation(COVERAGE_GAP, f"no step justifies {facts}", value=lo))
        return violations, gaps

    def spot_check(self) -> dict:
        """Re-validate the sample with the reference rules and Miller-Rabin
        primality; establishment was judged by the pass."""
        for line_no, step in sorted(self.sample, key=lambda s: s[0]):
            if bad := validate_step(step, lambda _: True, is_prime, line=line_no):
                raise RuntimeError(
                    f"numeric spot check failed on line {line_no}: step for fact"
                    f" {step.fact} fails {'; '.join(v.detail for v in bad)}"
                )
        return {
            "sampled": len(self.sample),
            "eligible": self.eligible,
            "seed": self.seed,
            "mismatches": 0,
        }


def _random_keys(rng: random.Random, count: int) -> np.ndarray:
    """The next `count` values of `rng.random()`, drawn as one block.

    CPython's random() makes each value from two 32-bit outputs w1, w2 of
    the generator as ((w1 >> 5) * 2^26 + (w2 >> 6)) / 2^53, and getrandbits
    returns the outputs in order, least significant first.
    """
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"),
                          dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def _whole_lines(path: str) -> Iterator[bytes]:
    """The file as blocks of whole lines (see the module docstring); a text
    block is CHUNK_LINES lines, re-encoded. A decode error is raised only
    after the lines before it were handed out, so a malformed line before it
    is reported first."""
    done = 0  # bytes handed out
    with open(path, "rb") as fh:
        while data := fh.read(CHUNK_LINES << 6) + fh.readline():
            if not data.isascii() or b"\r" in data:
                break
            yield data
            done += len(data)
        else:
            return
    with open(path, "r", encoding="utf-8") as fh:
        # iter_steps decodes from the file's start in steps of _CHUNK_SIZE
        # bytes; resuming on that grid meets a decode error after the same
        # lines. The bytes before `done` are ASCII: one character a byte.
        fh.seek(done - done % fh._CHUNK_SIZE)
        fh.read(done % fh._CHUNK_SIZE)
        lines: list[str] = []
        try:
            for line in fh:
                lines.append(line)
                if len(lines) == CHUNK_LINES:
                    data, lines = "".join(lines).encode(), []
                    yield data
        except ValueError:
            yield "".join(lines).encode()
            raise
        yield "".join(lines).encode()


def _read_chunks(path: str) -> Iterator[tuple[bytes, np.ndarray]]:
    """The file's lines in chunks of at most CHUNK_LINES lines, each as its
    bytes and the offsets of its line ends: its newlines, and its length
    for a last line without one. Each block's ends are found in one pass."""
    for data in filter(None, _whole_lines(path)):
        ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10)
        if not data.endswith(b"\n"):
            ends = np.append(ends, len(data))
        for lo in range(0, len(ends), CHUNK_LINES):
            start = int(ends[lo - 1]) + 1 if lo else 0
            part = ends[lo: lo + CHUNK_LINES]
            yield data[start: int(part[-1]) + 1], part - start


def _toposort(cols: np.ndarray, steps: dict[int, CertificateStep]) -> np.ndarray:
    """Kahn's algorithm over kept lines (`_columns` rows, parsed steps by
    line) in int32 CSR arrays, keyed on first-provider lines, smallest
    original index first; unsortable steps (true cycles) are appended in
    original order so validation reports them. A prereq listed twice gives
    two edges, both removed when its provider is placed: the same order.
    Facts and citations are int32 unless a parsed value is 2^31 or more."""
    n = len(cols)
    # parsed values of 2^62 and above may not fit in int64: number them
    big = {v for s in steps.values() for v in (s.fact, *s.prereqs) if v >= 1 << 62}
    key = {v: (1 << 62) + j for j, v in enumerate(big)}
    small = all(v < 1 << 31 for s in steps.values() for v in (s.fact, *s.prereqs))
    wide = np.int32 if small else np.int64
    facts = cols[:, _N].astype(wide)
    facts[list(steps)] = [key.get(s.fact, s.fact) for s in steps.values()]
    cited = cols[:, _PRE] >= 0
    pairs = np.array([(i, key.get(v, v)) for i, s in steps.items() for v in s.prereqs],
                     dtype=wide).reshape(-1, 2)
    rows = np.append(np.repeat(np.arange(n, dtype=np.int32), cited.sum(axis=1)), pairs[:, 0])
    cites = np.append(cols[:, _PRE][cited], pairs[:, 1]).astype(wide, copy=False)
    del cited, pairs
    uniq, first = np.unique(facts, return_index=True)
    del facts
    loc = np.searchsorted(uniq, cites).astype(np.int32)
    hit = np.append(uniq, -1)[loc] == cites
    src, dst = first[loc[hit]].astype(np.int32), rows[hit].astype(np.int32)
    del rows, cites, uniq, first, loc, hit
    src, dst = src[src != dst], dst[src != dst]  # no self-loops
    starts = memoryview(np.append(0, np.cumsum(np.bincount(src, minlength=n))))
    adj = memoryview(dst[np.argsort(src, kind="stable")])  # by provider
    indeg = memoryview(np.bincount(dst, minlength=n).astype(np.int32))
    ready = [i for i, d in enumerate(indeg) if d == 0]
    heapq.heapify(ready)
    placed = array("i")
    while ready:
        i = heapq.heappop(ready)
        placed.append(i)
        for k in adj[starts[i]: starts[i + 1]]:
            indeg[k] -= 1
            if indeg[k] == 0:
                heapq.heappush(ready, k)
    left = np.ones(n, dtype=bool)
    left[placed] = False
    return np.concatenate([placed, np.flatnonzero(left)])


def _chunks(path: str, ph: Phases) -> Iterator[tuple]:
    """The file's chunks, each as its line numbers, the count of lines read,
    its int32 columns and the parsed step of each non-blank line that is not
    canonical, by row; read, columns and reference are charged to `ph`."""
    read, t = 0, time.monotonic()
    for data, ends in _read_chunks(path):
        nos = range(read + 1, read + 1 + len(ends))
        read += len(ends)
        t = ph.add("read", t, len(ends))
        cols = _columns(data, ends)
        t = ph.add("columns", t, len(cols))
        other, bounds = np.flatnonzero(cols[:, _KIND] < 0), np.append(0, ends + 1)
        texts = {i: data[a: b].decode() for i, a, b in zip(
            other.tolist(), bounds[other].tolist(), bounds[other + 1].tolist())}
        parsed = {i: parse_step(text, nos[i]) for i, text in texts.items() if text.strip()}
        ph.add("reference", t)
        yield nos, read, cols.astype(np.int32), parsed
        t = time.monotonic()


def _scan(path: str, run: _Pass, reorder: bool) -> None:
    """Feed every line of the file to `run`, in file or topological order,
    read in a forked child where the module docstring says. With `reorder`,
    the rows of the non-blank lines are kept from the read (int32 columns,
    as fields have <= 9 digits, then the line number) with the parsed steps
    of those that are not canonical, and fed in sorted order, so no line is
    put into columns or parsed twice."""
    blocks: list[np.ndarray] = [np.zeros((0, 9), dtype=np.int32)]
    steps: dict[int, CertificateStep] = {}  # kept row -> parsed step
    read = kept = 0
    ph = run.phases
    for name in ("read", "columns", "reference"):  # a forked child's phases, in order
        ph.add(name, time.monotonic())
    chunks = (forked(partial(_chunks, path), ph, lambda chunk: len(chunk[2]))
              if os.stat(path).st_size > CHUNK_LINES << 6 else _chunks(path, ph))
    try:
        for nos, read, cols, parsed in chunks:
            if not reorder:
                run.feed(nos, read, cols.astype(np.int64), parsed)
                continue
            t = time.monotonic()
            keep = np.union1d(np.flatnonzero(cols[:, _KIND] >= 0), list(parsed)).astype(np.intp)
            steps.update((kept + j, parsed[i]) for j, i in enumerate(keep.tolist()) if i in parsed)
            kept += len(keep)
            blocks.append(np.column_stack([cols[keep], nos[0] + keep]).astype(np.int32))
            ph.add("reorder", t)
    finally:
        chunks.close()
    if reorder:
        t = time.monotonic()
        rows = np.concatenate(blocks)
        del blocks  # the per-chunk copies, before the sort's peak
        order = _toposort(rows, steps)
        ph.add("reorder", t, len(rows))
        for lo in range(0, len(order), CHUNK_LINES):
            idx = order[lo: lo + CHUNK_LINES]
            run.feed(rows[idx, 8].tolist(), read, rows[idx, :8].astype(np.int64),
                     {j: steps[i] for j, i in enumerate(idx.tolist()) if i in steps})


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
    the spot check of K seeded sample steps, drawn in the same pass and
    validated again by the reference rules with Miller-Rabin primality; a
    sampled step they reject raises RuntimeError. The report's `phases`
    (outside `to_dict()`) give each phase's seconds, count and peak RSS;
    the reference phase counts the lines it parsed or validated.
    """
    if claimed_bound < 0:
        raise ValueError(f"claimed bound must be >= 0, got {claimed_bound}")
    t0 = time.monotonic()
    run = _Pass(spot_check, seed)
    boot = _bootstrap(run.immediate)
    run.phases.add("bootstrap", t0, boot["facts_pinned"])
    _scan(path, run, reorder)
    t = time.monotonic()
    violations, gaps = run.report(claimed_bound)
    stats = {
        "steps": run.steps,
        "distinct_facts": int(np.count_nonzero(run.depth[: run.size])) + len(run.ids),
        "topological_depth": run.max_depth,
        "claimed_bound": claimed_bound,
        "coverage_gap_count": sum(hi - lo + 1 for lo, hi in gaps),
        "violation_counts": dict(sorted(Counter(v.code for v in violations).items())),
        "reordered": reorder,
        "elapsed_s": round(time.monotonic() - t0, 3),
    }
    t = run.phases.add("report", t, len(violations))
    spot = run.spot_check() if not violations and spot_check > 0 else None
    if spot:
        run.phases.add("spot_check", t, spot["sampled"])
    return CheckReport(not violations, violations, gaps, stats, boot, spot,
                       run.phases.to_dict())


def _bootstrap(violations: list[Violation]) -> dict:
    """Rerun the bootstrap and return its report block; add a violation
    unless it pins f(n) = n^2 on 1..BASE_LIMIT on one surviving branch."""
    try:
        boot = solve_bootstrap()
    except BootstrapError as exc:
        violations.append(Violation(BOOTSTRAP_FAILED, f"bootstrap failed: {exc}"))
        return {"facts_pinned": 0, "surviving_branches": None}
    live = len(boot.leaves) - len(boot.pruned)
    if boot.table != {n: n * n for n in range(1, BASE_LIMIT + 1)} or live != 1:
        violations.append(Violation(BOOTSTRAP_FAILED, f"bootstrap pinned {len(boot.table)}"
                                    f" facts on {live} surviving branches; f(n) = n^2 on"
                                    f" 1..{BASE_LIMIT} on exactly one is required"))
    return {"facts_pinned": len(boot.table), "surviving_branches": live}


def spot_check_numeric(path: str, sample_size: int, seed: int = 0) -> dict:
    """Validate a seeded sample of non-base steps again, by themselves.

    Each non-base step, in file order, gets the next `random.Random(seed)`
    value as its key, so the sample does not depend on how the file is
    chunked. Each sampled step goes through `model.validate_step` with
    Miller-Rabin primality and every prereq taken as established; any
    violation raises RuntimeError. This checks the steps only, not the file:
    on a file `check_store` accepts, a failure is a fault of the checker.
    """
    run = _Pass(sample_size, seed)
    _scan(path, run, reorder=False)
    return run.spot_check()
