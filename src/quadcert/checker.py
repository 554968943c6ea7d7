"""Independent certificate verification, trusting nothing from the generator.

A certificate file is accepted iff:

  1. every line parses under the JSON-lines contract;
  2. no fact is justified twice;
  3. every prerequisite of a step is fact 0, a base-range fact (<= 20), or
     the fact of an earlier line (line order must be a valid topological
     order; `reorder=True` checks the lines in topologically sorted order
     instead, for files from tools that do not keep one);
  4. every step passes the core validation rules with primality, gcd, and
     congruence facts recomputed here (never read from the certificate);
  5. every n in 1..claimed_bound has a justifying step (gaps are reported
     as [lo, hi] runs, one violation each);
  6. the base case, replayed from frozen hints (no search), pins f(n) = n^2 on 1..20.

All violations are collected and reported, never just the first. A
prerequisite that is neither base-range nor previously established is
classified at end of file: if some later line justifies it, the violation is
a "cycle" (forward reference); otherwise "missing_prereq".

The file is read once, from one handle, in blocks of whole lines (about
CHUNK_LINES * 64 bytes): in binary while a block is ASCII without CR, then
decoded as `model.iter_steps` decodes (so line numbers, universal newlines
and decode errors are the reference's). Each block's line ends are found in
one pass; its lines are checked in chunks of at most CHUNK_LINES (with
`reorder`, held until the facts they wait for arrive: see `_Reorder`).

A file larger than one block, or one that is not a regular file (a pipe,
/dev/stdin, whose size reads 0), is read by a child that `phases.forked`
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
              rows, stored fields first (each `cols[:, F]` contiguous), are
              validated with numpy for the whole chunk at once.
  reference   every other non-blank line is decoded and parsed by
              `model.parse_step`. It, and every fast-path row that fails
              any vectorised check (its step rebuilt from its columns by
              `_step`), goes through `model.validate_step`, so its
              violations, their codes and their text are the reference's.

Either way a row then becomes one fact index plus a flat list of prereq
edges, and duplicates, establishment, coverage and the exact topological
depth are computed once for all rows of a chunk, from one byte per fact
index, its first provider's depth (0: not yet provided; over 254: in a
dict); first-provider rows are read off the chunk itself. The fact store
`_Facts` alone owns that table and its rule: a fact below the table size is
its own index, grown in place up to min(claimed_bound + 1, 4 * (lines
read) + 64); a larger one is given the next index above that size in a
dict when first provided (a genuine file's facts past its bound are a few
Goldbach sums). Should that dict cost more than the slots the bound saves,
the bound is dropped. So memory follows the lines read, never an integer
the file or the caller typed. `_report` tells cycle from missing by the
store's lookup of provided facts, which `_Reorder` asks too.

The optional numeric spot check draws a seeded random sample of non-base
steps during the same pass, held as int32 columns and line numbers (see
`_Sample`), and, once the file is accepted, builds each step and runs
it through `model.validate_step` again, with primality from Miller-Rabin
rather than the sieve of the fast path (establishment was the pass's). A
step the pass accepted and the reference rejects is a fault of the checker
itself, so it raises RuntimeError rather than making a reportable rejection.
"""

from __future__ import annotations

import codecs
import heapq
import io
import os
import random
import stat
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .basecase import replay
from .model import (
    BASE_LIMIT,
    BOOTSTRAP_FAILED,
    COVERAGE_GAP,
    CYCLE,
    DUPLICATE_FACT,
    MISSING_PREREQ,
    POLICIES,
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
from .primes import PrimeTable, build_prime_table, is_prime

CHUNK_LINES = 1 << 14
GAP_SLICE = 1 << 20  # facts per slice of the report's coverage-gap scan
_STEP = 8192  # the bytes io.TextIOWrapper decodes at a time (its _CHUNK_SIZE)
_PAIRS = np.uint64(0x000000FF000000FF)  # two digit pairs of a word, 4 bytes apart
# Columns of _columns(): kind, n, x (a | product | p), y (b | divisor | q),
# target (1..4 in SLOTS order), prereqs. Kinds: -1 not canonical, 0 base,
# 1 coprime_product, 2 coprime_quotient, 3 parallelogram.
_KIND, _N, _X, _Y, _T = range(5)
_PRE = slice(5, 8)
_FAR = 1 << 40  # the position of an absent field: past every run


def _layouts() -> tuple[dict[bytes, int], np.ndarray, dict]:
    """The canonical line layouts by shape (serialize_step's text for a step
    whose integers are all 0); a table, fields first, of a column per layout
    (its kind and target, else a field's position among the line's integers,
    _FAR when absent) and one for any other line; and per length of a shape
    with its newline, those shapes sorted (dtype S<length>) and their ids."""
    shapes: dict[bytes, int] = {}
    table = []
    for i, just in enumerate([Base(), CoprimeProduct(0, 0), CoprimeQuotient(0, 0)]
                             + [ParallelogramClose(0, 0, s) for s in SLOTS]):
        first = 3 if i else 1  # the position of the first prereq
        # i = 3..6 are parallelogram steps on the slots of SLOTS, in order
        for k in range(4):
            for meta in (None, *({"policy": p} for p in POLICIES)):
                line = serialize_step(CertificateStep(0, just, (0,) * k, meta))
                shapes[line[:-1].encode()] = len(table)
            table.append([min(i, 3), 0, *((1, 2) if i else (_FAR, _FAR)),
                          i - 2 if i > 2 else -1,
                          *(first + j if j < k else _FAR for j in range(3))])
    widths: dict[int, list[bytes]] = {}
    for shape in sorted(shapes):
        widths.setdefault(len(shape) + 1, []).append(shape + b"\n")
    table.append([-1, _FAR, _FAR, _FAR, -1, _FAR, _FAR, _FAR])
    return shapes, np.array(table, dtype=np.int64).T.copy(), {
        n: (np.array(group, dtype=f"S{n}"), np.array([shapes[g[:-1]] for g in group]))
        for n, group in widths.items()}


_SHAPES, _LAYOUT, _WIDTHS = _layouts()
_DEEP = 255  # a depth table entry whose depth is held in `_Facts.deep`


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
    `_read_chunks` and the column constants), stored fields first; -1 marks
    an absent field, and a line that is not canonical has kind -1."""
    size = int(ends[-1]) + 1  # a last line without a newline gets one
    # a non-digit pad byte before the text; 8 pad bytes after it for loads
    buf = np.frombuffer(bytearray().join((b"\n", data, b"\n", bytes(8))), dtype=np.uint8)
    text = buf[1: size + 1]
    other = buf[: size + 1] - np.uint8(48) >= np.uint8(10)  # pad byte, then text
    step = np.flatnonzero(other[1:] != other[:-1])  # runs of digits
    starts, length = step[0::2], step[1::2] - step[0::2]
    # a run's first 8 digits: the little-endian word at its start, shifted so
    # that the bytes past the run fall off the top and zeros lead, read by
    # Lemire's three multiply-and-shift steps; a 9th digit is added apart
    shift = np.uint64(8) * (np.uint64(8) - np.minimum(length, 8).astype(np.uint64))
    # (bytes past the run may borrow while '0' is taken off, but only upwards)
    v = (np.ndarray((size,), dtype="<u8", buffer=buf, offset=1, strides=(1,))[starts]
         - np.uint64(0x3030303030303030)) << shift
    v = v * np.uint64(10) + (v >> np.uint64(8))
    v = ((v & _PAIRS) * np.uint64(100 + (10**6 << 32))
         + ((v >> np.uint64(16)) & _PAIRS) * np.uint64(1 + (10**4 << 32))) >> np.uint64(32)
    val = np.append(v.astype(np.int64), -1)  # then the -1 absent fields read
    nine = np.flatnonzero(length == 9)
    val[nine] = val[nine] * 10 + text[starts[nine] + 8] - 48
    # exact, canonical JSON integers: at most 9 digits (so products stay
    # exact in int64) and no leading zero; odd: the runs that are not
    odd = np.flatnonzero((length > 9) | ((length > 1) & (text[starts] == 48)))
    text[starts] = 48  # a line's shape: each run of digits as one 0
    keep = other[1:]
    keep[starts] = True
    shape = text[keep]
    last = np.searchsorted(starts, ends)  # the runs before each line's end
    first = np.append(0, last[:-1])
    # each line's shape, newline included (so no padding NUL of the S dtype
    # can match), is searched for among the layouts' shapes of its length;
    # it ends where the line does, less the digits before, plus the runs
    stop = ends + 1 - np.append(0, np.cumsum(length))[last] + last
    # widths past every layout's read as 255, so a stable sort is a radix sort
    width = np.minimum(stop - np.append(0, stop[:-1]), 255).astype(np.uint8)
    order = np.argsort(width, kind="stable")
    bounds = np.searchsorted(width[order], np.add.outer(list(_WIDTHS), [0, 1])).tolist()
    lid = np.full(len(ends), -1)  # the layout table's last column: any other line
    for (n, (known, ids)), (lo, hi) in zip(_WIDTHS.items(), bounds):
        if hi > lo:
            rows = order[lo:hi]
            seen = np.ndarray((len(shape) - n + 1,), f"S{n}", shape, strides=(1,))[stop[rows] - n]
            at = np.searchsorted(known, seen)
            hit = np.searchsorted(known, seen, side="right") > at
            lid[rows[hit]] = ids[at[hit]]
    out = _LAYOUT.take(lid, axis=1)
    pos = np.empty_like(first)
    for f in (_N, _X, _Y, 5, 6, 7):  # a position among the runs: past them reads -1
        np.add(out[f], first, out=pos)
        np.take(val, pos, out=out[f], mode="clip")
    out[:, np.searchsorted(last, odd, side="right")] = -1
    return out.T


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


def _arith_ok(cols: np.ndarray, prime: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Rows for which validate_step would report nothing but establishment:
    the kind's arithmetic holds and the listed prereqs are exactly the
    demanded set, without repeats. `prime` maps values to their
    primality. Values are below 10^9, so a sum of two is exact in int32
    columns and the products are taken in int64."""
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
    # integer p and q, so with p >= q it holds exactly when the slot is n:
    # the four slots sum to 3x + y, and the demanded three are the others.
    ok = no_repeats & (l0 == d0) & (l1 == d1) & (l2 == d2) & (
        (kind == 0) & (n <= BASE_LIMIT)
        | (kind == 1) & (x > 1) & (y > 1) & (x.astype(np.int64) * y == n)
        | (kind == 2) & (x >= 1) & (y >= 1) & (y.astype(np.int64) * n == x)
        | par & (x >= y) & (3 * x.astype(np.int64) + y - d0 - d1 - d2 == n))
    # primality and the gcds, each on the rows of its kind that passed the rest
    i = np.flatnonzero(ok & par)
    ok[i] = prime(np.stack([x[i], y[i]])).all(axis=0)
    i = np.flatnonzero(ok & (kind == 1))
    ok[i] = np.gcd(x[i], y[i]) == 1
    i = np.flatnonzero(ok & (kind == 2))
    ok[i] = np.gcd(y[i], n[i]) == 1
    return ok


class _Facts:
    """The fact store, the only owner of the fact-index table and its rule
    (see the module docstring). Every fact has an index into `depth`, the
    depth of its first provider in one byte (0: none yet; 255: see `deep`):
    a fact below `size` is its own index, a larger one is given the next
    index above `size` in `ids` when it is first provided. `size` grows up
    to min(`bound`, 4 * (lines read) + 64) until `ids` would cost more than
    the slots the bound saves (~100 bytes an entry, 1 a slot)."""

    def __init__(self, bound: int | None):
        self.size, self.bound = 64, bound
        self.ids: dict[int, int] = {}  # fact >= size -> index
        self.depth = np.zeros(64, dtype=np.uint8)  # index -> first depth
        self.deep: dict[int, int] = {}  # index -> first depth >= _DEEP
        self.primes: PrimeTable | None = None  # sieved below `size`
        self.distinct = 0  # facts provided

    def index(self, values, provide: bool = False) -> np.ndarray:
        """The indices of `values` (ints, or an integer array) as int64; with
        `provide`, a large fact seen for the first time gets the next free
        index, else it reads as -1."""
        size, ids = self.size, self.ids
        if isinstance(values, np.ndarray):
            out = values.astype(np.int64)
            large = out >= size  # with no large fact indexed, each reads -1
            out[large] = self.index(out[large].tolist(), provide) if provide or ids else -1
            return out
        return np.array([v if v < size else ids.setdefault(v, size + len(ids)) if provide
                         else ids.get(v, -1) for v in values], dtype=np.int64)

    def provided(self, values) -> np.ndarray:
        """Whether a row fed so far provides each of `values` (see `index`)."""
        i = self.index(values)
        return (i >= 0) & (self.depth[i] != 0)

    def depths(self, ix: np.ndarray) -> np.ndarray:
        """Each index's first provider's depth as int64; 0: none yet, or -1."""
        got = self.depth[ix].astype(np.int64)
        got[ix < 0] = 0
        for j in np.flatnonzero(got == _DEEP).tolist():
            got[j] = self.deep[int(ix[j])]
        return got

    def settle(self, ix: np.ndarray, depths: np.ndarray) -> None:
        """Record the first providers' depths of newly provided facts."""
        self.distinct += len(ix)
        self.depth[ix] = np.minimum(depths, _DEEP)
        self.deep.update(zip(ix[depths >= _DEEP].tolist(), depths[depths >= _DEEP].tolist()))

    def grow(self, lines_read: int, values: list[np.ndarray], more: list[int], room: int) -> None:
        """Let the chunk's facts and citations, the arrays `values` and the
        Python ints `more`, index themselves below the cap, renumber the
        larger ones above the new size, and leave room for `room` more. The
        table is resized in place: no view of it outlives a chunk."""
        cap = 4 * lines_read + 64
        if self.bound is not None and 100 * len(self.ids) > cap - self.bound > 0:
            self.bound = None  # its dict would cost more than the table slots it saves
        cap = min(cap, self.bound or cap)
        values = np.concatenate([*values, np.array([v for v in more if v < cap], dtype=np.int64)])
        need, old = int(values[values < cap].max(initial=-1)) + 1, self.size
        size = min(cap, max(need, 2 * old)) if need > old else old
        if size == old and size + len(self.ids) + room <= len(self.depth):
            return
        facts, src = list(self.ids), list(self.ids.values())
        got, self.depth[src] = self.depth[src], 0
        self.size, self.ids = size, {}
        dst = self.index(facts, True)
        self.depth.resize(size + 2 * (len(self.ids) + room), refcheck=False)
        self.depth[dst] = got
        moved = dict(zip(src, dst.tolist()))
        self.deep = {moved.get(i, i): d for i, d in self.deep.items()}

    def prime(self, values: np.ndarray) -> np.ndarray:
        """Sieved primality below `size`. A larger value reads as not prime,
        which only sends its row to the reference path."""
        top = self.primes.limit if self.primes else -1
        if top + 1 < self.size and values.max(initial=0) > top:
            self.primes = build_prime_table(max(self.size - 1, 2))
            top = self.primes.limit
        inside = values <= top
        return inside & self.primes.lookup(np.where(inside, values, 0))

    def gaps(self, bound: int) -> list[list[int]]:
        """The facts 1..bound no step provides, as [lo, hi] runs: of `depth`
        below `size`, GAP_SLICE facts at a time, then between the sorted
        facts of `ids` above it."""
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
        return gaps


def _report(faults: list[Violation], provided: Callable, gaps: list[list[int]]) -> list[Violation]:
    """The violations found, by line, code and detail, then one per gap run.
    An establishment violation becomes a cycle if `provided` (the fact
    store's lookup) says a later line provides the prereq, else a missing
    prereq."""
    deferred = [v for v in faults if v.establishment]
    violations = [v for v in faults if not v.establishment]
    for v, later in zip(deferred, provided([v.value for v in deferred]).tolist()):
        violations.append(Violation(
            CYCLE if later else MISSING_PREREQ,
            f"prerequisite {as_decimal(v.value)} is justified only on a later line"
            " (line order must be topological)" if later
            else f"prerequisite {as_decimal(v.value)} is never justified",
            line=v.line, fact=v.fact, value=v.value))
    violations.sort(key=lambda v: (v.line or 0, v.code, v.detail))
    for lo, hi in gaps:
        facts = f"fact {lo}" if lo == hi else f"facts {lo}..{hi}"
        violations.append(Violation(COVERAGE_GAP, f"no step justifies {facts}", value=lo))
    return violations


class _Sample:
    """The spot check's sample, its only owner. Priority sampling: each
    eligible (non-base) row draws a seeded uniform key; the sample is the
    `size` smallest, kept in blocks of keys, int32 columns and lines, with
    the parsed steps that entered it by line. A chunk's rows whose keys are
    below `cut`, the largest key kept once full, join it, cut back once over.
    """

    def __init__(self, size: int, seed: int):
        self.size, self.seed, self.rng = size, seed, random.Random(seed)
        self.eligible = 0
        self.blocks = [(np.zeros(0), np.zeros((0, 8), dtype=np.int32), np.zeros(0, dtype=np.int64))]
        self.held_steps, self.cut = {}, 1.0

    def offer(self, line_nos, cols, steps, eligible: np.ndarray) -> None:
        self.eligible += len(eligible)
        if self.size <= 0 or not len(eligible):
            return
        keys = _random_keys(self.rng, len(eligible))
        enter = np.flatnonzero(keys < self.cut)
        if len(enter) > self.size:  # only the chunk's K smallest can be kept
            enter = enter[np.argpartition(keys[enter], self.size - 1)[: self.size]]
        rows = eligible[enter]
        self.held_steps.update((line_nos[i], steps[i]) for i in rows.tolist() if i in steps)
        self.blocks.append((keys[enter], cols[rows].astype(np.int32),
                            np.array([line_nos[i] for i in rows.tolist()], dtype=np.int64)))
        if sum(len(block[0]) for block in self.blocks) > self.size:
            keys, cols, lines = (np.concatenate(part) for part in zip(*self.blocks))
            del self.blocks[:]  # before the cut's copies
            keep = np.argpartition(keys, self.size - 1)[: self.size]
            self.blocks, self.cut = [(keys[keep], cols[keep], lines[keep])], keys[keep].max()

    def spot_check(self) -> dict:
        """Re-validate the sample, in line order, with the reference rules and
        Miller-Rabin primality; establishment was judged by the pass."""
        _, rows, lines = (np.concatenate(part) for part in zip(*self.blocks))
        for j in np.argsort(lines):  # no list or copy of the whole sample
            line_no = int(lines[j])
            step = self.held_steps.get(line_no) or _step(rows[j])
            if bad := validate_step(step, lambda _: True, is_prime, line=line_no):
                raise RuntimeError(f"numeric spot check failed on line {line_no}: step for"
                                   f" fact {step.fact} fails {'; '.join(v.detail for v in bad)}")
        return {
            "sampled": len(lines),
            "eligible": self.eligible,
            "seed": self.seed,
            "mismatches": 0,
        }


class _Pass:
    """One pass over certificate steps in check order, feeding each chunk to
    a fact store, a fault log and a sample. "Established before a step"
    means provided by an earlier step in check order: of an earlier chunk,
    or on an earlier row of the same chunk."""

    def __init__(self, sample_size: int = 0, seed: int = 0, bound: int | None = None):
        self.facts, self.sample = _Facts(bound), _Sample(sample_size, seed)
        self.faults: list[Violation] = []  # in the order found (see `_report`)
        self.steps = self.max_depth = 0
        self.phases = Phases()

    def feed(self, line_nos: Sequence[int], lines_read: int, cols: np.ndarray,
             steps: dict[int, CertificateStep]) -> None:
        """Check the next chunk of lines in check order; `line_nos` are their
        file line numbers, `lines_read` counts the file's lines read and
        `cols, steps` the chunk's int32 columns and parsed steps (see `_scan`)."""
        t = time.monotonic()
        facts, k, kind = self.facts, len(cols), cols[:, _KIND]

        # every non-blank row as a fact index and prereq edges (erow[j]
        # cites eix[j]); parsed values may exceed int64, so stay Python ints
        parsed = list(steps)
        pfacts = [steps[i].fact for i in parsed]
        prow = [i for i in parsed for _ in steps[i].prereqs]
        pvals = [v for i in parsed for v in steps[i].prereqs]
        pre = cols[:, _PRE].T  # one prereq field per row, each contiguous
        erow = [np.flatnonzero(field >= 0) for field in pre]
        evals = np.concatenate([field[rows] for field, rows in zip(pre, erow)], dtype=np.int64)
        facts.grow(lines_read, [cols[:, _N], evals], pfacts + pvals, k)
        fix = facts.index(cols[:, _N], True)  # -1 on rows that are not canonical
        fix[parsed] = facts.index(pfacts, True)
        eix = np.concatenate([facts.index(evals), facts.index(pvals)])
        erow = np.concatenate([*erow, np.array(prow, dtype=np.int64)])

        # providers: each fact's first row in this chunk; a row is a
        # duplicate unless it is that row of a fact not provided before
        active = np.flatnonzero(fix >= 0)
        new_facts, first_idx = np.unique(fix[active], return_index=True)
        new_rows = active[first_idx]
        fresh = facts.depths(new_facts) == 0
        dup = np.ones(k, dtype=bool)
        dup[new_rows] = ~fresh
        for i in active[dup[active]].tolist():
            f = steps[i].fact if i in steps else int(cols[i, _N])
            self.faults.append(Violation(
                DUPLICATE_FACT, f"fact {f} was already justified",
                line=line_nos[i], fact=f))

        # per edge, the cited fact's first row here: -1 if an earlier chunk
        # provided it (at depth `before`), k if none has yet, searched for
        # only on the edges to facts not provided before
        before = facts.depths(eix)
        fr = np.full(len(eix), -1)
        here = np.flatnonzero(before == 0)
        loc = np.searchsorted(new_facts, eix[here])
        fr[here] = np.where(np.append(new_facts, -2)[loc] == eix[here],
                            np.append(new_rows, k)[loc], k)

        # establishment and arithmetic; any other row goes to the reference,
        # which reads a prereq as established unless its edge is late
        base_range = (eix >= 0) & (eix <= BASE_LIMIT)
        t = self.phases.add("bookkeeping", t)
        clean = _arith_ok(cols, facts.prime)
        t = self.phases.add("arithmetic", t, k)
        late = np.flatnonzero(~base_range & (fr >= erow))
        clean[erow[late]] = False
        todo = active[~clean[active]].tolist()
        e = len(evals)
        unmet = set(zip(erow[late].tolist(), [int(evals[j]) if j < e else pvals[j - e]
                                               for j in late.tolist()])) if todo else set()
        for i in todo:
            self.faults += validate_step(steps.get(i) or _step(cols[i]),
                                         lambda v, i=i: (i, v) not in unmet, is_prime,
                                         line=line_nos[i])
        t = self.phases.add("reference", t, len(todo))

        # depth: edges to providers before this chunk read the depth table,
        # edges inside it are relaxed in row order, in place (a memoryview)
        inside = (fr >= 0) & (fr < erow)
        rd = np.ones(k, dtype=np.int64)
        outside = 1 + np.where(fr < 0, before, base_range)
        np.maximum.at(rd, erow[~inside], outside[~inside])
        order = np.argsort(erow[inside])
        view = memoryview(rd)
        for a, b in zip(memoryview(fr[inside][order]), memoryview(erow[inside][order])):
            if view[a] >= view[b]:
                view[b] = view[a] + 1
        self.max_depth = max(self.max_depth, int(rd[active].max(initial=0)))
        facts.settle(new_facts[fresh], rd[new_rows[fresh]])

        base = kind == 0
        base[parsed] = [isinstance(steps[i].just, Base) for i in parsed]
        self.sample.offer(line_nos, cols, steps, active[~base[active]])
        self.steps += len(active)
        self.phases.add("bookkeeping", t, k)


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
    """The file as blocks of whole lines (see the module docstring). A decode
    error is raised only after the lines before it were handed out, so a
    malformed line before it is reported first."""
    done, tail = 0, b""  # bytes handed out, and the last _STEP of them
    with open(path, "rb") as fh:
        while block := fh.read(CHUNK_LINES << 6) + fh.readline():
            if not block.isascii() or b"\r" in block:
                break
            yield block
            done, tail = done + len(block), (tail + block[-_STEP:])[-_STEP:]
        else:
            return
        # iter_steps decodes the file in _STEP-byte steps; the same steps, decoded
        # from the one holding `done` (ASCII without CR before it), meet its errors.
        head = tail[len(tail) - done % _STEP:] + block + fh.read(-(done + len(block)) % _STEP)
        steps = chain(*(iter(partial(f.read, _STEP), b"") for f in (io.BytesIO(head), fh)), [b""])
        dec = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), True)
        text, seen = dec.decode(next(steps))[done % _STEP:], 0  # text[:seen] has no "\n"
        try:
            for step in steps:
                text += dec.decode(step, final=not step)
                if len(text) > CHUNK_LINES << 6 or not step:
                    cut = text.rfind("\n", seen) + 1 if step else len(text)
                    data, text, seen = text[:cut].encode(), text[cut:], len(text) - cut
                    yield data
        except ValueError:
            yield text[: text.rfind("\n") + 1].encode()
            raise


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


class _Reorder:
    """Feeds a `_Pass` a file's rows in Kahn's order: first-provider lines,
    the smallest ready line first, then the rows in true cycles in line
    order. A row is held (int32 columns, then its line number) until it lies
    in the longest closed prefix of the held rows, each of whose citations is
    of a fact first provided by a row fed, of the prefix or left unplaced
    (lost), which Kahn's algorithm places as on the whole file, before any
    later row. A citation of a fact that no row read so far provides (open)
    holds its row and every later one; the held rows are sorted again, once,
    when chunks have provided every open fact (`wait`), or at end of file."""

    def __init__(self, run: _Pass):
        self.run, self.read, self.bigs = run, 0, {}  # bigs: parsed values >= 2^62 -> key
        self.held, self.left = ([np.zeros((0, 9), dtype=np.int32)] for _ in range(2))
        self.steps: dict[int, CertificateStep] = {}  # line -> parsed step, until fed
        self.wait = self.lost = np.zeros(0, dtype=np.int64)  # awaited facts; lost (sorted)

    def _key(self, v: int) -> int:  # a fact as an int64: a number past 2^62 if that large
        return v if v < 1 << 62 else self.bigs.setdefault(v, (1 << 62) + len(self.bigs))

    def _fed(self, keys: np.ndarray) -> np.ndarray:
        """Whether a row fed to the pass provides each fact (key)."""
        big, values = np.flatnonzero(keys >= 1 << 62), list(self.bigs)  # 2^62 + j: values[j]
        fed = self.run.facts.provided(keys)  # a key past 2^62 is asked again as its value
        fed[big] = self.run.facts.provided([values[j - (1 << 62)] for j in keys[big].tolist()])
        return fed

    def add(self, chunk: tuple | None = None) -> None:
        """Hold a chunk (see `_chunks`), or none at end of file; feed what can be."""
        t = time.monotonic()
        if chunk:
            nos, self.read, cols, parsed = chunk
            keep = np.union1d(np.flatnonzero(cols[:, _KIND] >= 0), list(parsed)).astype(np.intp)
            self.steps.update((nos[i], s) for i, s in parsed.items())
            self.held.append(np.column_stack([cols[keep], nos[0] + keep]).astype(np.int32))
            self.wait = self.wait[~np.isin(self.wait, np.append(
                cols[:, _N], [self._key(s.fact) for s in parsed.values()]))]
            if len(self.wait):  # no longer prefix can close yet
                self.run.phases.add("reorder", t)
                return
        rows, self.held = np.concatenate(self.held), []
        steps = {n: s for n, s in self.steps.items() if len(rows) and n >= rows[0, 8]}
        at, facts = np.searchsorted(rows[:, 8], list(steps)), rows[:, _N].astype(np.int64)
        facts[at] = [self._key(s.fact) for s in steps.values()]
        pairs = np.array([(i, self._key(v)) for i, s in zip(at.tolist(), steps.values())
                          for v in s.prereqs], dtype=np.int64).reshape(-1, 2)  # their citations
        first = np.unique(facts, return_index=True)  # each fact's first row
        first = first[0], first[1].astype(np.int32)
        del facts  # before the sort's arrays
        order, p = self._sort(rows, first, pairs, chunk is None)
        self.run.phases.add("reorder", t, p)
        self._feed(rows, order)
        self.held = [rows[p:]]
        if chunk is None:
            left = np.concatenate(self.left)
            self._feed(left, np.arange(len(left)))

    def _sort(self, rows: np.ndarray, first: tuple, pairs: np.ndarray,
              final: bool) -> tuple[np.ndarray, int]:
        """The rows Kahn's algorithm places of the longest closed prefix of
        the held rows, in order, and its length; the others are left."""
        n, pre = len(rows), rows[:, _PRE]
        # row numbers (citing rows, providers) are int32: rows are fewer than 2^31
        dst = np.concatenate([np.repeat(np.arange(n, dtype=np.int32), (pre >= 0).sum(axis=1)),
                              pairs[:, 0]], dtype=np.int32)
        keys = np.append(pre[pre >= 0], pairs[:, 1])
        # each citation's first provider among the held rows; -1: fed, lost or open
        settled = (lost := np.isin(keys, self.lost)) | self._fed(keys)
        far = np.searchsorted(first[0][:-1], keys).astype(np.int32)  # the last if past it
        src = np.where((first[0][far] == keys) & ~settled, first[1][far], -1)
        open_ = (src < 0) & ~settled & (not final)
        self.wait = np.unique(keys[open_])  # each provided, if ever, past every held row
        del keys, settled, far  # before the closure bound's arrays
        # p rows are closed unless one cites a row at or past p (open: n)
        reach = np.full(n, -1, dtype=np.int32)  # the furthest row each row cites
        np.maximum.at(reach, dst, src)
        reach[dst[open_]] = n
        closed = np.maximum.accumulate(reach) < np.arange(1, n + 1, dtype=np.int32)
        at = np.flatnonzero(np.append(True, closed))  # the closed prefixes' lengths
        p = int(at[-1])  # the longest; Kahn's algorithm runs on closed pieces of a chunk or more
        cuts = np.unique(at[np.searchsorted(at, [*range(CHUNK_LINES, p, CHUNK_LINES), p])]).tolist()
        del open_, reach, closed, at  # before the edges' arrays
        src[lost] = p  # a lost fact's row: one never placed
        edge = (dst < p) & (src >= 0) & (src != dst)
        s, d = src[edge], dst[edge]
        del src, dst, lost, edge
        indeg = np.bincount(d, minlength=p)
        starts = memoryview(np.append(0, np.cumsum(np.bincount(s, minlength=p))))
        adj = memoryview(d[np.argsort(s, kind="stable")])  # dependents by provider
        del s, d  # before Kahn's loop
        indeg, order = memoryview(indeg), array("i")
        for a, b in zip([0] + cuts, cuts):  # a closed piece: rows a..b - 1
            ready = (np.flatnonzero(np.asarray(indeg)[a: b] == 0) + a).tolist()  # a heap
            while ready:
                i = heapq.heappop(ready)
                order.append(i)
                for k in adj[starts[i]: starts[i + 1]]:
                    indeg[k] -= 1
                    if indeg[k] == 0 and k < b:
                        heapq.heappush(ready, k)
        # the unplaced rows are left, and the facts they provide first lost
        if len(gone := np.flatnonzero(np.asarray(indeg))):
            mine = first[0][np.isin(first[1], gone)]
            self.lost = np.union1d(self.lost, mine[~self._fed(mine)])
            self.left.append(rows[gone])
        return np.asarray(order), p

    def _feed(self, rows: np.ndarray, order: np.ndarray) -> None:
        """Feed `rows[order]` in chunks of CHUNK_LINES, with their parsed steps."""
        for lo in range(0, len(order), CHUNK_LINES):
            part = rows[order[lo: lo + CHUNK_LINES]]
            lines = part[:, 8].tolist()
            self.run.feed(lines, self.read, part[:, :8], {
                j: self.steps.pop(n) for j, n in enumerate(lines) if n in self.steps}
                if self.steps else {})


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
    """Feed every line of the file to `run`, in file order or, with
    `reorder`, in topological order (see `_Reorder`), read in a forked child
    where the module docstring says."""
    ph = run.phases
    for name in ("read", "columns", "reference"):  # a forked child's phases, in order
        ph.add(name, time.monotonic())
    st = os.stat(path)
    chunks = (forked(partial(_chunks, path), ph, lambda chunk: len(chunk[2]))
              if st.st_size > CHUNK_LINES << 6 or not stat.S_ISREG(st.st_mode)
              else _chunks(path, ph))
    try:
        add = _Reorder(run).add if reorder else lambda chunk: run.feed(*chunk)
        for chunk in chain(chunks, [None] * reorder):  # then end of file, to sort
            add(chunk)
    finally:
        chunks.close()


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
    reporting them as logical violations. `reorder` checks the steps in a
    topological order, sorted as the lines are read (see `_Reorder`). With
    `spot_check` K > 0, an accepted report also carries the spot check of K
    seeded sample steps, drawn in the same pass and validated again by the
    reference rules with Miller-Rabin primality; a sampled step they reject
    raises RuntimeError. The report's `phases` (outside `to_dict()`) give
    each phase's seconds, count and peak RSS; the reference phase counts the
    lines it parsed or validated.
    """
    if claimed_bound < 0:
        raise ValueError(f"claimed bound must be >= 0, got {claimed_bound}")
    t0 = time.monotonic()
    run = _Pass(spot_check, seed, claimed_bound + 1)
    boot = _bootstrap(run.faults)
    run.phases.add("bootstrap", t0, boot["facts_pinned"])
    _scan(path, run, reorder)
    t = time.monotonic()
    gaps = run.facts.gaps(claimed_bound)
    violations = _report(run.faults, run.facts.provided, gaps)
    stats = {
        "steps": run.steps,
        "distinct_facts": run.facts.distinct,
        "topological_depth": run.max_depth,
        "claimed_bound": claimed_bound,
        "coverage_gap_count": sum(hi - lo + 1 for lo, hi in gaps),
        "violation_counts": dict(sorted(Counter(v.code for v in violations).items())),
        "reordered": reorder,
        "elapsed_s": round(time.monotonic() - t0, 3),
    }
    t = run.phases.add("report", t, len(violations))
    spot = run.sample.spot_check() if not violations and spot_check > 0 else None
    if spot:
        run.phases.add("spot_check", t, spot["sampled"])
    return CheckReport(not violations, violations, gaps, stats, boot, spot,
                       run.phases.to_dict())


def _bootstrap(violations: list[Violation]) -> dict:
    """Replay the base case and return its report block; add a violation
    if a hint fails (see `basecase`)."""
    try:
        table = replay()
    except ValueError as exc:
        violations.append(Violation(BOOTSTRAP_FAILED, f"bootstrap failed: {exc}"))
        return {"facts_pinned": 0, "surviving_branches": None}
    return {"facts_pinned": len(table), "surviving_branches": 1}


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
    return run.sample.spot_check()
