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

The file is read once, in chunks of CHUNK_LINES lines: in binary while a
chunk is ASCII without a carriage return, then with the text-mode line
iteration of `model.iter_steps` (so line numbers, universal newlines and
decode errors are the reference's). Each line takes one of two paths:

  fast path   a line in a layout `serialize_step` writes (any kind, at most
              three prereqs, no meta or a policy tag) whose integers have at
              most 9 digits and no leading zero. A line's shape (its bytes
              with every run of digits written as one 0) names its layout
              exactly; the chunk's integers are read in one call, and the
              rows are validated with numpy for the whole chunk at once.
              Nine digits keep every product exact in int64; longer
              integers could wrap around and forge a valid row.
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
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
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
    parse_step,
    serialize_step,
    validate_step,
)
from .primes import MAX_Q, MIN_Q, PrimeTable, build_prime_table, is_prime

CHUNK_LINES = 1 << 14
# bytes.translate tables: every non-digit to a space; every digit to "0"
_SPACED = bytes(c if 48 <= c <= 57 else 32 for c in range(256))
_ZEROED = bytes(48 if 48 <= c <= 57 else c for c in range(256))
_TENS = 10 ** np.arange(1, 10, dtype=np.int64)
# Columns of _columns(): kind, n, x (a | product | p), y (b | divisor | q),
# target (1..4 in SLOTS order), prereqs. Kinds: -1 not canonical, 0 base,
# 1 coprime_product, 2 coprime_quotient, 3 parallelogram.
_KIND, _N, _X, _Y, _T = range(5)
_PRE = slice(5, 8)


def _layouts() -> tuple[dict[bytes, int], np.ndarray]:
    """The canonical line layouts by shape (serialize_step's text for a step
    whose integers are all 0), and a table row per layout: kind, target,
    count of integers, then the positions among them of n, x, y and three
    prereqs (-1 when absent). A last row stands for any other line."""
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
            table.append([min(i, 3), i - 2 if i > 2 else -1, first + k, 0,
                          *((1, 2) if i else (-1, -1)),
                          *(first + j if j < k else -1 for j in range(3))])
    return shapes, np.array(table + [[-1, -1, 0] + [-1] * 6], dtype=np.int64)


_SHAPES, _LAYOUT = _layouts()
_DEEP = 255  # a depth table entry whose depth is held in `_Pass.deep`


@dataclass
class CheckReport:
    accepted: bool
    violations: list[Violation]
    coverage_gaps: list[list[int]]  # [lo, hi] runs of unjustified facts
    stats: dict
    bootstrap: dict
    spot_check: dict | None = None

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "violations": [v.to_dict() for v in self.violations],
            "coverage_gaps": list(self.coverage_gaps),
            "stats": dict(self.stats),
            "bootstrap": dict(self.bootstrap),
        }


def _columns(data: bytes) -> np.ndarray:
    """One int64 row per line of `data` (see the column constants); -1
    marks an absent field, and a line that is not canonical has kind -1."""
    if not data.endswith(b"\n"):
        data += b"\n"
    zeroed = np.frombuffer(data.translate(_ZEROED), dtype=np.uint8)
    digit = zeroed == 48
    keep = np.ones(len(zeroed), dtype=bool)
    keep[1:] = ~(digit[1:] & digit[:-1])  # drop all but a run's first digit
    shape = zeroed[keep]
    shapes = shape.tobytes().split(b"\n")[:-1]
    lay = _LAYOUT[np.fromiter(map(_SHAPES.get, shapes, repeat(-1)),
                              dtype=np.intp, count=len(shapes))]
    counts = lay[:, 2].copy()  # integers per line
    other = np.flatnonzero(lay[:, _KIND] < 0)
    counts[other] = [shapes[i].count(b"0") for i in other.tolist()]
    ends = np.cumsum(counts)
    # every integer in order (a run past int64 saturates), then the -1
    # that absent fields read
    ints = np.fromstring(data.translate(_SPACED), dtype=np.int64, sep=" ")
    ints = np.append(ints[: ends[-1]], -1)
    pos = lay[:, 3:]
    vals = ints[np.where(pos >= 0, (ends - counts)[:, None] + pos, -1)]
    # the digits each line loses to its shape against those its values need
    # differ on a leading zero; a run of 10+ digits reads as >= 10^9
    lost = np.diff(np.flatnonzero(zeroed == 10) - np.flatnonzero(shape == 10), prepend=0)
    exact = lost == np.searchsorted(_TENS, vals, side="right").sum(axis=1)
    out = np.empty((len(shapes), 8), dtype=np.int64)
    out[:, [_KIND, _T]] = lay[:, :2]
    out[:, [_N, _X, _Y, 5, 6, 7]] = vals
    out[~exact | (vals.max(axis=1) >= 10**9)] = -1
    return out


def _rows(
    lines: list[bytes], data: bytes, line_nos: Sequence[int]
) -> tuple[np.ndarray, dict[int, CertificateStep]]:
    """The columns of a chunk (`data` is its lines joined), and the parsed
    step of each non-blank line that is not canonical, by row."""
    cols = _columns(data)
    texts = {i: lines[i].decode() for i in np.flatnonzero(cols[:, _KIND] < 0).tolist()}
    return cols, {i: parse_step(t, line_nos[i]) for i, t in texts.items() if t.strip()}


def _step(row: np.ndarray) -> CertificateStep:
    """The step of a canonical row of `_columns`, without its meta."""
    kind, n, x, y, t, *pre = row.tolist()
    just = (Base() if kind == 0 else CoprimeProduct(x, y) if kind == 1
            else CoprimeQuotient(x, y) if kind == 2 else ParallelogramClose(x, y, SLOTS[t - 1]))
    return CertificateStep(n, just, tuple(v for v in pre if v >= 0))


def _arith_ok(cols: np.ndarray, prime: np.ndarray) -> np.ndarray:
    """Rows for which validate_step would report nothing but establishment:
    the kind's arithmetic holds and the listed prereqs are exactly the
    demanded set, without repeats. `prime` tells, per row, whether x and y
    are prime. Values are below 10^9, so int64 is exact."""
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
            prime.all(axis=1) & (x >= y) & (slot == n),
        ],
        False,
    )
    return arith & no_repeats & (listed == demanded).all(axis=1)


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
        `cols, steps` are the chunk's `_rows`."""
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
        xy = np.where(kind[:, None] == 3, cols[:, [_X, _Y]], 0)
        clean = _arith_ok(cols, self._is_prime(xy))
        clean[erow[~base_range & (fr >= erow)]] = False
        todo = active[~clean[active]].tolist()
        rows = dict(zip(new_facts.tolist(), new_rows.tolist())) if todo else {}
        for i in todo:
            step = steps.get(i) or _step(cols[i])
            established = partial(self._before, rows=rows, row=i)
            for v in validate_step(step, established, is_prime, line=line_nos[i]):
                (self.deferred if v.establishment else self.immediate).append(v)

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

    def _sample(self, line_nos, cols, steps, eligible: list[int]) -> None:
        """Priority sampling: every eligible (non-base) step draws a seeded
        uniform key and the sample_size smallest keys so far are kept."""
        self.eligible += len(eligible)
        if self.sample_size <= 0 or not eligible:
            return
        keys = np.concatenate([self.sample_keys, _random_keys(self.rng, len(eligible))])
        keep = np.arange(len(keys))
        if len(keys) > self.sample_size:
            keep = np.sort(np.argpartition(keys, self.sample_size - 1)[: self.sample_size])
        old = len(self.sample)  # keep is sorted: old entries come first
        self.sample = [self.sample[j] for j in keep.tolist() if j < old] + [
            (line_nos[i], steps.get(i) or _step(cols[i]))
            for i in (eligible[j - old] for j in keep.tolist() if j >= old)]
        self.sample_keys = keys[keep]

    # -- results ----------------------------------------------------------------

    def report(self, bound: int) -> tuple[list[Violation], list[list[int]]]:
        violations = list(self.immediate)
        for v in self.deferred:
            later = self._before(v.value, {}, 0)  # v.value is above the base range
            violations.append(Violation(
                CYCLE if later else MISSING_PREREQ,
                f"prerequisite {v.value} is justified only on a later line"
                " (line order must be topological)" if later
                else f"prerequisite {v.value} is never justified",
                line=v.line, fact=v.fact, value=v.value))
        violations.sort(key=lambda v: (v.line or 0, v.code, v.detail))
        # the facts 1..bound no step provides, as [lo, hi] runs: of `depth`
        # below `size`, then between the sorted facts of `ids` above it
        miss = np.flatnonzero(self.depth[1: min(bound, self.size - 1) + 1] == 0) + 1
        cut = np.flatnonzero(np.diff(miss) > 1)
        gaps = np.column_stack([np.r_[miss[:1], miss[cut + 1]],
                                np.r_[miss[cut], miss[-1:]]]).tolist()
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


def _read_chunks(path: str) -> Iterator[tuple[list[bytes], bytes]]:
    """The file's lines, each with its newline, in CHUNK_LINES batches, and
    each batch joined. Lines are read in binary while a batch is ASCII
    without a carriage return. From the first batch that is not, the rest
    of the file is read as iter_steps reads it (universal newlines; a decode
    error is raised only after the lines before it were handed out, so a
    malformed line before it is reported first) and re-encoded."""
    done = 0  # lines handed out
    with open(path, "rb") as fh:
        while lines := list(islice(fh, CHUNK_LINES)):
            data = b"".join(lines)
            if not data.isascii() or b"\r" in data:
                break
            yield lines, data
            done += len(lines)
        else:
            return
    with open(path, "r", encoding="utf-8") as fh:
        lines = []
        try:
            for line in islice(fh, done, None):
                lines.append(line.encode())
                if len(lines) == CHUNK_LINES:
                    yield lines, b"".join(lines)
                    lines = []
        except ValueError:
            if lines:
                yield lines, b"".join(lines)
            raise
        if lines:
            yield lines, b"".join(lines)


def _toposort(cols: np.ndarray, steps: dict[int, CertificateStep]) -> np.ndarray:
    """Kahn's algorithm over kept lines (`_rows` columns, parsed steps by
    line) in int32 CSR arrays, keyed on first-provider lines, smallest
    original index first; unsortable steps (true cycles) are appended in
    original order so validation reports them. A prereq listed twice gives
    two edges, both removed when its provider is placed: the same order."""
    n = len(cols)
    # parsed values of 2^62 and above may not fit in int64: number them
    big = {v for s in steps.values() for v in (s.fact, *s.prereqs) if v >= 1 << 62}
    key = {v: (1 << 62) + j for j, v in enumerate(big)}
    facts = cols[:, _N].astype(np.int64)
    facts[list(steps)] = [key.get(s.fact, s.fact) for s in steps.values()]
    cited = cols[:, _PRE] >= 0
    pairs = np.array([(i, key.get(v, v)) for i, s in steps.items() for v in s.prereqs],
                     dtype=np.int64).reshape(-1, 2)
    rows = np.append(np.flatnonzero(cited) // 3, pairs[:, 0])
    cites = np.append(cols[:, _PRE][cited], pairs[:, 1])
    uniq, first = np.unique(facts, return_index=True)
    loc = np.searchsorted(uniq, cites)
    hit = np.append(uniq, -1)[loc] == cites
    src, dst = first[loc[hit]].astype(np.int32), rows[hit].astype(np.int32)
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


def _scan(path: str, run: _Pass, reorder: bool) -> None:
    """Feed every line of the file to `run`, in file or topological order.
    With `reorder`, the rows of the non-blank lines are kept from the read
    (int32 columns, as fields have <= 9 digits, then the line number) with
    the parsed steps of those that are not canonical, and fed in sorted
    order, so no line is put into columns or parsed twice."""
    blocks: list[np.ndarray] = [np.zeros((0, 9), dtype=np.int32)]
    steps: dict[int, CertificateStep] = {}  # kept row -> parsed step
    read = kept = 0
    for chunk, data in _read_chunks(path):
        nos = range(read + 1, read + 1 + len(chunk))
        read += len(chunk)
        cols, parsed = _rows(chunk, data, nos)
        if not reorder:
            run.feed(nos, read, cols, parsed)
            continue
        keep = np.union1d(np.flatnonzero(cols[:, _KIND] >= 0), list(parsed)).astype(np.intp)
        steps.update((kept + j, parsed[i]) for j, i in enumerate(keep.tolist()) if i in parsed)
        kept += len(keep)
        blocks.append(np.column_stack([cols[keep], nos[0] + keep]).astype(np.int32))
    rows = np.concatenate(blocks)
    del blocks  # the per-chunk copies, before the sort's peak
    order = _toposort(rows, steps)
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
    sampled step they reject raises RuntimeError.
    """
    if claimed_bound < 0:
        raise ValueError(f"claimed bound must be >= 0, got {claimed_bound}")
    t0 = time.monotonic()
    run = _Pass(spot_check, seed)
    boot = _bootstrap(run.immediate)
    _scan(path, run, reorder)
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
    spot = run.spot_check() if not violations and spot_check > 0 else None
    return CheckReport(not violations, violations, gaps, stats, boot, spot)


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
