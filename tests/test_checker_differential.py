"""Differential test of the column-wise checker.

Hypothesis mutates a prefix of the genuine 2k certificate (line swaps,
duplicated, deleted and blank lines, digit flips, 10-digit and >= 2^64
integers, CRLF endings) with chunks small enough that mutations straddle
chunk boundaries. The same steps are written in the canonical layout (fast
path) and the spaced `json.dumps` layout (reference path for every line);
both must give the report of a line-by-line, object-based scan, or raise
CertificateFormatError on the same line.
"""

import heapq
import json
import os
import random
import tempfile
from typing import Sequence
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quadcert import checker  # noqa: E402
from quadcert import model as M  # noqa: E402
from quadcert.primes import is_prime  # noqa: E402

PREFIX = 400
BOUND = 300
HUGE = [10**9 - 1, 10**9, 10**9 + 7, 2**31, 2**63 - 1, 2**63, 2**64 + 13,
        10**30]

idx = st.integers(0, PREFIX - 1)
op = st.one_of(
    st.tuples(st.just("swap"), idx, idx),
    st.tuples(st.just("dup"), idx, idx),
    st.tuples(st.just("delete"), idx),
    st.tuples(st.just("digit"), idx, st.integers(0, 99), st.integers(0, 9)),
    st.tuples(st.just("blank"), idx, st.sampled_from(["", " ", "\t"])),
    st.tuples(st.just("int"), idx, st.integers(0, 9), st.sampled_from(HUGE)),
)


def _canonical(row):
    return row if isinstance(row, str) else json.dumps(row, separators=(",", ":"))


def _int_fields(row):
    """(container, key) of every integer in a step dict, in wire order."""
    fields = [(row, "n")]
    fields += [(row["just"], k) for k, v in row["just"].items() if k != "type"
               and isinstance(v, int)]
    fields += [(row["prereqs"], i) for i in range(len(row["prereqs"]))]
    return fields


def _mutate(rows, ops):
    rows = [r if isinstance(r, str) else json.loads(json.dumps(r)) for r in rows]
    for kind, i, *args in ops:
        i %= len(rows)
        if kind == "swap":
            j = args[0] % len(rows)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "dup":
            rows.insert(args[0] % len(rows), rows[i])
        elif kind == "delete" and len(rows) > 1:
            rows.pop(i)
        elif kind == "blank":
            rows.insert(i, args[0])
        elif kind == "digit":
            text = _canonical(rows[i])
            digits = [k for k, c in enumerate(text) if c.isdigit()]
            if digits:
                k = digits[args[0] % len(digits)]
                text = text[:k] + str(args[1]) + text[k + 1:]
                try:
                    rows[i] = json.loads(text)
                except ValueError:
                    rows[i] = text
        elif kind == "cite" and isinstance(rows[i], dict):
            # rows[i] cites the fact of rows[j] (j = args[0]), and with
            # args[1] rows[j] cites that of rows[i] too: a 2-cycle
            j = args[0] % len(rows)
            pair = [(i, j), (j, i)][: 1 + args[1]]
            if all(isinstance(rows[k], dict) for k in (i, j)):
                for a, b in pair:
                    rows[a] = {**rows[a], "prereqs": rows[a]["prereqs"] + [rows[b]["n"]]}
        elif kind == "big" and isinstance(rows[i], dict):
            # rows[i] provides a fact >= 2^64, which rows[j] cites
            j, fact = args[0] % len(rows), 2**64 + i
            rows[i] = {**rows[i], "n": fact}
            if isinstance(rows[j], dict):
                rows[j] = {**rows[j], "prereqs": rows[j]["prereqs"] + [fact]}
        elif kind == "int" and isinstance(rows[i], dict):
            row = json.loads(json.dumps(rows[i]))
            fields = _int_fields(row)
            holder, key = fields[args[0] % len(fields)]
            holder[key] = args[1]
            rows[i] = row
    return rows


def _write(path, rows, spaced, newline, final_newline):
    text = newline.join(
        r if isinstance(r, str) else json.dumps(r) if spaced else _canonical(r)
        for r in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + (newline if final_newline else ""))


def _normal(report):
    blob = report.to_dict()
    blob["stats"].pop("elapsed_s")
    return blob


def _run(path, bound, reorder):
    try:
        return _normal(checker.check_store(path, bound, reorder=reorder))
    except M.CertificateFormatError as exc:
        return ("format error", exc.line_no)


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


def _object_scan(path, bound, reorder):
    """The checker as a line-by-line scan over parsed step objects."""
    try:
        steps = list(M.iter_steps(path))
    except M.CertificateFormatError as exc:
        return ("format error", exc.line_no)
    if reorder:
        order = _toposort([s.fact for _, s in steps],
                          [s.prereqs for _, s in steps])
        steps = [steps[i] for i in order]
    seen, depth, max_depth = set(), {}, 0
    out, deferred = [], []
    for line_no, step in steps:
        if step.fact in seen:
            out.append(M.Violation(M.DUPLICATE_FACT,
                                   f"fact {step.fact} was already justified",
                                   line=line_no, fact=step.fact))
        for v in M.validate_step(step, lambda x: 0 <= x <= M.BASE_LIMIT
                                 or x in seen, is_prime, line=line_no):
            (deferred if v.establishment else out).append(v)
        d = max([1] + [1 + depth.get(pv, 1 if pv <= M.BASE_LIMIT else 0)
                       for pv in step.prereqs])
        depth.setdefault(step.fact, d)
        max_depth = max(max_depth, d)
        seen.add(step.fact)
    for v in deferred:
        if v.value in seen:
            code = M.CYCLE
            detail = (f"prerequisite {v.value} is justified only on a later"
                      " line (line order must be topological)")
        else:
            code, detail = (M.MISSING_PREREQ,
                            f"prerequisite {v.value} is never justified")
        out.append(M.Violation(code, detail, line=v.line, fact=v.fact,
                               value=v.value))
    out.sort(key=lambda v: (v.line or 0, v.code, v.detail))
    gaps = [n for n in range(1, bound + 1) if n not in seen]
    ranges = []  # runs of consecutive gaps
    for n in gaps:
        if ranges and ranges[-1][1] == n - 1:
            ranges[-1][1] = n
        else:
            ranges.append([n, n])
    out += [M.Violation(M.COVERAGE_GAP, f"no step justifies fact {lo}" if lo == hi
                        else f"no step justifies facts {lo}..{hi}", value=lo)
            for lo, hi in ranges]
    counts = {}
    for v in out:
        counts[v.code] = counts.get(v.code, 0) + 1
    stats = {"steps": len(steps), "distinct_facts": len(seen),
             "topological_depth": max_depth, "claimed_bound": bound,
             "coverage_gap_count": len(gaps),
             "violation_counts": dict(sorted(counts.items())), "reordered": reorder}
    return {"accepted": not out, "violations": [v.to_dict() for v in out],
            "coverage_gaps": ranges, "stats": stats,
            "bootstrap": {"facts_pinned": 20, "surviving_branches": 1}}


def _three_ways(rows, chunk, newline="\n", final_newline=True, reorder=False, bound=BOUND):
    """Reports of the canonical file, of the spaced file, and of the object
    scan, for the claimed `bound`; the first two with CHUNK_LINES set to `chunk`."""
    with tempfile.TemporaryDirectory() as tmp:
        fast = os.path.join(tmp, "canonical.jsonl")
        slow = os.path.join(tmp, "spaced.jsonl")
        _write(fast, rows, False, newline, final_newline)
        _write(slow, rows, True, newline, final_newline)
        with mock.patch.object(checker, "CHUNK_LINES", chunk):
            got_fast = _run(fast, bound, reorder)
            got_slow = _run(slow, bound, reorder)
        return got_fast, got_slow, _object_scan(slow, bound, reorder)


@pytest.fixture(scope="module")
def genuine_prefix(cert_2k):
    with open(cert_2k["path"], encoding="utf-8") as fh:
        return [json.loads(line) for _, line in zip(range(PREFIX), fh)]


# bounds below the prefix's facts (the pass drops the bound for the lines
# rule), inside them and above them (4 * lines read + 64)
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(op, max_size=12), chunk=st.sampled_from([3, 16, 64]),
       newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans(),
       reorder=st.booleans(), bound=st.one_of(st.integers(0, 100), st.just(BOUND),
                                              st.integers(401, 4000)))
def test_layouts_agree_with_object_scan(genuine_prefix, ops, chunk, newline,
                                        final_newline, reorder, bound):
    fast, slow, want = _three_ways(_mutate(genuine_prefix, ops), chunk,
                                   newline, final_newline, reorder, bound)
    assert fast == want
    assert slow == want


def _product(n, a, b):
    return {"n": n, "just": {"type": "coprime_product", "a": a, "b": b},
            "prereqs": [a, b]}


def _base(n):
    return {"n": n, "just": {"type": "base"}, "prereqs": []}


# Files whose facts outrun the fact arrays (4 * lines read + 64 entries), so
# they live in the dict first and move into the arrays as those grow.
BIG = {
    # a fact of line ~250 first, before the arrays reach it
    "late_line_first": lambda rows: [rows[250]] + rows[:250] + rows[251:],
    # depths carried across chunks by facts held in the dict
    "big_chain": lambda rows: rows[:21] + [
        _product(1000001, 101, 9901), _product(2000002, 2, 1000001),
        _product(6000006, 3, 2000002)],
    "big_duplicate_apart": lambda rows: rows[:21] + [_base(10**12)]
    + rows[21:40] + [_base(10**12)],
}


@pytest.mark.parametrize("chunk", [1, 3, 1 << 14])
@pytest.mark.parametrize("name", sorted(BIG))
def test_dict_held_facts_agree_with_object_scan(genuine_prefix, name, chunk):
    fast, slow, want = _three_ways(BIG[name](genuine_prefix), chunk)
    assert fast == want
    assert slow == want


def _cites(n, prev):
    """A line for fact n citing fact prev (rejected: wrong arithmetic)."""
    return {"n": n, "just": {"type": "coprime_product", "a": prev, "b": 1},
            "prereqs": [prev]}


def _chain(length, offset):
    """The 21 base lines, then `length` lines in which each cites the fact
    of the line before it, then a line for fact 1000, which makes the fact
    table grow, citing the chain's fact of depth 300."""
    facts = [20] + [offset + i for i in range(length)]
    return ([_base(n) for n in range(21)]
            + [_cites(n, prev) for prev, n in zip(facts, facts[1:])]
            + [_cites(1000, facts[299])])


# Depths above 254 live in the overflow dict: facts in the table (offset
# 21) and facts held in `ids`, renumbered when the table grows (10^6).
@pytest.mark.parametrize("reorder", [False, True])
@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("offset", [21, 10**6])
def test_depth_above_254_agrees_with_object_scan(offset, chunk, reorder):
    rows = _chain(320, offset)
    fast, slow, want = _three_ways(rows, chunk, reorder=reorder)
    assert want["stats"]["topological_depth"] == 321
    assert fast["stats"]["topological_depth"] == 321
    assert slow["stats"]["topological_depth"] == 321
    assert fast == want
    assert slow == want


# Line 22 cites its own fact 30, which line 23 provides again. The sort
# ignores the self-citation, so line 23 stays the duplicate.
SELF_CITATION = [_base(n) for n in range(21)] + [
    _cites(30, 30), _product(30, 3, 10)]


@pytest.mark.parametrize("chunk", [1, 64])
@pytest.mark.parametrize("reorder", [False, True])
def test_self_citation_agrees_with_object_scan(reorder, chunk):
    fast, slow, want = _three_ways(SELF_CITATION, chunk, reorder=reorder)
    assert [v["line"] for v in want["violations"]
            if v["code"] == "duplicate_fact"] == [23]
    assert fast == want
    assert slow == want


def _edit(i, *pairs):
    """The prefix with line i's text edited by (old, new) pairs."""
    def build(lines):
        text = lines[i]
        for old, new in pairs:
            text = text.replace(old, new, 1)
        return "".join(lines[:i] + [text] + lines[i + 1:])
    return build


# Raw texts, each a genuine prefix with an edit that either hides a wrong
# integer count or value from a columnizer that deleted digits or trusted
# the integer parser, or puts a line boundary where bytes and text differ.
FORGED = {
    # with their digits deleted, these two read as canonical lines
    "digit_moved_into_type": _edit(201, ('"a":2,', '"a":,'),
                                   ("coprime_product", "coprime_pro2duct")),
    "base_without_n": _edit(5, ('"n":5,', '"n":,'), ("[]", "[5]")),
    # a run of digits that is not one canonical integer
    "leading_zero": _edit(201, ('"a":2,', '"a":02,')),
    "minus_zero": _edit(0, ('"n":0,', '"n":-0,')),
    "plus_sign": _edit(5, ('"n":5,', '"n":+5,')),
    "exponent": _edit(201, ('"b":101', '"b":1e3')),
    **{f"digits_{d}": _edit(201, ('"n":202,', f'"n":{10 ** (d - 1) + 7},'),
                            ("[2,101]", f"[2,{10 ** (d - 1) + 3}]"))
       for d in (10, 19, 20, 25)},
    # blank to str.strip() but not to bytes.strip()
    "control_char_lines": lambda rows: "".join(
        rows[:100] + [c + "\n" for c in "\x0b\x0c\x1c\x1d\x1e\x1f"] + rows[100:]),
    "crlf": lambda rows: "".join(rows).replace("\n", "\r\n"),
    "crlf_only": lambda rows: "\r\n" * 40,
    # one byte line, two text lines; the duplicate at the end reports the
    # line number the reference counts
    "lone_cr": lambda rows: "".join(rows[:150] + [rows[150][:-1] + "\r"]
                                    + rows[151:] + [rows[21]]),
    "non_ascii_middle": lambda rows: "".join(
        rows[:200] + ['{"n":1,"just":{"type":"base"},"prereqs":[],'
                      '"meta":{"note":"\u00e9"}}\n'] + rows[200:] + [rows[21]]),
    "no_final_newline": lambda rows: "".join(rows + [rows[21]]).rstrip("\n"),
}


@pytest.fixture(scope="module")
def genuine_text(cert_2k):
    with open(cert_2k["path"], encoding="utf-8", newline="") as fh:
        return [line for _, line in zip(range(PREFIX), fh)]


@pytest.mark.parametrize("chunk", [1, 3, 16])
@pytest.mark.parametrize("name", sorted(FORGED))
def test_forged_shapes_and_chunk_edges_agree_with_object_scan(genuine_text, tmp_path,
                                                              name, chunk):
    path = tmp_path / "forged.jsonl"
    path.write_bytes(FORGED[name](genuine_text).encode("utf-8"))
    with mock.patch.object(checker, "CHUNK_LINES", chunk):
        got = _run(str(path), BOUND, False)
    assert got == _object_scan(str(path), BOUND, False)


def _fed_lines(path, chunk):
    """The line numbers `_Pass.feed` receives, in order, under
    `check_store(reorder=True)` with CHUNK_LINES set to `chunk`."""
    fed = []
    feed = checker._Pass.feed

    def record(run, line_nos, *args):
        fed.extend(line_nos)
        return feed(run, line_nos, *args)

    with mock.patch.object(checker._Pass, "feed", record), \
            mock.patch.object(checker, "CHUNK_LINES", chunk):
        checker.check_store(path, BOUND, reorder=True)
    return fed


reorder_op = st.one_of(
    st.tuples(st.just("dup"), idx, idx),
    st.tuples(st.just("delete"), idx),
    st.tuples(st.just("blank"), idx, st.sampled_from(["", " "])),
    st.tuples(st.just("cite"), idx, idx, st.integers(0, 1)),
    st.tuples(st.just("big"), idx, idx),
    st.tuples(st.just("int"), idx, st.integers(0, 9), st.sampled_from(HUGE)),
)


# Reports alike do not pin the order the lines are fed in: facts 0..20 taken
# as established before any line report alike on such files, and feed
# another order. Feed order is the oracle's: Kahn's algorithm keyed on each
# fact's first line, base range included.
@settings(max_examples=30, deadline=None)
@given(ops=st.lists(reorder_op, max_size=8), window=st.integers(2, 300),
       seed=st.integers(0, 2**32), chunk=st.sampled_from([1, 2, 7, 1 << 14]))
def test_reorder_feeds_the_oracle_order(genuine_prefix, tmp_path_factory, ops, window,
                                        seed, chunk):
    rows = _mutate(genuine_prefix, ops)
    rng = random.Random(seed)
    for lo in range(0, len(rows), window):  # shuffled within windows
        part = rows[lo: lo + window]
        rng.shuffle(part)
        rows[lo: lo + window] = part
    path = str(tmp_path_factory.mktemp("order") / "c.jsonl")
    _write(path, rows, False, "\n", True)
    steps = list(M.iter_steps(path))
    order = _toposort([s.fact for _, s in steps], [s.prereqs for _, s in steps])
    assert _fed_lines(path, chunk) == [steps[i][0] for i in order]
