"""Differential test of the column-wise checker.

Hypothesis mutates a prefix of the genuine 2k certificate (line swaps,
duplicated, deleted and blank lines, digit flips, 10-digit and >= 2^64
integers, CRLF endings) with chunks small enough that mutations straddle
chunk boundaries. The same steps are written in the canonical layout (fast
path) and the spaced `json.dumps` layout (reference path for every line);
both must give the report of a line-by-line, object-based scan, or raise
CertificateFormatError on the same line.
"""

import json
import os
import tempfile
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


def _object_scan(path, bound, reorder):
    """The checker as a line-by-line scan over parsed step objects."""
    try:
        steps = list(M.iter_steps(path))
    except M.CertificateFormatError as exc:
        return ("format error", exc.line_no)
    if reorder:
        order = checker._toposort([s.fact for _, s in steps],
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
    out += [M.Violation(M.COVERAGE_GAP, f"no step justifies fact {n}", value=n)
            for n in gaps]
    stats = {"steps": len(steps), "distinct_facts": len(seen),
             "topological_depth": max_depth, "claimed_bound": bound,
             "coverage_gap_count": len(gaps), "reordered": reorder}
    return {"accepted": not out, "violations": [v.to_dict() for v in out],
            "coverage_gaps": gaps, "stats": stats}


def _three_ways(rows, chunk, newline="\n", final_newline=True, reorder=False):
    """Reports of the canonical file, of the spaced file, and of the object
    scan; the first two with CHUNK_LINES set to `chunk`."""
    with tempfile.TemporaryDirectory() as tmp:
        fast = os.path.join(tmp, "canonical.jsonl")
        slow = os.path.join(tmp, "spaced.jsonl")
        _write(fast, rows, False, newline, final_newline)
        _write(slow, rows, True, newline, final_newline)
        with mock.patch.object(checker, "CHUNK_LINES", chunk):
            got_fast = _run(fast, BOUND, reorder)
            got_slow = _run(slow, BOUND, reorder)
        return got_fast, got_slow, _object_scan(slow, BOUND, reorder)


@pytest.fixture(scope="module")
def genuine_prefix(cert_2k):
    with open(cert_2k["path"], encoding="utf-8") as fh:
        return [json.loads(line) for _, line in zip(range(PREFIX), fh)]


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(op, max_size=12), chunk=st.sampled_from([3, 16, 64]),
       newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans(),
       reorder=st.booleans())
def test_layouts_agree_with_object_scan(genuine_prefix, ops, chunk, newline,
                                        final_newline, reorder):
    fast, slow, want = _three_ways(_mutate(genuine_prefix, ops), chunk,
                                   newline, final_newline, reorder)
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
