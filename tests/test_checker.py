"""Independent verification: fault injection for every rejection code."""

import dataclasses
import json
import math
import random
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from quadcert import checker
from quadcert import model as M
from quadcert.bootstrap import BootstrapError
from quadcert.checker import _columns as checker_columns
from quadcert.checker import check_store, spot_check_numeric
from quadcert.engine import certify_range
from quadcert.model import CertificateFormatError
from tests.conftest import base_rows


def _codes(report):
    return {v.code for v in report.violations}


def _product(n, a, b, prereqs=None):
    return {
        "n": n,
        "just": {"type": "coprime_product", "a": a, "b": b},
        "prereqs": [a, b] if prereqs is None else prereqs,
    }


def _quotient(n, product, divisor):
    return {
        "n": n,
        "just": {"type": "coprime_quotient", "product": product, "divisor": divisor},
        "prereqs": [divisor, product],
    }


def _close(n, p, q, target, prereqs):
    return {
        "n": n,
        "just": {"type": "parallelogram", "p": p, "q": q, "target": target},
        "prereqs": prereqs,
    }


# ---------------------------------------------------------------------------
# a genuine certificate is accepted; every fault below is detected
# ---------------------------------------------------------------------------


def test_genuine_certificate_accepted(cert_2k):
    report = check_store(cert_2k["path"], cert_2k["limit"])
    assert report.accepted
    assert report.violations == []
    assert report.coverage_gaps == []
    st = report.stats
    assert st["steps"] == cert_2k["stats"].steps
    assert st["distinct_facts"] == st["steps"]
    assert st["coverage_gap_count"] == 0
    assert st["claimed_bound"] == 2000
    assert st["topological_depth"] >= 2


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_genuine_lines_never_reach_the_reference_path(cert_2k, tmp_path, newline):
    # a CRLF copy is read in text mode and re-encoded, then takes the same
    # fast path; any parse_step call would mean a genuine row left it
    with open(cert_2k["path"], encoding="utf-8", newline="") as fh:
        text = fh.read()
    path = tmp_path / "genuine.jsonl"
    path.write_bytes(text.replace("\n", newline).encode())
    calls = []

    def counting(line, line_no):
        calls.append(line_no)
        return M.parse_step(line, line_no)

    with mock.patch.object(checker, "parse_step", counting):
        report = check_store(str(path), cert_2k["limit"], spot_check=0)
    assert report.accepted
    assert calls == []


def test_duplicate_fact(write_cert):
    path = write_cert(base_rows() + [_product(21, 3, 7), _product(21, 3, 7)])
    report = check_store(path, 21)
    assert not report.accepted
    dups = [v for v in report.violations if v.code == M.DUPLICATE_FACT]
    assert len(dups) == 1 and dups[0].line == 23 and dups[0].fact == 21


def test_cycle_forward_reference(write_cert):
    rows = base_rows() + [_quotient(25, 50, 2), _product(50, 2, 25)]
    report = check_store(write_cert(rows), 25)
    assert not report.accepted
    cyc = [v for v in report.violations if v.code == M.CYCLE]
    assert len(cyc) == 1
    assert cyc[0].line == 22 and cyc[0].fact == 25 and cyc[0].value == 50
    assert "later line" in cyc[0].detail


def test_missing_prereq_never_justified(write_cert):
    rows = base_rows() + [_quotient(25, 50, 2)]
    report = check_store(write_cert(rows), 25)
    missing = [v for v in report.violations if v.code == M.MISSING_PREREQ]
    assert len(missing) == 1
    assert missing[0].value == 50 and "never justified" in missing[0].detail


def test_missing_prereq_not_listed(write_cert):
    rows = base_rows() + [_product(22, 2, 11, prereqs=[2])]
    report = check_store(write_cert(rows), 22)
    missing = [v for v in report.violations if v.code == M.MISSING_PREREQ]
    assert len(missing) == 1
    assert missing[0].value == 11 and "not listed" in missing[0].detail


def test_not_coprime(write_cert):
    rows = base_rows() + [_product(24, 2, 12)]
    report = check_store(write_cert(rows), 20)
    assert _codes(report) == {M.NOT_COPRIME}
    assert not report.accepted


def test_wrong_product(write_cert):
    rows = base_rows() + [_product(22, 3, 7)]
    report = check_store(write_cert(rows), 22)
    assert M.WRONG_PRODUCT in _codes(report)


def test_p_not_prime(write_cert):
    rows = base_rows() + [_close(14, 9, 5, "sum", [4, 9, 5])]
    report = check_store(write_cert(rows), 14)
    assert M.P_NOT_PRIME in _codes(report)


def test_q_not_prime(write_cert):
    rows = base_rows() + [_close(20, 11, 9, "sum", [2, 11, 9])]
    report = check_store(write_cert(rows), 20)
    assert M.Q_NOT_PRIME in _codes(report)


def test_p_less_than_q(write_cert):
    rows = base_rows() + [_close(16, 3, 13, "sum", [3, 13, 10])]
    report = check_store(write_cert(rows), 16)
    assert M.P_LESS_THAN_Q in _codes(report)


def test_slot_mismatch(write_cert):
    rows = base_rows() + [_close(15, 11, 3, "sum", [8, 11, 3])]
    report = check_store(write_cert(rows), 15)
    assert M.SLOT_MISMATCH in _codes(report)


def test_inexact_division(write_cert):
    rows = base_rows() + [_product(51, 3, 17), _quotient(25, 51, 2)]
    report = check_store(write_cert(rows), 20)
    # the only defect: 51 is justified and gcd(2, 25) = 1
    assert _codes(report) == {M.INEXACT_DIVISION}


def test_coverage_gap(write_cert):
    report = check_store(write_cert(base_rows()), 25)
    assert not report.accepted
    assert report.coverage_gaps == [[21, 25]]
    gap_viols = [v for v in report.violations if v.code == M.COVERAGE_GAP]
    assert [(v.value, v.detail) for v in gap_viols] == [(21, "no step justifies facts 21..25")]
    assert report.stats["coverage_gap_count"] == 5
    assert report.stats["violation_counts"] == {M.COVERAGE_GAP: 1}


def test_base_out_of_range(write_cert):
    rows = base_rows() + [{"n": 21, "just": {"type": "base"}, "prereqs": []}]
    report = check_store(write_cert(rows), 21)
    assert M.BASE_OUT_OF_RANGE in _codes(report)


def test_bad_factor(write_cert):
    rows = base_rows() + [_product(22, 1, 22)]
    report = check_store(write_cert(rows), 22)
    assert M.BAD_FACTOR in _codes(report)


def test_self_reference_is_a_cycle(write_cert):
    # 22 listing itself as a prerequisite is a one-step cycle
    rows = base_rows() + [_product(22, 1, 22)]
    report = check_store(write_cert(rows), 22)
    cyc = [v for v in report.violations if v.code == M.CYCLE]
    assert len(cyc) == 1 and cyc[0].value == 22


def test_quotient_by_one_citing_itself_is_a_cycle(write_cert):
    # 22 = 22 / 1 passes every arithmetic rule but cites its own fact
    report = check_store(write_cert(base_rows() + [_quotient(22, 22, 1)]), 20)
    assert _codes(report) == {M.CYCLE}


def test_fact_above_the_fact_table_counts_for_coverage(write_cert):
    # 9991 is far above 4 * (lines read) + 64, so it never indexes itself
    report = check_store(write_cert(base_rows() + [_product(9991, 97, 103)]), 10_000)
    assert report.coverage_gaps == [[21, 9990], [9992, 10000]]
    assert report.stats["coverage_gap_count"] == 10_000 - 21


@pytest.mark.parametrize("chunk", [1, 1 << 14])
def test_depth_comes_from_the_first_provider_across_chunks(write_cert, chunk):
    # 21 is justified at depth 2, then again at depth 4; 42 cites it, so
    # it sits at depth 3 and the deepest step is the duplicate
    rows = base_rows() + [_product(21, 3, 7), _product(22, 2, 11),
                          _product(462, 21, 22), _quotient(21, 462, 22),
                          _product(42, 2, 21)]
    with mock.patch.object(checker, "CHUNK_LINES", chunk):
        report = check_store(write_cert(rows), 20)
    assert _codes(report) == {M.DUPLICATE_FACT}
    assert report.stats["topological_depth"] == 4


def test_fast_path_takes_nine_digit_integers_only():
    # ten digits could wrap int64 products, so such a line must
    # leave the fast path for the exact reference path
    line = '{"n":%d,"just":{"type":"coprime_product","a":%d,"b":%d},"prereqs":[%d,%d]}\n'
    nine = checker_columns((line % (999999999, 3, 333333333, 3, 333333333)).encode())
    ten = checker_columns((line % (4294967296, 4294967296, 4294967297,
                                   4294967296, 4294967297)).encode())
    assert nine[0, 0] == 1 and nine[0, 1] == 999999999
    assert ten[0, 0] == -1


def test_step_from_columns_is_the_parsed_step_without_meta():
    # every canonical layout, its integers filled with random 1-9 digit values
    rng = random.Random(7)
    forms = set()
    for shape in checker._SHAPES:
        for _ in range(20):
            line = re.sub("0", lambda _: str(rng.randrange(1, 10**rng.randint(1, 9))),
                          shape.decode())
            step = checker._step(checker_columns(line.encode())[0])
            parsed = M.parse_step(line, 1)
            assert step == dataclasses.replace(parsed, meta=None), line
        forms.add((type(parsed.just), getattr(parsed.just, "target", None),
                   len(parsed.prereqs), str(parsed.meta)))
    assert len(forms) == (3 + len(M.SLOTS)) * 4 * 3


def test_extra_prereq(write_cert):
    rows = base_rows() + [_product(21, 3, 7, prereqs=[3, 7, 5])]
    report = check_store(write_cert(rows), 21)
    assert _codes(report) == {M.EXTRA_PREREQ}


def test_huge_p_is_a_logical_violation(write_cert):
    # p >= 2^64 cannot be tested for primality: reported, and the scan goes on
    p = 2**64 + 13
    rows = base_rows() + [_close(23, p, 23, "q", [p + 23, p - 23, p])]
    report = check_store(write_cert(rows), 20)
    assert not report.accepted
    assert _codes(report) == {M.UNSUPPORTED_INTEGER, M.MISSING_PREREQ}
    missing = [v for v in report.violations if v.code == M.MISSING_PREREQ]
    assert len(missing) == 3 and all(v.line == 22 for v in missing)


def test_wrapping_int64_product_is_rejected(tmp_path):
    # (2^32 + 1)(2^32 + 3) wraps to 17179869187 in int64; the fast path must
    # not see it, and the exact path must reject it
    a, b = 2**32 + 1, 2**32 + 3
    rows = base_rows() + [_product(17179869187, a, b)]
    path = tmp_path / "wrap.jsonl"
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n"
                            for r in rows), encoding="utf-8")
    assert M.WRONG_PRODUCT in _codes(check_store(str(path), 20))


def test_overlong_integer_is_a_format_error(tmp_path):
    path = tmp_path / "long.jsonl"
    path.write_text('{"n":0,"just":{"type":"base"},"prereqs":[]}\n'
                    '{"n":' + "9" * 4301 + ',"just":{"type":"base"},'
                    '"prereqs":[]}\n', encoding="utf-8")
    with pytest.raises(CertificateFormatError) as exc:
        check_store(str(path), 1)
    assert exc.value.line_no == 2


def test_every_canonical_code_is_distinct():
    assert len(set(M.CANONICAL_CODES)) == 11


def test_violations_sorted_and_reported_together(write_cert):
    # one file, three independent defects: all reported, ordered by line
    rows = (
        base_rows()
        + [
            _product(12, 2, 6),            # line 22: not coprime
            _product(22, 3, 7),            # line 23: wrong product
            _quotient(25, 50, 2),          # line 24: 50 never justified
        ]
    )
    report = check_store(write_cert(rows), 22)
    lines = [v.line for v in report.violations if v.code != M.COVERAGE_GAP]
    assert lines == sorted(lines)
    assert {M.NOT_COPRIME, M.WRONG_PRODUCT, M.MISSING_PREREQ} <= _codes(report)


# ---------------------------------------------------------------------------
# reordering
# ---------------------------------------------------------------------------


def test_reorder_recovers_shuffled_file(cert_2k, tmp_path):
    with open(cert_2k["path"], encoding="utf-8") as fh:
        lines = fh.readlines()
    rng = random.Random(7)
    rng.shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines), encoding="utf-8")
    strict = check_store(str(shuffled), cert_2k["limit"])
    assert not strict.accepted
    assert M.CYCLE in _codes(strict)
    fixed = check_store(str(shuffled), cert_2k["limit"], reorder=True)
    assert fixed.accepted and fixed.violations == []
    assert fixed.stats["reordered"] is True


def test_reorder_keeps_genuine_acceptance(cert_2k):
    report = check_store(cert_2k["path"], cert_2k["limit"], reorder=True)
    assert report.accepted


def test_reorder_cannot_rescue_true_cycles(write_cert):
    # 25 needs 50 and 50 needs 25: no ordering fixes this
    rows = base_rows() + [
        _quotient(25, 50, 2),
        {"n": 50, "just": {"type": "coprime_product", "a": 2, "b": 25},
         "prereqs": [2, 25]},
    ]
    report = check_store(write_cert(rows), 25, reorder=True)
    assert not report.accepted
    assert M.CYCLE in _codes(report) or M.MISSING_PREREQ in _codes(report)


# ---------------------------------------------------------------------------
# interface errors
# ---------------------------------------------------------------------------


def test_negative_bound_rejected(cert_2k):
    with pytest.raises(ValueError):
        check_store(cert_2k["path"], -1)


def test_malformed_line_raises_format_error(write_cert, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    with pytest.raises(CertificateFormatError):
        check_store(str(bad), 1)


def test_missing_file_raises_oserror():
    with pytest.raises(OSError):
        check_store("/nonexistent/missing.jsonl", 10)


def test_empty_file_is_all_gaps(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("", encoding="utf-8")
    report = check_store(str(p), 3)
    assert not report.accepted
    assert report.coverage_gaps == [[1, 3]]
    assert report.stats["steps"] == 0


# ---------------------------------------------------------------------------
# coverage gaps as ranges
# ---------------------------------------------------------------------------


def _bases(facts):
    return [{"n": n, "just": {"type": "base"}, "prereqs": []} for n in facts]


@pytest.mark.parametrize("extra, bound, want", [
    # one run from below the fact table's size (64 here) to far above it
    ([], 10**9, [[21, 10**9]]),
    ([], 63, [[21, 63]]),
    ([], 64, [[21, 64]]),
    # a fact held above the table splits the run; one above the bound does not
    (_bases([500]), 1000, [[21, 499], [501, 1000]]),
    (_bases([10**12]), 30, [[21, 30]]),
    (_bases([10**12]), 0, []),
    ([], 0, []),
    ([], 20, []),
    ([], 21, [[21, 21]]),
])
def test_gap_ranges(write_cert, extra, bound, want):
    report = check_store(write_cert(base_rows() + extra), bound)
    assert report.coverage_gaps == want
    gaps = [v for v in report.violations if v.code == M.COVERAGE_GAP]
    assert [v.value for v in gaps] == [lo for lo, _ in want]
    assert report.stats["coverage_gap_count"] == sum(hi - lo + 1 for lo, hi in want)
    assert report.accepted == (not want and not extra)


def test_gap_ranges_around_a_fact_at_the_table_size(write_cert):
    # 13 lines leave room for 4 * 13 + 64 = 116 self-indexed facts; 65
    # grows the table to that size, so 116 is held above it
    path = write_cert(_bases(range(11)) + _bases([65, 116]))
    run = checker._Pass()
    checker._scan(path, run, reorder=False)
    assert run.size == 116 and 116 in run.ids
    report = check_store(path, 120)
    assert report.coverage_gaps == [[11, 64], [66, 115], [117, 120]]
    assert [v.detail for v in report.violations if v.code == M.COVERAGE_GAP] == [
        "no step justifies facts 11..64", "no step justifies facts 66..115",
        "no step justifies facts 117..120"]
    assert report.stats["violation_counts"] == {M.BASE_OUT_OF_RANGE: 2, M.COVERAGE_GAP: 3}


def test_single_fact_gap_keeps_the_per_fact_text(write_cert):
    rows = [r for r in base_rows() if r["n"] != 7]
    report = check_store(write_cert(rows), 20)
    assert report.coverage_gaps == [[7, 7]]
    assert [v.detail for v in report.violations] == ["no step justifies fact 7"]


# ---------------------------------------------------------------------------
# the bootstrap runs inside check
# ---------------------------------------------------------------------------


def test_check_reports_the_bootstrap(cert_2k):
    report = check_store(cert_2k["path"], cert_2k["limit"])
    assert report.bootstrap == {"facts_pinned": 20, "surviving_branches": 1}
    assert report.to_dict()["bootstrap"] == report.bootstrap


def test_bootstrap_error_rejects(cert_2k, monkeypatch):
    def boom():
        raise BootstrapError("expected exactly one surviving branch, got 2 of 4")

    monkeypatch.setattr(checker, "solve_bootstrap", boom)
    report = check_store(cert_2k["path"], cert_2k["limit"])
    assert not report.accepted
    assert _codes(report) == {M.BOOTSTRAP_FAILED}
    assert report.bootstrap == {"facts_pinned": 0, "surviving_branches": None}
    assert report.stats["violation_counts"] == {M.BOOTSTRAP_FAILED: 1}


@pytest.mark.parametrize("table, pruned", [
    ({n: n * n for n in range(1, 20)}, 1),            # f(20) not pinned
    ({n: n * n + (n == 7) for n in range(1, 21)}, 1),  # f(7) wrong
    ({n: n * n for n in range(1, 21)}, 0),            # two branches survive
])
def test_bootstrap_with_a_wrong_table_or_branch_count_rejects(cert_2k, monkeypatch,
                                                               table, pruned):
    boot = SimpleNamespace(table=table, leaves=["kept", "pruned"],
                           pruned=["pruned"][:pruned])
    monkeypatch.setattr(checker, "solve_bootstrap", lambda: boot)
    report = check_store(cert_2k["path"], cert_2k["limit"])
    assert _codes(report) == {M.BOOTSTRAP_FAILED}
    assert report.bootstrap == {"facts_pinned": len(table),
                                "surviving_branches": 2 - pruned}


# ---------------------------------------------------------------------------
# numeric spot check
# ---------------------------------------------------------------------------


def test_spot_check_samples_deterministically(cert_2k):
    a = spot_check_numeric(cert_2k["path"], 64, seed=11)
    b = spot_check_numeric(cert_2k["path"], 64, seed=11)
    assert a == b
    assert a["sampled"] == 64 and a["mismatches"] == 0 and a["seed"] == 11


def test_spot_check_drawn_in_the_checking_pass(cert_2k):
    report = check_store(cert_2k["path"], cert_2k["limit"], spot_check=64,
                         seed=11)
    assert report.spot_check == spot_check_numeric(cert_2k["path"], 64, seed=11)


def test_spot_check_skipped_on_rejection(write_cert):
    report = check_store(write_cert(base_rows()), 25, spot_check=8)
    assert not report.accepted and report.spot_check is None


def test_spot_check_sample_depends_on_the_seed(write_cert):
    # one good and one broken eligible step, a sample of one: over 20 seeds
    # the sample must land on each of them at least once
    path = write_cert(base_rows() + [_product(21, 3, 7), _product(22, 3, 7)])
    outcomes = set()
    for seed in range(20):
        try:
            spot_check_numeric(path, 1, seed=seed)
            outcomes.add("clean")
        except RuntimeError:
            outcomes.add("mismatch")
    assert outcomes == {"clean", "mismatch"}


def test_spot_check_sample_does_not_depend_on_chunking(cert_2k, write_cert):
    # every eligible step is broken, so each seed's error names the first
    # line of its sample; merging chunk samples must keep the same lines
    broken = write_cert(base_rows() + [_product(1000 + i, 3, 7) for i in range(200)])

    def outcomes():
        out = [spot_check_numeric(cert_2k["path"], 64, seed=5)]
        for seed in range(10):
            with pytest.raises(RuntimeError) as exc:
                spot_check_numeric(broken, 3, seed=seed)
            out.append(str(exc.value))
        return out

    whole = outcomes()
    with mock.patch.object(checker, "CHUNK_LINES", 16):
        assert outcomes() == whole
    assert len(set(whole[1:])) > 1


def test_sample_keys_are_the_values_of_random():
    for seed in (0, 11, -3, 2**70):
        ref = random.Random(seed)
        want = [ref.random() for _ in range(1000)]
        rng = random.Random(seed)
        got = np.concatenate([checker._random_keys(rng, 1),
                              checker._random_keys(rng, 999)])
        assert got.tolist() == want


def test_spot_check_sample_is_pinned(write_cert):
    # the first sampled line for each seed, as drawing one random() key per
    # step gave it
    broken = write_cert(base_rows() + [_product(1000 + i, 3, 7) for i in range(200)])
    first = []
    for seed in range(10):
        with pytest.raises(RuntimeError) as exc:
            spot_check_numeric(broken, 3, seed=seed)
        first.append(int(str(exc.value).split(":")[0].rsplit(" ", 1)[1]))
    assert first == [62, 35, 130, 28, 117, 48, 26, 100, 86, 26]


def test_spot_check_different_seed_still_clean(cert_2k):
    rep = spot_check_numeric(cert_2k["path"], 128, seed=99)
    assert rep["mismatches"] == 0


def test_spot_check_zero_sample(cert_2k):
    rep = spot_check_numeric(cert_2k["path"], 0)
    assert rep["sampled"] == 0 and rep["mismatches"] == 0


def test_spot_check_caps_at_eligible(write_cert):
    rows = base_rows() + [_product(21, 3, 7)]
    rep = spot_check_numeric(write_cert(rows), 500)
    assert rep["eligible"] == 1  # base steps are not eligible
    assert rep["sampled"] == 1


def test_spot_check_flags_internal_inconsistency(write_cert):
    # an accepted-looking product step that contradicts f(x) = x^2 cannot
    # exist; on a hand-broken file the spot check must blow up loudly
    rows = base_rows() + [_product(22, 3, 7)]  # 3 * 7 != 22
    with pytest.raises(RuntimeError):
        spot_check_numeric(write_cert(rows), 8)


def test_spot_check_catches_a_fast_path_without_gcd(tmp_path):
    # 2% of the product rows of a genuine certificate become n = p * (n/p)
    # with p^2 | n: right but for coprimality. A fast path that lost its gcd
    # accepts them, and the spot check must then fail for most seeds.
    limit = 30_000
    with open(tmp_path / "genuine.jsonl", "w+", encoding="utf-8", newline="") as fh:
        certify_range(limit, sink=fh)
        fh.seek(0)
        steps = [json.loads(line) for line in fh]
    seen, squareful = set(), []
    for i, s in enumerate(steps):
        n = s["n"]
        p = next((p for p in range(2, math.isqrt(n) + 1) if n % (p * p) == 0), 0)
        if s["just"]["type"] == "coprime_product" and p and {p, n // p} <= seen:
            squareful.append((i, p))
        seen.add(n)
    products = sum(s["just"]["type"] == "coprime_product" for s in steps)
    changed = random.Random(0).sample(squareful, products // 50)
    for i, p in changed:
        n = steps[i]["n"]
        steps[i] = _product(n, p, n // p)
    path = tmp_path / "squareful.jsonl"
    path.write_text("".join(json.dumps(s, separators=(",", ":")) + "\n" for s in steps))

    report = check_store(str(path), limit)
    assert report.stats["violation_counts"] == {M.NOT_COPRIME: len(changed)}
    caught = 0
    with mock.patch.object(np, "gcd", lambda a, b: np.ones_like(a)):
        for seed in range(10):
            try:
                check_store(str(path), limit, spot_check=256, seed=seed)
            except RuntimeError as exc:
                assert "gcd(" in str(exc)
                caught += 1
    assert caught >= 9


def test_report_to_dict_round_trips_json(write_cert):
    rows = base_rows() + [_product(24, 2, 12)]
    report = check_store(write_cert(rows), 20)
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["accepted"] is False
    assert back["violations"][0]["code"] == M.NOT_COPRIME
