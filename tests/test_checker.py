"""Independent verification: fault injection for every rejection code."""

import json
import random

import pytest

from quadcert import model as M
from quadcert.checker import _columns as checker_columns
from quadcert.checker import check_store, spot_check_numeric
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
    assert report.coverage_gaps == [21, 22, 23, 24, 25]
    gap_viols = [v for v in report.violations if v.code == M.COVERAGE_GAP]
    assert {v.value for v in gap_viols} == {21, 22, 23, 24, 25}
    assert report.stats["coverage_gap_count"] == 5


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


def test_fast_path_takes_nine_digit_integers_only():
    # ten digits could wrap int64 products, so such a line must
    # leave the fast path for the exact reference path
    line = '{"n":%d,"just":{"type":"coprime_product","a":%d,"b":%d},"prereqs":[%d,%d]}\n'
    nine = checker_columns([line % (999999999, 3, 333333333, 3, 333333333)])
    ten = checker_columns([line % (4294967296, 4294967296, 4294967297,
                                   4294967296, 4294967297)])
    assert nine[0, 0] == 1 and nine[0, 1] == 999999999
    assert ten[0, 0] == -1


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
    assert report.coverage_gaps == [1, 2, 3]
    assert report.stats["steps"] == 0


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


def test_report_to_dict_round_trips_json(write_cert):
    rows = base_rows() + [_product(24, 2, 12)]
    report = check_store(write_cert(rows), 20)
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["accepted"] is False
    assert back["violations"][0]["code"] == M.NOT_COPRIME
