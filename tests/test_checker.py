"""Independent verification: fault injection for every rejection code."""

import ast
import dataclasses
import itertools
import json
import math
import pickle
import random
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from quadcert import basecase, checker
from quadcert import model as M
from quadcert.checker import check_store, spot_check_numeric
from quadcert.engine import certify_range
from quadcert.model import CertificateFormatError
from quadcert.phases import Phases
from quadcert.primes import is_prime
from tests.conftest import base_rows


def checker_columns(data):
    """`_columns` of whole lines, with the line ends `_read_chunks` gives."""
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 10)
    return checker._columns(data, ends if data.endswith(b"\n") else np.append(ends, len(data)))


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


@pytest.mark.parametrize("product, divisor, code", [
    (0, 2, M.BAD_FACTOR), (50, 0, M.BAD_FACTOR),
    (125, 5, M.NOT_COPRIME),  # 125 / 5 = 25 exactly; only gcd(5, 25) = 5 fails
], ids=["0-2", "50-0", "125-5"])
def test_quotient_of_zero_is_a_bad_factor_from_the_fast_path(tmp_path, product, divisor, code):
    # canonical lines: the row fails the vectorised checks and is rebuilt
    # from its columns for the reference, which names the fault; none parses
    steps = [M.CertificateStep(i, M.Base(), ()) for i in range(21)]
    steps.append(M.CertificateStep(25, M.CoprimeQuotient(product, divisor), (divisor, product)))
    path = tmp_path / "cert.jsonl"
    path.write_text("".join(map(M.serialize_step, steps)), encoding="utf-8")
    with mock.patch.object(checker, "parse_step", side_effect=AssertionError):
        report = check_store(str(path), 20)
    bad = [v for v in report.violations if v.code == code]
    assert len(bad) == 1 and (bad[0].line, bad[0].fact) == (22, 25)
    assert report.phases["reference"]["count"] == 1


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


@pytest.mark.parametrize("chunk", [1, 1 << 14])
@pytest.mark.parametrize("late", [False, True])
def test_a_base_range_fact_no_earlier_line_provides_sits_at_depth_1(write_cert, chunk, late):
    # 20 is established as a base-range fact whether its base line comes
    # after the line citing it or never, and counts depth 1 either way
    rows = base_rows(19) + [_product(400, 20, 20, [20])] + base_rows()[20:] * late
    with mock.patch.object(checker, "CHUNK_LINES", chunk):
        report = check_store(write_cert(rows), 19)
    assert _codes(report) == {M.NOT_COPRIME}
    assert report.stats["topological_depth"] == 2


def test_fast_path_takes_nine_digit_integers_only():
    # ten digits could wrap int64 products, so such a line must
    # leave the fast path for the exact reference path
    line = '{"n":%d,"just":{"type":"coprime_product","a":%d,"b":%d},"prereqs":[%d,%d]}\n'
    nine = checker_columns((line % (999999999, 3, 333333333, 3, 333333333)).encode())
    ten = checker_columns((line % (4294967296, 4294967296, 4294967297,
                                   4294967296, 4294967297)).encode())
    assert nine[0, 0] == 1 and nine[0, 1] == 999999999
    assert ten[0, 0] == -1


def test_columns_are_stored_fields_first(cert_2k):
    # each field is one contiguous column: as `_columns` returns it, as
    # `_chunks` casts it to int32, and as the parent unpickles and widens it
    data, ends = next(checker._read_chunks(cert_2k["path"]))
    assert checker._columns(data, ends).flags.f_contiguous
    chunks = list(checker._chunks(cert_2k["path"], Phases()))
    assert chunks and all(len(cols) > 1 for _, _, cols, _ in chunks)
    for _, _, cols, _ in chunks:
        assert cols.dtype == np.int32 and cols.flags.f_contiguous
        sent = pickle.loads(pickle.dumps(cols, pickle.HIGHEST_PROTOCOL))
        assert sent.astype(np.int64).flags.f_contiguous


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


def test_columns_read_8_9_and_10_digit_runs_exactly():
    # every uint64 step of the 8-byte parse, under any numpy casting rules
    line = '{"n":%d,"just":{"type":"coprime_product","a":%d,"b":%d},"prereqs":[%d,%d]}\n'
    cols = checker_columns("".join(line % (a * b, a, b, a, b) for a, b in [
        (2, 49382715), (3, 41152263), (999, 1001001), (2, 617283945)]).encode())
    assert cols.dtype == np.int64
    assert cols.tolist() == [[1, 98765430, 2, 49382715, -1, 2, 49382715, -1],
                             [1, 123456789, 3, 41152263, -1, 3, 41152263, -1],
                             [1, 999999999, 999, 1001001, -1, 999, 1001001, -1],
                             [-1] * 8]


def test_columns_keep_exactly_the_canonical_lines():
    # every layout, its integers runs of 1-30 digits, some with leading
    # zeros or at the 9/10-digit edge, some lines with a non-digit put in;
    # the last line has no newline
    rng = random.Random(14)
    edge = ["0", "00", "07", "000000000", "999999999", "1000000000", "9" * 10]

    def number(_):
        r = rng.random()
        if r < 0.15:
            return rng.choice(edge)
        digits = rng.randint(1, 9) if r < 0.9 else rng.randint(10, 30)
        return str(rng.randrange(10 ** (digits - 1), 10 ** digits))

    lines = ["7", "", "{}", "12 34"]
    for shape in checker._SHAPES:
        for _ in range(25):
            line = re.sub("0", number, shape.decode())
            if rng.random() < 0.2:
                k = rng.randrange(len(line) + 1)
                line = line[:k] + rng.choice('x -+.e,"') + line[k:]
            lines.append(line)
    rng.shuffle(lines)
    cols = checker_columns("\n".join(lines).encode())
    kept = 0
    for line, row in zip(lines, cols, strict=True):
        canonical = re.sub(r"\d+", "0", line).encode() in checker._SHAPES and all(
            len(d) <= 9 and (d == "0" or d[0] != "0") for d in re.findall(r"\d+", line))
        assert (row[0] >= 0) == canonical, line
        if canonical:
            step = dataclasses.replace(M.parse_step(line, 1), meta=None)
            assert checker._step(row) == step, line
            kept += 1
    assert kept > 300 and len(lines) - kept > 300


def test_columns_leave_the_fast_path_exactly_on_long_or_zero_led_integers():
    # every layout, each of its integer fields in turn at widths 1-10, with
    # and without a leading zero, the other fields of 1-9 digits: kind -1
    # iff that field has more than 9 digits or a leading zero (the module
    # docstring's rule), else the row is parse_step's step
    rng = random.Random(9)
    lines, odd = [], []
    for shape in checker._SHAPES:
        text = shape.decode()
        for j, width, lead in itertools.product(range(text.count("0")), range(1, 11), "x0"):
            digits = str(rng.randrange(10 ** (width - 1), 10 ** width))
            digits = "0" + digits[1:] if lead == "0" else digits
            fields = iter([str(rng.randrange(1, 10 ** rng.randint(1, 9))) if i != j else digits
                           for i in range(text.count("0"))])
            lines.append(re.sub("0", lambda _: next(fields), text))
            odd.append(width > 9 or width > 1 and lead == "0")
    cols = checker_columns("\n".join(lines).encode() + b"\n")
    assert len(cols) == len(lines) > 84 * 20
    assert (cols[:, 0] < 0).tolist() == odd
    for line, row, leaves in zip(lines, cols, odd):
        if not leaves:
            assert checker._step(row) == dataclasses.replace(M.parse_step(line, 1), meta=None), line


@pytest.mark.parametrize("odd", ["\x00\x00", "\u00e9"])
def test_a_nul_or_non_ascii_byte_in_a_shape_is_not_canonical(tmp_path, odd):
    # every layout filled, and twice more with two of its non-digit bytes
    # replaced by two NUL bytes or by one two-byte character (which is read
    # in text mode), so that the line's shape keeps its length
    rng = random.Random(15)
    lines, want = [], []
    for shape in checker._SHAPES:
        line = re.sub("0", lambda _: str(rng.randint(1, 999)), shape.decode())
        spots = [k for k in range(len(line) - 1) if not re.search(r"\d", line[k: k + 2])]
        lines += [line] + [line[:k] + odd + line[k + 2:] for k in (rng.choice(spots), spots[-1])]
        want += [True, False, False]
    path = tmp_path / "odd.jsonl"
    path.write_bytes("\n".join(lines).encode() + b"\n")
    kinds = np.concatenate([checker._columns(data, ends)[:, 0]
                            for data, ends in checker._read_chunks(str(path))])
    assert (kinds >= 0).tolist() == want


def _chunks(path):
    return [(data, ends.tolist()) for data, ends in checker._read_chunks(str(path))]


def test_chunks_of_short_lines_hold_chunk_lines_at_most(tmp_path):
    rng, path = random.Random(3), tmp_path / "short.jsonl"
    path.write_text("".join(rng.choice(["\n", " \n", "{}\n"])
                            for _ in range(3 * checker.CHUNK_LINES)), encoding="utf-8")
    chunks = _chunks(path)
    assert [len(ends) for _, ends in chunks] == [checker.CHUNK_LINES] * 3
    assert b"".join(data for data, _ in chunks) == path.read_bytes()
    assert all(data[e] == 10 for data, ends in chunks for e in ends)
    with pytest.raises(CertificateFormatError) as got:
        check_store(str(path), 0)
    with pytest.raises(CertificateFormatError) as want:
        list(M.iter_steps(str(path)))
    assert got.value.line_no == want.value.line_no


def test_a_line_longer_than_a_block_is_read_whole(write_cert):
    # with 16-line chunks a block is 1 KiB; the meta makes line 23 ~5 KiB
    note = {"n": 21, "just": {"type": "coprime_product", "a": 3, "b": 7},
            "prereqs": [3, 7], "meta": {"note": "x" * 5000}}
    path = write_cert(base_rows() + [note, _product(22, 2, 11), _product(21, 3, 7)])
    whole = check_store(path, 22)
    with mock.patch.object(checker, "CHUNK_LINES", 16):
        chunks = _chunks(path)
        report = check_store(path, 22)
    assert [len(ends) for _, ends in chunks] == [16, 5, 1, 2]
    assert report.to_dict() | {"stats": None} == whole.to_dict() | {"stats": None}
    assert [(v.code, v.line) for v in report.violations] == [(M.DUPLICATE_FACT, 24)]


@pytest.mark.parametrize("switch", ["crlf", "non_ascii", "lone_cr"])
def test_a_switch_to_text_in_a_later_block_keeps_line_numbers(cert_2k, tmp_path, switch):
    # past the first blocks, lines end in CRLF, or one line carries a
    # non-ASCII meta, or a lone CR splits one byte line in two text lines;
    # line 22's fact is justified again at the end
    with open(cert_2k["path"], encoding="utf-8", newline="") as fh:
        lines = [line for _, line in zip(range(400), fh)]
    if switch == "crlf":
        lines[200:] = [line.replace("\n", "\r\n") for line in lines[200:]]
    elif switch == "non_ascii":
        lines.insert(200, '{"n":1,"just":{"type":"base"},"prereqs":[],"meta":{"note":"é"}}\n')
    else:
        lines[200] = lines[200][:-1] + "\r"
    path = tmp_path / "switch.jsonl"
    path.write_bytes("".join(lines + [lines[21]]).encode("utf-8"))
    with mock.patch.object(checker, "CHUNK_LINES", 16):
        report = check_store(str(path), 300)
    dup = [v.line for v in report.violations if v.code == M.DUPLICATE_FACT]
    last = list(M.iter_steps(str(path)))[-1][0]  # as text mode counts lines
    assert dup == ([201, last] if switch == "non_ascii" else [last])
    assert last == len(lines) + 1  # byte lines number one fewer after a lone CR


def test_a_malformed_line_before_a_decode_error_is_reported_as_iter_steps_does(tmp_path):
    # the malformed line ends before byte 8192, the first step in which text
    # mode decodes, and the bad byte lies past it; the switch to text mode
    # comes at a block start that is not on that grid
    ascii_lines = [json.dumps(r, separators=(",", ":")) + "\n" for r in base_rows()]
    text = ""
    while len(text) < 8000:
        text += ascii_lines[len(text) % 21]
    bad_line = text.count("\n") + 1
    text += '{"n":"é","just":{"type":"base"},"prereqs":[]}\n'
    while len(text.encode()) < 8300:
        text += ascii_lines[0]
    path = tmp_path / "both.jsonl"
    path.write_bytes(text.encode() + b"\xff\n")
    with pytest.raises(CertificateFormatError) as want:
        list(M.iter_steps(str(path)))
    with mock.patch.object(checker, "CHUNK_LINES", 16):
        with pytest.raises(CertificateFormatError) as got:
            check_store(str(path), 20)
    assert got.value.line_no == want.value.line_no == bad_line


def test_values_past_the_str_limit_are_reported_not_raised(write_cert):
    # a parsed integer has at most 4300 digits, but a product or square of
    # two can be too long for str(); its violation still reads as text
    big = 10**2200 + 1
    rows = base_rows() + [_product(22, big, big), _close(big, 5, 3, "sum", [2, 5, 3])]
    report = check_store(write_cert(rows), 20)
    assert {M.WRONG_PRODUCT, M.SLOT_MISMATCH} <= _codes(report)
    assert sum("-bit integer" in v.detail for v in report.violations) == 2


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


@pytest.mark.parametrize("big", [10**6, 2**31 - 3, 2**31, 2**63, 2**64 + 13])
def test_reorder_sorts_facts_of_any_size(write_cert, big):
    # each line cites the fact of the next one; facts of 2^62 and above are
    # keyed apart, as int64 cannot hold them all
    facts = [big + i for i in range(5)]
    rows = base_rows() + [
        {"n": f, "just": {"type": "coprime_product", "a": g, "b": 1}, "prereqs": [g, 1]}
        for f, g in zip(facts, facts[1:] + [7])]
    path = write_cert(rows)
    assert check_store(path, 20).stats["violation_counts"][M.CYCLE] == 4
    report = check_store(path, 20, reorder=True)
    assert M.CYCLE not in _codes(report) and M.MISSING_PREREQ not in _codes(report)
    assert report.stats["topological_depth"] == 6


def test_reorder_holds_lines_after_an_absent_fact_without_sorting_them_again(cert_2k,
                                                                          tmp_path):
    # line 30 cites a fact no line provides, so it and every later line are
    # held until end of file; they are sorted there, not again after each
    # chunk, unless a chunk provides a fact that line waits for
    with open(cert_2k["path"], encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[29] = lines[29].replace("]}", ",1000000]}", 1).replace("],", ",1000000],", 1)
    path = tmp_path / "absent.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    sort, calls = checker._Reorder._sort, []

    def record(self, rows, first, pairs, final):
        calls.append(final)
        return sort(self, rows, first, pairs, final)

    with mock.patch.object(checker._Reorder, "_sort", record), \
            mock.patch.object(checker, "CHUNK_LINES", 16):
        report = check_store(str(path), cert_2k["limit"], reorder=True)
    assert _codes(report) == {M.EXTRA_PREREQ}
    assert calls.count(False) <= 4  # the chunks up to line 30's


def test_reorder_sorts_a_reversed_file_once_per_chunk_and_its_rows_about_once(cert_2k,
                                                                           tmp_path):
    # a reversed file is held whole: each chunk's `add` sorts at most once,
    # and held rows are sorted again only once every fact they cite and no
    # line has provided yet has arrived, here at the last chunk
    with open(cert_2k["path"], encoding="utf-8") as fh:
        lines = fh.readlines()
    path = tmp_path / "reversed.jsonl"
    path.write_text("".join(reversed(lines)), encoding="utf-8")
    sort, add, sizes, per_add = checker._Reorder._sort, checker._Reorder.add, [], []

    def record_sort(self, rows, *args):
        sizes.append(len(rows))
        return sort(self, rows, *args)

    def record_add(self, chunk=None):
        before = len(sizes)
        add(self, chunk)
        per_add.append(len(sizes) - before)

    with mock.patch.object(checker._Reorder, "_sort", record_sort), \
            mock.patch.object(checker._Reorder, "add", record_add), \
            mock.patch.object(checker, "CHUNK_LINES", 16):
        report = check_store(str(path), cert_2k["limit"], reorder=True)
    assert report.accepted
    assert len(per_add) > 100 and max(per_add) == 1
    assert sum(sizes) <= len(lines) + 16  # the file's rows and one chunk's


def test_reorder_of_an_empty_file_is_all_gaps(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    report = check_store(str(path), 3, reorder=True)
    assert report.coverage_gaps == [[1, 3]] and report.stats["steps"] == 0


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
# the fast path against the reference on every small row
# ---------------------------------------------------------------------------


def _prereq_lists(values):
    """Every subset of up to three of `values`, in sorted and in reversed
    order, and the subsets of one or two with their first value repeated."""
    out = []
    for k in range(4):
        for sub in itertools.combinations(sorted(values), k):
            out += [sub, sub[::-1]] if k > 1 else [sub]
            out += [sub + sub[:1]] if 0 < k < 3 else []
    return out


def _small_rows():
    """Every canonical row of a small scope, as `_columns` rows (kind, n, x,
    y, target, three prereq fields; -1 absent) and as steps: each kind and
    target slot, with x and y in 0..7 and n in 0..7, base steps with n up to
    past BASE_LIMIT, and as prereqs the lists of `_prereq_lists` of the
    values x + y, x - y, x, y, n, 0 and 1 that are not negative."""
    kinds = [(1, -1, M.CoprimeProduct), (2, -1, M.CoprimeQuotient)] + [
        (3, t, lambda x, y, s=s: M.ParallelogramClose(x, y, s))
        for t, s in enumerate(M.SLOTS, 1)]
    cases = [(0, -1, n, -1, -1, M.Base()) for n in range(M.BASE_LIMIT + 3)]
    cases += [(kind, t, n, x, y, just(x, y)) for kind, t, just in kinds
              for n, x, y in itertools.product(range(8), repeat=3)]
    cols, steps = [], []
    for kind, t, n, x, y, just in cases:
        values = {v for v in (x + y, x - y, x, y, n, 0, 1) if v >= 0}
        for pre in _prereq_lists(values):
            cols.append([kind, n, x, y, t, *pre, *[-1] * (3 - len(pre))])
            steps.append(M.CertificateStep(n, just, pre))
    return np.array(cols, dtype=np.int64), steps


def test_fast_path_accepts_only_what_the_reference_accepts():
    # bounded-exhaustive: no row the vectorised arithmetic accepts may draw a
    # violation from the reference rules (establishment taken as given), and
    # the rows only the reference accepts are exactly the degenerate ones,
    # which the generator never writes
    cols, steps = _small_rows()
    fast = checker._arith_ok(cols, np.vectorize(is_prime, otypes=[bool]))
    ref = np.array([not M.validate_step(s, lambda _: True, is_prime) for s in steps])
    unsound = np.flatnonzero(fast & ~ref)
    assert not len(unsound), [steps[i] for i in unsound[:5]]
    # degenerate: the step consumes one value twice (p = q closing the sum or
    # the difference slot, or product = divisor)
    demanded = np.array([len(M.demanded_prereqs(s)) for s in steps])
    degenerate = demanded < np.array([0, 2, 2, 3])[cols[:, 0]]
    assert np.array_equal(ref & ~fast, ref & degenerate)
    assert (ref & degenerate).any() and (fast & (cols[:, 0] == 0)).any()


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


@pytest.mark.parametrize("bound", [300, 10**6])
@pytest.mark.parametrize("size", [7, 64])
def test_gap_scan_slices_join_runs_across_their_edges(write_cert, size, bound):
    # 121 scattered facts of 21..299 leave runs of every length; 4 * 141
    # + 64 facts index themselves, so with the bound 10^6 the last run
    # reaches past the table into the facts held above it
    facts = random.Random(5).sample(range(21, 300), 121)
    path = write_cert(base_rows() + _bases(sorted(facts)))
    want = check_store(path, bound)
    with mock.patch.object(checker, "GAP_SLICE", size):
        got = check_store(path, bound)
    assert len(want.coverage_gaps) > 40
    for report in (want, got):
        del report.stats["elapsed_s"]
    assert got.to_dict() == want.to_dict()


def test_gap_ranges_around_a_fact_at_the_table_size(write_cert):
    # 13 lines leave room for 4 * 13 + 64 = 116 self-indexed facts; 65
    # grows the table to that size, so 116 is held above it
    path = write_cert(_bases(range(11)) + _bases([65, 116]))
    run = checker._Pass()
    checker._scan(path, run, reorder=False)
    assert run.facts.size == 116 and 116 in run.facts.ids
    report = check_store(path, 120)
    assert report.coverage_gaps == [[11, 64], [66, 115], [117, 120]]
    assert [v.detail for v in report.violations if v.code == M.COVERAGE_GAP] == [
        "no step justifies facts 11..64", "no step justifies facts 66..115",
        "no step justifies facts 117..120"]
    assert report.stats["violation_counts"] == {M.BASE_OUT_OF_RANGE: 2, M.COVERAGE_GAP: 3}


def test_only_the_fact_store_and_the_sample_touch_their_fields():
    # the fact table is `_Facts`' alone and the held sample `_Sample`'s: no
    # other code in the checker reads or writes these attributes, so a new
    # store or sample is a change to one class
    owner = {"depth": "_Facts", "ids": "_Facts", "deep": "_Facts",
             "held_steps": "_Sample", "cut": "_Sample"}
    tree = ast.parse(Path(checker.__file__).read_text(encoding="utf-8"))
    inside = {node.name: {id(n) for n in ast.walk(node)}
              for node in tree.body if isinstance(node, ast.ClassDef)}
    uses = [(node.attr, id(node) in inside.get(owner[node.attr], ()), node.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in owner]
    assert [(attr, line) for attr, mine, line in uses if not mine] == []
    assert {attr for attr, mine, _ in uses if mine} == set(owner)  # each is in use


@pytest.mark.parametrize("bound", [50, 2000])
def test_fact_table_stops_at_the_bound_or_goes_back_to_the_lines_rule(cert_2k, tmp_path, bound):
    # the file at its own bound keeps a table of bound + 1 entries and only
    # the facts past the bound in `ids`; a bound far below its facts would
    # fill `ids`, so the pass drops it for the lines rule (4 * lines read + 64);
    # either way the report is the lines rule's, here with a gap and a duplicate
    with open(cert_2k["path"], encoding="utf-8") as fh:
        lines = [line for line in fh if json.loads(line)["n"] != 30]
    path = tmp_path / "c.jsonl"
    path.write_text("".join(lines + lines[500:501]), encoding="utf-8")
    facts = {json.loads(line)["n"] for line in lines}
    run, lines_rule = checker._Pass(bound=bound + 1), checker._Pass
    with mock.patch.object(checker, "CHUNK_LINES", 256):
        checker._scan(str(path), run, reorder=False)
        got = check_store(str(path), bound)
        with mock.patch.object(checker, "_Pass", lambda *args: lines_rule(*args[:2])):
            want = check_store(str(path), bound)
    if bound == 2000:
        assert (run.facts.bound, run.facts.size) == (2001, 2001)
        assert sorted(run.facts.ids) == sorted(f for f in facts if f > bound) != []
    else:
        assert run.facts.bound is None and run.facts.size > 4 * 256 + 64
    assert {M.COVERAGE_GAP, M.DUPLICATE_FACT, M.MISSING_PREREQ} <= _codes(got)
    for report in (got, want):
        del report.stats["elapsed_s"]
    assert got.to_dict() == want.to_dict()


def test_single_fact_gap_keeps_the_per_fact_text(write_cert):
    rows = [r for r in base_rows() if r["n"] != 7]
    report = check_store(write_cert(rows), 20)
    assert report.coverage_gaps == [[7, 7]]
    assert [v.detail for v in report.violations] == ["no step justifies fact 7"]


# ---------------------------------------------------------------------------
# the base case is replayed inside check
# ---------------------------------------------------------------------------


def test_check_reports_the_bootstrap(cert_2k):
    report = check_store(cert_2k["path"], cert_2k["limit"])
    assert report.bootstrap == {"facts_pinned": 20, "surviving_branches": 1}
    assert report.to_dict()["bootstrap"] == report.bootstrap


def test_bootstrap_error_rejects(cert_2k, monkeypatch):
    monkeypatch.setattr(basecase, "PINS", basecase.PINS[1:])  # drop the pin of f(4)
    report = check_store(cert_2k["path"], cert_2k["limit"])
    assert not report.accepted
    assert _codes(report) == {M.BOOTSTRAP_FAILED}
    assert report.bootstrap == {"facts_pinned": 0, "surviving_branches": None}
    assert report.stats["violation_counts"] == {M.BOOTSTRAP_FAILED: 1}


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
