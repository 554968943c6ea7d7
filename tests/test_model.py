"""Wire format, parallelogram algebra, and single-step validation rules."""

import json

import pytest
from hypothesis import given, strategies as st

from quadcert.model import (
    BASE_LIMIT,
    SLOT_DIFF,
    SLOT_P,
    SLOT_Q,
    SLOT_SUM,
    SLOTS,
    Base,
    CertificateFormatError,
    CertificateStep,
    CoprimeProduct,
    CoprimeQuotient,
    InexactDivisionError,
    ParallelogramClose,
    Violation,
    demanded_prereqs,
    parallelogram_solve,
    parse_step,
    serialize_step,
    slot_values,
    validate_step,
)
from quadcert import model as M
from quadcert.primes import is_prime


def _codes(violations):
    return [v.code for v in violations]


def _always(_):
    return True


def _prime(x):
    if x < 2:
        return False
    d = 2
    while d * d <= x:
        if x % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# parallelogram_solve: closed-form oracle for each slot
# ---------------------------------------------------------------------------


def test_solve_diff_slot_from_7_3():
    # f(7+3) + f(7-3) = 2 f(7) + 2 f(3)  =>  f(4) = 2*49 + 2*9 - 100 = 16
    assert parallelogram_solve({SLOT_SUM: 10, SLOT_P: 7, SLOT_Q: 3}, SLOT_DIFF) == 16


def test_solve_p_slot_from_26_20_3():
    # 2 f(23) = f(26) + f(20) - 2 f(3)  =>  f(23) = (676 + 400 - 18) / 2 = 529
    assert parallelogram_solve({SLOT_SUM: 26, SLOT_DIFF: 20, SLOT_Q: 3}, SLOT_P) == 529


def test_solve_sum_slot():
    assert parallelogram_solve({SLOT_P: 11, SLOT_Q: 3, SLOT_DIFF: 8}, SLOT_SUM) == 196


def test_solve_q_slot():
    # 2 f(q) = f(sum) + f(diff) - 2 f(p) with p=11, q=3
    assert parallelogram_solve({SLOT_SUM: 14, SLOT_DIFF: 8, SLOT_P: 11}, SLOT_Q) == 9


def test_solve_inexact_halving_raises():
    # sum^2 + diff^2 - 2 q^2 = 9 + 4 - 2 = 11 is odd: no integer f-value exists
    with pytest.raises(InexactDivisionError):
        parallelogram_solve({SLOT_SUM: 3, SLOT_DIFF: 2, SLOT_Q: 1}, SLOT_P)


def test_solve_rejects_unknown_target_and_wrong_slots():
    with pytest.raises(ValueError):
        parallelogram_solve({SLOT_SUM: 10, SLOT_P: 7, SLOT_Q: 3}, "mid")
    with pytest.raises(ValueError):
        parallelogram_solve({SLOT_SUM: 10, SLOT_P: 7}, SLOT_DIFF)
    with pytest.raises(ValueError):
        # target slot supplied among the knowns
        parallelogram_solve({SLOT_SUM: 10, SLOT_DIFF: 4, SLOT_P: 7}, SLOT_P)


@given(p=st.integers(2, 10_000), q=st.integers(2, 10_000))
def test_solve_is_consistent_with_squares(p, q):
    # When every slot value is v with f(v) = v^2, each solved slot agrees.
    slots = slot_values(p, q)
    for target in SLOTS:
        known = {s: v for s, v in slots.items() if s != target}
        assert parallelogram_solve(known, target) == slots[target] ** 2


# ---------------------------------------------------------------------------
# demanded_prereqs
# ---------------------------------------------------------------------------


def test_demanded_prereqs_by_kind():
    assert demanded_prereqs(CertificateStep(5, Base(), ())) == ()
    assert demanded_prereqs(
        CertificateStep(21, CoprimeProduct(3, 7), (3, 7))
    ) == (3, 7)
    assert demanded_prereqs(
        CertificateStep(25, CoprimeQuotient(50, 2), (2, 50))
    ) == (2, 50)
    step = CertificateStep(14, ParallelogramClose(11, 3, SLOT_SUM), (3, 8, 11))
    assert demanded_prereqs(step) == (3, 8, 11)


def test_demanded_prereqs_deduplicates_coinciding_slots():
    # p = q = 2: slots are sum=4, diff=0, p=2, q=2; target sum leaves {0, 2}
    step = CertificateStep(4, ParallelogramClose(2, 2, SLOT_SUM), (0, 2))
    assert demanded_prereqs(step) == (0, 2)


# ---------------------------------------------------------------------------
# validate_step: accepted shapes
# ---------------------------------------------------------------------------


def test_valid_coprime_product_step():
    step = CertificateStep(21, CoprimeProduct(3, 7), (3, 7))
    assert validate_step(step, _always, _prime) == []


def test_valid_parallelogram_sum_step():
    # 2*121 + 2*9 - 64 = 196 = 14^2
    step = CertificateStep(14, ParallelogramClose(11, 3, SLOT_SUM), (11, 3, 8))
    assert validate_step(step, _always, _prime) == []


def test_valid_quotient_step():
    step = CertificateStep(25, CoprimeQuotient(50, 2), (50, 2))
    assert validate_step(step, _always, _prime) == []


def test_valid_base_step_range():
    for n in (0, 1, 20):
        assert validate_step(CertificateStep(n, Base(), ()), _always, _prime) == []
    bad = validate_step(CertificateStep(21, Base(), ()), _always, _prime)
    assert _codes(bad) == [M.BASE_OUT_OF_RANGE]


# ---------------------------------------------------------------------------
# validate_step: each rejection
# ---------------------------------------------------------------------------


def test_product_not_coprime():
    step = CertificateStep(12, CoprimeProduct(2, 6), (2, 6))
    codes = _codes(validate_step(step, _always, _prime))
    assert codes == [M.NOT_COPRIME]


def test_product_wrong_value():
    step = CertificateStep(22, CoprimeProduct(3, 7), (3, 7))
    assert M.WRONG_PRODUCT in _codes(validate_step(step, _always, _prime))


def test_product_unit_factor():
    step = CertificateStep(7, CoprimeProduct(1, 7), (1, 7))
    assert M.BAD_FACTOR in _codes(validate_step(step, _always, _prime))


def test_quotient_inexact():
    step = CertificateStep(25, CoprimeQuotient(51, 2), (51, 2))
    assert M.INEXACT_DIVISION in _codes(validate_step(step, _always, _prime))


def test_quotient_wrong_value():
    step = CertificateStep(24, CoprimeQuotient(50, 2), (50, 2))
    assert M.WRONG_PRODUCT in _codes(validate_step(step, _always, _prime))


def test_quotient_not_coprime():
    # 100 / 2 = 50 but gcd(2, 50) = 2: the multiplicative split is invalid
    step = CertificateStep(50, CoprimeQuotient(100, 2), (100, 2))
    assert M.NOT_COPRIME in _codes(validate_step(step, _always, _prime))


def test_close_composite_p():
    step = CertificateStep(14, ParallelogramClose(9, 5, SLOT_SUM), (9, 5, 4))
    assert M.P_NOT_PRIME in _codes(validate_step(step, _always, _prime))


def test_close_composite_q():
    step = CertificateStep(20, ParallelogramClose(11, 9, SLOT_SUM), (11, 9, 2))
    assert M.Q_NOT_PRIME in _codes(validate_step(step, _always, _prime))


def test_close_beyond_64_bits_is_a_violation():
    p = 2**64 + 13
    step = CertificateStep(p + 3, ParallelogramClose(p, 3, SLOT_SUM), (p - 3, p, 3))
    viols = validate_step(step, _always, is_prime)
    assert _codes(viols) == [M.UNSUPPORTED_INTEGER]
    assert f"p = {p}" in viols[0].detail


def test_close_order_violation():
    step = CertificateStep(14, ParallelogramClose(3, 11, SLOT_SUM), (3, 11, 8))
    codes = _codes(validate_step(step, _always, _prime))
    assert M.P_LESS_THAN_Q in codes


def test_close_fact_not_in_target_slot():
    step = CertificateStep(15, ParallelogramClose(11, 3, SLOT_SUM), (11, 3, 8))
    assert M.SLOT_MISMATCH in _codes(validate_step(step, _always, _prime))


def test_missing_prereq_not_listed():
    step = CertificateStep(10, CoprimeProduct(2, 5), (2,))
    viols = validate_step(step, _always, _prime)
    missing = [v for v in viols if v.code == M.MISSING_PREREQ]
    assert len(missing) == 1
    assert missing[0].value == 5
    assert not missing[0].establishment


def test_missing_prereq_not_established():
    step = CertificateStep(10, CoprimeProduct(2, 5), (2, 5))
    viols = validate_step(step, lambda f: f != 5, _prime)
    missing = [v for v in viols if v.code == M.MISSING_PREREQ]
    assert len(missing) == 1
    assert missing[0].value == 5
    assert missing[0].establishment


def test_extra_prereq_flagged():
    step = CertificateStep(21, CoprimeProduct(3, 7), (3, 7, 9))
    assert _codes(validate_step(step, _always, _prime)) == [M.EXTRA_PREREQ]
    dup = CertificateStep(21, CoprimeProduct(3, 7), (3, 7, 7))
    assert _codes(validate_step(dup, _always, _prime)) == [M.EXTRA_PREREQ]


def test_violation_to_dict_carries_location():
    step = CertificateStep(10, CoprimeProduct(2, 5), (2,))
    v = validate_step(step, _always, _prime, line=17)[0]
    d = v.to_dict()
    assert d["line"] == 17 and d["fact"] == 10 and d["value"] == 5
    assert d["code"] == M.MISSING_PREREQ


# ---------------------------------------------------------------------------
# wire format: exact bytes out, strict parse in
# ---------------------------------------------------------------------------


def test_serialize_fixed_layouts():
    assert (
        serialize_step(CertificateStep(21, CoprimeProduct(3, 7), (3, 7)))
        == '{"n":21,"just":{"type":"coprime_product","a":3,"b":7},"prereqs":[3,7]}\n'
    )
    assert (
        serialize_step(CertificateStep(14, ParallelogramClose(11, 3, SLOT_SUM), (11, 3, 8)))
        == '{"n":14,"just":{"type":"parallelogram","p":11,"q":3,"target":"sum"},'
        '"prereqs":[11,3,8]}\n'
    )
    assert (
        serialize_step(CertificateStep(7, Base(), ()))
        == '{"n":7,"just":{"type":"base"},"prereqs":[]}\n'
    )
    assert (
        serialize_step(CertificateStep(25, CoprimeQuotient(50, 2), (2, 50)))
        == '{"n":25,"just":{"type":"coprime_quotient","product":50,"divisor":2},'
        '"prereqs":[2,50]}\n'
    )


@pytest.mark.parametrize("template,fields,step", [
    (M.BASE_LINE, (7,), CertificateStep(7, Base(), ())),
    (M.COPRIME_PRODUCT_LINE, (24, 8, 3, 8, 3),
     CertificateStep(24, CoprimeProduct(8, 3), (8, 3))),
    (M.COPRIME_QUOTIENT_LINE, (25, 50, 2, 2, 50),
     CertificateStep(25, CoprimeQuotient(50, 2), (2, 50))),
    (M.CLOSE_P_LINE, (23, 23, 3, 26, 20, 3),
     CertificateStep(23, ParallelogramClose(23, 3, SLOT_P), (26, 20, 3))),
    (M.CLOSE_SUM_LINE, (50, 31, 19, 12, 31, 19, "min-q"),
     CertificateStep(50, ParallelogramClose(31, 19, SLOT_SUM), (12, 31, 19),
                     meta={"policy": "min-q"})),
])
def test_line_templates_match_serialize_step(template, fields, step):
    # the generator's templates and serialize_step spell one wire format
    assert template % fields == serialize_step(step)


def test_serialize_meta_is_canonical_json():
    step = CertificateStep(
        50, ParallelogramClose(47, 3, SLOT_SUM), (47, 3, 44), meta={"policy": "max-q"}
    )
    line = serialize_step(step)
    assert line.endswith('"meta":{"policy":"max-q"}}\n')
    assert parse_step(line, 1) == step


def test_parse_round_trip_of_each_kind():
    steps = [
        CertificateStep(0, Base(), ()),
        CertificateStep(21, CoprimeProduct(3, 7), (3, 7)),
        CertificateStep(25, CoprimeQuotient(50, 2), (2, 50)),
        CertificateStep(14, ParallelogramClose(11, 3, SLOT_SUM), (3, 8, 11)),
    ]
    for step in steps:
        assert parse_step(serialize_step(step), 1) == step


# Each malformed line with the exact message parse_step gives for it: the
# checks run in a fixed order (object shape, top-level fields, n, just's
# type, missing then unexpected justification fields, target slot, integer
# fields in field order, prereqs, meta), and the first one that fails names it.
_MALFORMED = {
    "not json": "invalid JSON: Expecting value",
    "[1,2]": "step must be a JSON object",
    '{"just":{"type":"base"},"prereqs":[]}': "missing field 'n'",
    '{"n":5,"prereqs":[]}': "missing field 'just'",
    '{"n":5,"just":{"type":"base"}}': "missing field 'prereqs'",
    '{"n":0,"just":{"type":"base"},"prereqs":[],"bogus":[1,2]}': "unexpected fields ['bogus']",
    '{"n":-1,"just":{"type":"base"},"prereqs":[]}':
        "n must be a non-negative integer, got -1",
    '{"n":true,"just":{"type":"base"},"prereqs":[]}':
        "n must be a non-negative integer, got True",
    '{"n":5,"just":"base","prereqs":[]}': "just must be an object with a type",
    '{"n":5,"just":{"type":"frobnicate"},"prereqs":[]}':
        "unknown justification type 'frobnicate'",
    '{"n":21,"just":{"type":["base"]},"prereqs":[]}':
        "unknown justification type ['base']",
    '{"n":21,"just":{"type":{"base":1}},"prereqs":[]}':
        "unknown justification type {'base': 1}",
    '{"n":21,"just":{"type":"coprime_product","a":3},"prereqs":[3]}':
        "justification coprime_product missing 'b'",
    '{"n":21,"just":{"type":"coprime_product","a":3,"b":7,"c":1},"prereqs":[3,7]}':
        "unexpected justification fields ['c']",
    '{"n":21,"just":{"type":"coprime_product","a":true,"b":7},"prereqs":[3,7]}':
        "a must be an integer, got True",
    '{"n":21,"just":{"type":"coprime_product","a":3.0,"b":"7"},"prereqs":[3,7]}':
        "a must be an integer, got 3.0",
    '{"n":14,"just":{"type":"parallelogram","p":11,"q":3,"target":"mid"},"prereqs":[]}':
        "unknown target slot 'mid'",
    '{"n":14,"just":{"type":"parallelogram","p":"11","q":3,"target":"mid"},"prereqs":[]}':
        "unknown target slot 'mid'",
    '{"n":21,"just":{"type":"coprime_product","a":3,"b":7},"prereqs":[3,"7"]}':
        "prereqs must be a list of non-negative integers",
    '{"n":21,"just":{"type":"coprime_product","a":3,"b":7},"prereqs":[3,-7]}':
        "prereqs must be a list of non-negative integers",
    '{"n":21,"just":{"type":"coprime_product","a":3,"b":7},"prereqs":[3,7],"meta":3}':
        "meta must be an object when present",
}


@pytest.mark.parametrize("line", _MALFORMED)
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(CertificateFormatError) as exc:
        parse_step(line, 12)
    assert exc.value.line_no == 12


@pytest.mark.parametrize("line,message", _MALFORMED.items())
def test_parse_error_messages_are_pinned(line, message):
    with pytest.raises(CertificateFormatError) as exc:
        parse_step(line, 12)
    assert exc.value.message == message
    assert str(exc.value) == f"line 12: {message}"


def test_parse_wraps_overlong_integer():
    line = '{"n":' + "7" * 4301 + ',"just":{"type":"base"},"prereqs":[]}'
    with pytest.raises(CertificateFormatError) as exc:
        parse_step(line, 33)
    assert exc.value.line_no == 33


def test_parse_wraps_deep_nesting():
    with pytest.raises(CertificateFormatError) as exc:
        parse_step("[" * 200_000, 41)
    assert exc.value.line_no == 41


def test_parse_error_message_names_line():
    with pytest.raises(CertificateFormatError, match="line 9"):
        parse_step("{", 9)


_just_strategy = st.one_of(
    st.builds(Base),
    st.builds(CoprimeProduct, st.integers(2, 10**6), st.integers(2, 10**6)),
    st.builds(CoprimeQuotient, st.integers(1, 10**9), st.integers(1, 10**4)),
    st.builds(
        ParallelogramClose,
        st.integers(2, 10**6),
        st.integers(2, 10**6),
        st.sampled_from(sorted(SLOTS)),
    ),
)


@given(
    fact=st.integers(0, 10**9),
    just=_just_strategy,
    prereqs=st.lists(st.integers(0, 10**9), max_size=5).map(tuple),
    meta=st.one_of(st.none(), st.dictionaries(st.sampled_from(["policy", "k"]), st.text(max_size=8))),
)
def test_wire_round_trip_property(fact, just, prereqs, meta):
    step = CertificateStep(fact, just, prereqs, meta or None)
    line = serialize_step(step)
    assert line.endswith("\n") and "\n" not in line[:-1]
    assert parse_step(line, 1) == step
    # the line is itself minified JSON a generic reader agrees with
    obj = json.loads(line)
    assert obj["n"] == fact


def test_iter_steps_skips_blank_lines(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(
        '{"n":0,"just":{"type":"base"},"prereqs":[]}\n'
        "\n"
        '{"n":1,"just":{"type":"base"},"prereqs":[]}\n',
        encoding="utf-8",
    )
    rows = list(M.iter_steps(str(p)))
    assert [ln for ln, _ in rows] == [1, 3]
    assert [s.fact for _, s in rows] == [0, 1]


def test_base_limit_is_twenty():
    # the induction in the certifying engine starts at 21
    assert BASE_LIMIT == 20
