"""Pinned check reports: every fault file and the genuine certificate, in both
wire layouts, must give byte-for-byte the report the object-based checker
gave before the column-wise pass replaced it.

The digest is the sha256 of `report.to_dict()` as sorted-key JSON, with
`stats.elapsed_s` (a timing) and the retired `stats.threads` left out. The spaced layout (`json.dumps`
defaults) never matches a canonical fast-path line, so it exercises the
reference path; the canonical layout (`separators=(",", ":")`) is what the
generator writes, so it exercises the fast path. Both must pin to the same
digest.
"""

import hashlib
import json
import random

import pytest

from quadcert.checker import check_store
from tests.conftest import base_rows

LAYOUTS = {"spaced": {}, "canonical": {"separators": (",", ":")}}


def _product(n, a, b, prereqs=None):
    return {"n": n, "just": {"type": "coprime_product", "a": a, "b": b},
            "prereqs": [a, b] if prereqs is None else prereqs}


def _quotient(n, product, divisor):
    return {"n": n, "just": {"type": "coprime_quotient", "product": product,
                             "divisor": divisor},
            "prereqs": [divisor, product]}


def _close(n, p, q, target, prereqs):
    return {"n": n, "just": {"type": "parallelogram", "p": p, "q": q,
                             "target": target},
            "prereqs": prereqs}


B = base_rows()
CYCLE_ROWS = B + [_quotient(25, 50, 2), _product(50, 2, 25)]
# name -> (rows, claimed bound, reorder); rows "genuine"/"shuffled" stand for
# the 2k certificate as generated and as shuffled by random.Random(7).
FAULTS = {
    # tests/test_checker.py
    "duplicate_fact": (B + [_product(21, 3, 7), _product(21, 3, 7)], 21, False),
    "cycle": (CYCLE_ROWS, 25, False),
    "missing_never_justified": (B + [_quotient(25, 50, 2)], 25, False),
    "missing_not_listed": (B + [_product(22, 2, 11, prereqs=[2])], 22, False),
    "not_coprime": (B + [_product(24, 2, 12)], 20, False),
    "wrong_product": (B + [_product(22, 3, 7)], 22, False),
    "p_not_prime": (B + [_close(14, 9, 5, "sum", [4, 9, 5])], 14, False),
    "q_not_prime": (B + [_close(20, 11, 9, "sum", [2, 11, 9])], 20, False),
    "p_less_than_q": (B + [_close(16, 3, 13, "sum", [3, 13, 10])], 16, False),
    "slot_mismatch": (B + [_close(15, 11, 3, "sum", [8, 11, 3])], 15, False),
    "inexact_division": (B + [_product(51, 3, 17), _quotient(25, 51, 2)], 20,
                         False),
    "coverage_gap": (B, 25, False),
    "base_out_of_range": (B + [{"n": 21, "just": {"type": "base"},
                                "prereqs": []}], 21, False),
    "bad_factor": (B + [_product(22, 1, 22)], 22, False),
    "self_quotient": (B + [_quotient(22, 22, 1)], 22, False),
    "quotient_repeat": (B + [{"n": 1, "just": {"type": "coprime_quotient",
                                               "product": 7, "divisor": 7},
                              "prereqs": [7, 7]}], 20, False),
    "close_repeat": (B + [_close(14, 7, 7, "sum", [0, 7, 7])], 20, False),
    "big_duplicate": (B + [{"n": 10**12, "just": {"type": "base"},
                            "prereqs": []}] * 2, 20, False),
    "cites_before_base": ([_product(6, 2, 3)] + B, 20, False),
    "extra_prereq": (B + [_product(21, 3, 7, prereqs=[3, 7, 5])], 21, False),
    "sorted_together": (B + [_product(12, 2, 6), _product(22, 3, 7),
                             _quotient(25, 50, 2)], 22, False),
    "reorder_true_cycle": (CYCLE_ROWS, 25, True),
    "empty": ([], 3, False),
    "genuine": ("genuine", 2000, False),
    "genuine_reorder": ("genuine", 2000, True),
    "shuffled": ("shuffled", 2000, False),
    "shuffled_reorder": ("shuffled", 2000, True),
    # tests/test_acceptance.py (same rows, checked at bound 20)
    "acc_duplicate_fact": (B + [_product(21, 3, 7), _product(21, 3, 7)], 20,
                           False),
    "acc_cycle": (CYCLE_ROWS, 20, False),
    "acc_missing_prereq": (B + [_quotient(25, 50, 2)], 20, False),
    "acc_wrong_product": (B + [_product(22, 3, 7)], 20, False),
    "acc_p_not_prime": (B + [_close(14, 9, 5, "sum", [4, 9, 5])], 20, False),
    "acc_p_less_than_q": (B + [_close(16, 3, 13, "sum", [3, 13, 10])], 20,
                          False),
    "acc_slot_mismatch": (B + [_close(15, 11, 3, "sum", [8, 11, 3])], 20,
                          False),
}

# Computed with the object-based checker.
DIGESTS = {
    "acc_cycle":
        "f54d5e70f6032ebf994a8001fe51d73d32631fe01a4710492e3526861971283d",
    "acc_duplicate_fact":
        "085fafc61b7ffa3e151c6b5f42241747d032a409a4ba6cc6db746a45d155612e",
    "acc_missing_prereq":
        "a00902f201b7640884e0fbbd54cf3111ba4804c3b52e85b7af673ddc9ae500ef",
    "acc_p_less_than_q":
        "a6af76243940362f3834e43a80c79d449911e77e3f47c5c0bc04744f1c471d59",
    "acc_p_not_prime":
        "7c3f3c59ea1311782130f20d55c029b4b6bc3dd7f4da2b1d735b249bdcb282c3",
    "acc_slot_mismatch":
        "57afd0df14dec8621b0fe45608a67161ecedd26a2e3b590c2f88acae2c11bbe4",
    "acc_wrong_product":
        "a934b9c6910a05a3c5b7756cf2f61ab328c248b4e2e46ca75b17541509596a92",
    "bad_factor":
        "9b0364f95f35f86b477a4e8c0cd7d405b5164f0a80230f22cd7d724534de0ae4",
    "base_out_of_range":
        "f77406d21c0f9c8a4863e2959e845778e157d9b39999c09160fb61c9827611be",
    "big_duplicate":
        "836bf80619438727f5bb727dbed81eb9967264a3d1beddae5d35f81364b5690a",
    "cites_before_base":
        "4e1617ee61f14b75e170dfb49d377d4f198b677fc9474c5ad2ba1cdb62b86289",
    "close_repeat":
        "bcaab6d489dae27e76c020747daeabf126aac78dd3ba3042fe1c8e3170335d43",
    "coverage_gap":
        "f02baac37eccffeb6c81b3a89027054044e50bff7f0c51dfccf3ce09f7defc11",
    "cycle":
        "5e83cce311056ec68ea5b02f1c43f87504611b5d7427a0951409162420117219",
    "duplicate_fact":
        "4bf4ea88bd350975930a0e7c575a90684c4e3285d0f1d2e57bae83428818abd2",
    "empty":
        "346dcbd935d0c28198428856268b6740197845667ba585a45ba3dd3bf0db97ed",
    "extra_prereq":
        "eed7e4a534f24a59fccb555d58e24f1355815b80c52a744e39d682e91581a020",
    "genuine":
        "4d76bb5ea8bcc92c31f323920b563024699df9553502b68b1655a833aa56885d",
    "genuine_reorder":
        "7359ec56a4ca4f0d1b4e372990c5a3fe5c6609c1f38edb6e30d2d9d71baa80af",
    "inexact_division":
        "02e34c5351b285cedde504f658e7c147fe8c75751c0d1aca9251ccd794ebdcbb",
    "missing_never_justified":
        "1d09b11ea495f080fdbf7f830310601b900ae726fd5e0d5e432936a0cea6e924",
    "missing_not_listed":
        "b8bd6c3252d774284b537400a16df36cb8ac4959175b350501ce7b8ed15ca79e",
    "not_coprime":
        "cf8f10d3a87c3d989ffc806638c24f9644125739597c96baa1735dc7f11e8e85",
    "p_less_than_q":
        "277283ed1021404573cde76abbf6bb4de5ca8fa47c32aaab306ee5dbd1fc943b",
    "p_not_prime":
        "3dc5fd4b548ba2961d9a5436b08301772f467403728b232498be75c592414d38",
    "q_not_prime":
        "72a6ee7e44335c501e7315d85b50c016d05b659998b6f315f81cf872a9847e70",
    "quotient_repeat":
        "1d0181ebeba420e69b30c30cec0558541cb460445150c9b769b120206ae4fa51",
    "reorder_true_cycle":
        "78530c354188c407b9e73e82ac6deaef744bc85d132c1340bf775d6ba5865ff7",
    "self_quotient":
        "27c22f14ab59e3ce985841dcdce13c03ab266f4a99b06581301098097bb00f3b",
    "shuffled":
        "5b349787c4d2048c1757728e65dce0af67bcbf81d6faccca9475bbecff1c292c",
    "shuffled_reorder":
        "7359ec56a4ca4f0d1b4e372990c5a3fe5c6609c1f38edb6e30d2d9d71baa80af",
    "slot_mismatch":
        "e36aef0b24637cbbf622cf8e1bce6c41e81e9c2f3164850cb392d77ded696a36",
    "sorted_together":
        "4fb183d50b998e39a486fc559046ca9bc2f235e95fd5f5fa51eab59cc6c38e5b",
    "wrong_product":
        "4f652ad016bfc7777b45ab804d73f23b0aba3af061e24792852703447d3e99b7",
}


def report_digest(report) -> str:
    blob = report.to_dict()
    blob["stats"].pop("elapsed_s")
    blob["stats"].pop("threads", None)  # only the object-based checker had it
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def resolve_rows(rows, cert_path):
    if not isinstance(rows, str):
        return rows
    with open(cert_path, encoding="utf-8") as fh:
        steps = [json.loads(line) for line in fh]
    if rows == "shuffled":
        random.Random(7).shuffle(steps)
    return steps


def write_rows(path, rows, layout):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write(json.dumps(row, **LAYOUTS[layout]) + "\n")
    return str(path)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_report_matches_pinned_digest(name, layout, cert_2k, tmp_path):
    rows, bound, reorder = FAULTS[name]
    path = write_rows(tmp_path / "c.jsonl", resolve_rows(rows, cert_2k["path"]),
                      layout)
    report = check_store(path, bound, reorder=reorder)
    assert report_digest(report) == DIGESTS[name]
