"""Acceptance gate: one test per primary deliverable, stated budgets enforced.

Each test prints a single PASS/FAIL line (visible with `pytest -v -s` or in
captured output) and asserts exactly the documented bound — no tolerance is
ever loosened here.
"""

import json
import resource
import time

import pytest

from quadcert import cli
from quadcert import model as M
from quadcert.bootstrap import solve_bootstrap, uniqueness_probe
from quadcert.checker import check_store
from quadcert.engine import certify_range, table_limit
from quadcert.primes import build_prime_table, goldbach_sweep, select_q_for_prime, select_r
from tests.conftest import base_rows


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def million_run(tmp_path_factory):
    """Shared end-to-end artifact: generate 0..10^6, then check the file."""
    path = tmp_path_factory.mktemp("accept") / "c1m.jsonl"
    t0 = time.monotonic()
    table = build_prime_table(table_limit(1_000_000))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        result = certify_range(1_000_000, table=table, sink=fh)
    gen_s = time.monotonic() - t0
    report = check_store(str(path), 1_000_000)
    total_s = time.monotonic() - t0
    return {
        "path": str(path),
        "stats": result.stats,
        "report": report,
        "gen_s": gen_s,
        "total_s": total_s,
    }


def test_bootstrap_reproduction_exact():
    result = solve_bootstrap()
    ok_table = result.table == {n: n * n for n in range(1, 21)}
    live = [leaf for leaf in result.leaves if leaf.contradiction is None]
    ok_single = len(live) == 1
    clash = result.pruned[0].contradiction if result.pruned else {}
    ok_clash = (
        clash.get("unknown") == 2
        and {clash.get("established"), clash.get("forced")} == {"1/2", "1/3"}
    )
    ok_time = result.elapsed_s < 1.0
    _report(
        "bootstrap pins f(n)=n^2 on 1..20, one surviving branch,"
        " pruned branch forced f(2)=1/2 vs 1/3, <1s",
        ok_table and ok_single and ok_clash and ok_time,
        f"table_ok={ok_table} branches={len(live)} clash_ok={ok_clash}"
        f" elapsed={result.elapsed_s:.3f}s",
    )


def test_small_value_table_matches_listed_identities():
    result = solve_bootstrap()
    f = {n: result.table[n] for n in range(1, 21)}
    identities = {
        "f(4)=4f(2)=16": f[4] == 4 * f[2] == 16,
        "f(5)=2f(3)+2f(2)-1=25": f[5] == 2 * f[3] + 2 * f[2] - 1 == 25,
        "f(6)=f(2)f(3)=36": f[6] == f[2] * f[3] == 36,
        "f(7)=3f(3)+6f(2)-2=49": f[7] == 3 * f[3] + 6 * f[2] - 2 == 49,
        "f(8)=64": f[8] == 64,
        "f(9)=4f(3)+12f(2)-3=81": f[9] == 4 * f[3] + 12 * f[2] - 3 == 81,
        "f(10)=f(2)f(5)=100": f[10] == f[2] * f[5] == 100,
        "f(11)=121": f[11] == 121,
        "f(12)=f(3)f(4)=15f(2)+10f(3)-6=144": (
            f[12] == f[3] * f[4] == 15 * f[2] + 10 * f[3] - 6 == 144
        ),
        "f(14)=f(2)f(7)=2f(11)-46=196": (
            f[14] == f[2] * f[7] == 2 * f[11] - 46 == 196
        ),
        "f(4)f(5)=f(20)=2f(17)+2f(3)-f(14), f(17)=289": (
            f[4] * f[5] == f[20] == 2 * f[17] + 2 * f[3] - f[14] and f[17] == 289
        ),
    }
    failures = [k for k, ok in identities.items() if not ok]
    _report(
        "derived small values satisfy every listed identity exactly",
        not failures,
        f"checked={len(identities)} failures={failures}",
    )


def test_end_to_end_certification_at_one_million(million_run):
    rep = million_run["report"]
    ok_accept = rep.accepted and rep.violations == [] and rep.coverage_gaps == []
    ok_time = million_run["total_s"] < 300.0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok_mem = peak_kib < 4 * 1024 * 1024
    _report(
        "certify 0..10^6 and independently accept it, <5min, <4GB",
        ok_accept and ok_time and ok_mem,
        f"accepted={rep.accepted} violations={len(rep.violations)}"
        f" gaps={len(rep.coverage_gaps)} total={million_run['total_s']:.1f}s"
        f" peak={peak_kib // 1024}MB",
    )


def test_fault_injection_triggers_every_code(million_run, tmp_path):
    def write(rows, name):
        p = tmp_path / name
        with open(p, "w", encoding="utf-8", newline="") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        return str(p)

    def product(n, a, b, prereqs=None):
        return {"n": n, "just": {"type": "coprime_product", "a": a, "b": b},
                "prereqs": [a, b] if prereqs is None else prereqs}

    def quotient(n, product_, divisor):
        return {"n": n,
                "just": {"type": "coprime_quotient", "product": product_,
                         "divisor": divisor},
                "prereqs": [divisor, product_]}

    def close(n, p, q, target, prereqs):
        return {"n": n,
                "just": {"type": "parallelogram", "p": p, "q": q,
                         "target": target},
                "prereqs": prereqs}

    bases = base_rows()
    mutations = {
        M.DUPLICATE_FACT: bases + [product(21, 3, 7), product(21, 3, 7)],
        M.CYCLE: bases + [quotient(25, 50, 2), product(50, 2, 25)],
        M.MISSING_PREREQ: bases + [quotient(25, 50, 2)],
        M.NOT_COPRIME: bases + [product(24, 2, 12)],
        M.WRONG_PRODUCT: bases + [product(22, 3, 7)],
        M.P_NOT_PRIME: bases + [close(14, 9, 5, "sum", [4, 9, 5])],
        M.Q_NOT_PRIME: bases + [close(20, 11, 9, "sum", [2, 11, 9])],
        M.P_LESS_THAN_Q: bases + [close(16, 3, 13, "sum", [3, 13, 10])],
        M.SLOT_MISMATCH: bases + [close(15, 11, 3, "sum", [8, 11, 3])],
        M.INEXACT_DIVISION: bases + [product(51, 3, 17), quotient(25, 51, 2)],
        M.COVERAGE_GAP: bases,
    }
    assert set(mutations) == set(M.CANONICAL_CODES)
    missed = []
    for code, rows in mutations.items():
        bound = 25 if code == M.COVERAGE_GAP else 20
        rep = check_store(write(rows, f"{code}.jsonl"), bound)
        got = {v.code for v in rep.violations}
        if code not in got or rep.accepted:
            missed.append(code)
    genuine = million_run["report"]
    clean = genuine.accepted and not genuine.violations
    _report(
        "all 11 violation codes fire on mutated certificates, none on genuine",
        not missed and clean,
        f"missed={missed} genuine_violations={len(genuine.violations)}",
    )


def test_residue_selectors_exhaustive():
    bad = []
    for n in range(3, 100_000, 2):
        q = select_q_for_prime(n)
        if q not in (3, 5) or (n + q) % 4 != 2 or ((n + q) // 2) % 2 != 1:
            bad.append(("q", n))
            continue
        r = select_r(n)
        if (
            r not in (3, 5, 7, 17)
            or (n + r) % 8 != 4
            or ((n + r) // 4) % 2 != 1
            or ((n - r) // 2) % 2 != 1
        ):
            bad.append(("r", n))
    _report(
        "residue selectors give n+q=2 (mod 4) and p+r=4 (mod 8) with odd"
        " cofactors for every odd n < 10^5",
        not bad,
        f"checked={len(range(3, 100_000, 2))} failures={bad[:3]}",
    )


def test_goldbach_pairs_to_ten_million():
    t0 = time.monotonic()
    rep = goldbach_sweep(10_000_000)
    elapsed = time.monotonic() - t0
    ok_count = rep.evens_checked == 4_999_999
    ok_time = elapsed < 120.0
    # the sweep raises on any even without a pair; reaching here with the
    # full count means both policies produced witnesses everywhere
    _report(
        "every even 4..10^7 splits into two primes under both policies, <2min",
        ok_count and ok_time,
        f"evens={rep.evens_checked} largest_min_q={rep.min_q_max}"
        f" elapsed={elapsed:.1f}s",
    )


def test_pow2_recursion_depth_bound(million_run):
    depth = million_run["stats"].pow2_depth_max
    _report(
        "power-of-two auxiliary recursion stays within depth 2 over 10^6",
        depth <= 2,
        f"max_depth={depth}",
    )


def test_probe_contrast():
    primes_rep = uniqueness_probe("primes", 40)
    four_rep = uniqueness_probe("4n", 100)
    scope20 = [pk for pk in primes_rep.determined if pk <= 20]
    ok_primes = (
        primes_rep.free == []
        and {pk for pk in scope20} == {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19}
    )
    ok_four = len(four_rep.free) >= 1 and "evidence" in four_rep.note
    _report(
        "prime instances at 40 force all small prime powers; multiples of 4"
        " at 100 leave unknowns free (reported as solver-relative evidence)",
        ok_primes and ok_four,
        f"primes_free={primes_rep.free} fourn_free={len(four_rep.free)}",
    )


def test_certificate_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        stats = tmp_path / f"{name}.json"
        code = cli.main([
            "verify", "--max", "100000", "--out", str(out),
            "--stats", str(stats),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    _report(
        "two identically-configured runs at 10^5 emit byte-identical files",
        outs[0] == outs[1],
        f"bytes={len(outs[0])}",
    )
