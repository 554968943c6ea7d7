#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (well under a minute).

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json through run.py with the smoke
profile, untraced and traced, and checks that the result line names every
metric of that mode with its unit and that no operation failed. Then checks
that each known-answer check rejects a wrong output, that the huge-int
known defect excuses only its recorded failure, and that run.py refuses
to run, without printing a result, where there are no sources to measure.
Exits 0 when everything holds; prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SMOKE_SEED = 1
TIMEOUT_S = 170


def _bench(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S, check=False)


def check_result_lines(failures: list[str]) -> None:
    for workload in run.SPEC["workloads"]:
        for trace, mode in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload['name']} trace {trace}"
            proc = _bench(["perfbench/run.py", "--workload", workload["name"],
                           "--seed", str(SMOKE_SEED), "--seconds", "1",
                           "--trace", str(trace), "--profile", "smoke"], run.ROOT)
            if proc.returncode != 0:
                failures.append(f"{name}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{name}: correct={result['correct']}"
                                f" failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in run.SPEC[mode]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name}: metrics differ from BENCHMARK.json"
                                f" {mode}: {sorted(set(got.items()) ^ set(want.items()))}")
            for key, metric in result["metrics"].items():
                value = metric["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    failures.append(f"{name}: {key} is not a number: {value!r}")
                if f"metric {key} " not in proc.stdout:
                    failures.append(f"{name}: {key} not printed by name")
            print(f"ok   {name}: {result['attempted']} operations")


def check_known_answers_fire(failures: list[str]) -> None:
    """Each check must reject an output that differs from its known answer."""
    prof = run.PROFILES["smoke"]
    work = run.HERE / ".work" / "smoke"
    probe = work / "known-answer-probe"
    cert = work / f"cert-{prof.hostile_n}.jsonl"

    def expect(label: str, verdict: tuple[bool, str], ok: bool) -> None:
        if verdict[0] != ok:
            failures.append(f"known answer {label}: got {verdict}, want ok={ok}")
        else:
            print(f"ok   known answer {label}")

    expect("genuine certificate", run.cert_answer(cert, prof.hostile_n), True)
    data = bytearray(cert.read_bytes())
    data[len(data) // 2] ^= 1
    probe.write_bytes(bytes(data))
    expect("one flipped bit", run.cert_answer(probe, prof.hostile_n), False)

    probe.write_text('{"violations": [{"code": "cycle"}]}', encoding="utf-8")
    expect("gap-flood without coverage_gap",
           run.hostile_answer("gap-flood", 1, probe), False)
    expect("dense-faults exit 0", run.hostile_answer("dense-faults", 0, probe), False)
    expect("huge-int without missing_prereq",
           run.hostile_answer("huge-int", 1, probe), False)

    probe.write_text(json.dumps({"accepted": False, "violations": [],
                                 "spot_check": {"sampled": prof.spot_k,
                                                "mismatches": 0}}),
                     encoding="utf-8")
    expect("rejected genuine certificate",
           run.accepted_answer(0, probe, prof.spot_k), False)

    report = json.loads((work / "goldbach-report.json").read_text(encoding="utf-8"))
    expect("goldbach report", run.goldbach_answer(0, work / "goldbach-report.json",
                                                  prof.goldbach_max), True)
    report["min_q_policy"]["largest_min_q"] += 2
    probe.write_text(json.dumps(report), encoding="utf-8")
    expect("goldbach wrong record",
           run.goldbach_answer(0, probe, prof.goldbach_max), False)
    probe.unlink()


def check_known_defect_is_narrow(failures: list[str]) -> None:
    """huge-int is excused only for the exact failure known_answers.json
    records; every other wrong outcome of it is a counted, failed op."""
    probe = run.HERE / ".work" / "smoke" / "known-defect-probe"
    defect = run.ANSWERS["hostile"]["huge-int"]["known_defect"]
    recorded = "error: 18446744073709722447 is beyond the supported 64-bit range"
    cases = [  # label, exit code, report, stderr, (ok, counted)
        ("fixed: exit 1 with missing_prereq", 1,
         {"violations": [{"code": "missing_prereq"}]}, "", (True, True)),
        ("the recorded exit-2 error", 2, None, recorded, (False, False)),
        ("exit 0, step accepted", 0, {"accepted": True, "violations": []}, "",
         (False, True)),
        ("exit 1 without missing_prereq", 1, {"violations": []}, "", (False, True)),
        ("exit 1 without a report", 1, None, "", (False, True)),
        ("exit 2 with another error", 2, None,
         "Traceback (most recent call last):\nKeyError: 'p'", (False, True)),
        ("exit 3 with the recorded error", 3, None, recorded, (False, True)),
    ]
    for label, code, report, stderr, want in cases:
        probe.unlink(missing_ok=True)
        if report is not None:
            probe.write_text(json.dumps(report), encoding="utf-8")
        op = run.judge("huge-int", run.hostile_answer("huge-int", code, probe),
                       run.Child(code, 0.0, 0.0, 0.0), stderr, defect)
        if (op.ok, op.counted) != want:
            failures.append(f"huge-int {label}: ok={op.ok} counted={op.counted},"
                            f" want ok={want[0]} counted={want[1]}")
        else:
            print(f"ok   huge-int {label}: ok={op.ok} counted={op.counted}")
    probe.unlink(missing_ok=True)


def check_refuses_without_sources(failures: list[str]) -> None:
    bare = run.HERE / ".work" / "smoke" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy2(path, bare / "perfbench")
    proc = _bench(["perfbench/run.py", "--workload", "gen-1m", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    last = (proc.stdout.splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        failures.append(f"without sources: exit {proc.returncode}, last line {last!r}")
    else:
        print(f"ok   without sources: exit {proc.returncode}, no result")


def main() -> int:
    failures: list[str] = []
    check_result_lines(failures)
    check_known_answers_fire(failures)
    check_known_defect_is_narrow(failures)
    check_refuses_without_sources(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
