"""Command-line behavior: exit codes, report files, environment knobs."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from quadcert import checker, cli, primes
from quadcert.bootstrap import BootstrapError
from quadcert.engine import BoundViolation
from quadcert.model import COVERAGE_GAP, CertificateFormatError, Violation
from quadcert.primes import GoldbachFailure
from tests.conftest import base_rows


def run(*argv):
    return cli.main(list(argv))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_env():
    """The environment of a CLI subprocess that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_writes_certificate_and_stats(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    stats = tmp_path / "s.json"
    code = run("verify", "--max", "100", "--out", str(out), "--stats", str(stats))
    assert code == 0
    blob = _read_json(stats)
    assert blob["command"] == "verify"
    assert blob["bootstrap"]["facts_pinned"] == 20
    assert blob["bootstrap"]["surviving_branches"] == 1
    assert blob["engine"]["limit"] == 100
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\r" not in text
    assert capsys.readouterr().out == ""  # stats went to the file


def test_verify_stats_report_phases(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert run("verify", "--max", "5000", "--out", str(out)) == 0
    blob = json.loads(capsys.readouterr().out)
    phases = blob["phases"]
    assert list(phases) == ["bootstrap", "table", "spf", "walk", "format", "write"]
    assert all(p["s"] >= 0 and p["peak_rss_mb"] > 0 for p in phases.values())
    assert phases["bootstrap"]["count"] == 20
    assert phases["table"]["count"] == 2 * 5000 + 65  # bits, 0..table_limit
    assert phases["spf"]["count"] == 5000 - 20  # targets 21..5000
    # lines after the 21 base lines, and every character written after them
    assert phases["format"]["count"] == blob["engine"]["steps"] - 21
    text = out.read_text(encoding="utf-8")
    assert phases["write"]["count"] == len(text) - text.index('{"n":21,')
    assert "phases" not in blob["engine"]


def test_check_reports_phases(tmp_path, capsys):
    cert = tmp_path / "c.jsonl"
    assert run("verify", "--max", "5000", "--out", str(cert), "--check",
               "--spot-check", "8") == 0
    blob = json.loads(capsys.readouterr().out)
    phases, lines = blob["check_phases"], blob["engine"]["steps"]
    assert list(phases) == ["bootstrap", "read", "columns", "reference", "bookkeeping",
                            "arithmetic", "report", "spot_check"]
    assert all(p["s"] >= 0 and p["peak_rss_mb"] > 0 for p in phases.values())
    assert phases["bootstrap"]["count"] == 20
    assert {phases[p]["count"] for p in ("read", "columns", "bookkeeping",
                                         "arithmetic")} == {lines}
    assert phases["reference"]["count"] == 0  # every line took the fast path
    assert phases["report"]["count"] == 0 and phases["spot_check"]["count"] == 8
    assert "phases" not in blob["check"]
    # lines the fast path leaves, counted once each: 30 in spaced JSON, and
    # 5 canonical ones with a wrong product
    text = cert.read_text(encoding="utf-8").splitlines(keepends=True)
    for i in range(100, 130):
        text[i] = json.dumps(json.loads(text[i])) + "\n"
    text += [f'{{"n":{n},"just":{{"type":"coprime_product","a":3,"b":7}},"prereqs":[3,7]}}\n'
             for n in range(10001, 10006)]
    cert.write_text("".join(text), encoding="utf-8")
    report = tmp_path / "r.json"
    assert run("check", "--in", str(cert), "--max", "5000", "--reorder",
               "--report", str(report)) == 1
    phases = _read_json(report)["phases"]
    assert phases["reference"]["count"] == 35
    assert phases["reorder"]["count"] == lines + 5


def test_verify_stats_to_stdout(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert run("verify", "--max", "60", "--out", str(out)) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["engine"]["policy"] == "max-q"


def test_verify_self_check_and_spot_check(tmp_path):
    out = tmp_path / "c.jsonl"
    stats = tmp_path / "s.json"
    code = run(
        "verify", "--max", "300", "--out", str(out), "--stats", str(stats),
        "--check", "--spot-check", "32",
    )
    assert code == 0
    blob = _read_json(stats)
    assert blob["check"]["accepted"] is True
    assert blob["spot_check"]["sampled"] == 32
    assert blob["spot_check"]["mismatches"] == 0


def test_verify_check_rejection_exits_1_and_keeps_the_certificate(tmp_path, monkeypatch):
    # a generated certificate the checker rejects is still written, and
    # verify reports the rejection through its exit code and stats
    gap = Violation(COVERAGE_GAP, "f(60) is never established", value=60)
    rejected = checker.CheckReport(accepted=False, violations=[gap],
                                   coverage_gaps=[[60, 60]], stats={}, bootstrap={})
    monkeypatch.setattr(cli, "check_store", lambda *args, **kwargs: rejected)
    out = tmp_path / "c.jsonl"
    stats = tmp_path / "s.json"
    code = run("verify", "--max", "60", "--out", str(out), "--stats", str(stats), "--check")
    assert code == cli.EXIT_REJECTED == 1
    blob = _read_json(stats)
    assert blob["check"]["accepted"] is False
    assert blob["check"]["violations"][0]["code"] == COVERAGE_GAP
    assert out.stat().st_size > 0


def test_verify_check_under_dev_mode_writes_nothing_to_stderr(tmp_path):
    # the 20000 certificate (1.6 MB) is over one 1 MiB block, so its check
    # forks; under -X dev a warning the interpreter raises (Python 3.12's on
    # forking a multi-threaded process) would be printed to stderr
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "quadcert.cli", "verify", "--max", "20000",
         "--check", "--out", str(tmp_path / "c.jsonl")],
        capture_output=True, text=True, env=_cli_env(), cwd=tmp_path)
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["check_phases"]["wait"]["count"] > 0


def test_check_reads_a_pipe_on_a_second_core(tmp_path):
    # /dev/stdin is a pipe here, whose size reads 0: its check forks all the
    # same, and reports what a check of the same certificate as a file does
    cli_ = [sys.executable, "-X", "dev", "-m", "quadcert.cli"]
    gen = subprocess.Popen([*cli_, "verify", "--max", str(10**5), "--out", "/dev/stdout",
                            "--stats", str(tmp_path / "s.json")],
                           stdout=subprocess.PIPE, env=_cli_env())
    with gen:
        out = subprocess.run([*cli_, "check", "--in", "/dev/stdin", "--max", str(10**5)],
                             stdin=gen.stdout, capture_output=True, text=True, env=_cli_env())
    assert (gen.returncode, out.returncode, out.stderr) == (0, 0, "")
    piped = json.loads(out.stdout)
    assert piped["accepted"] and piped["phases"]["wait"]["count"] > 0
    cert, report = tmp_path / "c.jsonl", tmp_path / "r.json"
    assert run("verify", "--max", str(10**5), "--out", str(cert),
               "--stats", str(tmp_path / "s.json")) == 0
    assert run("check", "--in", str(cert), "--max", str(10**5), "--report", str(report)) == 0
    on_file = _read_json(report)
    for blob in (piped, on_file):
        del blob["phases"], blob["stats"]["elapsed_s"]
    assert piped == on_file


def test_verify_below_induction_start(tmp_path, capsys):
    code = run("verify", "--max", "20", "--out", str(tmp_path / "c.jsonl"))
    assert code == 2
    assert "must be >=" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("check", "--in", "{cert}", "--max", "21", "--spot-check", "-5"),
    ("verify", "--max", "100", "--out", "{out}", "--check", "--spot-check", "-3"),
])
def test_negative_spot_check_is_a_usage_error(tmp_path, capsys, write_cert, argv):
    cert = write_cert(base_rows())
    out = tmp_path / "c.jsonl"
    with pytest.raises(SystemExit) as exc:
        run(*(a.format(cert=cert, out=out) for a in argv))
    assert exc.value.code == 2
    assert "--spot-check: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_verify_is_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    sa = tmp_path / "sa.json"
    sb = tmp_path / "sb.json"
    assert run("verify", "--max", "400", "--out", str(a), "--stats", str(sa)) == 0
    assert run("verify", "--max", "400", "--out", str(b), "--stats", str(sb)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_transcript_written(tmp_path):
    out = tmp_path / "c.jsonl"
    tr = tmp_path / "boot.txt"
    stats = tmp_path / "s.json"
    code = run(
        "verify", "--max", "50", "--out", str(out), "--stats", str(stats),
        "--transcript", str(tr),
    )
    assert code == 0
    text = tr.read_text(encoding="utf-8")
    assert "f(3) = 9" in text
    assert "f(2) = 4" in text


def test_verify_policy_min_q(tmp_path):
    out = tmp_path / "c.jsonl"
    stats = tmp_path / "s.json"
    code = run(
        "verify", "--max", "120", "--out", str(out), "--stats", str(stats),
        "--policy", "min-q", "--check",
    )
    assert code == 0
    assert _read_json(stats)["check"]["accepted"] is True
    assert '"policy":"min-q"' in out.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _write_rows(tmp_path, rows, name="c.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


def test_check_accepts_generated_certificate(tmp_path):
    out = tmp_path / "c.jsonl"
    report = tmp_path / "r.json"
    assert run("verify", "--max", "150", "--out", str(out),
               "--stats", str(tmp_path / "s.json")) == 0
    code = run("check", "--in", str(out), "--max", "150",
               "--report", str(report), "--spot-check", "16")
    assert code == 0
    blob = _read_json(report)
    assert blob["accepted"] is True
    assert blob["violations"] == []
    assert blob["spot_check"]["mismatches"] == 0


def test_check_rejects_coverage_gap(tmp_path, capsys):
    path = _write_rows(tmp_path, base_rows())
    report = tmp_path / "r.json"
    code = run("check", "--in", path, "--max", "25", "--report", str(report))
    assert code == 1
    blob = _read_json(report)
    assert blob["accepted"] is False
    assert blob["coverage_gaps"] == [[21, 25]]
    assert blob["stats"]["violation_counts"] == {"coverage_gap": 1}
    assert blob["bootstrap"] == {"facts_pinned": 20, "surviving_branches": 1}


# Runs a command and prints its exit code, wall time and peak RSS. A child's
# ru_maxrss starts at its parent's peak, so the command is started from this
# small process rather than from the test process itself.
_MEASURE = """
import os, subprocess, sys, time
start = time.monotonic()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), time.monotonic() - start,
      usage.ru_maxrss / 1024)
"""


def test_check_gap_range_far_above_the_file_is_bounded(tmp_path):
    path = _write_rows(tmp_path, base_rows())
    report = tmp_path / "r.json"
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, sys.executable, "-m", "quadcert.cli",
         "check", "--in", path, "--max", str(10**9), "--report", str(report)],
        capture_output=True, text=True, env=_cli_env(), check=True).stdout.split()
    code, wall, rss_mb = int(out[0]), float(out[1]), float(out[2])
    assert code == 1
    blob = _read_json(report)
    assert blob["coverage_gaps"] == [[21, 10**9]]
    assert [v["code"] for v in blob["violations"]] == ["coverage_gap"]
    assert blob["stats"]["coverage_gap_count"] == 10**9 - 20
    assert wall < 1.0, f"{wall:.2f} s"
    assert rss_mb < 100, f"{rss_mb:.1f} MB"


def test_check_reorder_memory_is_bounded(tmp_path):
    cert = tmp_path / "c.jsonl"
    assert run("verify", "--max", str(10**5), "--out", str(cert),
               "--stats", str(tmp_path / "s.json")) == 0
    lines = cert.read_text(encoding="utf-8").splitlines(keepends=True)
    rng = random.Random(16)
    for lo in range(0, len(lines), 16):  # shuffled within windows of 16
        window = lines[lo:lo + 16]
        rng.shuffle(window)
        lines[lo:lo + 16] = window
    cert.write_text("".join(lines), encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, sys.executable, "-m", "quadcert.cli",
         "check", "--in", str(cert), "--max", str(10**5), "--reorder"],
        capture_output=True, text=True, env=_cli_env(), check=True).stdout.split()
    code, rss_mb = int(out[0]), float(out[2])
    assert code == 0
    assert rss_mb < 56, f"{rss_mb:.1f} MB"


def test_check_max_zero_accepts_the_base_lines(tmp_path):
    path = _write_rows(tmp_path, base_rows())
    report = tmp_path / "r.json"
    assert run("check", "--in", path, "--max", "0", "--report", str(report)) == 0
    assert _read_json(report)["coverage_gaps"] == []


def test_check_unknown_top_level_field_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text('{"n":0,"just":{"type":"base"},"prereqs":[],"bogus":[1,2]}\n',
                    encoding="utf-8")
    assert run("check", "--in", str(path), "--max", "0") == 2
    assert "line 1: unexpected fields ['bogus']" in capsys.readouterr().err


def test_check_bootstrap_failure_is_a_rejection(monkeypatch, tmp_path):
    def boom():
        raise BootstrapError("expected exactly one surviving branch, got 2 of 4")

    monkeypatch.setattr(checker, "solve_bootstrap", boom)
    path = _write_rows(tmp_path, base_rows())
    report = tmp_path / "r.json"
    assert run("check", "--in", path, "--max", "20", "--report", str(report)) == 1
    blob = _read_json(report)
    assert [v["code"] for v in blob["violations"]] == ["bootstrap_failed"]
    assert blob["bootstrap"]["surviving_branches"] is None


def test_check_missing_file(tmp_path, capsys):
    code = run("check", "--in", str(tmp_path / "nope.jsonl"), "--max", "10")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    code = run("check", "--in", str(bad), "--max", "10")
    assert code == 2
    assert "malformed certificate" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [["base"], {"base": 1}])
@pytest.mark.parametrize("forks", [False, True])
def test_check_non_string_type_is_a_format_error(tmp_path, capsys, kind, forks):
    # an array or object where the type name belongs is an unknown type,
    # whether the file is read in this process or in a forked reader
    rows = base_rows() * 4 + [{"n": 21, "just": {"type": kind}, "prereqs": []}]
    path = _write_rows(tmp_path, rows)
    with mock.patch.object(checker, "CHUNK_LINES", 16 if forks else 1 << 20), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert run("check", "--in", path, "--max", "20") == 2
    assert fork.called == forks
    err = capsys.readouterr().err
    assert f"malformed certificate: line 85: unknown justification type {kind!r}" in err


def test_check_huge_integer_is_a_rejection(tmp_path):
    p = 2**64 + 13
    rows = base_rows() + [{
        "n": 23, "just": {"type": "parallelogram", "p": p, "q": 23, "target": "q"},
        "prereqs": [p + 23, p - 23, p]}]
    report = tmp_path / "r.json"
    code = run("check", "--in", _write_rows(tmp_path, rows), "--max", "20",
               "--report", str(report))
    assert code == 1
    codes = {v["code"] for v in _read_json(report)["violations"]}
    assert codes == {"unsupported_integer", "missing_prereq"}


def test_check_writes_a_value_past_the_str_limit_exactly(tmp_path, capsys):
    # the demanded p + q has 4,301 digits, one past the default limit on
    # int-to-str conversion; the report is still written, and exactly, and
    # the limit is back afterwards: the parser still refuses such an integer
    limit = sys.get_int_max_str_digits()
    p, q = 10**4300 - 1 - 2 * 10**10, 10**4300 - 3 * 10**10
    rows = base_rows() + [{
        "n": p - q, "just": {"type": "parallelogram", "p": p, "q": q, "target": "diff"},
        "prereqs": [p, q]}]
    assert run("check", "--in", _write_rows(tmp_path, rows), "--max", "20") == 1
    assert sys.get_int_max_str_digits() == limit
    bad = tmp_path / "long.jsonl"
    bad.write_text('{"n":' + "9" * 4301 + ',"just":{"type":"base"},'
                   '"prereqs":[]}\n', encoding="utf-8")
    with pytest.raises(CertificateFormatError, match="line 1"):
        checker.check_store(str(bad), 20)
    out = capsys.readouterr().out
    blob = json.loads(out, parse_int=str)
    missing = [v for v in blob["violations"] if v["code"] == "missing_prereq"]
    assert {v["value"] for v in missing} == {str(p), str(q), "1" + "9" * 4289 + "4" + "9" * 10}
    assert any(v["detail"] == "prerequisite a 14286-bit integer not listed" for v in missing)
    assert blob["stats"]["violation_counts"] == {"missing_prereq": "3", "unsupported_integer": "2"}
    assert out.endswith("}\n")


def test_check_overlong_integer_exit_code(tmp_path, capsys):
    bad = tmp_path / "long.jsonl"
    bad.write_text('{"n":' + "9" * 4301 + ',"just":{"type":"base"},'
                   '"prereqs":[]}\n', encoding="utf-8")
    assert run("check", "--in", str(bad), "--max", "10") == 2
    assert "malformed certificate: line 1" in capsys.readouterr().err


def test_check_deep_nesting_exit_code(tmp_path, capsys):
    bad = tmp_path / "deep.jsonl"
    bad.write_text(json.dumps(base_rows(0)[0]) + "\n" + "[" * 200_000 + "\n",
                   encoding="utf-8")
    assert run("check", "--in", str(bad), "--max", "10") == 2
    assert "malformed certificate: line 2" in capsys.readouterr().err


def test_check_decode_error_after_good_lines_exit_code(tmp_path, capsys):
    # the bad byte lies past the first text-decoding block, so the lines
    # before it are read, and checked, before the decode error is raised
    rows = "".join(json.dumps(r) + "\n" for r in base_rows(20) * 40)
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes(rows.encode("utf-8") + b"\xff\n")
    assert run("check", "--in", str(bad), "--max", "10") == 2
    assert "can't decode byte 0xff" in capsys.readouterr().err


def test_check_malformed_line_is_reported_before_a_later_decode_error(tmp_path, capsys):
    rows = [json.dumps(r) + "\n" for r in base_rows(20) * 40]
    rows[300] = "not json\n"
    bad = tmp_path / "both.jsonl"
    bad.write_bytes("".join(rows).encode("utf-8") + b"\xff\n")
    assert run("check", "--in", str(bad), "--max", "10") == 2
    assert "malformed certificate: line 301" in capsys.readouterr().err


def test_check_reorder_flag(tmp_path):
    out = tmp_path / "c.jsonl"
    assert run("verify", "--max", "80", "--out", str(out),
               "--stats", str(tmp_path / "s.json")) == 0
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = tmp_path / "shuf.jsonl"
    shuffled.write_text("".join(reversed(lines)), encoding="utf-8")
    assert run("check", "--in", str(shuffled), "--max", "80") == 1
    report = tmp_path / "r.json"
    assert run("check", "--in", str(shuffled), "--max", "80",
               "--reorder", "--report", str(report)) == 0
    assert _read_json(report)["stats"]["reordered"] is True


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def test_probe_primes_report(tmp_path):
    report = tmp_path / "p.json"
    code = run("probe", "--set", "primes", "--bound", "40",
               "--report", str(report))
    assert code == 0
    blob = _read_json(report)
    assert blob["free"] == []
    assert blob["determined"]["2"] == "4"
    assert blob["surviving_branches"] == 1


def test_probe_4n_underdetermined(capsys):
    assert run("probe", "--set", "4n", "--bound", "100") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["determined"] == {}
    assert "2" in blob["free"] and "3" in blob["free"]
    assert "evidence" in blob["note"]


def test_probe_transcript(tmp_path):
    tr = tmp_path / "t.txt"
    assert run("probe", "--set", "primes", "--bound", "40",
               "--transcript", str(tr), "--report", str(tmp_path / "r.json")) == 0
    assert "instance" in tr.read_text(encoding="utf-8")


def test_probe_unknown_set(capsys):
    assert run("probe", "--set", "squares", "--bound", "40") == 2
    assert "unknown instance set" in capsys.readouterr().err


def test_probe_bound_over_cap(capsys):
    assert run("probe", "--set", "primes", "--bound", "1000000") == 2
    assert "bound" in capsys.readouterr().err


def test_probe_file_set(tmp_path):
    s = tmp_path / "set.txt"
    s.write_text("2 3 5 7 11 13 17 19\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert run("probe", "--set", f"file:{s}", "--bound", "20",
               "--report", str(report)) == 0
    assert _read_json(report)["set"].startswith("file:")


# ---------------------------------------------------------------------------
# goldbach
# ---------------------------------------------------------------------------


def test_goldbach_sweep_report(tmp_path):
    report = tmp_path / "g.json"
    code = run("goldbach", "--max", "20000", "--report", str(report))
    assert code == 0
    blob = _read_json(report)
    assert blob["limit"] == 20000
    assert blob["evens_checked"] == 9999
    assert blob["min_q_policy"]["largest_min_q"] == 173
    assert blob["min_q_policy"]["at_m"] == 7426
    assert blob["max_q_policy"]["largest_p_minus_q"] == 666
    assert blob["max_q_policy"]["at_m"] == 17008


def test_goldbach_reports_phases(tmp_path):
    report = tmp_path / "g.json"
    assert run("goldbach", "--max", "20000", "--report", str(report)) == 0
    blob = _read_json(report)
    assert list(blob)[-1] == "phases"
    phases = blob["phases"]
    assert list(phases) == ["table", "min_q", "max_q", "verify"]
    assert all(p["count"] == blob["evens_checked"] and p["peak_rss_mb"] > 0
               for p in phases.values())


def test_goldbach_under_dev_mode_writes_nothing_to_stderr(tmp_path):
    # 10^6 is 16 blocks, so the sweep forks; under -X dev a warning the
    # interpreter raises (on a file left open, or Python 3.12's on forking
    # a multi-threaded process) would be printed to stderr
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "quadcert.cli", "goldbach", "--max", str(10**6)],
        capture_output=True, text=True, env=_cli_env(), cwd=tmp_path)
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["phases"]["wait"]["count"] > 0


def test_goldbach_memory_of_both_processes_is_bounded():
    # wait4's peak covers the sweep's forked child, which the CLI reaps
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, sys.executable, "-m", "quadcert.cli",
         "goldbach", "--max", str(4 * 10**6)],
        capture_output=True, text=True, env=_cli_env(), check=True).stdout.split()
    code, rss_mb = int(out[0]), float(out[2])
    assert code == 0
    assert rss_mb < 45, f"{rss_mb:.1f} MB"


def test_goldbach_tiny_bound(capsys):
    assert run("goldbach", "--max", "3") == 2
    assert "--max must be >= 4" in capsys.readouterr().err


def test_goldbach_missing_pair_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise GoldbachFailure("no pair for 12345 (hypothetical)")

    monkeypatch.setattr(cli, "goldbach_sweep", boom)
    assert run("goldbach", "--max", "100000") == 3
    assert "no pair" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# error mapping and environment knobs
# ---------------------------------------------------------------------------


def test_bootstrap_failure_maps_to_rejection(monkeypatch, tmp_path, capsys):
    def boom():
        raise BootstrapError("two branches survived")

    monkeypatch.setattr(cli, "solve_bootstrap", boom)
    code = run("verify", "--max", "50", "--out", str(tmp_path / "c.jsonl"))
    assert code == 1
    assert "bootstrap failed" in capsys.readouterr().err


def test_bound_violation_maps_to_rejection(monkeypatch, tmp_path, capsys):
    def boom(*a, **k):
        raise BoundViolation("difference 98 = 2*49 needs both factors below")

    monkeypatch.setattr(cli, "certify_range", boom)
    code = run("verify", "--max", "50", "--out", str(tmp_path / "c.jsonl"))
    assert code == 1
    assert "internal bound violated" in capsys.readouterr().err


def test_env_sieve_limit_enforced(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(cli.ENV_SIEVE_LIMIT, "1000")
    code = run("verify", "--max", "5000", "--out", str(tmp_path / "c.jsonl"))
    assert code == 2
    assert "budget" in capsys.readouterr().err.lower()


def test_flag_overrides_env_budget(monkeypatch, tmp_path):
    monkeypatch.setenv(cli.ENV_SIEVE_LIMIT, "1000")
    code = run(
        "verify", "--max", "100", "--out", str(tmp_path / "c.jsonl"),
        "--stats", str(tmp_path / "s.json"), "--sieve-limit", str(1 << 20),
    )
    assert code == 0


def test_env_budget_must_be_integer(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(cli.ENV_SIEVE_LIMIT, "plenty")
    code = run("verify", "--max", "100", "--out", str(tmp_path / "c.jsonl"))
    assert code == 2
    assert "not an integer" in capsys.readouterr().err


def test_goldbach_respects_budget(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SIEVE_LIMIT, "1000")
    assert run("goldbach", "--max", "100000") == 2
    assert "sieve budget" in capsys.readouterr().err


def test_zero_sieve_limit_is_a_budget_not_a_default(monkeypatch, tmp_path, capsys):
    # --sieve-limit 0 allows no table at all, whatever the environment allows
    monkeypatch.setenv(cli.ENV_SIEVE_LIMIT, str(1 << 20))
    code = run("verify", "--max", "100", "--out", str(tmp_path / "c.jsonl"),
               "--sieve-limit", "0")
    assert code == 2
    assert "budget" in capsys.readouterr().err
    assert run("goldbach", "--max", "100", "--sieve-limit", "0") == 2


@pytest.mark.parametrize("m,code", [(1000, 2), (1001, 0)])
def test_goldbach_budget_counts_the_table_bits(m, code, tmp_path):
    # the sweep's table over 0..1000 needs 1001 bits
    assert run("goldbach", "--max", str(m), "--sieve-limit", str(m),
               "--report", str(tmp_path / "r.json")) == code


def test_goldbach_builds_its_table_under_the_given_budget(tmp_path):
    budgets = []
    real = primes.build_prime_table

    def spy(limit, max_bits=primes.DEFAULT_MAX_TABLE_BITS):
        budgets.append(max_bits)
        return real(limit, max_bits)

    with mock.patch.object(primes, "build_prime_table", spy):
        assert run("goldbach", "--max", "1000", "--sieve-limit", "5000",
                   "--report", str(tmp_path / "r.json")) == 0
    assert budgets == [5000]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    from quadcert import __version__

    assert capsys.readouterr().out.strip() == __version__


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
