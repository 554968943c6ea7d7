"""Command-line behavior: exit codes, report files, environment knobs."""

import json

import pytest

from quadcert import cli
from quadcert.bootstrap import BootstrapError
from quadcert.engine import BoundViolation
from quadcert.primes import GoldbachFailure
from tests.conftest import base_rows


def run(*argv):
    return cli.main(list(argv))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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


def test_verify_below_induction_start(tmp_path, capsys):
    code = run("verify", "--max", "20", "--out", str(tmp_path / "c.jsonl"))
    assert code == 2
    assert "must be >=" in capsys.readouterr().err


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
    assert blob["coverage_gaps"] == [21, 22, 23, 24, 25]


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


def test_check_overlong_integer_exit_code(tmp_path, capsys):
    bad = tmp_path / "long.jsonl"
    bad.write_text('{"n":' + "9" * 4301 + ',"just":{"type":"base"},'
                   '"prereqs":[]}\n', encoding="utf-8")
    assert run("check", "--in", str(bad), "--max", "10") == 2
    assert "malformed certificate: line 1" in capsys.readouterr().err


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
    code = run("goldbach", "--max", "2000", "--report", str(report))
    assert code == 0
    blob = _read_json(report)
    assert blob["evens_checked"] == 999
    assert blob["min_q_policy"]["largest_min_q"] >= 3
    assert blob["max_q_policy"]["largest_p_minus_q"] >= 0


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
