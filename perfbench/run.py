#!/usr/bin/env python3
"""quadcert benchmark: one workload through the CLI, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs nothing installed beyond
the package's own dependencies, and puts `src/` on the children's path.
Every CLI invocation runs in a child process, one at a time, with default
options (no --threads); its CPU time, wall time and peak RSS come from
wait4. Every output is checked against known_answers.json.

Workloads (sizes are fixed; the seed only shapes generated inputs):

  gen-1m         verify --max 10^6 --out F; F must match the pinned digest
  check-1m       check --in C --max 10^6 --spot-check 256 --seed S on the
                 genuine 10^6 certificate (built once, digest-checked)
  check-hostile  check on six rewrites of a genuine 10^5 certificate that the
                 generator never writes (see hostile.py)
  goldbach-1e7   goldbach --max 10^7

--trace 0 repeats the workload until S seconds have passed and prints the
end-to-end metrics: wall_s (wall seconds of one repetition's children,
median over repetitions), cpu_s (their user plus system seconds, likewise),
peak_rss_mb (largest over the workload's children) and setup_s (median CPU
seconds of `quadcert --version`: start-up plus import). The program is
single-threaded, so wall_s and cpu_s move together; a change that runs in
parallel or waits on I/O moves them apart, and both are gated. --trace 1
runs the workload once untraced and once traced (the difference is the
tracing overhead), then calls each layer's public functions, one call per
child process (layers.py), and prints the per-layer metrics; its spans go to
.work/<profile>/spans/. Per-layer calls run at 10^5 (the sweep at 10^6), a
tenth of the end-to-end sizes, so that a traced run stays well inside the
run-time limit.

The last line of output is the result:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
Lines before it give machine info, each operation and each metric, and any
known defect (an operation that fails at the commit that defined this
benchmark in exactly the way known_answers.json records; it is reported but
not counted as failed, and any other failure of it is).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

import hostile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANSWERS = json.loads((HERE / "known_answers.json").read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Profile:
    gen_n: int
    hostile_n: int
    gap_max: int
    goldbach_max: int
    spot_k: int


PROFILES = {
    "full": Profile(gen_n=1_000_000, hostile_n=100_000, gap_max=1_000_000,
                    goldbach_max=10_000_000, spot_k=256),
    # smoke.py: every code path at sizes that take well under a second.
    "smoke": Profile(gen_n=2000, hostile_n=2000, gap_max=20_000,
                     goldbach_max=20_000, spot_k=16),
}


class BenchError(RuntimeError):
    """The harness cannot produce a result (missing program, child timeout)."""


@dataclass(frozen=True)
class Child:
    """What wait4 says about one finished child process."""

    code: int
    wall_s: float
    cpu_s: float  # user + system
    rss_mb: float


NO_CHILD = Child(0, 0.0, 0.0, 0.0)


@dataclass
class Op:
    name: str
    ok: bool
    detail: str
    child: Child
    known_defect: str | None = None  # set only when the failure matched it

    @property
    def counted(self) -> bool:
        """A known defect that still shows is reported, not counted."""
        return self.ok or self.known_defect is None


def judge(name: str, verdict: tuple[bool, str], child: Child, stderr: str,
          defect: dict | None = None) -> Op:
    """The operation for a check's (ok, detail). A failure is excused as a
    known defect only when its exit code and whole stderr match the signature
    recorded in known_answers.json; any other wrong outcome of the same input
    (another exit code, another error, a wrong report) is a failed op."""
    ok, detail = verdict
    if ok:
        return Op(name, True, detail, child)
    excused = (defect is not None and child.code == defect["exit"]
               and re.fullmatch(defect["stderr"], stderr) is not None)
    if stderr:
        detail = f"{detail} | stderr: {stderr[-300:]}"
    return Op(name, False, detail, child, defect["why"] if excused else None)


# -- child processes ------------------------------------------------------------


def run_child(argv: list[str], out: Path, err: Path, deadline: float) -> Child:
    """Run argv from the checkout root and wait for it.

    Linux starts a child's ru_maxrss at its parent's peak (recorded at exec),
    so the harness keeps its own RSS small: inputs that need memory to build
    are built in children too. The caller's PYTHON* settings are dropped, so
    that every child runs the same way (with a bytecode cache, as an
    installed package would) whatever shell starts the benchmark.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() > deadline:
        raise BenchError(f"{argv[1:4]} did not finish in time")
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


# -- tracing --------------------------------------------------------------------


class Tracer:
    """Spans (id, trace, name, start, end, parent) kept in memory and written
    out once when the run ends. Disabled, it records nothing."""

    def __init__(self, trace_id: str, enabled: bool):
        self.trace_id = trace_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _add(self, record: dict, parent: int | None) -> dict:
        record.update(id=len(self.spans), trace=self.trace_id, parent=parent)
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        parent = self._stack[-1] if self._stack else None
        rec = self._add({"name": name, "start": time.monotonic(), "end": None},
                        parent)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def adopt(self, records: list[dict], parent: int | None) -> None:
        """Attach spans a child process recorded under one of ours."""
        for rec in records if self.enabled else ():
            self._add(dict(rec), parent)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1), encoding="utf-8")


# -- known answers ----------------------------------------------------------------


def cert_answer(path: Path, n: int) -> tuple[bool, str]:
    """Digest, line count and size against the pinned certificate for n."""
    want = ANSWERS["certificates"][str(n)]
    digest = hashlib.sha256()
    lines = size = 0
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                lines += chunk.count(b"\n")
                size += len(chunk)
    except OSError as exc:
        return False, str(exc)
    got = {"sha256": digest.hexdigest(), "lines": lines, "bytes": size}
    bad = [f"{k} {got[k]} != {want[k]}" for k in got if got[k] != want[k]]
    return not bad, "; ".join(bad)


def _load_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def accepted_answer(code: int, report: Path, spot_k: int) -> tuple[bool, str]:
    if code != 0:
        return False, f"exit {code}, want 0"
    try:
        rep = _load_report(report)
        spot = rep["spot_check"]
        if rep["accepted"] is not True or rep["violations"]:
            return False, "genuine certificate not accepted"
        if spot["sampled"] != spot_k or spot["mismatches"] != 0:
            return False, f"spot check {spot}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, f"report unreadable: {exc!r}"
    return True, ""


def goldbach_answer(code: int, report: Path, limit: int) -> tuple[bool, str]:
    if code != 0:
        return False, f"exit {code}, want 0"
    want = ANSWERS["goldbach"][str(limit)]
    try:
        rep = _load_report(report)
        low, high = rep["min_q_policy"], rep["max_q_policy"]
        got = {"limit": rep["limit"], "evens_checked": rep["evens_checked"],
               "largest_min_q": low["largest_min_q"], "min_q_at_m": low["at_m"],
               "largest_p_minus_q": high["largest_p_minus_q"],
               "p_minus_q_at_m": high["at_m"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, f"report unreadable: {exc!r}"
    bad = [f"{k} {got[k]} != {want[k]}" for k in want if got[k] != want[k]]
    return not bad, "; ".join(bad)


def codes_missing(report: Path, codes: list[str]) -> list[str]:
    """Codes that never appear as a JSON string in the report. The report is
    scanned in chunks: a gap flood's report runs to hundreds of MB."""
    wanted = {c: f'"{c}"'.encode() for c in codes}
    tail = b""
    try:
        with open(report, "rb") as fh:
            while wanted:
                chunk = fh.read(1 << 20)
                if not chunk:
                    break
                window = tail + chunk
                wanted = {c: s for c, s in wanted.items() if s not in window}
                tail = window[-64:]
    except OSError:
        pass
    return sorted(wanted)


def hostile_answer(name: str, code: int, report: Path) -> tuple[bool, str]:
    want = ANSWERS["hostile"][name]
    if code != want["exit"]:
        return False, f"exit {code}, contract says {want['exit']}"
    missing = codes_missing(report, want["codes"]) if want["codes"] else []
    return not missing, f"codes not reported: {missing}" if missing else ""


# -- the run ----------------------------------------------------------------------


class Bench:
    """One benchmark run: the operations it made and the inputs it built."""

    def __init__(self, prof: Profile, seed: int, work: Path, tracer: Tracer,
                 deadline: float):
        self.prof = prof
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.deadline = deadline
        self.ops: list[Op] = []
        self.import_s: list[float] = []
        self._hostile: dict[str, Path] | None = None

    def record(self, name: str, ok: bool, detail: str = "",
               child: Child = NO_CHILD) -> Op:
        op = Op(name, ok, detail, child)
        self.ops.append(op)
        return op

    def _child(self, label: str, argv: list[str], stem: str) -> Child:
        with self.tracer.span(label) as span:
            child = run_child(argv, self.work / f"{stem}.out",
                              self.work / f"{stem}.err", self.deadline)
            span.update(exit=child.code, rss_mb=child.rss_mb)
        return child

    def cli(self, name: str, args: list, check, outputs: tuple = (),
            known_defect: dict | None = None) -> Op:
        """One `python -m quadcert.cli` invocation; check(exit code) returns
        (ok, detail) against the known answer."""
        for path in outputs:
            Path(path).unlink(missing_ok=True)
        argv = [sys.executable, "-m", "quadcert.cli", *map(str, args)]
        child = self._child(f"cli {name}", argv, "cli")
        stderr = (self.work / "cli.err").read_text(
            encoding="utf-8", errors="replace").strip()
        op = judge(name, check(child.code), child, stderr, known_defect)
        self.ops.append(op)
        return op

    def certificate(self, n: int) -> Path:
        """The genuine certificate for n, generated once per checkout by the
        program under test and checked against its pinned digest on every
        use. A file that fails the check is never cached."""
        path = self.work / f"cert-{n}.jsonl"
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            self.cli(f"build cert-{n}", ["verify", "--max", n, "--out", tmp],
                     lambda code: (code == 0, f"exit {code}"))
            if cert_answer(tmp, n)[0]:
                tmp.replace(path)
            else:
                path = tmp
        ok, detail = cert_answer(path, n)
        self.record(f"digest cert-{n}", ok, detail)
        return path

    def hostile_inputs(self) -> dict[str, Path]:
        """The check-hostile inputs for this run's seed, built in a child so
        that the harness's own RSS stays below any measured child's."""
        if self._hostile is None:
            cert = self.certificate(self.prof.hostile_n)
            out_dir = self.work / "hostile"
            argv = [sys.executable, str(HERE / "hostile.py"), str(cert),
                    str(out_dir), str(self.seed), str(self.prof.hostile_n)]
            child = self._child("build hostile inputs", argv, "hostile")
            self.record("build hostile inputs", child.code == 0,
                        f"exit {child.code}", child)
            if child.code != 0:
                raise BenchError("building the hostile inputs failed: "
                                 + (self.work / "hostile.err").read_text()[-300:])
            self._hostile = {name: out_dir / f"{name}.jsonl"
                             for name in hostile.NAMES}
        return self._hostile

    def probe(self, name: str, args: dict) -> tuple[dict, float]:
        """One layer call in its own process; returns (metrics, peak MB)."""
        argv = [sys.executable, str(HERE / "layers.py"), name,
                json.dumps({k: str(v) if isinstance(v, Path) else v
                            for k, v in args.items()})]
        span_id = len(self.tracer.spans)
        child = self._child(f"layer {name}", argv, "probe")
        lines = (self.work / "probe.out").read_text(encoding="utf-8").splitlines()
        if child.code != 0 or not lines:
            self.record(f"layer {name}", False, f"exit {child.code}", child)
            raise BenchError(f"layer probe {name} failed: " + (
                self.work / "probe.err").read_text(encoding="utf-8")[-300:])
        result = json.loads(lines[-1])
        self.tracer.adopt(result["spans"], span_id)
        self.import_s.append(result["import_s"])
        self.record(f"layer {name}", True, "", child)
        return result["metrics"], child.rss_mb


# -- workloads: each builds its inputs untimed and returns one repetition -------


def gen_1m(b: Bench):
    n, out = b.prof.gen_n, b.work / "gen.jsonl"
    args = ["verify", "--max", n, "--out", out]
    return lambda: [b.cli("verify", args, lambda code: cert_answer(out, n)
                          if code == 0 else (False, f"exit {code}"), (out,))]


def check_1m(b: Bench):
    n, k = b.prof.gen_n, b.prof.spot_k
    cert, report = b.certificate(n), b.work / "check-report.json"
    args = ["check", "--in", cert, "--max", n, "--spot-check", k,
            "--seed", b.seed, "--report", report]
    return lambda: [b.cli("check", args, lambda code: accepted_answer(
        code, report, k), (report,))]


def check_hostile(b: Bench):
    inputs = b.hostile_inputs()
    report = b.work / "hostile-report.json"

    def rep() -> list[Op]:
        ops = []
        for name, path in inputs.items():
            bound = b.prof.gap_max if name == "gap-flood" else b.prof.hostile_n
            args = ["check", "--in", path, "--max", bound, "--report", report]
            if name == "reordered":
                args.append("--reorder")
            ops.append(b.cli(
                name, args, lambda code, name=name: hostile_answer(
                    name, code, report), (report,),
                ANSWERS["hostile"][name].get("known_defect")))
        return ops

    return rep


def goldbach_1e7(b: Bench):
    m, report = b.prof.goldbach_max, b.work / "goldbach-report.json"
    args = ["goldbach", "--max", m, "--report", report]
    return lambda: [b.cli("goldbach", args, lambda code: goldbach_answer(
        code, report, m), (report,))]


WORKLOADS = {"gen-1m": gen_1m, "check-1m": check_1m,
             "check-hostile": check_hostile, "goldbach-1e7": goldbach_1e7}


def measure_setup(b: Bench) -> float:
    """Median CPU time of `quadcert --version` after one warm-up call (which
    also writes the bytecode cache a user's install would already have)."""
    def version_ok(code: int) -> tuple[bool, str]:
        text = (b.work / "cli.out").read_text(encoding="utf-8").strip()
        return code == 0 and bool(text), f"exit {code}, output {text!r}"

    b.cli("version warm-up", ["--version"], version_ok)
    return statistics.median(b.cli("version", ["--version"], version_ok).child.cpu_s
                             for _ in range(SETUP_REPEATS))


def layer_metrics(b: Bench) -> dict[str, float]:
    """Per-layer metrics at n = hostile_n, from one child per layer call."""
    n = b.prof.hostile_n
    cert = b.certificate(n)
    inputs = b.hostile_inputs()
    probe = b.probe

    boot, _ = probe("bootstrap", {})
    table, _ = probe("prime_table", {"limit": 2 * n + 64})
    sweep, sweep_rss = probe("sweep", {"max": 10 * n})
    der, _ = probe("derive", {"n": n})
    ser, _ = probe("serialize", {"n": n})
    written = b.work / "layer-write.jsonl"
    wr, _ = probe("write", {"n": n, "out": written})
    b.record("layer write digest", *cert_answer(written, n))
    par, _ = probe("parse", {"path": cert})
    val, _ = probe("validate", {"path": cert})
    chk, chk_rss = probe("check", {"path": cert, "bound": n})
    b.record("layer check accepts genuine", chk.get("accepted") is True)
    spot, _ = probe("spot", {"path": cert, "k": b.prof.spot_k, "seed": b.seed})
    hostile_runs = {}
    for name, path in inputs.items():
        hostile_runs[name] = probe("check", {"path": path, "bound": n,
                                             "reorder": name == "reordered"})
    b.record("layer check accepts reordered",
             hostile_runs["reordered"][0].get("accepted") is True)
    gap, gap_rss = hostile_runs["gap-flood"]
    cli, _ = probe("cli_check", {"path": inputs["gap-flood"], "bound": n,
                                 "report": b.work / "layer-gap-report.json"})
    b.record("layer cli exit on gap-flood", cli["exit"] == 1, f"exit {cli['exit']}")

    size = cert.stat().st_size
    metrics = {
        "bootstrap.solve_s": boot["solve_s"],
        "primes.table_s": table["table_s"],
        "primes.table_bits": table["table_bits"],
        "primes.sweep_s": sweep["sweep_s"],
        "primes.sweep_rss_mb": sweep_rss,
        "primes.goldbach_calls": der["goldbach_calls"],
        "engine.derive_s": der["derive_s"],
        "engine.serialize_s": ser["null_sink_s"] - der["derive_s"],
        "engine.write_s": wr["file_sink_s"] - ser["null_sink_s"],
        "engine.facts_per_s": der["steps"] / wr["file_sink_s"],
        "engine.bytes": ser["bytes"],
        "engine.steps": der["steps"],
        "engine.aux_steps": der["aux_steps"],
        "engine.memoized_targets": der["memoized_targets"],
        "engine.coprime_split": der["coprime_split"],
        "model.parse_s": par["parse_s"],
        "model.parse_lines_per_s": par["lines"] / par["parse_s"],
        "model.parse_mb_per_s": size / 1e6 / par["parse_s"],
        "model.validate_s": val["parse_validate_s"] - par["parse_s"],
        "checker.check_s": chk["check_s"],
        "checker.check_rss_mb": chk_rss,
        "checker.scan_s": chk["check_s"] - val["parse_validate_s"],
        "checker.spot_s": spot["spot_s"],
        "checker.reorder_s": hostile_runs["reordered"][0]["check_s"] - chk["check_s"],
        "checker.gap_s": gap["check_s"],
        "checker.gap_rss_mb": gap_rss,
        "checker.raised": sum(r["raised"] is not None for r, _ in hostile_runs.values()),
        "cli.emit_s": cli["cli_s"] - gap["check_s"],
        "cli.import_s": statistics.median(b.import_s),
    }
    for name, (res, _) in hostile_runs.items():
        metrics[f"checker.violations.{name}"] = res["violations"]
    return metrics


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "disk_free_gb": round(shutil.disk_usage(ROOT).free / 2**30, 1),
            "ram_total_gb": round(ram / 2**30, 1)}


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    start = time.monotonic()
    prof = PROFILES[args.profile]
    work = HERE / ".work" / args.profile
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-{time.time_ns()}",
                    enabled=args.trace == 1)
    b = Bench(prof, args.seed, work, tracer, start + RUN_BUDGET_S)
    info: dict[str, float] = {}
    with tracer.span(f"run {args.workload}"):
        if args.trace:
            rep = WORKLOADS[args.workload](b)
            tracer.enabled = False
            untraced = sum(op.child.wall_s for op in rep())
            tracer.enabled = True
            with tracer.span("workload"):
                traced = sum(op.child.wall_s for op in rep())
            metrics = layer_metrics(b)
            metrics["trace.workload_wall_s"] = traced
            metrics["trace.untraced_wall_s"] = untraced
            metrics["trace.overhead_s"] = traced - untraced
            metrics["trace.total_s"] = time.monotonic() - start
        else:
            setup_s = measure_setup(b)
            rep = WORKLOADS[args.workload](b)
            timed_from = time.monotonic()
            reps = [rep()]
            while time.monotonic() - timed_from < args.seconds:
                last = sum(op.child.wall_s for op in reps[-1])
                if time.monotonic() + last > b.deadline:
                    break
                reps.append(rep())
            metrics = {
                "wall_s": statistics.median(
                    sum(op.child.wall_s for op in r) for r in reps),
                "cpu_s": statistics.median(
                    sum(op.child.cpu_s for op in r) for r in reps),
                "peak_rss_mb": max(op.child.rss_mb for r in reps for op in r),
                "setup_s": setup_s,
            }
            info["repetitions"] = len(reps)
    if args.trace:
        tracer.write(work / "spans" / f"{args.workload}-seed{args.seed}.json")
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} differ"
                         " from BENCHMARK.json")
    info["harness_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counted = [op for op in b.ops if op.counted]
    result = {
        "correct": all(op.ok for op in counted),
        "attempted": len(counted),
        "failed": sum(not op.ok for op in counted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "profile": args.profile, "machine": machine_info(), "info": info,
              "ops": [asdict(op) for op in b.ops]}
    return result, detail


def report(result: dict, detail: dict) -> None:
    """Human-readable lines; the caller prints the result line after them."""
    print("machine", json.dumps(detail["machine"]))
    by_name: dict[str, list[dict]] = {}
    for op in detail["ops"]:
        by_name.setdefault(op["name"], []).append(op)
    for name, ops in by_name.items():
        bad = [op for op in ops if not op["ok"]]
        runs = [op["child"] for op in ops]
        print(f"op {name:30s} n={len(ops):<3d}"
              f" wall {statistics.median(c['wall_s'] for c in runs):8.3f} s"
              f" cpu {statistics.median(c['cpu_s'] for c in runs):8.3f} s"
              f" peak {max(c['rss_mb'] for c in runs):7.1f} MB"
              f"  {'FAILED ' + bad[0]['detail'] if bad else 'ok'}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"harness peak RSS {detail['info']['harness_rss_mb']:.1f} MB (a floor"
          " under every child's peak_rss_mb)")
    if "repetitions" in detail["info"]:
        print(f"wall_s and cpu_s are medians of {detail['info']['repetitions']}"
              " repetitions")
    m = result["metrics"]
    if "trace.overhead_s" in m:
        untraced = m["trace.untraced_wall_s"]["value"]
        overhead = m["trace.overhead_s"]["value"]
        print(f"tracing overhead: workload {m['trace.workload_wall_s']['value']:.4f} s"
              f" traced vs {untraced:.4f} s untraced in this run,"
              f" {overhead:+.4f} s ({overhead / untraced:+.1%});"
              f" whole traced run {m['trace.total_s']['value']:.1f} s")
    share = result["failed"] / result["attempted"]
    print(f"metric failed_ops {share:.6g} share"
          f" ({result['failed']} of {result['attempted']} operations)")
    for name, ops in by_name.items():
        bad = [op for op in ops if not op["ok"] and op["known_defect"]]
        if bad:
            print(f"known-defect {name} ({len(bad)} of {len(ops)}):"
                  f" {bad[0]['detail']} -- {bad[0]['known_defect']};"
                  " the recorded failure, reported, not counted in failed_ops")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=PROFILES, default="full")
    args = parser.parse_args(argv)
    # Turn a polite stop into SystemExit, so the child being waited on is
    # killed and reaped before the harness exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "quadcert" / "cli.py").is_file():
        print(f"error: no quadcert sources under {ROOT / 'src'}; run from the"
              " root of a source checkout", file=sys.stderr)
        return 2
    try:
        result, detail = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = HERE / ".work" / args.profile / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**detail, "result": result}, indent=1),
                                encoding="utf-8")
    report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
