"""One call into one quadcert layer, in a process of its own.

The traced benchmark run starts this script once per layer call, so that
each call's peak RSS (taken by the parent from wait4) is its own. It times
the call through the layer's public functions, records a span around it,
and prints one JSON object as its last line of output:

    {"import_s": ..., "metrics": {...}, "spans": [{"name", "start", "end"}]}

Span times are CLOCK_MONOTONIC seconds, which the parent shares.

Usage: python3 perfbench/layers.py <probe> '<json args>'
"""

from __future__ import annotations

import json
import statistics
import sys
import time

_t0 = time.monotonic()
import quadcert.cli  # noqa: E402  (the import itself is measured)
from quadcert import (  # noqa: E402
    build_prime_table,
    certify_range,
    check_store,
    goldbach_sweep,
    is_prime,
    iter_steps,
    solve_bootstrap,
    spot_check_numeric,
    validate_step,
)

IMPORT_S = time.monotonic() - _t0
SMALL_REPEATS = 5  # calls that take milliseconds are timed as a median


class Spans:
    def __init__(self) -> None:
        self.records: list[dict] = []

    def time(self, name: str, fn):
        """Run fn() inside a span; returns (result, seconds)."""
        start = time.monotonic()
        result = fn()
        end = time.monotonic()
        self.records.append({"name": name, "start": start, "end": end})
        return result, end - start


class _ByteCounter:
    """A text sink that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, text: str) -> int:
        self.count += len(text)
        return len(text)


def bootstrap(args: dict, spans: Spans) -> dict:
    times = [spans.time("solve_bootstrap", solve_bootstrap)[1]
             for _ in range(SMALL_REPEATS)]
    return {"solve_s": statistics.median(times)}


def prime_table(args: dict, spans: Spans) -> dict:
    limit = args["limit"]
    runs = [spans.time("build_prime_table", lambda: build_prime_table(limit))
            for _ in range(SMALL_REPEATS)]
    return {"table_s": statistics.median(t for _, t in runs),
            "table_bits": runs[0][0].limit + 1}


def sweep(args: dict, spans: Spans) -> dict:
    _, secs = spans.time("goldbach_sweep", lambda: goldbach_sweep(args["max"]))
    return {"sweep_s": secs}


def derive(args: dict, spans: Spans) -> dict:
    res, secs = spans.time(
        "certify_range", lambda: certify_range(args["n"], sink=None, retain=False))
    st = res.stats
    return {"derive_s": secs, "steps": st.steps, "aux_steps": st.aux_steps,
            "memoized_targets": st.memoized_targets,
            "coprime_split": st.case_counts["coprime_split"],
            "goldbach_calls": st.goldbach_calls}


def serialize(args: dict, spans: Spans) -> dict:
    sink = _ByteCounter()
    _, secs = spans.time(
        "certify_range", lambda: certify_range(args["n"], sink=sink, retain=False))
    return {"null_sink_s": secs, "bytes": sink.count}


def write(args: dict, spans: Spans) -> dict:
    with open(args["out"], "w", encoding="utf-8", newline="") as fh:
        _, secs = spans.time(
            "certify_range", lambda: certify_range(args["n"], sink=fh, retain=False))
    return {"file_sink_s": secs}


def parse(args: dict, spans: Spans) -> dict:
    def drain() -> int:
        return sum(1 for _ in iter_steps(args["path"]))

    lines, secs = spans.time("iter_steps", drain)
    return {"parse_s": secs, "lines": lines}


def validate(args: dict, spans: Spans) -> dict:
    def drain() -> int:
        count = 0
        for line_no, step in iter_steps(args["path"]):
            validate_step(step, lambda _: True, is_prime, line=line_no)
            count += 1
        return count

    _, secs = spans.time("iter_steps+validate_step", drain)
    return {"parse_validate_s": secs}


def check(args: dict, spans: Spans) -> dict:
    """check_store on one file. A raised error is a result here, not a
    failure of the probe: CertificateFormatError, UnsupportedIntegerError and
    the interpreter's int-string limit all derive from ValueError."""
    def run():
        try:
            return check_store(args["path"], args["bound"],
                               reorder=args.get("reorder", False))
        except ValueError as exc:
            return exc

    rep, secs = spans.time("check_store", run)
    if isinstance(rep, Exception):
        return {"check_s": secs, "violations": 0, "raised": type(rep).__name__}
    return {"check_s": secs, "violations": len(rep.violations),
            "accepted": rep.accepted, "raised": None}


def spot(args: dict, spans: Spans) -> dict:
    _, secs = spans.time("spot_check_numeric", lambda: spot_check_numeric(
        args["path"], args["k"], seed=args["seed"]))
    return {"spot_s": secs}


def cli_check(args: dict, spans: Spans) -> dict:
    argv = ["check", "--in", args["path"], "--max", str(args["bound"]),
            "--report", args["report"]]
    code, secs = spans.time("cli.main", lambda: quadcert.cli.main(argv))
    return {"cli_s": secs, "exit": code}


PROBES = {f.__name__: f for f in (bootstrap, prime_table, sweep, derive,
                                   serialize, write, parse, validate, check,
                                   spot, cli_check)}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in PROBES:
        print(f"usage: layers.py {{{','.join(PROBES)}}} '<json args>'",
              file=sys.stderr)
        return 2
    spans = Spans()
    metrics = PROBES[argv[0]](json.loads(argv[1]), spans)
    print(json.dumps({"import_s": IMPORT_S, "metrics": metrics,
                      "spans": spans.records}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
