"""Command-line surface: generate certificates, check them, probe, benchmark.

Subcommands:

  verify    replay the base case from the hints that check replays, then
            generate a certificate for 0..N (optionally self-check it);
  check     independently verify a certificate file;
  probe     report which prime-power values an instance set forces;
  goldbach  verify Goldbach pairs for every even number up to a bound and
            print witness histograms under both selection policies.

Exit codes: 0 success/accepted, 1 logical rejection (invalid certificate or
failed bootstrap), 2 usage, I/O, parse or memory errors, 3 no Goldbach pair.

QUADCERT_SIEVE_LIMIT caps the bits any prime table may allocate (default
2^33, 1 GiB of sieve; --sieve-limit overrides it per run). numpy runs one
BLAS thread unless the caller sets OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .bootstrap import BOOTSTRAP_BOUND, PROBE_BOUND_CAP, uniqueness_probe
from .checker import check_store, replay_base_case
from .engine import MIN_TARGET, BoundViolation, certify_range, table_limit
from .goldbach import GoldbachFailure, goldbach_sweep
from .model import MAX_Q, POLICIES, CertificateFormatError
from .phases import Phases
from .primes import DEFAULT_MAX_TABLE_BITS, SieveBudgetError, build_prime_table

ENV_SIEVE_LIMIT = "QUADCERT_SIEVE_LIMIT"

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_GOLDBACH = 3


def _sieve_budget(args: argparse.Namespace) -> int:
    if args.sieve_limit is not None:
        return args.sieve_limit
    env = os.environ.get(ENV_SIEVE_LIMIT)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise SieveBudgetError(
                f"{ENV_SIEVE_LIMIT}={env!r} is not an integer"
            ) from exc
    return DEFAULT_MAX_TABLE_BITS


def _sample_size(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {k}")
    return k


def _dumps(obj: dict) -> str:
    """`obj` as indented JSON, every int exact: a violation's value can be the
    sum of two parsed integers, a digit past the interpreter's limit on
    int-to-str conversion, which is lifted for this call only."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7: no limit
        return json.dumps(obj, indent=2)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(obj: dict, path: str | None) -> None:
    text = _dumps(obj) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_lines(lines: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max < MIN_TARGET:
        print(
            f"error: --max must be >= {MIN_TARGET} (facts below that are"
            " axioms backed by the bootstrap)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.out == "-" and (args.stats in (None, "-") or args.check):
        print("error: --out - (stdout) needs --stats PATH and takes no --check", file=sys.stderr)
        return EXIT_USAGE
    t0 = time.monotonic()
    phases, faults = Phases(), []
    boot = replay_base_case(faults)
    if faults:
        print(f"error: {faults[0].detail}", file=sys.stderr)
        return EXIT_REJECTED
    if args.transcript:  # the solver's derivation, which the replay's hints follow
        _write_lines(uniqueness_probe("primes", BOOTSTRAP_BOUND).transcript, args.transcript)
    t = phases.add("bootstrap", t0, boot["facts_pinned"])
    table = build_prime_table(table_limit(args.max), max_bits=_sieve_budget(args))
    phases.add("table", t, table.limit + 1)
    with open(sys.stdout.fileno() if args.out == "-" else args.out, "wb",
              closefd=args.out != "-") as fh:
        result = certify_range(args.max, policy=args.policy, table=table,
                               sink=fh, phases=phases)
    stats: dict = {
        "command": "verify",
        "out": args.out,
        "bootstrap": boot,
        "engine": result.stats.to_dict(),
        "phases": phases.to_dict(),
    }
    code = EXIT_OK
    if args.check:
        report = check_store(
            args.out, args.max, spot_check=args.spot_check, seed=args.seed
        )
        stats["check"] = report.to_dict()
        if report.spot_check is not None:
            stats["spot_check"] = report.spot_check
        stats["check_phases"] = report.phases
        if not report.accepted:
            code = EXIT_REJECTED
    stats["elapsed_s"] = round(time.monotonic() - t0, 3)
    _emit(stats, args.stats)
    return code


def cmd_check(args: argparse.Namespace) -> int:
    report = check_store(
        "/dev/stdin" if args.infile == "-" else args.infile, args.max, reorder=args.reorder,
        spot_check=args.spot_check, seed=args.seed,
    )
    out = report.to_dict()
    if report.spot_check is not None:
        out["spot_check"] = report.spot_check
    out["phases"] = report.phases
    _emit(out, args.report)
    return EXIT_OK if report.accepted else EXIT_REJECTED


def cmd_probe(args: argparse.Namespace) -> int:
    report = uniqueness_probe(args.set, args.bound)
    if args.transcript:
        _write_lines(report.transcript, args.transcript)
    _emit(report.to_dict(), args.report)
    return EXIT_OK


def cmd_goldbach(args: argparse.Namespace) -> int:
    if args.max < 4:
        print("error: --max must be >= 4", file=sys.stderr)
        return EXIT_USAGE
    phases = Phases()
    out = goldbach_sweep(args.max, phases, max_bits=_sieve_budget(args)).to_dict()
    out["phases"] = phases.to_dict()
    _emit(out, args.report)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcert",
        description=(
            "Machine-checkable certificates that a multiplicative solution"
            " of the parallelogram equation on primes is n^2."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="generate a certificate for 0..N")
    p.add_argument("--max", type=int, required=True, metavar="N",
                   help=f"largest fact to certify (>= {MIN_TARGET})")
    p.add_argument("--policy", choices=POLICIES, default=MAX_Q,
                   help="Goldbach pair selection policy (default max-q)")
    p.add_argument("--out", default="certificate.jsonl",
                   help="certificate output path (JSON lines); - for stdout")
    p.add_argument("--stats", default=None, metavar="PATH",
                   help="write the stats JSON here instead of stdout")
    p.add_argument("--check", action="store_true",
                   help="self-verify the emitted certificate")
    p.add_argument("--spot-check", type=_sample_size, default=64, metavar="K",
                   help="numeric sample size when --check passes (default 64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", default=None, metavar="PATH",
                   help="write the bootstrap derivation transcript here")
    p.add_argument("--sieve-limit", type=int, default=None, metavar="BITS",
                   help="prime table allocation cap in bits")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="verify a certificate file")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE", help="- reads stdin")
    p.add_argument("--max", type=int, required=True, metavar="N",
                   help="claimed coverage bound (1..N must be justified)")
    p.add_argument("--spot-check", type=_sample_size, default=0, metavar="K",
                   help="re-evaluate K sampled steps against f(x)=x^2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reorder", action="store_true",
                   help="topologically sort steps before checking")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the report JSON here instead of stdout")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("probe", help="probe which values an instance set forces")
    p.add_argument("--set", required=True, metavar="SPEC",
                   help="instance set: primes, 4n, or file:PATH")
    p.add_argument("--bound", type=int, required=True, metavar="M",
                   help=f"instance sum bound (<= {PROBE_BOUND_CAP})")
    p.add_argument("--transcript", default=None, metavar="PATH")
    p.add_argument("--report", default=None, metavar="PATH")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("goldbach", help="verify Goldbach pairs up to a bound")
    p.add_argument("--max", type=int, required=True, metavar="M")
    p.add_argument("--report", default=None, metavar="PATH")
    p.add_argument("--sieve-limit", type=int, default=None, metavar="BITS")
    p.set_defaults(func=cmd_goldbach)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GoldbachFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GOLDBACH
    except BoundViolation as exc:
        print(f"error: internal bound violated: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except CertificateFormatError as exc:
        print(f"error: malformed certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SieveBudgetError, ValueError, OSError, MemoryError) as exc:
        print("error:", "out of memory" if isinstance(exc, MemoryError) else exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
