"""Build the check-hostile inputs from a genuine certificate and a seed.

Every input is a rewrite of the genuine certificate's lines, so the program
under test never sees anything but files. The same (certificate, seed) pair
always gives the same bytes. Where an input aborts the checker early (a
parse error, an unsupported integer), the offending line sits in the last
percent of the file, so the work done before the abort does not depend on
the seed.

This module is stdlib only: the benchmark builds its inputs without
importing the package it measures. It runs as a process of its own,

    python3 perfbench/hostile.py CERT OUT_DIR SEED BOUND

because a child's peak RSS as wait4 reports it starts from its parent's,
and parsing the certificate here would raise the harness's own.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

# The 11 canonical violation codes, in the order dense-faults cycles through.
CODES = (
    "duplicate_fact", "cycle", "missing_prereq", "not_coprime",
    "wrong_product", "p_not_prime", "q_not_prime", "p_less_than_q",
    "slot_mismatch", "inexact_division", "coverage_gap",
)
BASE_LINES = 21  # facts 0..20 are axioms
REORDER_WINDOW = 16
OVERLONG_DIGITS = 4301  # one past the interpreter's int-string limit
HUGE_P = 1 << 64
NAMES = ("dense-faults", "reordered", "gap-flood", "malformed-tail",
         "overlong-int", "huge-int")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, math.isqrt(n) + 1, 2))


def _spf(n: int) -> int:
    if n % 2 == 0:
        return 2
    return next((d for d in range(3, math.isqrt(n) + 1, 2) if n % d == 0), n)


def _line(n: int, just: dict, prereqs) -> str:
    return json.dumps({"n": n, "just": just, "prereqs": list(prereqs)},
                      separators=(",", ":"))


def _close(n: int, p: int, q: int, target: str = "sum") -> str:
    """A parallelogram step; prerequisites are the other three slots, with
    |p - q| standing in for a negative difference (the wire format has no
    negative facts)."""
    slots = {"sum": p + q, "diff": abs(p - q), "p": p, "q": q}
    prereqs = sorted({v for s, v in slots.items() if s != target})
    return _line(n, {"type": "parallelogram", "p": p, "q": q,
                     "target": target}, prereqs)


def _product(n: int, a: int, b: int) -> str:
    return _line(n, {"type": "coprime_product", "a": a, "b": b}, sorted({a, b}))


class _Faults:
    """One method per canonical code. Each rewrites line i (None deletes it)
    so that the checker must report that code, and returns False when line i
    cannot carry the fault."""

    def __init__(self, lines: list[str | None], steps: list[dict], bound: int,
                 rng: random.Random):
        self.lines = lines
        self.steps = steps
        self.bound = bound
        self.rng = rng
        self.used: set[int] = set(range(BASE_LINES))
        self.line_of = {s["n"]: i for i, s in enumerate(steps)}

    def _product_parts(self, i: int):
        just = self.steps[i]["just"]
        if just["type"] != "coprime_product":
            return None
        return self.steps[i]["n"], just["a"], just["b"]

    def duplicate_fact(self, i: int) -> bool:
        j = self.rng.randrange(BASE_LINES, i) if i > BASE_LINES else None
        if j is None or j in self.used:
            return False
        self.used.add(j)
        self.lines[i] = self.lines[j]
        return True

    def cycle(self, i: int) -> bool:
        parts = self._product_parts(i)
        if parts is None:
            return False
        j = self.line_of.get(max(parts[1], parts[2]))
        if j is None or j in self.used or not BASE_LINES <= j < i:
            return False
        self.used.add(j)
        self.lines[i], self.lines[j] = self.lines[j], self.lines[i]
        return True

    def missing_prereq(self, i: int) -> bool:
        parts = self._product_parts(i)
        if parts is None:
            return False
        n, a, b = parts
        self.lines[i] = _line(n, {"type": "coprime_product", "a": a, "b": b}, [a])
        return True

    def not_coprime(self, i: int) -> bool:
        parts = self._product_parts(i)
        if parts is None:
            return False
        n, a, _ = parts
        p = _spf(a)
        if a % (p * p):
            return False
        self.lines[i] = _product(n, p, n // p)
        return True

    def wrong_product(self, i: int) -> bool:
        parts = self._product_parts(i)
        if parts is None:
            return False
        n, a, b = parts
        b2 = next(c for c in range(b + 1, b + 64) if math.gcd(a, c) == 1)
        self.lines[i] = _product(n, a, b2)
        return True

    def _even_target(self, i: int) -> int | None:
        n = self.steps[i]["n"]
        return n if n % 2 == 0 and n >= 40 else None

    def p_not_prime(self, i: int) -> bool:
        n = self._even_target(i)
        if n is None:
            return False
        q = next(q for q in range(3, n // 2) if _is_prime(q)
                 and not _is_prime(n - q))
        self.lines[i] = _close(n, n - q, q)
        return True

    def q_not_prime(self, i: int) -> bool:
        n = self._even_target(i)
        if n is None:
            return False
        q = next((q for q in range(9, n // 2, 2) if not _is_prime(q)
                  and _is_prime(n - q)), None)
        if q is None:
            return False
        self.lines[i] = _close(n, n - q, q)
        return True

    def p_less_than_q(self, i: int) -> bool:
        n = self._even_target(i)
        if n is None:
            return False
        p = next((p for p in range(3, n // 2) if _is_prime(p)
                  and _is_prime(n - p)), None)
        if p is None:
            return False
        self.lines[i] = _close(n, p, n - p)
        return True

    def slot_mismatch(self, i: int) -> bool:
        n = self._even_target(i)
        if n is None:
            return False
        q = next((q for q in range(3, n // 2) if _is_prime(q)
                  and _is_prime(n + 2 - q)), None)
        if q is None:
            return False
        self.lines[i] = _close(n, n + 2 - q, q)
        return True

    def inexact_division(self, i: int) -> bool:
        n = self.steps[i]["n"]
        if n % 2 == 0:
            return False
        self.lines[i] = _line(n, {"type": "coprime_quotient",
                                  "product": n - 2, "divisor": 2}, [2, n - 2])
        return True

    def coverage_gap(self, i: int) -> bool:
        if self.steps[i]["n"] > self.bound:
            return False
        self.lines[i] = None
        return True


def _dense_faults(lines: list[str], steps: list[dict], bound: int,
                  rng: random.Random) -> list[str]:
    out: list[str | None] = list(lines)
    faults = _Faults(out, steps, bound, rng)
    count = max(len(CODES), len(lines) // 100)
    for k in range(count):
        code = CODES[k % len(CODES)]
        rewrite = getattr(faults, code)
        for _ in range(10_000):
            i = rng.randrange(BASE_LINES, len(lines))
            if i in faults.used:
                continue
            if rewrite(i):
                faults.used.add(i)
                break
        else:
            raise RuntimeError(f"no line can carry a {code} fault")
    return [line for line in out if line is not None]


def _reordered(lines: list[str], rng: random.Random) -> list[str]:
    out = []
    for lo in range(0, len(lines), REORDER_WINDOW):
        window = lines[lo:lo + REORDER_WINDOW]
        rng.shuffle(window)
        out.extend(window)
    return out


def _tail_product_line(steps: list[dict], rng: random.Random) -> int:
    """A coprime-product line in the last percent of the file."""
    lo = len(steps) - max(1, len(steps) // 100)
    candidates = [i for i in range(lo, len(steps))
                  if steps[i]["just"]["type"] == "coprime_product"]
    return rng.choice(candidates)


def build(cert: Path, out_dir: Path, seed: int, bound: int) -> None:
    """Write the inputs named in NAMES as OUT_DIR/<name>.jsonl.

    `bound` is the coverage bound the certificate was generated for; the
    caller checks gap-flood against a larger one.
    """
    lines = cert.read_text(encoding="utf-8").splitlines()
    steps = [json.loads(line) for line in lines]
    if [s["n"] for s in steps[:BASE_LINES]] != list(range(BASE_LINES)):
        raise ValueError(f"{cert} does not start with the base facts 0..20")
    rng = random.Random(seed)
    inputs: dict[str, list[str]] = {
        "dense-faults": _dense_faults(lines, steps, bound, rng),
        "reordered": _reordered(lines, rng),
        "gap-flood": lines[:BASE_LINES],
    }

    tail = list(lines)
    cut = rng.randrange(1, len(tail[-1]))
    tail[-1] = tail[-1][:cut]
    inputs["malformed-tail"] = tail

    over = list(lines)
    i = _tail_product_line(steps, rng)
    # Written as text: the interpreter refuses to turn so long an int into
    # a string, which is exactly what the checker must survive.
    digits = str(rng.randrange(1, 10)) + "".join(
        str(rng.randrange(10)) for _ in range(OVERLONG_DIGITS - 1))
    b = steps[i]["just"]["b"]
    over[i] = (f'{{"n":{steps[i]["n"]},"just":{{"type":"coprime_product",'
               f'"a":{digits},"b":{b}}},"prereqs":[{b}]}}')
    inputs["overlong-int"] = over

    huge = list(lines)
    i = _tail_product_line(steps, rng)
    n = steps[i]["n"]
    huge[i] = _close(n, HUGE_P + rng.randrange(1, 1 << 20), n, target="q")
    inputs["huge-int"] = huge

    out_dir.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (out_dir / f"{name}.jsonl").write_text(
            "\n".join(inputs[name]) + "\n", encoding="utf-8", newline="")


if __name__ == "__main__":
    cert_arg, out_arg, seed_arg, bound_arg = sys.argv[1:]
    build(Path(cert_arg), Path(out_arg), int(seed_arg), int(bound_arg))
