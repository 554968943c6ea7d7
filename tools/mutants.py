"""Mutation score of the checker's fast path, fact store, fault log, reorder
and base-case replay.

Each mutant changes one token of `src/quadcert/checker.py` or
`src/quadcert/basecase.py` inside one function (DeMillo, Lipton and Sayward,
1978). The checker's tests run once per mutant, against a mutated copy of
the package; a mutant is killed when a test fails (or the run takes longer
than TIMEOUT seconds), and survives when every test passes. Run from the
repository root:

    python tools/mutants.py [--root DIR]

It prints one line per mutant and then the score. `--root` scores another
checkout (say, an older commit's); a mutant names the functions it may
apply to, so the list also fits code from before the fact store was split
out of `_Pass`. The first of them that holds its text exactly once is
mutated; a mutant whose text no function holds is listed as one that does
not apply, and left out of the score (the reorder's and the replay's
mutants name code that older checkouts do not have; a test file a checkout
lacks is not run). This is not a tier-1 test: it runs the checker tests
~64 times.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the replay's tests first: they take a second, and kill its mutants with -x
TESTS = ["tests/test_basecase.py", "tests/test_checker.py",
         "tests/test_checker_differential.py", "tests/test_checker_fuzz.py",
         "tests/test_checker_golden.py", "tests/test_checker_pipeline.py",
         "tests/test_model.py"]
TIMEOUT = 600.0  # seconds; a mutant that hangs the tests counts as killed

# (name, functions it may apply to, text, replacement)
MUTANTS = [
    # the parse: one integer per digit run, and which lines stay canonical
    ("ninth-digit", "_columns", "np.flatnonzero(length == 9)", "np.flatnonzero(length == 8)"),
    ("ninth-digit-value", "_columns", "text[starts[nine] + 8] - 48", "text[starts[nine] + 8] - 47"),
    ("ten-digits-stay", "_columns", "(length > 9)", "(length > 10)"),
    ("leading-zero-stays", "_columns", "(length > 1) &", "(length > 2) &"),
    ("eight-byte-shift", "_columns", "np.minimum(length, 8)", "np.minimum(length, 7)"),
    ("odd-marks-next-line", "_columns", 'np.searchsorted(last, odd, side="right")',
     'np.searchsorted(last, odd, side="left")'),
    ("first-run-off-by-one", "_columns", "first = np.append(0, last[:-1])",
     "first = np.append(1, last[:-1])"),
    ("shape-end", "_columns", "stop = ends + 1 -", "stop = ends + 2 -"),
    ("any-shape-matches", "_columns", 'side="right") > at', 'side="right") >= at'),
    # the arithmetic
    ("product-factor-one", "_arith_ok", "(kind == 1) & (x > 1)", "(kind == 1) & (x > 0)"),
    ("quotient-product-zero", "_arith_ok", "(kind == 2) & (x >= 1)", "(kind == 2) & (x >= 0)"),
    ("p-below-q", "_arith_ok", "par & (x >= y)", "par & (x <= y)"),
    ("base-any-n", "_arith_ok", "(n <= BASE_LIMIT)", "(n >= BASE_LIMIT)"),
    ("product-gcd-with-n", "_arith_ok", "np.gcd(x[i], y[i])", "np.gcd(x[i], n[i])"),
    ("quotient-gcd-with-x", "_arith_ok", "np.gcd(y[i], n[i])", "np.gcd(y[i], x[i])"),
    ("slot-sum-sign", "_arith_ok", "3 * x.astype(np.int64) + y", "3 * x.astype(np.int64) - y"),
    ("repeats-allowed", "_arith_ok", "((l1 > l0)", "((l1 >= l0)"),
    ("q-not-tested", "_arith_ok", "np.stack([x[i], y[i]])", "np.stack([x[i], x[i]])"),
    ("wrong-demanded-slot", "_arith_ok", "np.where(t > 1, slots[0], slots[1])",
     "np.where(t > 2, slots[0], slots[1])"),
    ("third-prereq-unchecked", "_arith_ok", "(l2 == d2)", "(l2 >= d2)"),
    # one chunk's bookkeeping
    ("duplicates-swapped", "_Pass.feed", "dup[new_rows] = ~fresh", "dup[new_rows] = fresh"),
    ("duplicate-line", "_Pass.feed", "line=line_nos[i], fact=f", "line=line_nos[0], fact=f"),
    ("self-citation-established", "_Pass.feed", "(fr >= erow)", "(fr > erow)"),
    ("unprovided-reads-earlier", "_Pass.feed", "np.append(new_rows, k)[loc], k)",
     "np.append(new_rows, k)[loc], -1)"),
    ("base-range-off-by-one", "_Pass.feed", "(eix <= BASE_LIMIT)", "(eix < BASE_LIMIT)"),
    ("relax-strict", "_Pass.feed", "if view[a] >= view[b]:", "if view[a] > view[b]:"),
    ("relax-step", "_Pass.feed", "view[b] = view[a] + 1", "view[b] = view[a] + 2"),
    ("inside-includes-self", "_Pass.feed", "(fr >= 0) & (fr < erow)", "(fr >= 0) & (fr <= erow)"),
    ("base-depth-zero", "_Pass.feed", "np.where(fr < 0, before, base_range)",
     "np.where(fr < 0, before, 0)"),
    ("max-depth-min", "_Pass.feed", "self.max_depth = max(", "self.max_depth = min("),
    ("steps-count-blank", "_Pass.feed", "self.steps += len(active)", "self.steps += len(dup)"),
    # the fact store
    ("index-collides", "_Facts.index _Pass._index", "size + len(ids)", "size - len(ids)"),
    ("provided-inverted", "_Facts.provided _Pass._before", " != 0", " == 0"),
    ("deep-not-read", "_Facts.depths _Pass.feed", "== _DEEP", "== _DEEP - 1"),
    ("deep-not-moved", "_Facts.grow _Pass._grow", "moved.get(i, i)", "moved.get(i, 0)"),
    ("old-slots-kept", "_Facts.grow _Pass._grow", "self.depth[src], 0", "self.depth[src], 1"),
    ("no-room", "_Facts.grow _Pass._grow", "(len(self.ids) + room)", "(len(self.ids) + 0)"),
    ("large-reads-prime", "_Facts.prime _Pass._is_prime", "inside & self.primes",
     "inside | self.primes"),
    ("gap-run-split", "_Facts.gaps _Pass.report", "np.diff(miss) > 1", "np.diff(miss) > 2"),
    ("gap-slices-unjoined", "_Facts.gaps _Pass.report", "gaps[-1][1] + 1 == runs[0][0]",
     "gaps[-1][1] + 2 == runs[0][0]"),
    ("gap-empty-run", "_Facts.gaps _Pass.report", "if v > lo:", "if v >= lo:"),
    ("gap-after-large", "_Facts.gaps _Pass.report", "lo = v + 1", "lo = v + 2"),
    ("gap-scan-short", "_Facts.gaps _Pass.report", "min(bound, self.size - 1) + 1",
     "min(bound, self.size - 2) + 1"),
    # the fault log
    ("all-cycles", "_report _Pass.report", "CYCLE if later", "CYCLE if v"),
    ("sort-ignores-detail", "_report _Pass.report", "v.code, v.detail)",
     "v.code, v.code)"),
    ("gap-text-swapped", "_report _Pass.report", "if lo == hi else", "if lo != hi else"),
    # the reorder: when to sort, the closure bound, Kahn's order
    ("reorder-wakes-on-any-key", "_Reorder.add", "parsed.values()]))]",
     "parsed.values()])).any()]"),
    ("reorder-waits-for-one-key", "_Reorder._sort", "np.unique(keys[open_])",
     "np.unique(keys[open_][:1])"),
    ("reorder-cites-next-row", "_Reorder._sort", "< np.arange(1, n + 1",
     "<= np.arange(1, n + 1"),
    ("reorder-open-cites-last-row", "_Reorder._sort", "reach[dst[open_]] = n",
     "reach[dst[open_]] = n - 1"),
    ("reorder-pops-the-last-ready", "_Reorder._sort", "heapq.heappop(ready)", "ready.pop()"),
    ("reorder-open-at-end", "_Reorder._sort", " & (not final)", ""),
    ("reorder-lost-not-blocking", "_Reorder._sort", "src[lost] = p", "src[lost] = -1"),
    ("reorder-piece-runs-over", "_Reorder._sort", "and k < b:", "and k <= b:"),
    ("reorder-skips-a-held-row", "_Reorder.add", "self.held = [rows[p:]]",
     "self.held = [rows[p + 1:]]"),
]
# the base-case replay: which pairs are instances, and each hint's shape
REPLAY_MUTANTS = [
    ("f0-is-f1", "instance", "if x != 0:", "if True:"),
    ("m-below-n-cited", "instance", "m >= n and ", ""),
    ("composite-m-cited", "instance", "is_prime(m) and ", ""),
    ("composite-n-cited", "instance", " and is_prime(n)", ""),
    ("split-value", "replay", "(p,): -4}", "(p,): -3}"),
    ("split-zero-allowed", "replay", "!= {()}:", "- {()}:"),
    ("pin-not-linear", "replay", "if terms or a == 0:", "if a == 0:"),
    ("pin-without-unknown", "replay", "if terms or a == 0:", "if terms:"),
    ("table-unpinned-only", "replay", "!= n * n:", "== 0:"),
]
FILES = {"checker.py": MUTANTS, "basecase.py": REPLAY_MUTANTS}


def _functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions and methods by qualified name."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{f.name}", f) for f in node.body
                       if isinstance(f, ast.FunctionDef))
    return out


def mutate(source: str, where: str, old: str, new: str) -> str:
    """`source` with `old` replaced by `new` in the first function of
    `where` (space-separated names) that holds `old` exactly once."""
    lines = source.splitlines(keepends=True)
    functions = _functions(ast.parse(source))
    for name in where.split():
        if name not in functions:
            continue
        node = functions[name]
        body = "".join(lines[node.lineno - 1: node.end_lineno])
        if body.count(old) == 1:
            head = "".join(lines[: node.lineno - 1])
            return head + body.replace(old, new) + "".join(lines[node.end_lineno:])
    raise LookupError(f"{old!r} is not once in any of {where}")


def run(root: Path, file: str, mutant: tuple) -> tuple[str, str, float]:
    name, where, old, new = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(root / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp) / "src" / "quadcert" / file
        path.write_text(mutate(path.read_text(encoding="utf-8"), where, old, new),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        t = time.monotonic()
        try:  # in the copy's directory, so each run has its own Hypothesis database
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--hypothesis-seed=0",
                 *[str(root / t) for t in TESTS if (root / t).exists()]],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT).returncode
            verdict = "survived" if code == 0 else "killed"
        except subprocess.TimeoutExpired:
            verdict = "killed (timeout)"
        return name, verdict, time.monotonic() - t


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    mutants, survivors = [], []
    for file, listed in FILES.items():  # which apply, before any runs
        path = args.root / "src" / "quadcert" / file
        source = path.read_text(encoding="utf-8") if path.exists() else ""
        for mutant in listed:
            try:
                mutate(source, *mutant[1:])
                mutants.append((file, mutant))
            except LookupError:
                print(f"{mutant[0]:28s} does not apply", flush=True)
    for file, mutant in mutants:
        name, verdict, secs = run(args.root, file, mutant)
        print(f"{name:28s} {verdict:16s} {secs:6.1f} s", flush=True)
        if verdict == "survived":
            survivors.append(name)
    killed = len(mutants) - len(survivors)
    print(f"score: {killed}/{len(mutants)} killed; survived: {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
