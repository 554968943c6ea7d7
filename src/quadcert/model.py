"""Proof calculus core: facts, justification schemas, step validation, wire format.

A certificate is a sequence of steps, each claiming f(n) = n^2 for one
integer n under the standing hypotheses (f multiplicative, f(0) = 0, and the
parallelogram equation f(p+q) + f(p-q) = 2f(p) + 2f(q) for primes p >= q).
Four justification schemas exist:

  base              n = 0 or 1 <= n <= 20; grounded by the exact-rational
                    bootstrap, which pins f on 1..20 independently.
  coprime_product   a * b = n with gcd(a, b) = 1: f(n) = f(a) f(b).
  coprime_quotient  divisor * n = product with gcd(divisor, n) = 1:
                    f(n) = f(product) / f(divisor).
  parallelogram     close the fourth slot of {p+q, p-q, p, q} from the other
                    three via the parallelogram equation.

The wire format is JSON lines, one step per line, UTF-8 with LF:

  {"n": int, "just": {"type": ..., <schema fields>}, "prereqs": [ints]}

Field order and separators are fixed so identical runs produce byte-identical
files. An optional "meta" object may carry trace tags (e.g. the Goldbach
policy); validators recompute everything and never trust it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .primes import UnsupportedIntegerError

# Parallelogram slot names (wire values of the "target" field).
SLOT_SUM = "sum"
SLOT_DIFF = "diff"
SLOT_P = "p"
SLOT_Q = "q"
SLOTS = (SLOT_SUM, SLOT_DIFF, SLOT_P, SLOT_Q)

BASE_LIMIT = 20  # base facts cover n = 0 and 1..20


class Violation:
    """One failed validation condition, with a stable machine-readable code."""

    __slots__ = ("code", "detail", "line", "fact", "value", "establishment")

    def __init__(self, code: str, detail: str, *, line: int | None = None,
                 fact: int | None = None, value: int | None = None,
                 establishment: bool = False):
        self.code = code
        self.detail = detail
        self.line = line
        self.fact = fact
        # The integer the condition is about (an unestablished prerequisite,
        # a missing coverage value, ...), when one exists.
        self.value = value
        # establishment=True marks "prerequisite not yet established" entries,
        # which the checker later refines into cycle vs. missing_prereq.
        self.establishment = establishment

    def to_dict(self) -> dict:
        out = {"code": self.code, "detail": self.detail}
        if self.line is not None:
            out["line"] = self.line
        if self.fact is not None:
            out["fact"] = self.fact
        if self.value is not None:
            out["value"] = self.value
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f" line {self.line}" if self.line is not None else ""
        return f"Violation({self.code}{where}: {self.detail})"


# Canonical violation codes (the fault-injection suite exercises each).
DUPLICATE_FACT = "duplicate_fact"
CYCLE = "cycle"
MISSING_PREREQ = "missing_prereq"
NOT_COPRIME = "not_coprime"
WRONG_PRODUCT = "wrong_product"
P_NOT_PRIME = "p_not_prime"
Q_NOT_PRIME = "q_not_prime"
P_LESS_THAN_Q = "p_less_than_q"
SLOT_MISMATCH = "slot_mismatch"
INEXACT_DIVISION = "inexact_division"
COVERAGE_GAP = "coverage_gap"
CANONICAL_CODES = (
    DUPLICATE_FACT, CYCLE, MISSING_PREREQ, NOT_COPRIME, WRONG_PRODUCT,
    P_NOT_PRIME, Q_NOT_PRIME, P_LESS_THAN_Q, SLOT_MISMATCH, INEXACT_DIVISION,
    COVERAGE_GAP,
)
# Supplementary codes for conditions the canonical set cannot name.
BASE_OUT_OF_RANGE = "base_out_of_range"
BAD_FACTOR = "bad_factor"
EXTRA_PREREQ = "extra_prereq"
UNSUPPORTED_INTEGER = "unsupported_integer"  # p or q beyond 64-bit primality
BOOTSTRAP_FAILED = "bootstrap_failed"  # f(1..20) not pinned to n^2 on one branch


class CertificateFormatError(ValueError):
    """Malformed certificate line (parse-level, distinct from logical rejection)."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InexactDivisionError(ArithmeticError):
    """A slot solve required dividing by 2 exactly and could not."""


@dataclass(frozen=True, slots=True)
class Base:
    pass


@dataclass(frozen=True, slots=True)
class CoprimeProduct:
    a: int
    b: int


@dataclass(frozen=True, slots=True)
class CoprimeQuotient:
    product: int
    divisor: int


@dataclass(frozen=True, slots=True)
class ParallelogramClose:
    p: int
    q: int
    target: str


Justification = Base | CoprimeProduct | CoprimeQuotient | ParallelogramClose


@dataclass(frozen=True, slots=True)
class CertificateStep:
    fact: int
    just: Justification
    prereqs: tuple[int, ...]
    meta: dict | None = None


def slot_values(p: int, q: int) -> dict[str, int]:
    return {SLOT_SUM: p + q, SLOT_DIFF: p - q, SLOT_P: p, SLOT_Q: q}


def parallelogram_solve(known: dict[str, int], target: str) -> int:
    """Solve the parallelogram equation for the target slot's f-value.

    `known` maps the three non-target slot names to their slot values v; each
    carries f-value v^2 (the claim certified for that fact). Returns the
    forced f-value of the target slot. The p/q-slot cases divide by 2 and
    must come out exact; a malformed instance raises InexactDivisionError.
    """
    if target not in SLOTS:
        raise ValueError(f"unknown target slot {target!r}")
    need = [s for s in SLOTS if s != target]
    if sorted(known) != sorted(need):
        raise ValueError(f"target {target} needs slots {need}, got {sorted(known)}")
    sq = {s: known[s] * known[s] for s in known}
    if target == SLOT_SUM:
        return 2 * sq[SLOT_P] + 2 * sq[SLOT_Q] - sq[SLOT_DIFF]
    if target == SLOT_DIFF:
        return 2 * sq[SLOT_P] + 2 * sq[SLOT_Q] - sq[SLOT_SUM]
    if target == SLOT_P:
        num = sq[SLOT_SUM] + sq[SLOT_DIFF] - 2 * sq[SLOT_Q]
    else:
        num = sq[SLOT_SUM] + sq[SLOT_DIFF] - 2 * sq[SLOT_P]
    half, rem = divmod(num, 2)
    if rem:
        raise InexactDivisionError(
            f"solving the {target} slot needs ({num})/2 exact"
        )
    return half


def demanded_prereqs(step: CertificateStep) -> tuple[int, ...]:
    """The exact set of facts a step's justification consumes, sorted."""
    j = step.just
    if isinstance(j, Base):
        return ()
    if isinstance(j, CoprimeProduct):
        return tuple(sorted({j.a, j.b}))
    if isinstance(j, CoprimeQuotient):
        return tuple(sorted({j.product, j.divisor}))
    slots = slot_values(j.p, j.q)
    return tuple(sorted({v for s, v in slots.items() if s != j.target}))


def validate_step(
    step: CertificateStep,
    established: Callable[[int], bool],
    prime_test: Callable[[int], bool],
    *,
    line: int | None = None,
) -> list[Violation]:
    """Check one step against the calculus; returns all failed conditions.

    `established(fact)` answers whether a prerequisite is available (the
    caller decides what that means: for streaming checks, fact 0, base-range
    facts, and facts of earlier lines). `prime_test` must recompute
    primality; nothing is trusted from the step itself.
    """
    out: list[Violation] = []
    n = step.fact
    j = step.just

    def bad(code: str, detail: str, **kw) -> None:
        out.append(Violation(code, detail, line=line, fact=n, **kw))

    if isinstance(j, Base):
        if not (0 <= n <= BASE_LIMIT):
            bad(BASE_OUT_OF_RANGE, f"base step for {n}, outside 0..{BASE_LIMIT}")
    elif isinstance(j, CoprimeProduct):
        if j.a <= 1 or j.b <= 1:
            bad(BAD_FACTOR, f"factors must exceed 1, got {j.a} * {j.b}")
        if j.a * j.b != n:
            bad(WRONG_PRODUCT, f"{j.a} * {j.b} = {j.a * j.b} != {n}")
        if math.gcd(j.a, j.b) != 1:
            bad(NOT_COPRIME, f"gcd({j.a}, {j.b}) = {math.gcd(j.a, j.b)}")
    elif isinstance(j, CoprimeQuotient):
        if j.divisor < 1 or j.product < 1:
            bad(BAD_FACTOR, f"need positive product/divisor, got {j.product}/{j.divisor}")
        else:
            quot, rem = divmod(j.product, j.divisor)
            if rem:
                bad(INEXACT_DIVISION, f"{j.divisor} does not divide {j.product}")
            elif quot != n:
                bad(WRONG_PRODUCT, f"{j.product} / {j.divisor} = {quot} != {n}")
        if math.gcd(j.divisor, n) != 1:
            bad(NOT_COPRIME, f"gcd({j.divisor}, {n}) = {math.gcd(j.divisor, n)}")
    elif isinstance(j, ParallelogramClose):
        for name, v, code in (("p", j.p, P_NOT_PRIME), ("q", j.q, Q_NOT_PRIME)):
            try:
                if not prime_test(v):
                    bad(code, f"{name} = {v} is not prime")
            except UnsupportedIntegerError:
                bad(UNSUPPORTED_INTEGER,
                    f"{name} = {v} is beyond the supported 64-bit primality range")
        if j.p < j.q:
            bad(P_LESS_THAN_Q, f"p = {j.p} < q = {j.q}")
        slots = slot_values(j.p, j.q)
        if n != slots[j.target]:
            bad(SLOT_MISMATCH, f"n = {n} but {j.target} slot is {slots[j.target]}")
        try:
            forced = parallelogram_solve(
                {s: v for s, v in slots.items() if s != j.target}, j.target
            )
            if forced != n * n:
                bad(SLOT_MISMATCH, f"equation forces f-value {forced}, step claims {n * n}")
        except InexactDivisionError as exc:
            bad(INEXACT_DIVISION, str(exc))
    else:  # pragma: no cover - parse layer rejects unknown kinds
        raise TypeError(f"unknown justification {j!r}")

    demanded = demanded_prereqs(step)
    listed = step.prereqs
    listed_set = set(listed)
    for fact in demanded:
        if fact not in listed_set:
            bad(MISSING_PREREQ, f"prerequisite {fact} not listed", value=fact)
        elif not established(fact):
            bad(MISSING_PREREQ, f"prerequisite {fact} not established",
                value=fact, establishment=True)
    extras = [x for x in listed if x not in set(demanded)]
    if extras or len(listed) != len(listed_set):
        bad(EXTRA_PREREQ, f"prereqs {list(listed)} exceed demanded {list(demanded)}")
    return out


def serialize_step(step: CertificateStep) -> str:
    """One wire line, LF-terminated. Fixed field order for byte determinism."""
    j = step.just
    if isinstance(j, Base):
        js = '{"type":"base"}'
    elif isinstance(j, CoprimeProduct):
        js = f'{{"type":"coprime_product","a":{j.a},"b":{j.b}}}'
    elif isinstance(j, CoprimeQuotient):
        js = f'{{"type":"coprime_quotient","product":{j.product},"divisor":{j.divisor}}}'
    else:
        js = f'{{"type":"parallelogram","p":{j.p},"q":{j.q},"target":"{j.target}"}}'
    pr = ",".join(map(str, step.prereqs))
    if step.meta:
        ms = json.dumps(step.meta, sort_keys=True, separators=(",", ":"))
        return f'{{"n":{step.fact},"just":{js},"prereqs":[{pr}],"meta":{ms}}}\n'
    return f'{{"n":{step.fact},"just":{js},"prereqs":[{pr}]}}\n'


# One `%` template per line form the generator writes, fields as commented.
# Each gives serialize_step's line for its step, the prereqs in SLOTS order
# with the target slot left out.
BASE_LINE = '{"n":%d,"just":{"type":"base"},"prereqs":[]}\n'  # n
COPRIME_PRODUCT_LINE = (  # n, a, b, a, b
    '{"n":%d,"just":{"type":"coprime_product","a":%d,"b":%d},"prereqs":[%d,%d]}\n')
COPRIME_QUOTIENT_LINE = (  # n, product, divisor, divisor, product
    '{"n":%d,"just":{"type":"coprime_quotient","product":%d,"divisor":%d},'
    '"prereqs":[%d,%d]}\n')
CLOSE_P_LINE = (  # p, p, q, p+q, p-q, q
    '{"n":%d,"just":{"type":"parallelogram","p":%d,"q":%d,"target":"p"},'
    '"prereqs":[%d,%d,%d]}\n')
CLOSE_SUM_LINE = (  # p+q, p, q, p-q, p, q, policy (the meta tag)
    '{"n":%d,"just":{"type":"parallelogram","p":%d,"q":%d,"target":"sum"},'
    '"prereqs":[%d,%d,%d],"meta":{"policy":"%s"}}\n')


_JUST_FIELDS = {
    "base": (),
    "coprime_product": ("a", "b"),
    "coprime_quotient": ("product", "divisor"),
    "parallelogram": ("p", "q", "target"),
}


def parse_step(line: str, line_no: int) -> CertificateStep:
    """Parse one wire line; raises CertificateFormatError on malformed input."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(line_no, f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise CertificateFormatError(line_no, str(exc)) from exc
    except RecursionError as exc:  # arrays or objects nested past the stack
        raise CertificateFormatError(line_no, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CertificateFormatError(line_no, "step must be a JSON object")
    for key in ("n", "just", "prereqs"):
        if key not in obj:
            raise CertificateFormatError(line_no, f"missing field {key!r}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise CertificateFormatError(line_no, f"n must be a non-negative integer, got {n!r}")
    jobj = obj["just"]
    if not isinstance(jobj, dict) or "type" not in jobj:
        raise CertificateFormatError(line_no, "just must be an object with a type")
    kind = jobj["type"]
    if kind not in _JUST_FIELDS:
        raise CertificateFormatError(line_no, f"unknown justification type {kind!r}")
    fields = _JUST_FIELDS[kind]
    for f in fields:
        if f not in jobj:
            raise CertificateFormatError(line_no, f"justification {kind} missing {f!r}")
    extra = set(jobj) - {"type", *fields}
    if extra:
        raise CertificateFormatError(line_no, f"unexpected justification fields {sorted(extra)}")

    def _int_field(name: str) -> int:
        v = jobj[name]
        if not isinstance(v, int) or isinstance(v, bool):
            raise CertificateFormatError(line_no, f"{name} must be an integer, got {v!r}")
        return v

    just: Justification
    if kind == "base":
        just = Base()
    elif kind == "coprime_product":
        just = CoprimeProduct(_int_field("a"), _int_field("b"))
    elif kind == "coprime_quotient":
        just = CoprimeQuotient(_int_field("product"), _int_field("divisor"))
    else:
        target = jobj["target"]
        if target not in SLOTS:
            raise CertificateFormatError(line_no, f"unknown target slot {target!r}")
        just = ParallelogramClose(_int_field("p"), _int_field("q"), target)
    prereqs = obj["prereqs"]
    if not isinstance(prereqs, list) or any(
        not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in prereqs
    ):
        raise CertificateFormatError(line_no, "prereqs must be a list of non-negative integers")
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise CertificateFormatError(line_no, "meta must be an object when present")
    return CertificateStep(n, just, tuple(prereqs), meta)


def iter_steps(path: str) -> Iterator[tuple[int, CertificateStep]]:
    """Yield (line_no, step) pairs from a JSON-lines certificate file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            yield line_no, parse_step(line, line_no)

