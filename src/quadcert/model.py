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
import re
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Iterable, Iterator

from .primes import UnsupportedIntegerError

# Parallelogram slot names (wire values of the "target" field).
SLOT_SUM = "sum"
SLOT_DIFF = "diff"
SLOT_P = "p"
SLOT_Q = "q"
SLOTS = (SLOT_SUM, SLOT_DIFF, SLOT_P, SLOT_Q)

BASE_LIMIT = 20  # base facts cover n = 0 and 1..20


@dataclass(eq=False, slots=True)
class Violation:
    """One failed validation condition, with a stable machine-readable code."""

    code: str
    detail: str
    _: KW_ONLY
    line: int | None = None
    fact: int | None = None
    # The integer the condition is about (an unestablished prerequisite,
    # a missing coverage value, ...), when one exists.
    value: int | None = None
    # establishment=True marks "prerequisite not yet established" entries,
    # which the checker later refines into cycle vs. missing_prereq.
    establishment: bool = False

    def to_dict(self) -> dict:
        out = {"code": self.code, "detail": self.detail}
        if self.line is not None:
            out["line"] = self.line
        if self.fact is not None:
            out["fact"] = self.fact
        if self.value is not None:
            out["value"] = self.value
        return out


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
        self.message = message

    def __reduce__(self):  # pickled from its two fields, not from args
        return type(self), (self.line_no, self.message)


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
# Each justification kind's wire "type" and its dataclass, whose fields, in
# order, are the kind's wire fields.
_KINDS = {"base": Base, "coprime_product": CoprimeProduct,
          "coprime_quotient": CoprimeQuotient, "parallelogram": ParallelogramClose}


@dataclass(frozen=True, slots=True)
class CertificateStep:
    fact: int
    just: Justification
    prereqs: tuple[int, ...]
    meta: dict | None = None


def as_decimal(v: int) -> str:
    """v in decimal, or its size where a product or sum of parsed integers
    is past the interpreter's limit on int-to-str conversion."""
    try:
        return str(v)
    except ValueError:
        return f"a {v.bit_length()}-bit integer"


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
            f"solving the {target} slot needs ({as_decimal(num)})/2 exact"
        )
    return half


def demanded_prereqs(step: CertificateStep) -> tuple[int, ...]:
    """The exact set of facts a step's justification consumes, sorted: a
    parallelogram's three known slots, any other kind's fields."""
    j = step.just
    if isinstance(j, ParallelogramClose):
        values = [v for s, v in slot_values(j.p, j.q).items() if s != j.target]
    else:
        values = [getattr(j, f) for f in j.__match_args__]
    return tuple(sorted(set(values)))


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
            bad(WRONG_PRODUCT, f"{j.a} * {j.b} = {as_decimal(j.a * j.b)} != {n}")
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
            bad(SLOT_MISMATCH, f"n = {n} but {j.target} slot is {as_decimal(slots[j.target])}")
        try:
            forced = parallelogram_solve(
                {s: v for s, v in slots.items() if s != j.target}, j.target
            )
            if forced != n * n:
                bad(SLOT_MISMATCH, f"equation forces f-value {as_decimal(forced)},"
                    f" step claims {as_decimal(n * n)}")
        except InexactDivisionError as exc:
            bad(INEXACT_DIVISION, str(exc))
    else:  # pragma: no cover - parse layer rejects unknown kinds
        raise TypeError(f"unknown justification {j!r}")

    demanded = demanded_prereqs(step)
    listed = step.prereqs
    listed_set = set(listed)
    for fact in demanded:
        if fact not in listed_set:
            bad(MISSING_PREREQ, f"prerequisite {as_decimal(fact)} not listed", value=fact)
        elif not established(fact):
            bad(MISSING_PREREQ, f"prerequisite {as_decimal(fact)} not established",
                value=fact, establishment=True)
    extras = [x for x in listed if x not in set(demanded)]
    if extras or len(listed) != len(listed_set):
        bad(EXTRA_PREREQ, f"prereqs {list(listed)} exceed demanded"
            f" [{', '.join(map(as_decimal, demanded))}]")
    return out


def serialize_step(step: CertificateStep) -> str:
    """One wire line, LF-terminated. Fixed field order for byte determinism."""
    j = step.just
    kind = next(k for k, cls in _KINDS.items() if type(j) is cls)
    js = json.dumps({"type": kind, **{f: getattr(j, f) for f in j.__match_args__}},
                    separators=(",", ":"))
    pr = ",".join(map(str, step.prereqs))
    if step.meta:
        ms = json.dumps(step.meta, sort_keys=True, separators=(",", ":"))
        return f'{{"n":{step.fact},"just":{js},"prereqs":[{pr}],"meta":{ms}}}\n'
    return f'{{"n":{step.fact},"just":{js},"prereqs":[{pr}]}}\n'


def _template(just: Justification, prereqs: int, meta: dict | None = None) -> str:
    """serialize_step's line for a step of `just`'s kind whose integers are
    all 0, each run of digits made a `%d` (no key or type name holds one)."""
    step = CertificateStep(0, just, (0,) * prereqs, meta)
    return re.sub(r"\d+", "%d", serialize_step(step))


# One `%` template per line form the generator writes, fields as commented,
# the prereqs in SLOTS order with the target slot left out.
BASE_LINE = _template(Base(), 0)  # n
COPRIME_PRODUCT_LINE = _template(CoprimeProduct(0, 0), 2)  # n, a, b, a, b
COPRIME_QUOTIENT_LINE = _template(  # n, product, divisor, divisor, product
    CoprimeQuotient(0, 0), 2)
CLOSE_P_LINE = _template(ParallelogramClose(0, 0, SLOT_P), 3)  # p, p, q, p+q, p-q, q
CLOSE_SUM_LINE = _template(  # p+q, p, q, p-q, p, q, policy (the meta tag)
    ParallelogramClose(0, 0, SLOT_SUM), 3, {"policy": "%s"})


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
    extra = set(obj) - {"n", "just", "prereqs", "meta"}
    if extra:
        raise CertificateFormatError(line_no, f"unexpected fields {sorted(extra)}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise CertificateFormatError(line_no, f"n must be a non-negative integer, got {n!r}")
    jobj = obj["just"]
    if not isinstance(jobj, dict) or "type" not in jobj:
        raise CertificateFormatError(line_no, "just must be an object with a type")
    kind = jobj["type"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None  # arrays, objects: unhashable
    if cls is None:
        raise CertificateFormatError(line_no, f"unknown justification type {kind!r}")
    fields = cls.__match_args__
    for f in fields:
        if f not in jobj:
            raise CertificateFormatError(line_no, f"justification {kind} missing {f!r}")
    extra = set(jobj) - {"type", *fields}
    if extra:
        raise CertificateFormatError(line_no, f"unexpected justification fields {sorted(extra)}")
    if "target" in jobj and jobj["target"] not in SLOTS:
        raise CertificateFormatError(line_no, f"unknown target slot {jobj['target']!r}")
    for f in fields:
        v = jobj[f]
        if f != "target" and (not isinstance(v, int) or isinstance(v, bool)):
            raise CertificateFormatError(line_no, f"{f} must be an integer, got {v!r}")
    just = cls(*[jobj[f] for f in fields])
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

