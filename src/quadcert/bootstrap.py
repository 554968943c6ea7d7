"""Exact-rational bootstrap: pin f(1..20) = n^2 by constraint propagation.

Unknowns are u_{p^k} = f(p^k) for prime powers p^k; multiplicativity makes
every other f(n) a monomial over them (f(1) = 1, f(0) = 0 are constants).
Each instance pair (m, n), m >= n, m + n <= bound, contributes the equation

    f(m+n) + f(m-n) - 2 f(m) - 2 f(n) = 0.

Propagation keeps the system linear: a monomial linearizes once all but at
most one factor is numerically determined; equations with monomials of two or
more undetermined factors are parked and revisited when a factor resolves.
A linear equation is solved for its largest unknown, giving a triangular
substitution (exactly the hand calculation: f(5) = 2f(3) + 2f(2) - 1, then
f(7) = 3f(3) + 6f(2) - 2, and so on). All arithmetic is fractions.Fraction.

The only nonlinearity kept is the zero-product shape (u_2 - 4) * u_p = 0
arising from an instance (p, p) with p an odd prime combined with
f(2) f(p) = f(2p). All of them share the pivot u_2 and the value 4, so when
propagation stalls on them the system splits once, as the paper does: one
child assumes u_2 = 4, the other zeroes every paired factor. For the prime
instance set the zero branch collapses (it forces f(2) = 1/2 and f(2) = 1/3
simultaneously), leaving a single survivor whose numeric table is checked to
be exactly n^2 on 1..20.

Equations are processed in ascending (m+n, m) order, including revisits, so
transcripts are deterministic line for line.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .basecase import Monom, factor
from .model import BASE_LIMIT
from .primes import is_prime, primes_upto

F0 = Fraction(0)
F1 = Fraction(1)

BOOTSTRAP_BOUND = 40  # instances with m + n <= 40 suffice to pin 1..20
PROBE_BOUND_CAP = 10_000


class BootstrapError(RuntimeError):
    """The bootstrap failed to pin f(1..20) = n^2 (or branched ambiguously)."""


def prime_powers_upto(bound: int) -> list[int]:
    out = []
    for p in primes_upto(bound):
        pk = p
        while pk <= bound:
            out.append(pk)
            pk *= p
    return sorted(out)


def pp_label(pk: int) -> str:
    """Render a prime-power unknown id as p or p^k."""
    for p in range(2, pk + 1):
        if pk % p == 0:
            k = 0
            x = pk
            while x % p == 0:
                x //= p
                k += 1
            return f"{p}^{k}" if k > 1 else str(p)
    return str(pk)


@dataclass(frozen=True, slots=True)
class Lin:
    """Linear expression c + sum coef[i] * u_i over fresh unknown ids."""

    c: Fraction
    coef: dict[int, Fraction]

    def render(self) -> str:
        parts = []
        for i in sorted(self.coef, reverse=True):
            co = self.coef[i]
            sign = "-" if co < 0 else "+"
            mag = abs(co)
            term = f"f({i})" if mag == 1 else f"{mag} f({i})"
            parts.append((sign, term))
        if self.c != 0 or not parts:
            parts.append(("-" if self.c < 0 else "+", str(abs(self.c))))
        first_sign, first_term = parts[0]
        text = (f"-{first_term}" if first_sign == "-" else first_term)
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text


@dataclass(slots=True)
class Eq:
    """One equation `terms = 0`; terms maps monomials to coefficients."""

    terms: dict[Monom, Fraction]
    source: str
    rank: int


@dataclass(slots=True)
class ZeroProduct:
    """(u_pivot - value) * u_other = 0, from (p,p) plus f(2)f(p) = f(2p)."""

    pivot: int
    value: Fraction
    other: int
    source: str
    resolved: bool = False


class BootstrapSystem:
    """Constraint state for the root or for one side of its split."""

    def __init__(self, elements: Sequence[int], bound: int, label: str = "root"):
        self.elements = sorted(set(elements))
        self.bound = bound
        self.label = label
        self.numeric: dict[int, Fraction] = {}
        self.subs: dict[int, Lin] = {}
        self.sub_deps: dict[int, list[int]] = {}
        self.queue: list[tuple[int, int, Eq]] = []
        self._seq = 0
        self.blocked_index: dict[int, list[Eq]] = {}
        self.parked: set[int] = set()  # id(eq) of currently parked equations
        self.zero_products: list[ZeroProduct] = []
        self.transcript: list[str] = []
        self.contradiction: dict | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, elements: Sequence[int], bound: int) -> "BootstrapSystem":
        sys_ = cls(elements, bound)
        rank = 0
        for m, n in sys_.instances():
            rank += 1
            if m == n and m > 2 and is_prime(m):
                # f(2m) = 4 f(m) with f(2m) = f(2) f(m): the zero-product shape.
                sys_.zero_products.append(
                    ZeroProduct(2, Fraction(4), m, f"instance ({m},{m})")
                )
                continue
            terms: dict[Monom, Fraction] = {}
            sys_._add_term(terms, m + n, F1)
            sys_._add_term(terms, m - n, F1)
            sys_._add_term(terms, m, Fraction(-2))
            sys_._add_term(terms, n, Fraction(-2))
            sys_.enqueue(Eq(terms, f"instance ({m},{n})", rank))
        return sys_

    def instances(self) -> list[tuple[int, int]]:
        pairs = [
            (m, n)
            for i, m in enumerate(self.elements)
            for n in self.elements[: i + 1]
            if m + n <= self.bound
        ]
        pairs.sort(key=lambda mn: (mn[0] + mn[1], mn[0]))
        return pairs

    def _add_term(self, terms: dict[Monom, Fraction], x: int, coeff: Fraction) -> None:
        if x != 0:  # f(0) = 0; f(1) = 1 is the constant term ()
            terms[factor(x)] = terms.get(factor(x), F0) + coeff

    def enqueue(self, eq: Eq) -> None:
        self._seq += 1
        heapq.heappush(self.queue, (eq.rank, self._seq, eq))

    # -- reduction ---------------------------------------------------------

    def _reduce(self, terms: dict[Monom, Fraction],
                numeric: dict[int, Fraction] | None = None):
        """Fold numerics and substitutions; returns Lin or a blocking id set."""
        val = (self.numeric if numeric is None else numeric).get
        const = F0
        lin: dict[int, Fraction] = {}
        blocking: set[int] = set()
        for ids, coeff in terms.items():
            if not ids:
                const += coeff
                continue
            scale = coeff
            unknown: list[int] = []
            for i in ids:
                v = val(i)
                if v is None:
                    unknown.append(i)
                else:
                    scale *= v
            if not unknown:
                const += scale
            elif scale == 0:
                continue
            elif len(unknown) == 1:
                i = unknown[0]
                lin[i] = lin.get(i, F0) + scale
            else:
                blocking.update(unknown)
        if blocking:
            return blocking
        # expand triangular substitutions until every id is fresh
        changed = True
        while changed:
            changed = False
            for i in list(lin):
                sub = self.subs.get(i)
                if sub is None:
                    continue
                co = lin.pop(i)
                const += co * sub.c
                for k, ck in sub.coef.items():
                    v = val(k)
                    if v is not None:
                        const += co * ck * v
                    else:
                        lin[k] = lin.get(k, F0) + co * ck
                changed = True
        lin = {i: c for i, c in lin.items() if c != 0}
        return Lin(const, lin)

    def _reduce_lin(self, lin: Lin) -> Lin:
        # no monomial here has two unknowns, so nothing blocks
        terms: dict[Monom, Fraction] = {(): lin.c}
        for i, c in lin.coef.items():
            terms[(i,)] = terms.get((i,), F0) + c
        return self._reduce(terms)

    # -- propagation -------------------------------------------------------

    def propagate(self) -> None:
        while self.contradiction is None:
            if self.queue:
                _, _, eq = heapq.heappop(self.queue)
                self._process(eq)
                continue
            if self._resolve_zero_products():
                continue
            break

    def _process(self, eq: Eq) -> None:
        red = self._reduce(eq.terms)
        if isinstance(red, set):
            self.parked.add(id(eq))
            for i in sorted(red):
                self.blocked_index.setdefault(i, []).append(eq)
            return
        lin = red
        if not lin.coef:
            if lin.c != 0:
                self._contradict(eq, lin.c)
            return
        target = max(lin.coef)
        ct = lin.coef[target]
        rhs = Lin(
            -lin.c / ct,
            {i: -c / ct for i, c in lin.coef.items() if i != target},
        )
        if rhs.coef:
            self.subs[target] = rhs
            for i in rhs.coef:
                self.sub_deps.setdefault(i, []).append(target)
            self.transcript.append(f"{eq.source}: f({target}) = {rhs.render()}")
        else:
            self._set_numeric(target, rhs.c, eq.source)

    def _set_numeric(self, i: int, value: Fraction, source: str) -> None:
        # i is unknown here: _process solves only for an unknown that
        # _reduce left unfolded, and the cascade skips determined ones
        self.numeric[i] = value
        self.transcript.append(f"{source}: f({i}) = {value}")
        # cascade substitutions whose right side just became constant
        for lhs in self.sub_deps.get(i, []):
            if lhs in self.numeric:
                continue
            red = self._reduce_lin(self.subs[lhs])
            if not red.coef:
                self._set_numeric(lhs, red.c, f"substitution for f({lhs})")
        # wake equations parked on this unknown
        for eq in self.blocked_index.pop(i, []):
            if id(eq) in self.parked:
                self.parked.remove(id(eq))
                self.enqueue(eq)

    def _resolve_zero_products(self) -> bool:
        progressed = False
        for zp in self.zero_products:
            if zp.resolved:
                continue
            pivot_val = self.numeric.get(zp.pivot)
            if pivot_val is not None:
                zp.resolved = True
                progressed = True
                if pivot_val != zp.value:
                    self.enqueue(Eq({(zp.other,): F1}, f"{zp.source} zero-product", -1))
                continue
            red = self._reduce_lin(Lin(F0, {zp.other: F1}))
            if not red.coef:
                zp.resolved = True
                progressed = True
                if red.c != 0:
                    self.enqueue(
                        Eq({(zp.pivot,): F1, (): -zp.value}, f"{zp.source} zero-product", -1)
                    )
        return progressed

    def _contradict(self, eq: Eq, residue: Fraction) -> None:
        # Diagnose by rolling back: re-reduce the failing equation in the
        # state just before each determination, most recent first. Unknowns
        # whose value was only a substitution fold away, so the walk lands on
        # the most recent independently determined unknown the equation
        # re-forces to a different value (e.g. f(2) = 1/2 versus 1/3).
        unknown = established = forced = None
        message = f"{eq.source} reduces to {residue} = 0"
        order = list(self.numeric.items())  # in order of determination
        for k in range(len(order) - 1, -1, -1):
            cand, value = order[k]
            red = self._reduce(eq.terms, numeric=dict(order[:k]))
            if isinstance(red, set):
                continue
            co = red.coef.get(cand)
            if co and len(red.coef) == 1 and -red.c / co != value:
                unknown, established, forced = cand, str(value), str(-red.c / co)
                message = (f"f({cand}) = {established} established but"
                           f" {eq.source} forces f({cand}) = {forced}")
                break
        self.contradiction = {"source": eq.source, "unknown": unknown,
                              "established": established, "forced": forced,
                              "message": message}
        self.transcript.append("contradiction: " + message)

    # -- branching ---------------------------------------------------------

    def pending_zero_products(self) -> list[ZeroProduct]:
        return [zp for zp in self.zero_products if not zp.resolved]

    def clone(self, label: str) -> "BootstrapSystem":
        child = BootstrapSystem(self.elements, self.bound, label)
        child.numeric = dict(self.numeric)
        child.subs = dict(self.subs)
        child.sub_deps = {k: list(v) for k, v in self.sub_deps.items()}
        child.queue = list(self.queue)
        child._seq = self._seq
        child.blocked_index = {k: list(v) for k, v in self.blocked_index.items()}
        child.parked = set(self.parked)
        child.zero_products = [
            ZeroProduct(z.pivot, z.value, z.other, z.source, z.resolved)
            for z in self.zero_products
        ]
        child.transcript = list(self.transcript)
        return child


def branch_on_zero_product(system: BootstrapSystem) -> list[BootstrapSystem]:
    """Split on the pending zero products (u_2 - 4) * u_p = 0, which all
    share that pivot and value: one child adds u_2 = 4; the other zeroes
    every paired factor."""
    group = system.pending_zero_products()
    pivot, value = group[0].pivot, group[0].value
    take = system.clone(f"{system.label}/f({pivot})={value}")
    take.transcript.append(f"branch: assume f({pivot}) = {value}")
    take.enqueue(Eq({(pivot,): F1, (): -value}, "branch assumption", -len(group) - 1))
    zero = system.clone(f"{system.label}/zero-factors")
    names = ", ".join(f"f({zp.other})" for zp in group)
    zero.transcript.append(f"branch: assume {names} all = 0")
    for k, zp in enumerate(group):
        zero.enqueue(Eq({(zp.other,): F1}, f"branch assumption f({zp.other}) = 0",
                        k - len(group)))
    return [take, zero]


def _explore(system: BootstrapSystem) -> list[BootstrapSystem]:
    """The finished systems: the root alone, or the two sides of its split,
    each of which resolves every zero product or meets a contradiction."""
    system.propagate()
    if system.contradiction is not None or not system.pending_zero_products():
        return [system]
    leaves = branch_on_zero_product(system)
    for leaf in leaves:
        leaf.propagate()
        assert leaf.contradiction is not None or not leaf.pending_zero_products()
    return leaves


def _merged_transcript(leaves: list[BootstrapSystem]) -> list[str]:
    """One leaf's transcript as is; several each under a branch header (each
    repeats the derivation before the split, which it copied)."""
    if len(leaves) == 1:
        return list(leaves[0].transcript)
    out = []
    for leaf in leaves:
        out.append(f"=== branch {leaf.label} ===")
        out.extend(leaf.transcript)
    return out


@dataclass
class BootstrapResult:
    table: dict[int, int]
    leaves: list[BootstrapSystem]
    survivor: BootstrapSystem
    forms: dict[int, Lin]
    transcript: list[str]
    elapsed_s: float

    @property
    def pruned(self) -> list[BootstrapSystem]:
        return [leaf for leaf in self.leaves if leaf.contradiction is not None]


def _solve(elements: Sequence[int], bound: int):
    """The root (its forms are the substitutions made before any split),
    every leaf, and the leaves without a contradiction."""
    root = BootstrapSystem.build(elements, bound)
    leaves = _explore(root)
    return root, leaves, [leaf for leaf in leaves if leaf.contradiction is None]


def solve_bootstrap(bound: int = BOOTSTRAP_BOUND) -> BootstrapResult:
    """Derive f(n) = n^2 for 1 <= n <= 20 from prime instances, exactly.

    Raises BootstrapError if more than one branch survives, any prime-power
    unknown <= 20 stays undetermined, or a derived value differs from n^2.
    """
    t0 = time.monotonic()
    root, leaves, live = _solve(primes_upto(bound), bound)
    if len(live) != 1:
        raise BootstrapError(
            f"expected exactly one surviving branch, got {len(live)} of {len(leaves)}"
        )
    survivor = live[0]
    table: dict[int, int] = {}
    for n in range(1, BASE_LIMIT + 1):
        value = F1
        for pk in factor(n):
            got = survivor.numeric.get(pk)
            if got is None:
                raise BootstrapError(f"f({pk}) undetermined; cannot evaluate f({n})")
            value *= got
        if value != n * n:
            raise BootstrapError(f"bootstrap derived f({n}) = {value}, not {n * n}")
        table[n] = n * n
    return BootstrapResult(
        table=table,
        leaves=leaves,
        survivor=survivor,
        forms=root.subs,
        transcript=_merged_transcript(leaves),
        elapsed_s=time.monotonic() - t0,
    )


# -- uniqueness probes -----------------------------------------------------


@dataclass
class ProbeReport:
    set_label: str
    bound: int
    determined: dict[int, Fraction]
    free: list[int]
    contradiction: dict | None
    branch_count: int
    live_count: int
    transcript: list[str]
    note: str = (
        "underdetermination is relative to this propagation calculus at the"
        " stated bound; it is evidence, not a proof of non-uniqueness"
    )

    def to_dict(self) -> dict:
        return {
            "set": self.set_label,
            "bound": self.bound,
            "determined": {
                pp_label(pk): str(v) for pk, v in sorted(self.determined.items())
            },
            "free": [pp_label(pk) for pk in self.free],
            "contradiction": self.contradiction,
            "branches": self.branch_count,
            "surviving_branches": self.live_count,
            "note": self.note,
        }


def resolve_instance_set(spec: str | Iterable[int], bound: int) -> tuple[str, list[int]]:
    """Resolve an instance-set description to (label, sorted elements <= bound)."""
    if not isinstance(spec, str):
        elems = sorted({int(x) for x in spec if 1 <= int(x) <= bound})
        return "explicit", elems
    if spec == "primes":
        return "primes", primes_upto(bound)
    if spec == "4n":
        return "4n", list(range(4, bound + 1, 4))
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
        elems = sorted({int(t) for t in tokens if 1 <= int(t) <= bound})
        return spec, elems
    raise ValueError(f"unknown instance set {spec!r} (use primes, 4n, or file:PATH)")


def uniqueness_probe(spec: str | Iterable[int], bound: int) -> ProbeReport:
    """Run propagation plus the split for an arbitrary instance set.

    Reports which prime-power unknowns <= bound are forced to a value in
    every surviving branch and which remain free. An empty set leaves
    everything free; the prime set at bound 40 forces all of 1..20.
    """
    if bound < 1 or bound > PROBE_BOUND_CAP:
        raise ValueError(f"probe bound must be in 1..{PROBE_BOUND_CAP}, got {bound}")
    label, elements = resolve_instance_set(spec, bound)
    scope = prime_powers_upto(bound)
    _, leaves, live = _solve(elements, bound)
    determined: dict[int, Fraction] = {}
    if live:
        first = live[0].numeric
        for pk in scope:
            v = first.get(pk)
            if v is not None and all(leaf.numeric.get(pk) == v for leaf in live[1:]):
                determined[pk] = v
    contradiction = None if live else leaves[0].contradiction
    return ProbeReport(
        set_label=label,
        bound=bound,
        determined=determined,
        free=[pk for pk in scope if pk not in determined],
        contradiction=contradiction,
        branch_count=len(leaves),
        live_count=len(live),
        transcript=_merged_transcript(leaves),
    )
