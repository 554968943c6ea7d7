"""The base case, replayed from hints: prime instances pin f(n) = n^2 on 1..20.

The unknowns are u_q = f(q) for the prime powers q <= 20. E(m, n) is
f(m+n) + f(m-n) - 2 f(m) - 2 f(n) as a polynomial in them, f being
multiplicative with f(1) = 1 (the empty product) and f(0) = 0. The
hypotheses are E(m, n) = 0 for primes m >= n. A hint cites such instances
with integer coefficients (any other pair is refused), so its sum is 0; a
check puts in the unknowns pinned so far, adds the sum up and requires one
exact shape. Nothing is reduced, substituted or searched.

  split  E(p, p) is exactly (u_2 - 4) u_p for each p in SPLIT_PRIMES, so
         u_2 != 4 makes each such u_p 0; with those zeros put in, the SPLIT
         sum must then be a nonzero constant, yet it is 0. So u_2 = 4.
  pin    the sum must be exactly a u + b with a != 0, so u = -b / a. The
         unknown u is still in the sum, so no earlier hint pinned it.
  table  each n in 1..20 must have every part pinned and the product n^2.

`bootstrap.solve_bootstrap` found the hints. A failed check raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

from .model import BASE_LIMIT
from .primes import is_prime

Monom = tuple[int, ...]  # sorted prime-power ids; () is the constant term
Sum = dict[tuple[int, int], int]  # instance (m, n) -> coefficient

SPLIT_PRIMES = (3, 5, 7)
SPLIT: Sum = {(3, 2): 1, (5, 2): -1}  # 1 once u_3 = u_5 = u_7 = 0
# (unknown, sum), each linear in its unknown once the pins before it are put
# in; a sum of one instance pins the same value at any nonzero coefficient
PINS: tuple[tuple[int, Sum], ...] = (
    (4, {(2, 2): 1}), (3, {(7, 5): 1, (5, 2): 2, (3, 2): 6}),  # 6 u_3 - 54
    (5, {(3, 2): 1}), (7, {(5, 2): 1}), (8, {(5, 3): 1}), (9, {(7, 2): 1}),
    (11, {(11, 3): 1}), (13, {(11, 2): 1}), (16, {(11, 5): 1}),
    (17, {(17, 3): 1}), (19, {(17, 2): 1}),
)


@cache  # every argument is at most an instance set's bound
def factor(x: int) -> Monom:
    """The prime-power parts of x >= 1, sorted (() for 1)."""
    ids, p = [], 2
    while p * p <= x:
        pk = 1
        while x % p == 0:
            pk, x = pk * p, x // p
        if pk > 1:
            ids.append(pk)
        p += 1
    return tuple(sorted(ids + [x] * (x > 1)))


def instance(m: int, n: int) -> dict[Monom, int]:
    """E(m, n) as monomial -> coefficient; refuses all but primes m >= n."""
    if not (m >= n and is_prime(m) and is_prime(n)):
        raise ValueError(f"({m}, {n}) is not an instance: two primes m >= n")
    terms: dict[Monom, int] = {}
    for x, c in ((m + n, 1), (m - n, 1), (m, -2), (n, -2)):
        if x != 0:  # f(0) = 0
            terms[factor(x)] = terms.get(factor(x), 0) + c
    return terms


def _sum(hint: Sum, pinned: dict[int, Fraction]) -> dict[Monom, Fraction]:
    """The hint's sum with the pinned unknowns put in, less its zero terms."""
    out: dict[Monom, Fraction] = {}
    for (m, n), c in hint.items():
        for monom, k in instance(m, n).items():
            value = Fraction(c * k) * prod(pinned.get(u, 1) for u in monom)
            rest = tuple(u for u in monom if u not in pinned)
            out[rest] = out.get(rest, 0) + value
    return {monom: v for monom, v in out.items() if v != 0}


def replay() -> dict[int, int]:
    """Check every hint and return {n: n^2 for n in 1..20}; raise ValueError
    at the first check that fails."""
    for p in SPLIT_PRIMES:
        if _sum({(p, p): 1}, {}) != {(2, p): 1, (p,): -4}:
            raise ValueError(f"E({p}, {p}) is not (u_2 - 4) u_{p}")
    if set(_sum(SPLIT, dict.fromkeys(SPLIT_PRIMES, Fraction(0)))) != {()}:
        raise ValueError("the split's sum is not a nonzero constant")
    pinned = {2: Fraction(4)}
    for u, hint in PINS:
        terms = _sum(hint, pinned)
        a, b = terms.pop((u,), 0), terms.pop((), 0)
        if terms or a == 0:
            raise ValueError(f"the sum for f({u}) is not linear in f({u})")
        pinned[u] = -b / a
    for n in range(1, BASE_LIMIT + 1):  # an unpinned part counts as 0
        if prod(pinned.get(u, 0) for u in factor(n)) != n * n:
            raise ValueError(f"the hints do not pin f({n}) = {n * n}")
    return {n: n * n for n in range(1, BASE_LIMIT + 1)}
