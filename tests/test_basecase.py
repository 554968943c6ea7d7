"""The base-case replay: its table, its agreement with the solver, and the
hint mutants that `check` must reject."""

import pytest

from quadcert import basecase
from quadcert.bootstrap import BOOTSTRAP_BOUND, prime_powers_upto, solve_bootstrap
from quadcert.checker import check_store
from quadcert.model import BASE_LIMIT, BOOTSTRAP_FAILED
from tests.conftest import base_rows


def test_replay_pins_the_squares():
    assert basecase.replay() == {n: n * n for n in range(1, BASE_LIMIT + 1)}


def test_the_hints_agree_with_the_solver():
    solved = solve_bootstrap()
    table = basecase.replay()
    assert table == solved.table
    pinned = [2] + [u for u, _ in basecase.PINS]  # u_2 from the split
    assert sorted(pinned) == prime_powers_upto(BASE_LIMIT)
    for u in pinned:
        assert table[u] == solved.survivor.numeric[u]
    cited = [*basecase.SPLIT, *[(p, p) for p in basecase.SPLIT_PRIMES],
             *[mn for _, hint in basecase.PINS for mn in hint]]
    assert all(m + n <= BOOTSTRAP_BOUND for m, n in cited)


def _replace(u, hint):
    """PINS with the pin of f(u) citing `hint` instead."""
    return tuple((v, hint if v == u else h) for v, h in basecase.PINS)


def _scaled(key, by):
    """PINS with one coefficient of the sum for f(3) changed by `by`."""
    hint = dict(basecase.PINS[1][1])
    hint[key] += by
    return _replace(3, hint)


NOT_LINEAR = "the sum for f({}) is not linear in f({})"
NOT_PINNED = "the hints do not pin f({}) = {}"
# Each dropped pin fails at the first later hint whose sum still holds its
# unknown, or at the table if no hint uses it.
DROPPED = {4: NOT_LINEAR.format(3, 3), 3: NOT_LINEAR.format(5, 5),
           5: NOT_LINEAR.format(7, 7), 7: NOT_LINEAR.format(9, 9),
           8: NOT_LINEAR.format(11, 11), 9: NOT_LINEAR.format(13, 13),
           11: NOT_LINEAR.format(13, 13), 13: NOT_PINNED.format(13, 169),
           16: NOT_PINNED.format(16, 256), 17: NOT_LINEAR.format(19, 19),
           19: NOT_PINNED.format(19, 361)}
NO_SPLIT = "the split's sum is not a nonzero constant"
# Scaling a sum of one instance is an equivalent mutant: 2 E = 0 pins the
# same value as E = 0, so it is not among these.
MUTANTS = {
    "drop-split": ({"SPLIT": {}, "SPLIT_PRIMES": ()}, NO_SPLIT),
    **{f"drop-pin-{u}": ({"PINS": tuple(p for p in basecase.PINS if p[0] != u)}, text)
       for u, text in DROPPED.items()},
    **{f"f3-coefficient-{m}-{n}{by:+d}": ({"PINS": _scaled((m, n), by)}, NOT_LINEAR.format(3, 3))
       for m, n in basecase.PINS[1][1] for by in (1, -1)},
    **{f"split-without-{p}": ({"SPLIT_PRIMES": tuple(q for q in basecase.SPLIT_PRIMES if q != p)},
                              NO_SPLIT)
       for p in basecase.SPLIT_PRIMES},
    # each cited pair gives the true value, so only the instance check refuses it
    "cite-composite-m": ({"PINS": _replace(9, {(9, 5): 1})}, "(9, 5) is not an instance"),
    "cite-composite-n": ({"PINS": _replace(9, {(5, 4): 1})}, "(5, 4) is not an instance"),
    "cite-m-below-n": ({"PINS": _replace(5, {(2, 3): 1})}, "(2, 3) is not an instance"),
    "sum-without-its-unknown": ({"PINS": _replace(19, {(17, 3): 1})}, NOT_LINEAR.format(19, 19)),
}


@pytest.mark.parametrize("patch, text", MUTANTS.values(), ids=MUTANTS.keys())
def test_a_broken_hint_fails_the_bootstrap(write_cert, monkeypatch, patch, text):
    for name, value in patch.items():
        monkeypatch.setattr(basecase, name, value)
    report = check_store(write_cert(base_rows()), BASE_LIMIT)
    assert not report.accepted
    assert [v.code for v in report.violations] == [BOOTSTRAP_FAILED]
    assert report.violations[0].detail.startswith(f"bootstrap failed: {text}")
    assert report.bootstrap == {"facts_pinned": 0, "surviving_branches": None}


def test_a_wrong_value_is_caught_by_the_table(monkeypatch):
    # no true hint pins a wrong value, so break an instance: E(17, 2) + 1
    instance = basecase.instance
    monkeypatch.setattr(basecase, "instance", lambda m, n: {
        **instance(m, n), (): instance(m, n).get((), 0) + ((m, n) == (17, 2))})
    with pytest.raises(ValueError, match=r"do not pin f\(19\) = 361"):
        basecase.replay()
