"""Exact-rational bootstrap: pinning f on 1..20 and probing other instance sets."""

import hashlib
import json
from fractions import Fraction

import pytest

from quadcert.bootstrap import (
    BOOTSTRAP_BOUND,
    PROBE_BOUND_CAP,
    BootstrapSystem,
    _explore,
    pp_label,
    prime_powers_upto,
    resolve_instance_set,
    solve_bootstrap,
    uniqueness_probe,
)
from quadcert.model import BASE_LIMIT
from quadcert.primes import primes_upto


@pytest.fixture(scope="module")
def result():
    return solve_bootstrap()


# ---------------------------------------------------------------------------
# the solved table and branch structure
# ---------------------------------------------------------------------------


def test_table_is_exactly_squares(result):
    assert result.table == {n: n * n for n in range(1, BASE_LIMIT + 1)}


def test_single_surviving_branch(result):
    live = [leaf for leaf in result.leaves if leaf.contradiction is None]
    assert len(live) == 1
    assert live[0] is result.survivor


def test_pruned_branch_hits_the_half_vs_third_clash(result):
    # The non-square branch pins f(2) = 1/2 and later needs f(2) = 1/3.
    assert len(result.pruned) >= 1
    clash = result.pruned[0].contradiction
    assert clash["unknown"] == 2
    assert {clash["established"], clash["forced"]} == {"1/2", "1/3"}
    assert "f(2)" in clash["message"]


def test_survivor_pins_all_prime_powers_in_scope(result):
    for pk in prime_powers_upto(BOOTSTRAP_BOUND):
        assert result.survivor.numeric[pk] == Fraction(pk * pk)


def test_runs_inside_a_second(result):
    assert result.elapsed_s < 1.0


# ---------------------------------------------------------------------------
# symbolic forms recorded on the way to the numeric table
# ---------------------------------------------------------------------------

EXPECTED_FORMS = {
    4: (0, {2: 4}),
    5: (-1, {3: 2, 2: 2}),
    7: (-2, {3: 3, 2: 6}),
    8: (-2, {3: 6, 2: 3}),
    9: (-3, {3: 4, 2: 12}),
    13: (3, {11: 2, 3: -4, 2: -10}),
}


def test_intermediate_linear_forms(result):
    for pk, (const, coef) in EXPECTED_FORMS.items():
        form = result.forms[pk]
        assert form.c == const, pk
        assert {i: v for i, v in form.coef.items() if v} == coef, pk


def test_forms_evaluate_to_squares_under_the_solution(result):
    # Independent check: substituting u_i = i^2 into every recorded form
    # must reproduce pk^2, because each form is an identity of the system.
    for pk, form in result.forms.items():
        value = form.c + sum(co * i * i for i, co in form.coef.items())
        assert value == pk * pk, pk


def test_form_rendering_is_readable(result):
    assert result.forms[4].render() == "4 f(2)"
    assert result.forms[5].render() == "2 f(3) + 2 f(2) - 1"
    assert result.forms[9].render() == "4 f(3) + 12 f(2) - 3"


# ---------------------------------------------------------------------------
# transcript: the order the facts were pinned
# ---------------------------------------------------------------------------


def test_transcript_derives_f3_from_7_5(result):
    # f(12) = f(4) f(3) together with the (7,5) instance forces f(3) = 9
    # before any other instance touches f(3) numerically.
    hits = [ln for ln in result.transcript if "f(3) = 9" in ln]
    assert hits and "(7,5)" in hits[0]


def test_transcript_mentions_branch_assumption(result):
    assert any("f(2) = 4" in ln for ln in result.transcript)


def test_too_small_bound_cannot_pin_the_table():
    from quadcert.bootstrap import BootstrapError

    with pytest.raises(BootstrapError):
        solve_bootstrap(bound=7)


# ---------------------------------------------------------------------------
# zero products: (p,p) instances factor as (f(2) - 4) f(p) = 0
# ---------------------------------------------------------------------------


def test_odd_prime_diagonal_becomes_zero_product():
    sys_ = BootstrapSystem.build([3, 5, 7], 14)
    assert [z.other for z in sys_.zero_products] == [3, 5, 7]


def test_nonzero_other_factor_forces_the_pivot():
    # f(3) known and nonzero: (f(2) - 4) f(3) = 0 leaves only f(2) = 4
    sys_ = BootstrapSystem.build([3], 6)
    sys_._set_numeric(3, Fraction(9), "given")
    sys_.propagate()
    assert sys_.numeric[2] == 4
    assert sys_.transcript[-1] == "instance (3,3) zero-product: f(2) = 4"
    assert not sys_.pending_zero_products()


@pytest.mark.parametrize("spec, bound, labels", [
    ("primes", 40, ["root/f(2)=4", "root/zero-factors"]),
    ("4n", 100, ["root"]),  # an even diagonal (m, m) makes no zero product
    ([3, 5, 7, 11, 13, 17, 19], 40, ["root/f(2)=4", "root/zero-factors"]),
])
def test_every_zero_product_shares_one_pivot_so_one_split_resolves_them(spec, bound, labels):
    _, elements = resolve_instance_set(spec, bound)
    root = BootstrapSystem.build(elements, bound)
    leaves = _explore(root)
    assert [leaf.label for leaf in leaves] == labels
    assert not any(leaf.pending_zero_products() for leaf in leaves
                   if leaf.contradiction is None)


# ---------------------------------------------------------------------------
# probes over other instance sets
# ---------------------------------------------------------------------------


def test_probe_primes_at_40_pins_everything():
    rep = uniqueness_probe("primes", 40)
    assert rep.free == []
    assert rep.live_count == 1
    scope = prime_powers_upto(40)
    assert rep.determined == {pk: Fraction(pk * pk) for pk in scope}


def test_probe_multiples_of_four_pins_nothing():
    rep = uniqueness_probe("4n", 100)
    assert rep.determined == {}
    assert 2 in rep.free and 3 in rep.free
    assert rep.live_count >= 1
    assert "evidence" in rep.note


def test_probe_explicit_iterable():
    rep = uniqueness_probe([3, 5, 7, 9, 11], 40)
    assert rep.set_label == "explicit"
    # no contradiction forced: at least one branch survives
    assert rep.live_count >= 1


def test_probe_file_set(tmp_path):
    p = tmp_path / "set.txt"
    p.write_text("2 3 5 7 11 13\n", encoding="utf-8")
    rep = uniqueness_probe(f"file:{p}", 20)
    assert rep.set_label == f"file:{p}"
    assert rep.live_count >= 1


def test_probe_empty_set_leaves_everything_free():
    rep = uniqueness_probe([], 30)
    assert rep.determined == {}
    assert rep.free == prime_powers_upto(30)
    assert rep.branch_count == 1 and rep.live_count == 1


def test_probe_bound_cap():
    with pytest.raises(ValueError):
        uniqueness_probe("primes", PROBE_BOUND_CAP + 1)
    with pytest.raises(ValueError):
        uniqueness_probe("primes", 0)


def test_probe_unknown_label():
    with pytest.raises(ValueError):
        uniqueness_probe("squares", 40)


def test_probe_report_dict_shape():
    d = uniqueness_probe("primes", 40).to_dict()
    assert d["set"] == "primes"
    assert d["bound"] == 40
    assert d["determined"]["2"] == "4"
    assert d["determined"]["2^5"] == "1024"
    assert d["free"] == []
    assert d["surviving_branches"] == 1
    assert d["contradiction"] is None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _powers(bound):
    """(p, k) for every prime power p^k <= bound, by powering each prime."""
    return [(p, k) for p in primes_upto(bound)
            for k in range(1, bound.bit_length() + 1) if p ** k <= bound]


def test_prime_powers_upto():
    assert prime_powers_upto(40) == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37,
    ]
    for b in (1, 2, 40, PROBE_BOUND_CAP):
        assert prime_powers_upto(b) == sorted(p ** k for p, k in _powers(b)), b


def test_pp_label():
    assert pp_label(2) == "2"
    assert pp_label(8) == "2^3"
    assert pp_label(27) == "3^3"
    assert pp_label(37) == "37"
    for p, k in _powers(PROBE_BOUND_CAP):
        assert pp_label(p ** k) == (f"{p}^{k}" if k > 1 else str(p))


def test_resolve_instance_set_variants(tmp_path):
    assert resolve_instance_set("primes", 12) == ("primes", [2, 3, 5, 7, 11])
    assert resolve_instance_set("4n", 17) == ("4n", [4, 8, 12, 16])
    label, elems = resolve_instance_set([9, 2, 2, 50], 40)
    assert (label, elems) == ("explicit", [2, 9])
    p = tmp_path / "s.txt"
    p.write_text("5\n3\n99\n", encoding="utf-8")
    assert resolve_instance_set(f"file:{p}", 40) == (f"file:{p}", [3, 5])


# ---------------------------------------------------------------------------
# golden outputs: sha256 digests of the derivation text, the recorded forms
# and the probe reports, so a refactor of the propagation keeps every byte
# ---------------------------------------------------------------------------


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_bootstrap_transcript_and_forms_are_pinned(result):
    assert len(result.transcript) == 47
    assert _sha("\n".join(result.transcript)) == (
        "eaecfaa0f657b9d1036c8c7c4d3423091a54b7113fd4c8943bd955d3c92d3a04")
    forms = "\n".join(f"{k}: {v.render()}" for k, v in sorted(result.forms.items()))
    assert _sha(forms) == (
        "6e4a03e06badd06640a54a4769ef3454023c27a3fac3fc64b63fa19758cc192b")


@pytest.mark.parametrize("spec,bound,report_sha,transcript_sha", [
    ("primes", 40,
     "cf5fce562e3971ae8ffdd07479c94f1c5de9b16432a883371ad745b5dbf1dc04",
     "eaecfaa0f657b9d1036c8c7c4d3423091a54b7113fd4c8943bd955d3c92d3a04"),
    ("4n", 100,
     "b0a2c33e812b4104c9008de82890762c9634fff9795130cea20ef8ac4c36a158",
     "ea0518a0e10bc46201820f655c756a081a0b124c1d957ec2f9e0b21615da6d02"),
    # a pruned branch whose contradiction names no unknown:
    # "instance (4,2) reduces to -13/9 = 0"
    ([2, 4, 5, 7, 10, 13, 14, 18, 19, 20, 23], 23,
     "cbb3cf92ad52838c2d0ca3e7e8f931ad7a2fe291b69fe9d3b18ef819d9d40910",
     "ca3c09794c560af501d8d6dae4c269c5f9d647dc3543a7e0069f074ad2b85283"),
    # two surviving branches
    ([6, 7, 8, 16, 29, 51, 72, 74, 75, 81], 107,
     "7db605ec66997914cf4d572720377dab49477187e27a62ff8dcba554fabdd6eb",
     "e8499c8f2296fcb4f9bda0f79be183eadf43af4ab83a2361b80cac5fcd4fb6a8"),
])
def test_probe_report_and_transcript_are_pinned(spec, bound, report_sha, transcript_sha):
    report = uniqueness_probe(spec, bound)
    assert _sha(json.dumps(report.to_dict(), sort_keys=True)) == report_sha
    assert _sha("\n".join(report.transcript)) == transcript_sha
