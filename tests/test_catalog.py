"""The identity catalog: entries, verification drivers, reports."""

import hashlib
import importlib
import io
import json
import random
import sys
import threading
from fractions import Fraction as F
from functools import reduce
from operator import mul
from pathlib import Path

import pytest

import theta5
import theta5.catalog as catalog_module
import theta5.series as series_module
from theta5.arith import partition_p
from theta5.catalog import (_D_DATA, _T1_DATA, _THETA, _TH11, AS_STATED, CORRECTED,
                            IdentityEntry, IdentityReport, _homogeneous, _key, _preimage, _reads,
                            _slot, _theta_order, catalog, lookup, report_to_dict,
                            reports_to_json, verify, verify_all, verify_ids)
from theta5.cli import run, series_to_dict
from theta5.cyclo import CycloQ5, Phase, rsub
from theta5.series import FracSeries, series_equal
from theta5.theta import CATALOG_CHARS, ThetaChar, char, theta_const

#: entries whose printed form is misprinted; as-stated fails, corrected passes.
MISPRINTED = {"T1d", "D3", "D4", "ME6", "W6"}

#: as-stated reports at orders 10 and 20, recorded from the seed package
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
#: verify_all(order, CORRECTED) reports at orders 10 and 20, recorded from the
#: package before its series tails moved to integer 4-vectors
CORRECTED_REFERENCE = Path(__file__).resolve().parent / "data" / "corrected_reference.json"


def test_catalog_shape():
    entries = catalog()
    assert len(entries) >= 40
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    assert lookup("E1").location == "§1 Eq. (1)"
    assert set(lookup("W6").variants) == {AS_STATED, CORRECTED}
    for entry in entries:
        if entry.id in MISPRINTED:
            assert CORRECTED in entry.variants
        else:
            assert entry.variants == (AS_STATED,)


def test_unknown_id():
    with pytest.raises(KeyError):
        lookup("NO_SUCH")
    with pytest.raises(KeyError):
        verify("NO_SUCH", 20)


def test_order_below_minimum_rejected():
    with pytest.raises(ValueError):
        verify("E1", 5)
    with pytest.raises(ValueError):
        verify("ME5", 12)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        verify("E1", 20, "corrected")


def test_verify_e1():
    r = verify("E1", 20)
    assert r.passed and r.order_checked >= 20
    assert r.variant == AS_STATED


def test_verify_e3_leading_values():
    r = verify("E3", 15)
    assert r.passed
    assert [partition_p(5 * n + 4) for n in range(4)] == [5, 30, 135, 490]


def test_verify_t1a_low_order():
    assert verify("T1a", 12).passed


def test_misprinted_entries_fail_as_stated_and_pass_corrected():
    for entry_id in sorted(MISPRINTED):
        bad = verify(entry_id, 20, AS_STATED)
        assert not bad.passed, entry_id
        assert bad.first_mismatch_exponent is not None
        assert bad.lhs_coeff is not None and bad.rhs_coeff is not None
        good = verify(entry_id, 20, CORRECTED)
        assert good.passed, entry_id


def test_t1d_corrected_coefficients():
    # the corrected denominator differs from the printed one at the PQ and Q^2 terms
    bad = verify("T1d", 20, AS_STATED)
    assert bad.first_mismatch_exponent == F(3, 4)


def test_me6_sign_flip():
    bad = verify("ME6", 20, AS_STATED)
    assert bad.lhs_coeff == CycloQ5(1)
    assert bad.rhs_coeff == CycloQ5(-1)


def test_verify_all_pass_pattern():
    reports = verify_all(20)
    failed = {r.id for r in reports if not r.passed}
    assert failed == MISPRINTED
    for r in reports:
        assert r.variant == AS_STATED
        # every entry is compared through at least the requested order
        assert r.order_checked >= 20, r.id


def test_verify_all_corrected_variant_all_green():
    reports = verify_all(20, variant=CORRECTED)
    assert all(r.passed for r in reports)


def test_verify_all_corrected_reports_match_reference():
    want = json.loads(CORRECTED_REFERENCE.read_text())
    for order in (10, 20):
        got = {r.id: report_to_dict(r) for r in verify_all(order, variant=CORRECTED)}
        assert got == want[str(order)], order
        assert {i for i, d in got.items() if d["variant"] == CORRECTED} == MISPRINTED


def test_verify_all_order_monotonicity():
    low, high = verify_all(10), verify_all(20)
    assert {r.id: r.passed for r in low} == {r.id: r.passed for r in high}
    # every report, field by field, equals the recorded one
    want = json.loads(REFERENCE.read_text())["catalog"]
    assert {r.id: report_to_dict(r) for r in low} == want["10"]
    assert {r.id: report_to_dict(r) for r in high} == want["20"]


def test_verify_all_repeat_run_deterministic():
    assert verify_all(10) == verify_all(10)
    assert verify("E1", 12) == verify("E1", 12)


def test_builder_homogeneity_guard():
    f = FracSeries.from_terms([(0, 1)], order=5, cpow=1)
    g = FracSeries.from_terms([(0, 1)], order=5, cpow=2)
    with pytest.raises(ArithmeticError):
        _homogeneous([("bad", f, g)])


def test_report_serialization_schema():
    reports = [verify("E1", 10), verify("T1d", 20, AS_STATED)]
    doc = json.loads(reports_to_json(reports))
    assert [list(item.keys()) for item in doc] == [
        ["id", "location", "variant", "passed", "order", "first_mismatch"]] * 2
    assert doc[0]["passed"] is True and doc[0]["first_mismatch"] is None
    assert doc[1]["passed"] is False
    mm = doc[1]["first_mismatch"]
    assert set(mm) == {"exponent", "lhs", "rhs", "label", "reason"}
    assert len(mm["lhs"]) == 4
    # round trip is the identity on the schema
    assert json.loads(json.dumps(doc)) == doc


def test_reports_to_json_is_the_cli_json():
    # one text for one report list: "§" unescaped, as ``verify --format json`` prints it
    ids = ["E1", "T1d", "W6"]
    out = io.StringIO()
    assert run(["verify", "--id", *ids, "--order", "20", "--format", "json"], out=out) == 1
    text = reports_to_json(verify_ids(ids, 20))
    assert text + "\n" == out.getvalue()
    assert "§" in text and "\\u00a7" not in text



def test_identity_entry_record():
    pairs = (("lbl", (), ()),)
    e = IdentityEntry("X", "t", "loc", 5, 2, ((AS_STATED, pairs),))
    assert (e.id, e.title, e.location, e.min_meaningful_order, e.margin, e.relations,
            e.variants) == ("X", "t", "loc", 5, 2, ((AS_STATED, pairs),), (AS_STATED,))
    kw = IdentityEntry(id="X", title="t", location="loc", min_meaningful_order=5, margin=2,
                       relations=((AS_STATED, pairs),))
    assert kw == e and hash(kw) == hash(e) == hash(("X", "t", "loc", 5, 2, ((AS_STATED, pairs),)))
    assert e != IdentityEntry("X", "t", "loc", 5, 3, ((AS_STATED, pairs),))
    assert e != ("X", "t", "loc", 5, 2, ((AS_STATED, pairs),))
    assert lookup("E1") == lookup("E1") and lookup("E1") != lookup("E2")
    assert {lookup("E1"): 1}[lookup("E1")] == 1
    with pytest.raises(AttributeError):
        e.margin = 4
    assert repr(e) == ("IdentityEntry(id='X', title='t', location='loc', "
                       "min_meaningful_order=5, margin=2, "
                       "relations=(('as-stated', (('lbl', (), ()),)),))")
    # the empty side is zero, so the pair compares zero with zero
    [(label, lhs, rhs)] = e.build(12, AS_STATED)
    assert label == "lbl" and lhs.is_zero_tail() and rhs.is_zero_tail()


def test_identity_report_record():
    r = IdentityReport("X", AS_STATED, F(20), True)
    assert (r.first_mismatch_exponent, r.lhs_coeff, r.rhs_coeff, r.label, r.reason,
            r.location) == (None, None, None, None, "", "")
    assert repr(r) == (
        "IdentityReport(id='X', variant='as-stated', order_checked=Fraction(20, 1), "
        "passed=True, first_mismatch_exponent=None, lhs_coeff=None, rhs_coeff=None, "
        "label=None, reason='', location='')")
    full = IdentityReport("X", CORRECTED, None, False, F(3, 5), CycloQ5(1, 2),
                          CycloQ5(0, -1), "lbl", "why", "Eq. 1")
    assert full == IdentityReport(
        id="X", variant=CORRECTED, order_checked=None, passed=False,
        first_mismatch_exponent=F(3, 5), lhs_coeff=CycloQ5(1, 2), rhs_coeff=CycloQ5(0, -1),
        label="lbl", reason="why", location="Eq. 1")
    assert repr(full) == (
        "IdentityReport(id='X', variant='corrected', order_checked=None, passed=False, "
        "first_mismatch_exponent=Fraction(3, 5), lhs_coeff=CycloQ5(1, 2, 0, 0), "
        "rhs_coeff=CycloQ5(0, -1, 0, 0), label='lbl', reason='why', location='Eq. 1')")
    assert r == IdentityReport("X", AS_STATED, F(20), True) and r != full
    assert r != IdentityEntry("X", "t", "loc", 5, 2, None)
    with pytest.raises(TypeError):
        hash(r)
    r.passed = False  # verify fills a report in place
    assert r != IdentityReport("X", AS_STATED, F(20), True)


#: The labels of the pairs of every entry, per variant, recorded from the
#: builders before the residue rows became data.  Only a failing pair's label
#: reaches a report, so nothing else pins them.
PAIR_LABELS = {
    ("E1", AS_STATED): ["eta^5(t)/eta(5t) = 1 - 5*sum A(n) q^n"],
    ("E2", AS_STATED): ["eta^5(5t)/eta(t) = sum B(n) q^n"],
    ("E3", AS_STATED): ["sum p(5n+4) q^n = 5 prod (1-q^(5n))^5/(1-q^n)^6"],
    ("E4", AS_STATED): ["theta'[1,1] = (2*pi*i) e(1/4) eta^3"],
    ("T1a", AS_STATED): ["T1a cross-multiplied"],
    ("T1b", AS_STATED): ["T1b cross-multiplied"],
    ("T1c", AS_STATED): ["T1c cross-multiplied"],
    ("T1d", AS_STATED): ["T1d cross-multiplied"],
    ("T1d", CORRECTED): ["T1d cross-multiplied"],
    ("T1e", AS_STATED): ["T1e cross-multiplied"],
    ("T1f", AS_STATED): ["T1f cross-multiplied"],
    ("D1", AS_STATED): ["D1 cross-multiplied"],
    ("D2", AS_STATED): ["D2 cross-multiplied"],
    ("D3", AS_STATED): ["D3 cross-multiplied"],
    ("D3", CORRECTED): ["D3 cross-multiplied"],
    ("D4", AS_STATED): ["D4 cross-multiplied"],
    ("D4", CORRECTED): ["D4 cross-multiplied"],
    ("D5", AS_STATED): ["D5 cross-multiplied"],
    ("D6", AS_STATED): ["D6 cross-multiplied"],
    ("D7", AS_STATED): ["D7 cross-multiplied"],
    ("D8", AS_STATED): ["D8 cross-multiplied"],
    ("D9", AS_STATED): ["D9 cross-multiplied"],
    ("D10", AS_STATED): ["D10 cross-multiplied"],
    ("D11", AS_STATED): ["D11 cross-multiplied"],
    ("D12", AS_STATED): ["D12 cross-multiplied"],
    ("R1", AS_STATED): ["R1 first combination"],
    ("R2", AS_STATED): ["R2 second combination"],
    ("R3", AS_STATED): ["R3 bracket", "R3 eta-chain", "R3 theta-form"],
    ("R4", AS_STATED): ["R4 first combination"],
    ("R5", AS_STATED): ["R5 second combination"],
    ("R6", AS_STATED): ["R6 bracket", "R6 eta-chain", "R6 theta-form"],
    ("R7a", AS_STATED): ["R7a bracket", "R7a eta-chain", "R7a theta-form"],
    ("FK5", AS_STATED): ["FK5 log-derivative relation"],
    ("C511", AS_STATED): ["22*sqrt5/50 Z1 + 5*sqrt5 Z2 = c+ G+^2 - c- G-^2"],
    ("C521", AS_STATED): ["1 + 6 sum (sigma(n)-5 sigma(n/5)) q^n = c+ G+^2 + c- G-^2"],
    ("PS1a", AS_STATED): ["G+^2 divisor-sum expansion"],
    ("PS1b", AS_STATED): ["G-^2 divisor-sum expansion"],
    ("ME5", AS_STATED): ["5^5 X^9 Y^9 = Z^10 (X^2-11XY-Y^2)^5"],
    ("ODE5", AS_STATED): ["X'Y - XY' = (2*pi*i)/5^(3/2) Z (X^2-11XY-Y^2)"],
    ("W5", AS_STATED): ["W(X,Y)^10 = (2*pi*i/5)^10 X^9 Y^9 (X^2-11XY-Y^2)^5"],
    ("FK6", AS_STATED): ["FK6 log-derivative relation"],
    ("C611", AS_STATED): ["H1^2 - H2^2 = 11 Z2 + Z1"],
    ("C621", AS_STATED): ["H1^2 + H2^2 = 1 + 6 sum S(n) q^n"],
    ("PS2a", AS_STATED): ["H1^2 divisor-sum expansion"],
    ("PS2b", AS_STATED): ["H2^2 divisor-sum expansion"],
    ("ME6", AS_STATED): ["X^9 Y^9 = Z^10 (X^2+11XY-Y^2)^5"],
    ("ME6", CORRECTED): ["X^9 Y^9 = -Z^10 (X^2+11XY-Y^2)^5 (sign corrected)"],
    ("ODE6", AS_STATED): ["X'Y - XY' = 2*pi*i Z (X^2+11XY-Y^2)"],
    ("W6", AS_STATED): ["repeated-column determinant^10 = "
                        "(2*pi*i)^10 X^9 Y^9 (X^2+11XY-Y^2)^5"],
    ("W6", CORRECTED): ["W(X,Y)^10 = -(2*pi*i)^10 X^9 Y^9 (X^2+11XY-Y^2)^5 "
                        "(matrix and sign corrected)"],
    ("HEAT", AS_STATED): ["heat [1, 1/5]", "heat [1, 3/5]", "heat [1/5, 1]", "heat [3/5, 1]",
                          "heat [1/5, 1/5]", "heat [3/5, 3/5]", "heat [1/5, 3/5]",
                          "heat [3/5, 9/5]", "heat [1/5, 7/5]", "heat [3/5, 1/5]",
                          "heat [1/5, 9/5]", "heat [3/5, 7/5]"],
    ("SHIFT", AS_STATED): ["theta[11/5, 1/5] = e(0) theta[1/5, 1/5]",
                           "theta[3/5, 9/5] = e(3/10) theta[3/5, -1/5]",
                           "theta[1, 11/5] = e(1/2) theta[1, 1/5]",
                           "theta[-9/5, 23/5] = e(1/5) theta[1/5, 3/5]",
                           "theta[-1/5, -3/5] = theta[1/5, 3/5]",
                           "theta'[-1/5, -3/5] = -theta'[1/5, 3/5]",
                           "theta[-3/5, -1] = theta[3/5, 1]",
                           "theta'[-3/5, -1] = -theta'[3/5, 1]"],
    ("TP-EQ", AS_STATED): ["sum = product [1, 1/5]", "sum = product [1, 3/5]",
                           "sum = product [1/5, 1]", "sum = product [3/5, 1]",
                           "sum = product [1/5, 1/5]", "sum = product [3/5, 3/5]",
                           "sum = product [1/5, 3/5]", "sum = product [3/5, 9/5]",
                           "sum = product [1/5, 7/5]", "sum = product [3/5, 1/5]",
                           "sum = product [1/5, 9/5]", "sum = product [3/5, 7/5]"],
}


def test_pair_labels():
    assert set(PAIR_LABELS) == {(e.id, v) for e in catalog() for v in e.variants}
    for (entry_id, variant), want in PAIR_LABELS.items():
        e = lookup(entry_id)
        pairs = e.build(e.min_meaningful_order + e.margin, variant)
        assert [label for label, _, _ in pairs] == want, (entry_id, variant)


def test_min_orders_follow_identity_degree():
    assert lookup("E1").min_meaningful_order == 10
    for entry_id in ("ME5", "ME6", "W5", "W6"):
        assert lookup(entry_id).min_meaningful_order == 20


def test_package_attribute_catalog_is_the_submodule():
    assert theta5.catalog is importlib.import_module("theta5.catalog")
    assert catalog_module.verify_all is verify_all
    assert catalog_module.catalog() == catalog()
    assert "catalog" not in theta5.__all__


# ---------------------------------------------------------------------------
# the theta store
# ---------------------------------------------------------------------------

@pytest.fixture
def empty_store():
    _THETA.clear()
    yield _THETA
    _THETA.clear()


def _record_builds(monkeypatch) -> list:
    """The key of each slot the store builds from now on, one item per build."""
    built = []
    real = catalog_module._stored

    def spy(key, order, build):
        return real(key, order, lambda n: built.append(key) or build(n))

    monkeypatch.setattr(catalog_module, "_stored", spy)
    return built


def _fill_store(order) -> None:
    """Every entry verified at ``order`` with direct ``verify`` calls, which
    keep the slots they build (a ``verify_ids`` run drops them)."""
    for e in catalog():
        verify(e.id, max(order, e.min_meaningful_order))


def _shift_chars(store) -> set:
    lookup("SHIFT").build(F(14), AS_STATED)
    return {ch for ch, _, _ in store}


def _catalog_routes() -> list:
    """Every route the catalog asks the store for, plus products with the
    exact-zero theta[1,1]."""
    routes = []
    real = catalog_module._slot

    def record(route, order):
        routes.append(route)
        return real(route, order)

    catalog_module._slot = record
    try:
        verify_all(10)
    finally:
        catalog_module._slot = real
    zero, a = (_TH11, 0, 1), (char(1, F(1, 5)), 0, 1)
    return routes + [(zero, zero), (zero, a), ((zero, a), (_TH11, 1, 2)), (_TH11, 0, 5)]


@pytest.mark.parametrize("built, wanted", [(50, 12), (38, 20), (22, 22)])
def test_store_clip_equals_fresh_build(empty_store, built, wanted):
    # every slot, clipped from a build at a higher order, equals the product of
    # fresh theta constants; theta[1,1] at m = 0 is an exact zero, whose stored
    # order is absolute
    chars = set(CATALOG_CHARS) | {char(1, 1)} | _shift_chars(empty_store)
    routes = list(dict.fromkeys([(ch, m, 1) for ch in chars for m in range(4)]
                                + [(ch, 0, 5) for ch in chars] + _catalog_routes()))
    assert sum(not isinstance(r[0], ThetaChar) for r in routes) > 30
    empty_store.clear()
    for route in routes:
        _slot(route, F(built))
    for route in routes:
        key = _key(route)
        got = _slot(route, F(wanted))
        assert empty_store[key][0] == built, key
        factors = (key,) if isinstance(key[0], ThetaChar) else key
        want = reduce(mul, [theta_const(ch, m, wanted) ** p for ch, m, p in factors])
        assert series_to_dict(got) == series_to_dict(want), key


def test_product_slot_keys_are_monomials():
    a, b = char(1, F(1, 5)), char(1, F(3, 5))
    assert _key((a, 0, 5)) == (a, 0, 5)
    assert _key(((a, 0, 5), (a, 0, 5))) == (a, 0, 10)
    assert _key(((b, 0, 1), (a, 0, 1))) == _key(((a, 0, 1), (b, 0, 1))) == ((a, 0, 1), (b, 0, 1))
    ab = (a, 0, 1), (b, 0, 1)
    assert _key((ab, ab)) == ((a, 0, 2), (b, 0, 2))
    assert _key(((a, 2, 1), ((a, 0, 1), (b, 1, 2)))) == ((a, 0, 1), (a, 2, 1), (b, 1, 2))


def test_verify_order_does_not_change_the_reports(empty_store):
    as_stated = json.loads(REFERENCE.read_text())["catalog"]["20"]
    corrected = json.loads(CORRECTED_REFERENCE.read_text())["20"]
    ids = [e.id for e in catalog()]
    shuffled = list(ids)
    random.Random(7).shuffle(shuffled)
    for variant, want in ((AS_STATED, as_stated), (CORRECTED, corrected)):
        empty_store.clear()
        got = verify_ids(shuffled, 20, variant)
        assert [r.id for r in got] == shuffled
        assert {r.id: report_to_dict(r) for r in got} == want, variant
        empty_store.clear()
        in_order = verify_all(20, variant)
        assert [r.id for r in in_order] == ids
        assert {r.id: report_to_dict(r) for r in in_order} == want, variant


@pytest.mark.parametrize("order", [10, 20, 33])
def test_store_order_rule(empty_store, order):
    # verify_ids runs an entry by _theta_order; on an empty store the entry's
    # highest theta slot is at that order, and every product form it asks for
    # is at its build order N, so running the entries with no theta order
    # last, highest N first, builds every slot once
    for e in catalog():
        clamped = max(order, e.min_meaningful_order)
        n = clamped + e.margin
        for variant in e.variants:
            empty_store.clear()
            verify(e.id, clamped, variant)
            theta = [built for key, (built, _) in empty_store.items()
                     if not isinstance(key[0], str)]
            forms = {built for key, (built, _) in empty_store.items() if isinstance(key[0], str)}
            assert max(theta, default=None) == _theta_order(e, n), (e.id, variant)
            assert forms <= {n}, (e.id, variant)
    # exactly the linear rows and E3 ask for no theta slot
    assert {e.id for e in catalog() if _theta_order(e, 20) is None} == {
        "E1", "E2", "E3", "C511", "C521", "PS1a", "PS1b", "C611", "C621", "PS2a", "PS2b"}


def test_verify_ids_rejects_an_unknown_id_before_verifying(empty_store):
    with pytest.raises(KeyError, match="BOGUS"):
        verify_ids(["E4", "BOGUS"], 10)
    assert not empty_store


def test_store_work_count(empty_store, monkeypatch):
    # one theta_const build per (char, m, 1) slot, and no product of two store
    # values that repeats an earlier product; the repeats left are pinned
    builds = []
    real_theta = catalog_module.theta_const

    def traced_theta(*args):
        builds.append(args[:2])
        return real_theta(*args)

    served = []  # keeps every served series alive, so tail ids stay unique
    real_slot = catalog_module._slot

    def traced_slot(route, order):
        f = real_slot(route, order)
        served.append(f)
        return f

    calls = []
    real_convolve = series_module._convolve

    def traced_convolve(a, b, key_bound):
        calls.append((a, b, key_bound))
        return real_convolve(a, b, key_bound)

    monkeypatch.setattr(catalog_module, "theta_const", traced_theta)
    monkeypatch.setattr(catalog_module, "_slot", traced_slot)
    monkeypatch.setattr(series_module, "_convolve", traced_convolve)
    built = _record_builds(monkeypatch)
    verify_all(20)
    singles = [(k[0], k[1]) for k in built if isinstance(k[0], ThetaChar) and k[2] == 1]
    assert sorted(builds, key=repr) == sorted(singles, key=repr)
    from_store = {id(f.tail) for f in served}
    seen, repeats, store_repeats = set(), 0, []
    for a, b, kb in calls:
        operands = frozenset((tuple(sorted(a.items())), tuple(sorted(b.items()))))
        if (operands, kb) in seen:
            repeats += 1
            if id(a) in from_store and id(b) in from_store:
                store_repeats.append(kb)
        seen.add((operands, kb))
    assert store_repeats == []
    # G+-^2 and H1^2, H2^2 are stored squared, so no entry squares them again;
    # the eta chains take the brackets' slots th''_A th_B and th''_B th_A,
    # where they multiplied Theta(th_A) th_B and Theta(th_B) th_A on the same
    # operand tails; the Galois-image T1 and D entries take every monomial by
    # sigma_j of their representative's slot, so they make none of these
    # products (271 when they built their own, 223 before the brackets were
    # factored, X^9 Y^9, F^5 and W shared, and the T1/D rows no image reads
    # combined before they multiply, 190 with 8 repeats before the chains
    # took the brackets' slots)
    assert (len(calls), repeats) == (184, 2)


def test_each_side_is_summed_in_one_pass(empty_store, monkeypatch):
    # every side the run evaluates, a relation's or a level series', is one
    # FracSeries.lincomb call over its terms, plus one for the combination that
    # each factored group's factor multiplies; besides those only _level's
    # scalar_mul calls it, and no series is added with +
    sums, adds, scalings, sides = [], [], [], []
    real_lincomb, real_scalar = FracSeries.lincomb.__func__, FracSeries.scalar_mul
    real_evaluator = catalog_module._evaluator

    def traced_lincomb(cls, terms):
        sums.append(len(terms))
        return real_lincomb(cls, terms)

    def traced_evaluator(n):
        side = real_evaluator(n)
        return lambda groups: sides.append(groups) or side(groups)

    monkeypatch.setattr(FracSeries, "lincomb", classmethod(traced_lincomb))
    monkeypatch.setattr(FracSeries, "__add__", lambda *args: adds.append(args))
    monkeypatch.setattr(FracSeries, "scalar_mul",
                        lambda self, c: scalings.append(c) or real_scalar(self, c))
    monkeypatch.setattr(catalog_module, "_evaluator", traced_evaluator)
    verify_all(20)
    factored = sum(1 for groups in sides for factor, _ in groups if factor is not None)
    assert adds == []
    assert (len(sides), factored, len(scalings)) == (193, 24, 2)
    assert len(sums) == len(sides) + factored + len(scalings)
    assert sum(1 for n in sums if n > 1) == 66


def test_store_builds_every_theta_constant(empty_store, monkeypatch):
    callers = []

    def traced(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return theta_const(*args)

    monkeypatch.setattr(catalog_module, "theta_const", traced)
    verify_all(10)
    assert callers and set(callers) == {"_build"}


def test_store_keeps_one_slot_per_key(empty_store, monkeypatch):
    # direct verify calls keep what they build, one slot per key at the
    # highest order asked for
    _fill_store(20)
    after20 = dict(empty_store)
    _fill_store(40)
    after40 = dict(empty_store)
    assert after40.keys() == after20.keys()
    assert all(after40[k][0] > after20[k][0] for k in after20)
    served = []
    real = catalog_module._stored

    def record(key, n, build):
        served.append((key, _THETA[key] if key in _THETA else None))
        return real(key, n, build)

    monkeypatch.setattr(catalog_module, "_stored", record)
    built = _record_builds(monkeypatch)
    verify_all(10)
    # every request at order 10 is served by clipping the order-40 builds,
    # none is built again, and the run drops every slot it read
    assert built == []
    assert {key for key, _ in served} <= after40.keys()
    assert all(slot is after40[key] for key, slot in served)
    assert not empty_store


@pytest.mark.parametrize("variant", [AS_STATED, CORRECTED])
@pytest.mark.parametrize("order", [20, 60])
def test_reads_name_every_key_an_entry_requests(empty_store, monkeypatch, order, variant):
    # every store key that an entry requests, at any depth, is among its
    # _reads; alone on an empty store an entry builds everything it reads, and
    # requests exactly those keys
    requested, current = {}, [None]
    real_stored, real_verify = catalog_module._stored, catalog_module.verify

    def record(key, n, build):
        requested[current[0]].add(key)
        return real_stored(key, n, build)

    def traced_verify(entry_id, *args):
        current[0] = entry_id
        requested[entry_id] = set()
        return real_verify(entry_id, *args)

    monkeypatch.setattr(catalog_module, "_stored", record)
    monkeypatch.setattr(catalog_module, "verify", traced_verify)
    reads = {e.id: _reads(e, variant if variant in e.variants else AS_STATED)
             for e in catalog()}
    verify_all(order, variant)
    assert all(requested[eid] <= reads[eid] for eid in reads)
    for eid in reads:
        empty_store.clear()
        verify_ids([eid], order, variant)
        assert requested[eid] == reads[eid], eid


def test_run_builds_each_slot_once_and_drops_it(empty_store, monkeypatch):
    # within one run no key is built twice; each slot is dropped after the
    # last entry that reads it, so the store holds at most 56 of the 150 slots
    # at once and the run leaves none
    live, products = [], [0]
    real_stored, real_convolve = catalog_module._stored, series_module._convolve

    def record(key, n, build):
        f = real_stored(key, n, build)
        live.append(len(_THETA))
        return f

    def traced_convolve(a, b, key_bound):
        products[0] += 1
        return real_convolve(a, b, key_bound)

    monkeypatch.setattr(catalog_module, "_stored", record)
    monkeypatch.setattr(series_module, "_convolve", traced_convolve)
    built = _record_builds(monkeypatch)
    verify_all(20)
    assert (products[0], len(built), len(set(built)), max(live)) == (184, 150, 150, 56)
    assert not empty_store


def test_store_under_threads_gives_the_serial_reports(empty_store):
    want = json.loads(REFERENCE.read_text())["catalog"]
    orders = [10, 20, 10, 20]
    got = [None] * len(orders)
    start = threading.Barrier(len(orders))

    def work(i):
        start.wait()
        got[i] = {r.id: report_to_dict(r) for r in verify_all(orders[i])}

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    for order, reports in zip(orders, got):
        assert reports == want[str(order)], order


def test_store_races_return_the_requested_order(empty_store):
    # threads asking for one key at different orders at once each get their own order
    keys = [(char(F(1, 5), F(1, 5)), 0, 1), (char(F(1, 5), F(1, 5)), 0, 5),
            (char(1, 1), 0, 1), (char(1, F(3, 5)), 1, 1)]
    orders = [F(12), F(30), F(20), F(40)]
    want = {(key, n): series_to_dict(theta_const(key[0], key[1], n) ** key[2])
            for key in keys for n in orders}
    start = threading.Barrier(len(orders))
    bad = []

    def work(n):
        for _ in range(25):
            start.wait()
            if n == orders[0]:
                empty_store.clear()
            start.wait()
            for key in keys:
                if series_to_dict(_slot(key, n)) != want[key, n]:
                    bad.append((key, n))

    threads = [threading.Thread(target=work, args=(n,)) for n in orders]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


_FIELDS = ("scale", "phase", "qpow", "cpow", "den", "order")


def _served_forms(monkeypatch, order):
    """(key, order, order of the slot it came from, fresh build, served series)
    for each product form that verify_all(order) asks the store for."""
    served = []
    real = catalog_module._stored

    def record(key, n, build):
        f = real(key, n, build)
        if isinstance(key[0], str):
            served.append((key, n, _THETA[key][0], build(n), f))
        return f

    monkeypatch.setattr(catalog_module, "_stored", record)
    verify_all(order)
    monkeypatch.setattr(catalog_module, "_stored", real)
    return served


@pytest.mark.parametrize("prefill", [None, 40])
def test_store_product_forms_equal_fresh_builds(empty_store, monkeypatch, prefill):
    # a form served from the store, built at this order or clipped from a build
    # at a higher one, is field for field the form built afresh
    if prefill:
        _fill_store(prefill)
    served = _served_forms(monkeypatch, 20)
    assert {key[0] for key, _, _, _, _ in served} == {"eta_q", "eta_quotient", "form"}
    for key, n, _, fresh, got in served:
        assert [getattr(got, a) for a in _FIELDS] == [getattr(fresh, a) for a in _FIELDS], key
        assert list(got.tail.items()) == list(fresh.tail.items()), key
    clipped = sum(built > n for _, n, built, _, _ in served)
    # ME and ODE ask for Z, and W does not (35 and 15 while W asked for it too);
    # E3's form is served from the store too (33 before)
    assert (len(served), clipped) == (34, 34 if prefill else 13)


def test_store_builds_each_product_form_once(empty_store, monkeypatch):
    # verify_all(20) made 48 binomial products, 14 of them repeats; eta at
    # offsets 0 and 1/5, and 0 and 1, now twist one stored real product; and
    # no form is built twice, even at two orders
    import theta5.theta as theta_module
    calls = []
    real = theta_module._binomial_product

    def traced(order, factors, grid=1):
        factors = tuple(factors)
        calls.append((order, factors, grid))
        return real(order, factors, grid)

    monkeypatch.setattr(theta_module, "_binomial_product", traced)
    monkeypatch.setattr(catalog_module, "_binomial_product", traced)
    built = _record_builds(monkeypatch)
    verify_all(20)
    repeats = [c for i, c in enumerate(calls) if c in calls[:i]]
    assert (len(calls), len(repeats)) == (22, 0)
    assert len({c[1:] for c in calls}) == len(calls)
    forms = [k for k in built if isinstance(k[0], str)]
    assert len(forms) == 10


def test_product_forms_pass_few_progressions(empty_store, monkeypatch):
    # every product form reaches the kernel as a few progressions of exponents,
    # one per multiplier or factor family, never as a list of its factors
    import theta5.theta as theta_module
    counts = []
    real = theta_module._binomial_product

    def traced(order, progressions, grid=1):
        progressions = list(progressions)
        counts.append(len(progressions))
        return real(order, progressions, grid)

    monkeypatch.setattr(theta_module, "_binomial_product", traced)
    monkeypatch.setattr(catalog_module, "_binomial_product", traced)
    for ch in CATALOG_CHARS:
        theta_module.theta_const_product(ch, 40)
    for mult, offset in ((1, 0), (F(1, 5), F(2, 5)), (5, 0), (F(1, 3), 0)):
        theta_module.eta_q(mult, 40, offset)
    for spec in (((1, 5), (5, -1)), ((5, 5), (1, -1)), ((F(1, 5), 3), (1, -2), (F(1, 2), 1))):
        theta_module.eta_quotient(spec, 40)
    verify_all(20)
    assert len(counts) == 12 + 4 + 3 + 22
    assert max(counts) <= 4, counts


# ---------------------------------------------------------------------------
# the Galois orbits of the T1 and D rows
# ---------------------------------------------------------------------------

#: sha256 of reports_to_json(verify_all(order, variant)), recorded from the
#: package before the Galois-image entries took their monomials by sigma_j
#: (orders 40 and 60) and before the bracket differences were factored and
#: X^9 Y^9, F^5 and the Wronskian were shared (orders 10 and 20).  The reports
#: of the entries verified one by one, each from an empty store, had the same
#: digests.
_GOLDEN = {
    (10, AS_STATED): "61dab8f098b257c22b855def17402b52325958286b0184388d0e178960d328cc",
    (10, CORRECTED): "2da0bbc9508103a6cde312c5e117038daf6ad988e5231ddd178f29ffbc4ae8e8",
    (20, AS_STATED): "b57b9f0fe9c043d19a6bbaf4510aa45037614b37899f3b17d6a39d6b2a0eea34",
    (20, CORRECTED): "39f6212a68c20493f28f54ddb8f2cdd02c9eb8ac3fa960067b1a7c50d71ae17f",
    (40, AS_STATED): "0b80c4fadbcd076a707f1133ab8e78dc1c0772256b0f5fca3a075a5d7619de51",
    (40, CORRECTED): "a7c7e81331861d48f91ea96c4a15edc4ab7911190550b5b7670e6a779195e740",
    (60, AS_STATED): "bcb98926f8db2aba64efb888b656596af9d018aea9f5e3b17a892ff0fe586ef4",
    (60, CORRECTED): "4684fd1badcce390ac33ff1a6bcd8528c6a9977e13db67518b9a6aff0874355c",
}


@pytest.mark.parametrize("order, variant", sorted(_GOLDEN))
def test_reports_match_the_recorded_digests(empty_store, order, variant):
    def digest(reports):
        return hashlib.sha256(reports_to_json(reports).encode()).hexdigest()

    assert digest(verify_all(order, variant)) == _GOLDEN[order, variant]
    alone = []
    for e in catalog():
        empty_store.clear()
        alone += verify_ids([e.id], order, variant)
    assert digest(alone) == _GOLDEN[order, variant]


def _side_fields(f: FracSeries) -> tuple:
    return (f.scale, f.phase.num, f.phase.den, f._qpow, f.cpow, f.den, f._order,
            tuple(sorted(f.tail.items())))


def _compared_pairs(monkeypatch, order, variant) -> list:
    """(entry id, label, lhs, rhs) of every pair verify_all(order, variant)
    compares, in catalog order and, within an entry, in build order."""
    pairs, current = [], [None]
    real_homogeneous, real_verify = catalog_module._homogeneous, catalog_module.verify

    def homogeneous(built):
        pairs.extend((current[0], label, lhs, rhs) for label, lhs, rhs in built)
        return real_homogeneous(built)

    def traced_verify(entry_id, *args):
        current[0] = entry_id
        return real_verify(entry_id, *args)

    monkeypatch.setattr(catalog_module, "_homogeneous", homogeneous)
    monkeypatch.setattr(catalog_module, "verify", traced_verify)
    verify_all(order, variant)
    monkeypatch.undo()
    ids = [e.id for e in catalog()]
    return sorted(pairs, key=lambda p: ids.index(p[0]))


#: sha256 over every compared pair's entry id, label, and both sides' scale,
#: phase, qpow, cpow, den, order and tail, recorded from the package before
#: the bracket differences were factored and X^9 Y^9, F^5 and the Wronskian
#: were shared (orders 20 and 40), and before the entries became declared
#: relations (orders 10 and 60)
_PAIR_GOLDEN = {
    (10, AS_STATED): "0ac8cc555beb89d1e8d7d7ed7ac966848b230cbed52d07a3f7e6f83a58c558ea",
    (10, CORRECTED): "562495bf271221ee1c54bab733d36e5e4f71a3a6e07df4a55d312c567c5bbaec",
    (20, AS_STATED): "89339c8390a898a0b0fb68a33282c8ccea5ca55c1768ed9399b881e0c581daa0",
    (20, CORRECTED): "1a69cd208681ed5f235a1645d9e12ba0b7fa55f7173eb7e3341798cb6d432b67",
    (40, AS_STATED): "6ed7b1c146198e07e0ae839086983373703071d4242e5d49f12b6aa100c337d3",
    (40, CORRECTED): "7c7b413b4475926bd1974185a59bdd1acaab469a23f13cd0a64fc915c531a001",
    (60, AS_STATED): "7dd76377af7f9806c8dff2414b72446e3df2ec7e353d03b06ae996bc5c9f2aff",
    (60, CORRECTED): "0a232ce92971dc6d12baa89e74860e936c470f0cf93a9ecb2a75da9ea67e065f",
}


@pytest.mark.parametrize("order, variant", sorted(_PAIR_GOLDEN))
def test_pair_sides_match_the_recorded_digests(empty_store, monkeypatch, order, variant):
    pairs = _compared_pairs(monkeypatch, order, variant)
    assert len(pairs) == 83
    rows = [(eid, label, _side_fields(lhs), _side_fields(rhs)) for eid, label, lhs, rhs in pairs]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _PAIR_GOLDEN[order, variant]


def _char_class(ch: ThetaChar) -> tuple:
    """ch up to 2-shifts of eps and eps' and negation, which move theta at
    m = 0 by a phase only."""
    (p, q), (a, b) = ch.e, ch.ep
    return min((p % (2 * q), a % (2 * b)), (-p % (2 * q), -a % (2 * b))), q, b


#: what eps' -> j*eps' does to a row's pair (A, B) for j = 3, 7 and 9: the
#: image row, or the pair itself ("AB") or swapped ("BA") up to phases
_ORBITS = {
    "T1a": ("BA", "BA", "AB"), "T1b": ("AB", "AB", "AB"), "T1c": ("T1d", "T1e", "T1f"),
    "D1": ("D3", "D7", "D9"), "D2": ("D4", "D8", "D10"),
    "D5": ("AB", "AB", "AB"), "D6": ("AB", "AB", "AB"),
    "D11": ("BA", "BA", "AB"), "D12": ("BA", "BA", "AB"),
}


def test_galois_orbits_of_the_t1_and_d_rows():
    rows = {**_T1_DATA, **_D_DATA}
    images = {eid for eid, row in rows.items() if row[-1] is not None}
    assert set(_ORBITS) | images == set(rows)
    assert images == {img for row in _ORBITS.values() for img in row if img in rows}
    for eid, targets in _ORBITS.items():
        A, B = rows[eid][1:3]
        for j, target in zip((3, 7, 9), targets):
            image = [ThetaChar(ch.e[0] * ch.ep[1], j * ch.ep[0] * ch.e[1], ch.e[1] * ch.ep[1])
                     for ch in (A, B)]
            if target in rows:
                # the image row is the representative's, eps' times j up to a
                # 2-shift of eps', and names its representative and j
                assert rows[target][-1] == (eid, j)
                for got, want in zip(rows[target][1:3], image):
                    n, d = rsub(want.ep, got.ep)
                    assert got.e == want.e and d == 1 and n % 2 == 0, (target, got)
            else:
                pair = [_char_class(ch) for ch in image]
                want = [_char_class(A), _char_class(B)]
                assert pair == (want if target == "AB" else want[::-1]), (eid, j)


def _sigma(k: int, row: tuple) -> tuple:
    return tuple([(CycloQ5(1) * c).conjugate_map(k) for c in row])


def test_image_rows_are_conjugates_of_their_representatives():
    # the printed and corrected T1 and D rows against sigma_k of their
    # representative's, sigma_k = CycloQ5.conjugate_map(k): the units by which
    # they differ are what deriving the image rows from the orbit must produce
    z = CycloQ5.zeta
    t1c = _T1_DATA["T1c"][3][AS_STATED]
    assert _sigma(3, t1c) == _T1_DATA["T1d"][3][CORRECTED]
    cpq, cq2, w = _sigma(4, t1c)
    assert (-cpq, cq2, w) == _T1_DATA["T1d"][3][AS_STATED]
    for eid, k in (("T1e", 2), ("T1f", 4)):
        cpq, cq2, w = _sigma(k, t1c)
        assert (cpq, cq2, w * z(3)) == _T1_DATA[eid][3][AS_STATED], eid
    for rep, images in (("D1", ("D3", "D7", "D9")), ("D2", ("D4", "D8", "D10"))):
        row = _D_DATA[rep][4][AS_STATED]
        for (eid, variant), k, unit in zip(((images[0], CORRECTED), (images[1], AS_STATED),
                                            (images[2], AS_STATED)), (3, 2, 4),
                                           (-1, -z(1), z(1))):
            s, cp, cq = _sigma(k, row)
            assert (s * unit, cp, cq) == _D_DATA[eid][4][variant], eid
        # the printed D3 and D4 rows also have c_Q times -zeta^4
        s, cp, cq = _D_DATA[images[0]][4][CORRECTED]
        assert (s, cp, cq * -z(4)) == _D_DATA[images[0]][4][AS_STATED]


def test_sigma_j_of_the_preimage_is_the_characteristic():
    # sigma_j of theta[r], divided by the 2-shift phase p, is theta[c] field
    # for field, derivatives included; r keeps eps and has eps' in [0, 2)
    fields = ("scale", "phase", "_qpow", "cpow", "den", "tail", "_order")
    for c in CATALOG_CHARS + (_TH11,):
        for j in (3, 7, 9):
            r, p = _preimage(c, j)
            assert r.e == c.e and 0 <= r.eps_prime < 2, (c, j)
            for m in range(4):
                got = theta_const(r, m, 8).conjugate(j).phase_mul(Phase(0) / p)
                want = theta_const(c, m, 8)
                assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields], \
                    (c, j, m)
    # each image row's characteristics are the preimages of its representative's
    rows = {**_T1_DATA, **_D_DATA}
    for row in rows.values():
        if row[-1] is not None:
            rep, j = row[-1]
            assert tuple([_preimage(c, j)[0] for c in row[1:3]]) == rows[rep][1:3]
    for c, j in [(char(F(1, 5), F(1, 3)), 3), (char(F(1, 5), F(2, 9)), 9),
                 (char(F(1, 5), F(4, 15)), 3)]:
        with pytest.raises(ValueError, match="no preimage"):
            _preimage(c, j)


@pytest.mark.parametrize("order", [20, 60])
def test_conjugated_monomials_equal_direct_builds(empty_store, monkeypatch, order):
    # every monomial that an image entry takes as sigma_j of its
    # representative's slot is, field for field, the store's direct build of
    # the image route from theta constants at the image's characteristics
    served = []
    real = catalog_module._conjugated

    def record(route, n, j):
        f = real(route, n, j)
        served.append((route, n, f))
        return f

    monkeypatch.setattr(catalog_module, "_conjugated", record)
    verify_all(order)
    monkeypatch.undo()
    # seven slots for each of T1d-f and four for each of D3/D4, D7-D10
    assert len(served) == 3 * 7 + 6 * 4
    empty_store.clear()
    for route, n, got in served:
        want = _slot(route, n)
        assert [getattr(got, a) for a in _FIELDS] == [getattr(want, a) for a in _FIELDS], route
        assert got.tail == want.tail, route


def _products_per_entry(monkeypatch, order) -> dict:
    """Entry id -> the series products (``_convolve`` calls) that its
    verification makes in verify_all(order)."""
    products = {}
    count = [0]
    real_convolve, real_verify = series_module._convolve, catalog_module.verify

    def traced_convolve(a, b, key_bound):
        count[0] += 1
        return real_convolve(a, b, key_bound)

    def traced_verify(entry_id, *args):
        before = count[0]
        report = real_verify(entry_id, *args)
        products[entry_id] = count[0] - before
        return report

    monkeypatch.setattr(series_module, "_convolve", traced_convolve)
    monkeypatch.setattr(catalog_module, "verify", traced_verify)
    verify_all(order)
    monkeypatch.undo()
    return products


def test_galois_images_make_no_series_product(empty_store, monkeypatch):
    products = _products_per_entry(monkeypatch, 20)
    images = {eid for eid, row in {**_T1_DATA, **_D_DATA}.items() if row[-1] is not None}
    assert len(images) == 9
    assert {eid: products[eid] for eid in images} == dict.fromkeys(images, 0)
    assert all(products[eid] for eid in ("T1c", "D1", "D2"))


# ---------------------------------------------------------------------------
# shared level series, factored brackets and combined rows
# ---------------------------------------------------------------------------

#: the series products each entry makes in verify_all(20), on an empty store.
#: An entry that asks first for a shared slot pays for its build: W5 builds the
#: level-5 theta slots and X^9 Y^9, F^5 and W, which ME5 and ODE5 then clip.
PRODUCTS_AT_20 = {
    "E1": 0, "E2": 0, "E3": 0, "E4": 2,
    "T1a": 6, "T1b": 13, "T1c": 15, "T1d": 0, "T1e": 0, "T1f": 0,
    "D1": 5, "D2": 4, "D3": 0, "D4": 0, "D5": 4, "D6": 3, "D7": 0, "D8": 0, "D9": 0,
    "D10": 0, "D11": 4, "D12": 3,
    "R1": 11, "R2": 3, "R3": 11, "R4": 11, "R5": 3, "R6": 11, "R7a": 11,
    "FK5": 5, "C511": 2, "C521": 0, "PS1a": 0, "PS1b": 0,
    "ME5": 5, "ODE5": 1, "W5": 23,
    "FK6": 5, "C611": 2, "C621": 0, "PS2a": 0, "PS2b": 0,
    "ME6": 5, "ODE6": 3, "W6": 13,
    "HEAT": 0, "SHIFT": 0, "TP-EQ": 0,
}


def test_series_products_per_entry(empty_store, monkeypatch):
    assert _products_per_entry(monkeypatch, 20) == PRODUCTS_AT_20
    assert sum(PRODUCTS_AT_20.values()) == 184


def _fresh_level_series(level: int, name: str, n) -> FracSeries:
    """F, X^9 Y^9, F^5, X Y' - Y X' or (X - Y) X' of ``level`` at theta order
    n, before q -> q^5, from theta constants built afresh."""
    (A, B), c = catalog_module._LEVELS[level]
    X, Y = theta_const(A, 0, n) ** 5, theta_const(B, 0, n) ** 5
    F = X * X + (X * Y).scalar_mul(c) - Y * Y
    if name == "F":
        return F
    if name == "X^9 Y^9":
        return (X * Y) ** 9
    if name == "F^5":
        return F ** 5
    if name == "(X-Y)X'":
        return (X - Y) * X.tau_derivative()
    return X * Y.tau_derivative() - Y * X.tau_derivative()


@pytest.mark.parametrize("prefill", [None, 60])
@pytest.mark.parametrize("order", [10, 20, 40, 60])
def test_shared_level_series_equal_fresh_builds(empty_store, monkeypatch, order, prefill):
    # F, X^9 Y^9, F^5 and the Wronskian of each level, and W6's printed
    # determinant, served from the store (built at the level's theta order or
    # clipped from a higher build), are field for field the series built
    # afresh from theta constants
    if prefill:
        _fill_store(prefill)
    served = {}
    real = catalog_module._stored

    def record(key, n, build):
        f = real(key, n, build)
        if isinstance(key[0], int):
            served.setdefault((key, n), f)
        return f

    monkeypatch.setattr(catalog_module, "_stored", record)
    verify_all(order)
    monkeypatch.undo()
    names = ("F", "X^9 Y^9", "F^5", "W")
    assert {key for key, _ in served} == {(level, name) for level in (5, 6)
                                          for name in names} | {(6, "(X-Y)X'")}
    for ((level, name), n), got in served.items():
        want = _fresh_level_series(level, name, n)
        assert _side_fields(got) == _side_fields(want), (level, name, n)


#: R3, R6 and R7a: the characteristic pair and c_l of the bracket
_BRACKETS = {"R3": (catalog_module._PAIR5, 50), "R6": (catalog_module._PAIR6, -50),
             "R7a": ((char(F(1, 5), F(1, 5)), char(F(3, 5), F(3, 5))), -50)}


@pytest.mark.parametrize("order", [20, 60])
@pytest.mark.parametrize("entry_id", sorted(_BRACKETS))
def test_factored_bracket_equals_the_expanded_difference(empty_store, entry_id, order):
    # th_A^5 th_B^5 (th''_A th_B - th''_B th_A) is, field for field,
    # th''_A th_A^5 th_B^6 - th''_B th_B^5 th_A^6 multiplied out term by term
    (A, B), c_l = _BRACKETS[entry_id]
    e = lookup(entry_id)
    n = order + e.margin
    label, lhs, _ = e.build(n, AS_STATED)[0]
    assert label == f"{entry_id} bracket"
    ta, tb = theta_const(A, 0, n), theta_const(B, 0, n)
    P, Q = ta ** 5, tb ** 5
    want = theta_const(A, 2, n) * P * (Q * tb) - theta_const(B, 2, n) * Q * (P * ta)
    assert _side_fields(lhs) == _side_fields(want.scalar_mul(c_l))


_COMBINED = ("T1a", "T1b", "D5", "D6", "D11", "D12")


def _groups(pairs: tuple):
    """Every group (factor, terms) of every side of the ``pairs``."""
    for _, *sides in pairs:
        yield from sum(sides, ())


def test_only_rows_no_image_reads_combine():
    # the images and the rows they read write each factor times term as one
    # route; every other T1 and D row multiplies its factor into the combination
    rows = {**_T1_DATA, **_D_DATA}
    combined = {e.id for e in catalog()
                if e.id in rows and any(factor for _, pairs in e.relations
                                        for factor, _ in _groups(pairs))}
    assert combined == set(_COMBINED)
    assert set(rows) - combined == {"T1c", "T1d", "T1e", "T1f", "D1", "D2", "D3", "D4", "D7",
                                    "D8", "D9", "D10"}


def _atoms(groups):
    """Every atom that the ``groups`` name, Theta of an atom as its operand."""
    for factor, terms in groups:
        for atom, _ in sum([m for _, m in terms], factor or ()):
            while atom[0] == "Theta":
                atom = atom[1]
            yield atom


def _named_atoms(e: IdentityEntry, variant: str):
    """Every atom that e's pairs of ``variant`` name, Theta of an atom as its operand."""
    return _atoms(_groups(dict(e.relations)[variant]))


def _declared_atoms(atom: tuple):
    """A level series, and each shared series inside it, as the atoms of its
    side in ``_level_sides``; any other atom as itself."""
    if atom[0] not in ("level", "shared"):
        yield atom
        return
    for a in _atoms(catalog_module._level_sides(atom[1])[atom[2]]):
        yield from _declared_atoms(a)


def _preimage_route(route: tuple, j: int) -> tuple:
    if isinstance(route[0], ThetaChar):
        return (_preimage(route[0], j)[0],) + route[1:]
    return tuple([_preimage_route(r, j) for r in route])


def test_theta_reads_are_the_slots_the_relations_name(empty_store, monkeypatch):
    # the theta-store keys that an entry requests, the operands of a build
    # aside, are among the keys its relations name: a theta atom's route, a
    # sigma atom's route over the preimage characteristics, and the theta
    # routes of the sides that declare the level series it names.  An entry
    # that names no level series requests exactly the keys it names; of those
    # that do, ME5, ODE5 and ME6 request none, as they clip the level slots
    # that W has built, and ODE6 builds the Wronskian, which W6's printed
    # determinant does not name
    reads, current, depth = {}, [None], [0]
    real_slot, real_verify = catalog_module._slot, catalog_module.verify

    def slot(route, order):
        if depth[0] == 0:
            reads[current[0]].add(_key(route))
        depth[0] += 1
        try:
            return real_slot(route, order)
        finally:
            depth[0] -= 1

    def traced_verify(entry_id, *args):
        current[0] = entry_id
        reads[entry_id] = set()
        return real_verify(entry_id, *args)

    monkeypatch.setattr(catalog_module, "_slot", slot)
    monkeypatch.setattr(catalog_module, "verify", traced_verify)
    built = _record_builds(monkeypatch)
    verify_all(20)
    monkeypatch.undo()
    sigma, level = set(), set()
    for e in catalog():
        named = set()
        for declared in _named_atoms(e, AS_STATED):
            if declared[0] == "level":
                level.add(e.id)
            for atom in _declared_atoms(declared):
                if atom[0] == "theta":
                    named.add(_key(atom[1]))
                elif atom[0] == "sigma":
                    sigma.add(e.id)
                    named.add(_key(_preimage_route(atom[2], atom[1])))
        if e.id in level:
            assert reads[e.id] <= named, e.id
        else:
            assert reads[e.id] == named, e.id
    assert sigma == {eid for eid, row in {**_T1_DATA, **_D_DATA}.items() if row[-1] is not None}
    assert level == {"ME5", "ODE5", "W5", "ME6", "ODE6", "W6"}
    assert {eid for eid in level if reads[eid]} == {"W5", "ODE6", "W6"}
    assert len(set(built)) == 150


@pytest.mark.parametrize("order", [20, 60])
@pytest.mark.parametrize("entry_id", _COMBINED)
def test_combined_rows_equal_their_monomial_forms(empty_store, entry_id, order):
    # theta'[1,1]^4 times T1's denominator, and D's theta_X theta'[1,1] times
    # cP*P + cQ*Q, are field for field the combinations of monomial slots
    e = lookup(entry_id)
    n = order + e.margin
    [(_, lhs, rhs)] = e.build(n, AS_STATED)
    if entry_id in _T1_DATA:
        _, A, B, table, _ = _T1_DATA[entry_id]
        cpq, cq2, _ = table[AS_STATED]
        tp4 = _TH11, 1, 4
        routes = (A, 0, 10), ((A, 0, 5), (B, 0, 5)), (B, 0, 10)
        want = [_slot((tp4, r), n).scalar_mul(c) for c, r in zip((1, cpq, cq2), routes)]
        assert _side_fields(lhs) == _side_fields(want[0] + want[1] + want[2])
    else:
        _, A, B, side, table, _ = _D_DATA[entry_id]
        s, cp, cq = table[AS_STATED]
        xt = (A if side == "A" else B, 0, 1), (_TH11, 1, 1)
        want = (_slot((xt, (A, 0, 5)), n).scalar_mul(cp)
                + _slot((xt, (B, 0, 5)), n).scalar_mul(cq)).scalar_mul(s)
        assert _side_fields(rhs) == _side_fields(want)


# ---------------------------------------------------------------------------
# the misprint sweep
# ---------------------------------------------------------------------------

#: each entry's detection order: the latest first mismatch, over every
#: single-coefficient misprint of its last variant, at its minimum order
DETECTION_ORDER = {
    "E1": "1", "E2": "1", "E3": "0", "E4": "1/8",
    "T1a": "11/4", "T1b": "19/20", "T1c": "19/20", "T1d": "19/20", "T1e": "19/20",
    "T1f": "19/20",
    "D1": "71/200", "D2": "79/200", "D3": "71/200", "D4": "79/200", "D5": "71/200",
    "D6": "79/200", "D7": "71/200", "D8": "79/200", "D9": "71/200", "D10": "79/200",
    "D11": "7/8", "D12": "7/8",
    "R1": "5/8", "R2": "5/8", "R3": "3/2", "R4": "9/40", "R5": "9/40", "R6": "7/10",
    "R7a": "7/10", "FK5": "3/4", "C511": "1", "C521": "1", "PS1a": "1", "PS1b": "1",
    "ME5": "45/4", "ODE5": "9/4", "W5": "45/2",
    "FK6": "3/20", "C611": "2", "C621": "2", "PS2a": "1", "PS2b": "2",
    "ME6": "45/4", "ODE6": "5/4", "W6": "25/2",
    "HEAT": "1/8", "SHIFT": "1/8", "TP-EQ": "1/8",
}


def _misprints(c):
    """c times zeta, -c and c + 1; for c = 0, which the first two leave as it
    is, only c + 1."""
    return ([] if c == 0 else [CycloQ5.zeta(1) * c, -c]) + [c + 1]


def _misprinted_pairs(e: IdentityEntry):
    """(variant, pair) for each pair of e's last variant with one coefficient of
    its left or right side misprinted, every coefficient in turn."""
    variant = e.variants[-1]
    for pair in dict(e.relations)[variant]:
        for s in (1, 2):
            for g, (factor, terms) in enumerate(pair[s]):
                for t, ((c, k, p), mono) in enumerate(terms):
                    for bad in _misprints(c):
                        group = factor, terms[:t] + (((bad, k, p), mono),) + terms[t + 1:]
                        yield variant, pair[:s] + (pair[s][:g] + (group,) + pair[s][g + 1:],) \
                            + pair[s + 1:]


def test_every_coefficient_misprint_fails_at_the_minimum_order(empty_store):
    # mutation analysis of the declared relations: a wrong value of any one
    # coefficient is noticed by a check at the entry's minimum order
    detection, count = {}, 0
    for e in catalog():
        for variant, pair in _misprinted_pairs(e):
            bad = IdentityEntry(e.id, e.title, e.location, e.min_meaningful_order, e.margin,
                                ((variant, (pair,)),))
            [(label, lhs, rhs)] = bad.build(e.min_meaningful_order + e.margin, variant)
            res = series_equal(lhs, rhs)
            assert not res.passed and res.first_mismatch is not None, (e.id, label)
            detection[e.id] = max(detection.get(e.id, 0), res.first_mismatch)
            count += 1
    assert count == 704
    assert {i: str(x) for i, x in detection.items()} == DETECTION_ORDER


def test_every_detection_order_lies_below_the_minimum_order():
    # the typed minimum orders stay, and a check at each sees every misprint of
    # its entry; both of W5's sides start at q^(45/2), past its minimum order
    # 20, so its detection order is held below the minimum order plus margin
    for e in catalog():
        detection = F(DETECTION_ORDER[e.id])
        if e.id == "W5":
            assert e.min_meaningful_order <= detection < e.min_meaningful_order + e.margin
        else:
            assert detection < e.min_meaningful_order, e.id
