"""The identity catalog: entries, verification drivers, reports."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from theta5.arith import partition_p
from theta5.catalog import (AS_STATED, CORRECTED, _homogeneous, catalog,
                            lookup, report_to_dict, reports_to_json, verify,
                            verify_all)
from theta5.cyclo import CycloQ5
from theta5.series import FracSeries

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
    first = [report_to_dict(r) for r in verify_all(10)]
    second = [report_to_dict(r) for r in verify_all(10)]
    assert first == second


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


def test_min_orders_follow_identity_degree():
    assert lookup("E1").min_meaningful_order == 10
    for entry_id in ("ME5", "ME6", "W5", "W6"):
        assert lookup(entry_id).min_meaningful_order == 20
