"""End-to-end verification of the named example-ring catalog."""

import pytest

from finring.corpus import corpus, verify_corpus
from finring.properties import profile


@pytest.fixture(scope="module")
def report():
    return verify_corpus()


def test_catalog_size_and_orders():
    entries = corpus()
    assert len(entries) >= 28
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    by_name = {e.name: e for e in entries}
    assert by_name["Z2"].order == 2
    assert by_name["Sym32"].order == 32
    assert by_name["Rev256"].order == 256


def test_every_entry_builds_at_its_stated_order():
    for e in corpus():
        if e.order <= 64:  # the large ones are covered by the full report run
            R = e.build()
            assert R.order == e.order, e.name


def test_overall_pass(report):
    assert report.overall_pass is True
    assert all(e.passed for e in report.entries)
    assert all(s.passed for s in report.suites)


def test_expected_property_flags_hold(report):
    got = {e.name: e for e in report.entries}
    # a few taxonomy landmarks, spot-checked from the report's own records
    checks = {
        "U2F2": {"ni": "true", "abelian": "false", "reflexive": "false"},
        "M2F2": {"ni": "false", "reflexive": "true"},
        "Sym32": {"symmetric": "true", "reversible": "true", "left_duo": "false"},
        "Abel64": {"abelian": "true", "semicommutative": "false"},
        "Rev256": {"reversible": "true", "symmetric": "false"},
        "F2Q8": {
            "reversible": "true",
            "symmetric": "false",
            "left_duo": "true",
            "right_duo": "true",
        },
    }
    for name, flags in checks.items():
        e = got[name]
        kv = dict(item.split()[0].split("=", 1) for item in e.checked)
        for key, want in flags.items():
            assert kv.get(key) == want, f"{name}.{key}"


def test_suite_coverage(report):
    names = {s.name for s in report.suites}
    assert {
        "radicals agree",
        "implication lattice",
        "opposite symmetry",
        "local cube-zero semicommutative",
        "structure split",
        "enumeration counts",
    } <= names
    assert all(s.checked > 0 for s in report.suites)


def test_kv_rendering(report):
    kv = report.as_kv()
    assert "overall.pass=true" in kv
    assert "entry.Sym32.pass=true" in kv
    assert "suite.enumeration_counts.pass=true" in kv


def test_text_rendering(report):
    text = report.as_text()
    assert "[PASS]" in text
    assert "[FAIL]" not in text
    assert "overall" in text.lower()


def test_basis_span_claim_checked_for_sym32(report):
    # the 32-element entry carries five stated basis words; the report
    # records the span check passing
    e = {x.name: x for x in report.entries}["Sym32"]
    assert any("basis_span" in item for item in e.checked), e.checked


def test_smaller_counterexamples_bound_the_order_64_notes():
    # M2F2 is reflexive and not abelian, so Reflexive64 is least only among
    # NI rings; U2F2 is not semicommutative, so Abel64 is least only among
    # abelian rings
    by_name = {e.name: e for e in corpus()}
    m2f2 = profile(by_name["M2F2"].build())
    assert (m2f2.order, m2f2.reflexive, m2f2.abelian, m2f2.ni) == (16, True, False, False)
    u2f2 = profile(by_name["U2F2"].build())
    assert (u2f2.order, u2f2.semicommutative, u2f2.abelian) == (8, False, False)
    assert "NI" in by_name["Reflexive64"].note
    assert "of any kind" not in by_name["Abel64"].note
