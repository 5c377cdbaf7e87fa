"""End-to-end verification of the named example-ring catalog."""

import ast
import hashlib
from pathlib import Path

import pytest

from finring.corpus import _local_cube, corpus, verify_corpus
from finring.enumeration import enumerate_unital
from finring.expr import parse_ring_expr
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


@pytest.mark.parametrize("entry", corpus(), ids=lambda e: e.name)
def test_every_recipe_is_its_rings_provenance(entry):
    assert entry.build().provenance == entry.recipe


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


def test_kv_digest_is_the_frozen_catalog_digest(report):
    # the catalog benchmark freezes this digest; reading it from there keeps
    # one copy, and drift fails here on every Python, not only in the bench
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    frozen = {
        node.targets[0].id: node.value.value
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
    }
    digest = hashlib.sha256(report.as_kv().encode() + b"\0").hexdigest()
    assert digest == frozen["CATALOG_KV_SHA256"]
    assert "suite.implication_lattice.checked=256" in report.as_kv().splitlines()


def test_local_cube_suite_takes_every_prime_residue():
    # Zn(289) is local with residue F17 and J^2 = 0; GF(4)'s residue is no
    # prime field, and Zn(16)'s radical cubes to (8), so neither is checked
    for recipe, checked in (("Zn(169)", 1), ("Zn(289)", 1), ("GF(2,2)", 0), ("Zn(16)", 0)):
        R = parse_ring_expr(recipe)
        assert [ok for _, ok in _local_cube(R, profile(R))] == [True] * checked, recipe


def test_class_counts_behind_the_a_smallest_notes():
    def counts(order):
        profs = [profile(R) for R in enumerate_unital(order)]
        return [
            sum(p.duo and not p.commutative for p in profs),
            sum(p.duo and not p.reflexive for p in profs),
            sum(p.semicommutative and not p.duo and not p.reflexive for p in profs),
            sum(p.symmetric and not p.commutative for p in profs),
        ]

    # order 8 holds the only noncommutative class below 16, and it is none
    # of these, so 16 is least.  There SkewF4x2 is one of 3 noncommutative
    # duo classes, S16F2a and S16Z4a are the 2 duo nonreflexive ones, S16F2b
    # and S16Z4b the 2 semicommutative ones neither duo nor reflexive, and
    # SkewF4x2 the only noncommutative symmetric one
    assert counts(8) == [0, 0, 0, 0]
    assert counts(16) == [3, 2, 2, 1]
    order4 = [profile(R) for R in enumerate_unital(4)]
    assert [p.local for p in order4 if not p.reduced] == [True, True]  # Z4 and F2x
    notes = {e.name: e.note for e in corpus()}
    for name in ("Z4", "SkewF4x2", "S16F2a", "S16F2b"):
        assert "a smallest" in notes[name], name
    assert "the smallest noncommutative ring that is symmetric" in notes["SkewF4x2"]
