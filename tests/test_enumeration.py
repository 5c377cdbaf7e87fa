"""Exhaustive search for unital rings of small order, up to isomorphism."""

import pytest

from finring.construct import cyclic, galois, upper_triangular
from finring.enumeration import SUPPORTED_ORDERS, enumerate_unital, taxonomy_census
from finring.errors import FinringError
from finring.iso import is_isomorphic
from finring.presentation import build_from_text
from finring.table import direct_sum

# class counts for each supported order, cross-checked against the
# construction-side catalogs below and stable across seeds
CLASS_COUNTS = {2: 1, 3: 1, 4: 4, 5: 1, 7: 1, 8: 11, 9: 4}


@pytest.mark.parametrize("order", sorted(CLASS_COUNTS))
def test_class_count(order):
    rings = enumerate_unital(order)
    assert len(rings) == CLASS_COUNTS[order]
    assert all(R.order == order for R in rings)


def test_supported_orders_constant_matches():
    assert tuple(sorted(CLASS_COUNTS)) == SUPPORTED_ORDERS


def match_up_to_iso(found, expected):
    """Assert a perfect isomorphism matching between two ring lists."""
    assert len(found) == len(expected)
    used = set()
    for R in found:
        hits = [
            i
            for i, S in enumerate(expected)
            if i not in used and is_isomorphic(R, S).isomorphic
        ]
        assert len(hits) == 1, "ring matches no (or several) catalog entries"
        used.add(hits[0])


def test_order_four_catalog():
    found = enumerate_unital(4)
    catalog = [
        cyclic(4),
        galois(2, 2),
        build_from_text("F2<x>/(x^2)"),
        direct_sum(galois(2), galois(2)),
    ]
    match_up_to_iso(found, catalog)


def test_order_eight_has_one_noncommutative_class():
    rings = enumerate_unital(8)
    noncomm = [R for R in rings if (R.mul != R.mul.T).any()]
    assert len(noncomm) == 1
    assert is_isomorphic(noncomm[0], upper_triangular(galois(2), 2)).isomorphic is True


def test_prime_orders_yield_the_prime_field():
    for p in (2, 3, 5, 7):
        (R,) = enumerate_unital(p)
        assert is_isomorphic(R, galois(p)).isomorphic is True


def test_seed_changes_search_order_not_outcome():
    a = enumerate_unital(8, seed=1)
    b = enumerate_unital(8, seed=2)
    match_up_to_iso(a, b)


@pytest.mark.parametrize("order", [4, 8, 9])
def test_seed_does_not_change_tables(order):
    ref = enumerate_unital(order)
    for seed in (1, 2, 3):
        got = enumerate_unital(order, seed=seed)
        assert len(got) == len(ref)
        assert all(R.table_equal(S) for R, S in zip(got, ref)), f"seed {seed}"


def test_unsupported_order_is_an_error():
    with pytest.raises(FinringError, match="unsupported"):
        enumerate_unital(6)


def test_long_order_requires_opt_in():
    with pytest.raises(FinringError, match="deep=True"):
        enumerate_unital(16)


def test_census_summarizes_taxonomy():
    rings = enumerate_unital(8)
    c = taxonomy_census(rings)
    assert c.count_where(commutative=False) == 1
    assert c.count_where(commutative=True) == 10
    assert c.count_where(ni=True) == 11
    text = c.as_text()
    assert text.splitlines()[0] == "isomorphism classes of order 8: 11"
    assert len(text.splitlines()) == 13  # title + header + 11 rows
