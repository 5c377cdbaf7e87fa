"""Core table type: axioms, element sets, quotients, sums, opposites."""

import re

import numpy as np
import pytest

from finring import (
    AxiomViolationError,
    ElementSet,
    NotAnIdealError,
    RingTable,
    TableStructureError,
    additive_type,
    central_idempotents,
    checked,
    cyclic,
    direct_sum,
    galois,
    ideal_generated,
    idempotents,
    matrix_ring,
    opposite,
    quotient,
    right_annihilator,
    units,
    upper_triangular,
    verify_axioms,
)
from finring.abelian import abelian_groups_of_order
from finring.table import _first


def test_cyclic_passes_axioms():
    for n in (1, 2, 6, 12):
        R = cyclic(n)
        assert verify_axioms(R).passed
        assert R.order == n


def test_rejects_non_square_table():
    with pytest.raises(TableStructureError):
        RingTable(2, ["0", "1"], np.zeros((2, 3), dtype=np.int16),
                  np.zeros((2, 2), dtype=np.int16), 0, 1)


def test_rejects_out_of_range_entries():
    add = np.array([[0, 1], [1, 5]], dtype=np.int16)
    mul = np.zeros((2, 2), dtype=np.int16)
    with pytest.raises(TableStructureError):
        RingTable(2, ["0", "1"], add, mul, 0, 1)


def test_an_out_of_range_entry_is_named_by_its_index():
    with pytest.raises(TableStructureError, match=re.escape("add table entry at (1, 1) is 5,")):
        RingTable(2, ["a", "b"], [[0, 1], [1, 5]], [[0, 0], [0, 1]], 0, 1)


@pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\xa0b"])
def test_rejects_an_empty_or_whitespace_label_by_name(bad):
    R = cyclic(3)
    with pytest.raises(TableStructureError) as exc:
        RingTable(3, ["0", bad, "2"], R.add, R.mul, 0, 1)
    assert str(exc.value) == f"label {bad!r} is empty or contains whitespace"


def test_checked_catches_broken_distributivity():
    R = cyclic(4)
    mul = R.mul.copy()
    mul[3, 3] = 2  # 3*3 = 9 = 1 mod 4, force a wrong value
    bad = RingTable(4, list(R.labels), R.add, mul, 0, 1)
    with pytest.raises(AxiomViolationError) as exc:
        checked(bad)
    assert exc.value.report.violations


def test_axiom_report_names_broken_law():
    R = cyclic(4)
    add = R.add.copy()
    add[1, 2], add[2, 1] = 0, 3  # break commutativity of addition
    bad = RingTable(4, list(R.labels), add, R.mul, 0, 1)
    rep = verify_axioms(bad)
    assert not rep.passed
    assert rep.violations


def test_units_and_idempotents_of_z12():
    R = cyclic(12)
    assert sorted(units(R)) == [1, 5, 7, 11]
    assert sorted(idempotents(R)) == [0, 1, 4, 9]


def test_central_idempotents_of_matrix_ring():
    M = matrix_ring(galois(2), 2)
    # simple ring: only the trivial central idempotents, but many idempotents
    assert len(central_idempotents(M)) == 2
    assert len(idempotents(M)) > 2


def test_opposite_swaps_multiplication():
    R = upper_triangular(galois(2), 2)
    S = opposite(R)
    assert np.array_equal(S.mul, R.mul.T)
    assert np.array_equal(S.add, R.add)
    assert verify_axioms(S).passed
    assert opposite(S).table_equal(R, labels=False)


def test_direct_sum_orders_and_axioms():
    A, B = cyclic(2), cyclic(3)
    S = direct_sum(A, B)
    assert S.order == 6
    assert verify_axioms(S).passed


def test_ideal_generated_in_z12():
    R = cyclic(12)
    I = ideal_generated(R, [4])
    assert sorted(I) == [0, 4, 8]
    assert I.is_ideal()


def test_right_annihilator():
    R = cyclic(12)
    ann = right_annihilator(R, 4)
    assert sorted(ann) == [0, 3, 6, 9]


def test_quotient_of_z12_by_four_is_z4():
    R = cyclic(12)
    I = ideal_generated(R, [4])
    Q = quotient(R, I)
    assert Q.order == 4
    assert verify_axioms(Q).passed
    assert Q.characteristic == 4


def test_quotient_rejects_non_ideal():
    R = cyclic(12)
    S = ElementSet.from_iterable(R, [0, 1])
    with pytest.raises(NotAnIdealError):
        quotient(R, S)


def test_additive_type_profiles():
    assert additive_type(cyclic(8)) == (8,)
    assert additive_type(galois(2, 3)) == (2, 2, 2)
    assert additive_type(direct_sum(cyclic(4), cyclic(2))) == (2, 4)


def test_additive_type_of_every_abelian_group_up_to_order_64():
    # Z_d1 + ... + Z_dk as a ring has additive group Z_d1 x ... x Z_dk
    for n in range(2, 65):
        for factors in abelian_groups_of_order(n):
            R = cyclic(factors[0])
            for d in factors[1:]:
                R = direct_sum(R, cyclic(d))
            assert additive_type(R) == tuple(sorted(factors)), factors


def test_characteristic():
    assert cyclic(9).characteristic == 9
    assert galois(3, 2).characteristic == 3
    assert direct_sum(cyclic(2), cyclic(3)).characteristic == 6


def test_smul_and_pow():
    R = cyclic(10)
    assert R.smul(7, 3) == 1
    assert R.pow(3, 4) == 1
    assert R.pow(3, 0) == R.one


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda R: ideal_generated(R, [-1]), IndexError, "-1"),
        (lambda R: ideal_generated(R, [5]), IndexError, "5"),
        (lambda R: right_annihilator(R, -1), IndexError, "-1"),
        (lambda R: right_annihilator(R, 5), IndexError, "5"),
        (lambda R: R.pow(-1, 2), IndexError, "-1"),
        (lambda R: R.smul(2, -1), IndexError, "-1"),
        (lambda R: R.pow(2, -1), ValueError, "-1"),
    ],
    ids=[
        "ideal_generated-neg", "ideal_generated-n", "right_annihilator-neg",
        "right_annihilator-n", "pow-neg-element", "smul-neg-element", "pow-neg-exponent",
    ],
)
def test_out_of_range_element_indices_and_negative_exponents_raise(call, error, match):
    with pytest.raises(error, match=match):
        call(cyclic(5))


def test_labels_must_not_contain_whitespace():
    with pytest.raises(TableStructureError):
        RingTable(2, ["0", "a b"], cyclic(2).add, cyclic(2).mul, 0, 1)


@pytest.mark.parametrize("members", [[-1, 0], [5], [0, 7]], ids=["neg", "n", "past-n"])
def test_element_set_rejects_a_member_outside_the_ring(members):
    bad = next(x for x in members if not 0 <= x < 5)
    with pytest.raises(IndexError, match=rf"element index {bad} outside 0\.\.4"):
        ElementSet.from_iterable(cyclic(5), members)


def test_first_is_the_row_major_first_true_entry():
    line = np.array([False, False, True, False, True])
    assert _first(line) == (2,)
    grid = np.zeros((3, 4), dtype=bool)
    grid[1, 3] = grid[2, 0] = True
    assert _first(grid) == (1, 3)
    # row-major over the view, not over the memory underneath it
    assert _first(grid.T) == (0, 2)
    block = np.zeros((2, 3, 4), dtype=bool)
    block[1, 2, 0] = block[1, 0, 3] = block[1, 0, 2] = True
    w = _first(block)
    assert w == (1, 0, 2) and all(type(i) is int for i in w)
    assert _first(np.zeros((3, 4), dtype=bool)) is None
    assert _first(np.zeros(0, dtype=bool)) is None
