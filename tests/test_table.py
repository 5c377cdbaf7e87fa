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
    jacobson_radical,
    matrix_ring,
    opposite,
    quotient,
    right_annihilator,
    units,
    upper_triangular,
    verify_axioms,
)
from finring.abelian import abelian_groups_of_order, partitions
from finring.corpus import corpus
from finring.enumeration import enumerate_unital
from finring.errors import InternalCheckError
from finring.presentation import build_from_text
from finring.table import _first, _induced


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


def fixpoint_ideal(R, seeds):
    """The ideal generated by seeds as the least set holding 0 and the seeds
    that is closed under sums and under products with R on either side."""
    mask = np.zeros(R.order, dtype=bool)
    mask[R.zero] = True
    mask[list(seeds)] = True
    while True:
        cur = np.flatnonzero(mask)
        new = mask.copy()
        new[R.add[np.ix_(cur, cur)].ravel()] = True
        new[R.mul[:, cur].ravel()] = True
        new[R.mul[cur, :].ravel()] = True
        if (new == mask).all():
            return sorted(np.flatnonzero(mask).tolist())
        mask = new


def test_ideal_generated_is_the_fixpoint_of_sums_and_products():
    rings = [e.build() for e in corpus()]
    rings += [R for n in (4, 8, 9, 16, 27) for R in enumerate_unital(n)]
    rings.append(build_from_text("F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv)"))
    rng = np.random.default_rng(25)
    calls = 0
    for R in rings:
        seed_sets = [[s] for s in range(min(64, R.order))]
        seed_sets += [rng.integers(0, R.order, size).tolist() for size in (0, 2, 5)]
        for seeds in seed_sets:
            assert sorted(ideal_generated(R, seeds)) == fixpoint_ideal(R, seeds), (R, seeds)
            calls += 1
    assert calls > 2000


def test_induced_refuses_a_subset_that_is_not_closed():
    R = cyclic(4)
    pos = np.array([0, 1, -1, -1])
    with pytest.raises(InternalCheckError, match="sub: subset is not closed"):
        _induced(R, [0, 1], pos, 1, "sub")


def test_induced_names_the_first_failing_law():
    # {0, 2} is closed in Z4, but 2 is no unity of it: 2 * 2 = 0
    R = cyclic(4)
    pos = np.array([0, -1, 1, -1])
    with pytest.raises(InternalCheckError, match="^sub fails unity$"):
        _induced(R, [0, 2], pos, 2, "sub")


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


def test_partitions_are_all_of_them_in_reverse_lexicographic_order():
    # p(0..15), OEIS A000041; abelian_groups_of_order and the enumeration's
    # stable class sort both depend on this order
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
    for total, count in enumerate(counts):
        got = partitions(total)
        assert len(set(got)) == len(got) == count, total
        assert got == sorted(got, reverse=True), total
        for lam in got:
            assert sum(lam) == total and list(lam) == sorted(lam, reverse=True) and 0 not in lam
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_characteristic():
    assert cyclic(9).characteristic == 9
    assert galois(3, 2).characteristic == 3
    assert direct_sum(cyclic(2), cyclic(3)).characteristic == 6


def test_smul_and_pow():
    R = cyclic(10)
    assert R.smul(7, 3) == 1
    assert R.pow(3, 4) == 1
    assert R.pow(3, 0) == R.one


def test_pow_squares_its_way_to_huge_exponents():
    assert cyclic(7).pow(3, 10**18) == pow(3, 10**18, 7)
    R = upper_triangular(galois(2), 2)
    for x in range(R.order):
        acc = R.one
        for k in range(10):
            assert R.pow(x, k) == acc, (x, k)
            acc = int(R.mul[acc, x])


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


def test_element_set_membership_is_false_outside_the_ring():
    S = ElementSet.from_iterable(cyclic(5), [0, 4])
    # no numpy wraparound: -1 would read mask[4]
    assert -1 not in S and 5 not in S and 7 not in S
    assert 4 in S and 0 in S and 2 not in S


def test_element_set_members_are_python_ints_in_ascending_order():
    R = cyclic(12)
    S = ideal_generated(R, [9])
    assert list(S) == [0, 3, 6, 9]
    assert S.members == {0, 3, 6, 9}
    assert all(type(x) is int for x in S.members)
    assert all(type(x) is int for x in S)
    assert len(S) == 4 and S.indices().tolist() == [0, 3, 6, 9]


def test_element_sets_of_different_rings_are_unequal():
    A, B = cyclic(6), cyclic(6)
    assert ElementSet.from_iterable(A, [0, 3]) == ideal_generated(A, [3])
    assert ElementSet.from_iterable(A, [0, 3]) != ElementSet.from_iterable(B, [0, 3])
    assert ElementSet.from_iterable(A, [0, 3]) != ElementSet.from_iterable(A, [0, 2, 4])


def test_a_memoised_radical_mask_refuses_writes():
    R = upper_triangular(galois(2), 2)
    J = jacobson_radical(R)
    with pytest.raises(ValueError):
        J.mask[R.zero] = False
    # the memo hands out the stored mask, not a copy, and it is unchanged
    assert jacobson_radical(R).mask is J.mask
    assert len(jacobson_radical(R)) == 2


def test_element_set_refuses_a_mask_of_the_wrong_shape_or_type():
    R = cyclic(5)
    for bad in (np.zeros(4, dtype=bool), np.zeros((1, 5), dtype=bool), np.zeros(5, dtype=int)):
        with pytest.raises(ValueError, match=r"shape \(5,\)"):
            ElementSet(R, bad)
    # a writable mask is copied, so the caller's array cannot change the set
    mask = np.zeros(5, dtype=bool)
    S = ElementSet(R, mask)
    mask[1] = True
    assert list(S) == [] and not S.mask.flags.writeable


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
