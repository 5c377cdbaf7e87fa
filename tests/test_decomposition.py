"""Block decomposition: corner rings, glue modules, structural law checks."""

import dataclasses

import pytest

from finring.construct import (
    block_triangular,
    cyclic,
    galois,
    matrix_ring,
    nonabelian_reflexive_64,
    upper_triangular,
)
from finring.corpus import corpus
from finring.enumeration import enumerate_unital
from finring.errors import InternalCheckError
from finring.peirce import _verify_split_model, decomposition_report, peirce
from finring.properties import jacobson_radical
from finring.table import ElementSet, direct_sum, idempotents, projection_map


def check_internal_sum(R, D):
    """The corners and the glue split R additively: S + M = R, S ^ M = 0."""
    s = set(int(x) for x in D.s_elements.indices())
    m = set(int(x) for x in D.m_elements.indices())
    assert s & m == {R.zero}
    assert len(s) * len(m) == R.order
    # idempotents are orthogonal and sum to one
    tot = R.zero
    for i, e in enumerate(D.idems):
        assert R.mul[e, e] == e
        for j, f in enumerate(D.idems):
            if i != j:
                assert R.mul[e, f] == R.zero
        tot = R.add[tot, e]
    assert tot == R.one
    for comp, els in zip(D.components, D.component_elements):
        assert comp.order == len(els)


def test_local_ring_is_one_block_no_glue():
    R = cyclic(4)
    D = peirce(R)
    assert len(D.idems) == 1
    assert [c.order for c in D.components] == [4]
    assert D.module_sizes() == {}
    assert D.all_components_local is True
    assert D.m_nonzero is False
    check_internal_sum(R, D)


def test_triangular_ring_has_one_sided_glue():
    R = upper_triangular(galois(2), 2)
    D = peirce(R)
    assert len(D.idems) == 2
    assert sorted(c.order for c in D.components) == [2, 2]
    assert sorted(D.module_sizes().values()) == [1, 2]  # glue on one side only
    assert D.all_components_local is True
    assert D.m_nonzero is True
    assert D.m_square_zero is True
    check_internal_sum(R, D)


def test_full_matrix_ring_is_one_nonlocal_block():
    R = matrix_ring(galois(2), 2)
    D = peirce(R)
    assert len(D.idems) == 1
    assert D.components[0].order == 16
    assert D.all_components_local is False
    assert D.m_nonzero is False
    check_internal_sum(R, D)


def test_order_64_reflexive_ring_has_two_sided_glue():
    R = nonabelian_reflexive_64()
    D = peirce(R)
    assert len(D.idems) == 2
    assert sorted(c.order for c in D.components) == [4, 4]
    assert sorted(D.module_sizes().values()) == [2, 2]
    assert D.all_components_local is True
    assert D.m_nonzero is True
    assert D.m_square_zero is False  # both glue directions multiply nontrivially
    check_internal_sum(R, D)


def test_direct_sum_stacks_blocks():
    R = direct_sum(matrix_ring(galois(2), 2), upper_triangular(galois(2), 2))
    D = peirce(R)
    assert len(D.idems) == 3
    assert sorted(c.order for c in D.components) == [2, 2, 16]
    # only the pair of corners inside the triangular summand is glued
    assert sorted(D.module_sizes().values()) == [1, 1, 1, 1, 1, 2]
    assert D.all_components_local is False
    check_internal_sum(R, D)


def test_summary_mentions_block_count():
    D = peirce(upper_triangular(galois(2), 2))
    text = D.summary()
    assert "blocks m=2" in text
    assert "order 2" in text


# -- report: decomposition flags against scan predicates -----------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic(4),
        lambda: upper_triangular(galois(2), 2),
        lambda: matrix_ring(galois(2), 2),
        lambda: nonabelian_reflexive_64(),
        lambda: direct_sum(matrix_ring(galois(2), 2), upper_triangular(galois(2), 2)),
    ],
)
def test_report_agrees_on_reference_rings(make):
    rep = decomposition_report(make())
    assert rep.overall_pass is True
    text = rep.as_text()
    assert "agree" in text
    assert "MISMATCH" not in text


def test_vacuous_glue_check_is_flagged():
    rep = decomposition_report(cyclic(4))
    assert "vacuous" in rep.as_text()


def test_report_agrees_on_every_small_unital_ring():
    for order in (4, 8, 9):
        for R in enumerate_unital(order):
            assert decomposition_report(R).overall_pass is True


def test_each_block_lifts_to_the_least_idempotent_orthogonal_to_those_before():
    # the candidate loop the lift's one mask per block replaced, as the reference
    rings = [e.build() for e in corpus() if e.order <= 64]
    rings += [R for order in (4, 8, 9) for R in enumerate_unital(order)]
    for R in rings:
        D = peirce(R)
        proj = projection_map(R, jacobson_radical(R))
        blocks = [proj[e] for e in D.idems]
        assert blocks == sorted(blocks), R.provenance
        for i, (e, block) in enumerate(zip(D.idems, blocks)):
            want = next(
                c for c in idempotents(R)
                if proj[c] == block
                and all(R.mul[c, f] == R.zero and R.mul[f, c] == R.zero for f in D.idems[:i])
            )
            assert e == want and type(e) is int, R.provenance


@pytest.mark.parametrize("make", [
    lambda: upper_triangular(galois(3), 2),
    lambda: block_triangular(galois(2), (1, 2)),
], ids=["U(2,GF(3))", "T(1,2,GF(2))"])
def test_split_model_refuses_a_glue_set_that_no_longer_splits_the_ring(make):
    R = make()
    D = peirce(R)
    assert D.m_square_zero
    _verify_split_model(D)
    m = sorted(D.m_elements.members)
    s = max(D.s_elements.members)
    # too few sums, too many, and the right number with a repeat
    for members in ({R.zero}, set(range(R.order)), set(m[:-1]) | {s}):
        broken = dataclasses.replace(D, m_elements=ElementSet.from_iterable(R, members))
        with pytest.raises(InternalCheckError, match="S\\+M splitting"):
            _verify_split_model(broken)
