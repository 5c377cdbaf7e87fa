"""The 1-D take forms of the table reads against the two-index gathers they
replaced: np.ix_ outer gathers, T[A, B] paired reads and the |J| x |I| table
of sums, kept here as the references."""

import dataclasses
import re

import numpy as np
import pytest

from finring.corpus import corpus
from finring.enumeration import enumerate_unital
from finring.errors import InternalCheckError
from finring.expr import parse_ring_expr
from finring.peirce import _verify_split_model, peirce
from finring.properties import (
    _radical_plus,
    _zero_row_products,
    jacobson_radical,
    left_duo_witness,
    lower_nilradical,
    nilpotent_set,
    right_duo_witness,
)
from finring.table import (
    RingTable,
    _closure,
    _cosets,
    _first,
    _ideal_mask,
    _ideal_witness,
    _pair_take,
    opposite,
    quotient,
)

REV256 = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv,u^2vu)"
R512 = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv)"


@pytest.fixture(scope="module")
def rings():
    """The catalog rings up to order 128, every ring of orders 4, 8, 9 and 16
    and their opposites, Rev256 and R512."""
    out = [(e.name, e.build()) for e in corpus() if e.order <= 128]
    for order in (4, 8, 9, 16):
        for i, R in enumerate(enumerate_unital(order)):
            out += [(f"order{order}[{i}]", R), (f"op(order{order}[{i}])", opposite(R))]
    out += [("Rev256", parse_ring_expr(REV256)), ("R512", parse_ring_expr(R512))]
    return out


def reference_duo_witness(mul):
    n = len(mul)
    rows = np.arange(n)[:, None]
    in_aR = np.zeros((n, n), dtype=bool)
    in_aR[rows, mul] = True
    return _first(~in_aR[rows, mul.T])


def reference_lower_nilradical(R):
    n = R.order
    sandwich = R.mul[R.mul, np.arange(n, dtype=np.int16)[:, None]]
    mask = np.zeros(n, dtype=bool)
    mask[R.zero] = True
    while True:
        new = _ideal_mask(R, mask[sandwich].all(axis=1))
        if (new == mask).all():
            return mask
        mask = new


def reference_ideal_witness(R, mask):
    idx, every = np.flatnonzero(mask), np.arange(R.order)
    for kind, table, rows, cols in (
        ("sum", R.add, idx, idx),
        ("lmul", R.mul, every, idx),
        ("rmul", R.mul, idx, every),
    ):
        w = _first(~mask[table[np.ix_(rows, cols)]])
        if w is not None:
            return (kind, int(rows[w[0]]), int(cols[w[1]]))
    return None


def reference_closure(mask, *tables):
    mask = mask.copy()
    while True:
        cur = np.flatnonzero(mask)
        new = mask.copy()
        for t in tables:
            new[t[np.ix_(cur, cur)].ravel()] = True
        if (new == mask).all():
            return mask
        mask = new


def reference_radical_plus(R, ideal):
    out = np.zeros(R.order, dtype=bool)
    out[R.add[np.ix_(jacobson_radical(R).indices(), np.flatnonzero(ideal))]] = True
    return out


def reference_split_model_failure(D):
    """The pair _verify_split_model names when the products break the model, or None."""
    R = D.ring
    S, M = D.s_elements.indices(), D.m_elements.indices()
    sums = R.add[np.ix_(S, M)].ravel()
    sa, ua = np.empty((2, R.order), dtype=np.int64)
    sa[sums], ua[sums] = np.repeat(S, len(M)), np.tile(M, len(S))
    rhs = R.add[
        R.mul[sa[:, None], sa[None, :]],
        R.add[R.mul[sa[:, None], ua[None, :]], R.mul[ua[:, None], sa[None, :]]],
    ]
    return _first(R.mul != rhs)


def sample_masks(R, rng):
    """Subsets that fail each ideal law in turn, and some that are ideals:
    random sets, the one-sided ideals Rx and xR, and the radicals."""
    n = R.order
    masks = [nilpotent_set(R).mask, jacobson_radical(R).mask, lower_nilradical(R).mask]
    masks += [rng.random(n) < p for p in (0.1, 0.5, 0.9)]
    for x in rng.integers(0, n, size=3):
        masks += [np.isin(np.arange(n), R.mul[:, x]), np.isin(np.arange(n), R.mul[x])]
    return masks


def test_duo_witnesses_match_the_gathers(rings):
    for name, R in rings:
        assert right_duo_witness(R) == reference_duo_witness(R.mul), name
        assert left_duo_witness(R) == reference_duo_witness(R.mul.T), name
    assert {right_duo_witness(R) is None for _, R in rings} == {True, False}


def test_lower_nilradical_matches_the_sandwich_gather(rings):
    for name, R in rings:
        assert np.array_equal(lower_nilradical(R).mask, reference_lower_nilradical(R)), name
        n = R.order
        sandwich = _pair_take(R.mul, R.mul, np.arange(n)[:, None])
        assert np.array_equal(sandwich, R.mul[R.mul, np.arange(n)[:, None]]), name


def test_ideal_witness_and_closure_match_the_outer_gathers(rings):
    kinds = set()
    for name, R in rings:
        rng = np.random.default_rng(R.order)
        for mask in sample_masks(R, rng):
            w = _ideal_witness(R, mask)
            assert w == reference_ideal_witness(R, mask), name
            kinds.add(None if w is None else w[0])
            for tables in ((R.add,), (R.add, R.mul)):
                assert np.array_equal(_closure(mask, *tables), reference_closure(mask, *tables))
    assert kinds == {None, "sum", "lmul", "rmul"}


def test_induced_tables_match_the_outer_gathers(rings):
    for name, R in rings:
        for ideal in (jacobson_radical(R), lower_nilradical(R)):
            reps, index = _cosets(R, ideal)
            Q = quotient(R, ideal)
            assert np.array_equal(Q.add, index[R.add[np.ix_(reps, reps)]]), name
            assert np.array_equal(Q.mul, index[R.mul[np.ix_(reps, reps)]]), name
        if R.order > 128:
            continue
        D = peirce(R)
        for e, C, cs in zip(D.idems, D.components, D.component_elements):
            reps = cs.indices()
            pos = np.where(cs.mask, np.cumsum(cs.mask) - 1, -1)
            assert np.array_equal(C.add, pos[R.add[np.ix_(reps, reps)]]), name
            assert np.array_equal(C.mul, pos[R.mul[np.ix_(reps, reps)]]), name


def test_radical_plus_matches_the_table_of_sums(rings):
    for name, R in rings:
        rng = np.random.default_rng(R.order)
        # J + S is the union of the J-cosets that meet S for any subset S
        for mask in [*np.unique(_zero_row_products(R), axis=0), *sample_masks(R, rng)]:
            assert np.array_equal(_radical_plus(R, mask), reference_radical_plus(R, mask)), name


def test_split_model_products_match_the_paired_gathers(rings):
    checked = broken = 0
    for name, R in rings:
        if R.order > 128:
            continue
        D = peirce(R)
        if not D.m_square_zero:
            continue
        assert reference_split_model_failure(D) is None, name
        checked += 1
        # one changed product breaks the model; both forms name the same pair
        rng = np.random.default_rng(R.order)
        for _ in range(3):
            a, b = (int(i) for i in rng.integers(0, R.order, size=2))
            mul = R.mul.copy()
            mul[a, b] = (int(mul[a, b]) + 1) % R.order
            S = RingTable(R.order, R.labels, R.add, mul, R.zero, R.one)
            bad = dataclasses.replace(D, ring=S)
            want = reference_split_model_failure(bad)
            if want is None:
                _verify_split_model(bad)
                continue
            broken += 1
            with pytest.raises(InternalCheckError, match=re.escape(f"at pair {want}")):
                _verify_split_model(bad)
    assert checked > 100 and broken > 50

