"""Isomorphism testing: invariant screens, backtracking search, verified maps."""

import gc
import hashlib
import itertools
import math

import numpy as np
import pytest

from finring.construct import cyclic, galois, upper_triangular
from finring.corpus import corpus
from finring.enumeration import enumerate_unital
from finring.expr import parse_ring_expr
from finring.iso import (
    DEFAULT_NODE_BUDGET,
    _class_ids,
    _spanning_trace,
    element_invariants,
    fingerprint,
    is_isomorphic,
)
from finring.peirce import peirce
from finring.presentation import build_from_text
from finring.properties import (
    _closure,
    jacobson_radical,
    lower_nilradical,
    nilpotent_set,
    profile,
    upper_nilradical,
)
from finring.table import RingTable, opposite, verify_axioms


def relabel(R, seed):
    """The same ring with elements shuffled by a seeded permutation."""
    return permuted(R, np.random.default_rng(seed).permutation(R.order))


def affine(R, a, b):
    """R relabeled by x -> (a*x + b) mod n, a permutation when gcd(a, n) = 1.
    Unlike relabel, it depends on no random number stream."""
    return permuted(R, (a * np.arange(R.order) + b) % R.order)


def permuted(R, pi):
    """R with element x renamed pi[x]."""
    sigma = np.argsort(pi)
    add = pi[R.add[np.ix_(sigma, sigma)]]
    mul = pi[R.mul[np.ix_(sigma, sigma)]]
    labels = [R.labels[sigma[i]] + "s" for i in range(R.order)]
    return RingTable(R.order, labels, add, mul, int(pi[R.zero]), int(pi[R.one]))


def assert_valid_mapping(R, S, phi):
    phi = np.asarray(phi)
    assert len(np.unique(phi)) == R.order
    assert np.array_equal(S.add[np.ix_(phi, phi)], phi[R.add])
    assert np.array_equal(S.mul[np.ix_(phi, phi)], phi[R.mul])
    assert phi[R.zero] == S.zero and phi[R.one] == S.one


# -- invariant screens --------------------------------------------------------


def test_characteristic_separates_order_four_local_rings():
    r = is_isomorphic(cyclic(4), build_from_text("F2<x>/(x^2)"))
    assert r.isomorphic is False
    assert r.reason == "fingerprint:characteristic"


def test_order_mismatch_is_cheap():
    r = is_isomorphic(cyclic(4), cyclic(8))
    assert r.isomorphic is False
    assert r.reason == "fingerprint:order"


def test_fingerprint_is_stable_under_relabeling():
    R = upper_triangular(galois(2), 2)
    assert fingerprint(R) == fingerprint(relabel(R, 3))


def test_element_invariants_shape():
    R = cyclic(4)
    inv = element_invariants(R)
    assert inv.shape[0] == 4
    # zero and one land in singleton classes distinct from each other
    assert not np.array_equal(inv[R.zero], inv[R.one])


def memoised_arrays(value):
    """Every ndarray in a memoised value, looking inside tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from memoised_arrays(item)


def test_element_invariants_are_read_only():
    R = cyclic(4)
    inv = element_invariants(R)
    with pytest.raises(ValueError):
        inv[:, 0] = 1
    assert is_isomorphic(R, cyclic(4)).isomorphic is True
    assert is_isomorphic(R, R).isomorphic is True
    # and so is every other array memoised on a ring
    rings = [e.build() for e in corpus() if e.order <= 64] + enumerate_unital(8)
    for R in rings:
        assert verify_axioms(R).passed
        profile(R)
        fingerprint(R)
        assert is_isomorphic(R, R).isomorphic is True
        peirce(R)
        # the presentation build record is set when the ring is built, not memoised
        memo = [v for k, v in R._cache.items() if k != "presentation_build"]
        arrays = list(memoised_arrays(memo))
        assert arrays, R.provenance
        for arr in arrays:
            assert not arr.flags.writeable, R.provenance


def test_one_sided_sizes_equal_the_distinct_entries_of_each_row_and_column():
    rings = [e.build() for e in corpus() if e.order <= 128]
    rings += [R for order in (4, 8, 9) for R in enumerate_unital(order)]
    for R in rings:
        inv = element_invariants(R)
        right = [len(np.unique(R.mul[x])) for x in range(R.order)]
        left = [len(np.unique(R.mul[:, x])) for x in range(R.order)]
        assert inv[:, 4].tolist() == right, R.provenance
        assert inv[:, 5].tolist() == left, R.provenance


# -- spanning trace -------------------------------------------------------------


def reference_spanning_trace(R):
    """_spanning_trace with its closure as plain Python over one op at a time."""
    classes = _class_ids(R)
    trace = [R.zero, R.one] if R.one != R.zero else [R.zero]
    pos = set(trace)
    gens, segments = [], []

    def close(seg, start):
        tables = (R.add, R.mul)
        k = start
        while k < len(trace):
            x = trace[k]
            for j in range(k + 1):
                y = trace[j]
                for kind in (0, 1):
                    t = tables[kind]
                    for a, b, i2, j2 in ((x, y, k, j), (y, x, j, k)):
                        v = int(t[a, b])
                        if v not in pos:
                            pos.add(v)
                            seg.append((kind, i2, j2))
                            trace.append(v)
            k += 1

    def rank(members, inside):
        x = next(x for x in members if not inside[x])
        grown = inside.copy()
        grown[x] = True
        return -int(_closure(grown, R.add, R.mul).sum()), len(members), x

    seg0 = []
    close(seg0, 0)
    segments.append(seg0)
    while len(trace) < R.order:
        inside = np.zeros(R.order, dtype=bool)
        inside[trace] = True
        g = min(rank(m, inside) for m in classes.values() if not inside[m].all())[2]
        gens.append(g)
        pos.add(g)
        trace.append(g)
        seg = []
        close(seg, len(trace) - 1)
        segments.append(seg)
    return gens, segments, trace


R512 = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv)"


def test_spanning_trace_equals_the_plain_python_closure():
    base = [e.build() for e in corpus()] + [build_from_text(R512)]
    for order in (4, 8, 9, 16, 27):
        base += enumerate_unital(order)
    assert {256, 512} <= {R.order for R in base}
    rings = base + [opposite(R) for R in base] + [relabel(R, i) for i, R in enumerate(base)]
    for R in rings:
        assert _spanning_trace(R) == reference_spanning_trace(R), R.provenance


# -- positive searches --------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shuffled_copy_is_found_isomorphic(seed):
    R = build_from_text("F2<u,v>/(u^3,v^2,vu,u^2-uv)")
    S = relabel(R, seed)
    r = is_isomorphic(R, S)
    assert r.isomorphic is True
    assert_valid_mapping(R, S, r.mapping)


def test_triangular_ring_matches_its_opposite():
    R = upper_triangular(galois(2), 2)
    S = opposite(R)
    r = is_isomorphic(R, S)
    assert r.isomorphic is True
    assert_valid_mapping(R, S, r.mapping)


def test_identity_is_found_quickly():
    R = cyclic(9)
    r = is_isomorphic(R, R)
    assert r.isomorphic is True
    assert_valid_mapping(R, R, r.mapping)


# -- negative searches --------------------------------------------------------


def test_order_128_triangular_ring_differs_from_its_opposite():
    T = parse_ring_expr("T(2,1,GF(2))")
    r = is_isomorphic(T, opposite(T))
    assert r.isomorphic is False
    assert r.reason.startswith("fingerprint:")


def test_order_sixteen_siblings_are_distinguished():
    Ra = build_from_text("F2<u,v>/(u^3,v^3,vu,u^2-uv,v^2-uv)")
    Rb = build_from_text("F2<u,v>/(u^3,v^2,vu,u^2-uv)")
    assert is_isomorphic(Ra, Rb).isomorphic is False


# -- resource limits ----------------------------------------------------------


def test_tiny_budget_returns_inconclusive():
    R = build_from_text("F2<u,v>/(u^3,v^2,u^2+uv+vu,uvu)")
    r = is_isomorphic(R, relabel(R, 7), node_budget=1)
    assert r.isomorphic is None
    assert r.reason == "budget"
    assert bool(r) is False  # inconclusive is falsy


def test_budget_spent_before_the_first_generator_is_inconclusive():
    # M2(F2) + Z4 has characteristic 4, so replaying the multiples of 1
    # spends the one-node budget before any generator image is tried
    R = {e.name: e for e in corpus()}["M2F2_Z4"].build()
    r = is_isomorphic(R, R, node_budget=1)
    assert (r.isomorphic, r.mapping, r.reason) == (None, None, "budget")


@pytest.mark.parametrize("name", ["F2Q8", "Rev256"])
def test_relabelings_of_order_256_rings_are_decided_within_100k_nodes(name):
    R = {e.name: e for e in corpus()}[name].build()
    for seed in range(10):
        S = relabel(R, seed)
        r = is_isomorphic(S, R, node_budget=100_000)
        assert r.isomorphic is True, (seed, r.reason)
        assert_valid_mapping(S, R, r.mapping)


# -- frozen answers -----------------------------------------------------------

# sha256 of repr([(isomorphic, reason, mapping), ...]) over frozen_searches(),
# computed before the search became one loop with one mapping check
FROZEN_SEARCH_SHA256 = "3667e40bd49d2126b483310198dd06051b359de2a32d7659496a47e72f04a8db"


def unit_above_half(n):
    return next(a for a in itertools.count(n // 2 + 1) if math.gcd(a, n) == 1)


def frozen_searches():
    """Relabelings at five budgets, opposites, neighbours in the list, and
    every pair of distinct entries that no fingerprint separates."""
    rings = [e.build() for e in corpus() if e.order <= 64]
    rings += [R for order in (4, 8, 9, 16) for R in enumerate_unital(order)]
    for R, nxt in zip(rings, rings[1:] + rings[:1]):
        n = R.order
        for a, b in ((unit_above_half(n), 1), (n - 1, n // 3)):
            S = affine(R, a, b)
            for budget in (1, 10, 100, 1000, DEFAULT_NODE_BUDGET):
                yield is_isomorphic(S, R, node_budget=budget)
            yield is_isomorphic(S, nxt)
        yield is_isomorphic(opposite(R), R)
    for R in rings:
        S = affine(R, unit_above_half(R.order), 1)
        for T in rings:
            if T is not R and fingerprint(T) == fingerprint(R):
                yield is_isomorphic(S, T)


def test_search_answers_are_the_frozen_ones():
    answers = [(r.isomorphic, r.reason, r.mapping) for r in frozen_searches()]
    assert len(answers) == 1276
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == FROZEN_SEARCH_SHA256


@pytest.mark.parametrize("name,nodes", [("F2Q8", 8637), ("Rev256", 486)])
def test_least_budget_that_decides_an_order_256_relabeling(name, nodes):
    # one node per replayed op: a node less leaves the same search undecided
    R = {e.name: e for e in corpus()}[name].build()
    S = affine(R, R.order - 1, R.order // 3)
    r = is_isomorphic(S, R, node_budget=nodes)
    assert r.isomorphic is True
    assert_valid_mapping(S, R, r.mapping)
    assert is_isomorphic(S, R, node_budget=nodes - 1).reason == "budget"


# -- memory -------------------------------------------------------------------


def test_checked_rings_are_freed_without_the_cycle_collector():
    # enumeration checks thousands of tables and keeps few; one held in a
    # reference cycle stays in memory until a full garbage collection
    gc.collect()
    gc.disable()
    try:
        R = build_from_text("F2<u,v>/(u^3,v^2,u^2+uv+vu,uvu)")
        for S in (relabel(R, 3), opposite(R)):
            is_isomorphic(R, S)
        for radical in (jacobson_radical, nilpotent_set, lower_nilradical, upper_nilradical):
            radical(R)
        del R, S
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        held = [o for o in gc.garbage if isinstance(o, RingTable)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert held == []
