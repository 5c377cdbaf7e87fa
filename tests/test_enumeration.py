"""Exhaustive search for unital rings of small order, up to isomorphism."""

import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from finring import enumeration
from finring.abelian import CoordGroup, _factorize, abelian_groups_of_order, product_tables
from finring.construct import cyclic, galois, upper_triangular
from finring.enumeration import (
    _GroupSearch,
    enumerate_unital,
    taxonomy_census,
)
from finring.errors import FinringError, InternalCheckError
from finring.iso import is_isomorphic
from finring.presentation import build_from_text
from finring.table import _scan_axioms, direct_sum

# class counts for enumerated orders, cross-checked against the
# construction-side catalogs below and against OEIS A037291
CLASS_COUNTS = {
    2: 1, 3: 1, 4: 4, 5: 1, 7: 1, 8: 11, 9: 4, 11: 1, 16: 50, 25: 4, 27: 12,
    49: 4, 121: 4, 125: 12, 127: 1, 961: 4, 1021: 1,
}


@pytest.mark.parametrize("order", sorted(CLASS_COUNTS))
def test_class_count(order):
    rings = enumerate_unital(order)
    assert len(rings) == CLASS_COUNTS[order]
    assert all(R.order == order for R in rings)


def _accepted(order):
    try:
        enumerate_unital(order)
    except FinringError as exc:
        assert "unsupported" in str(exc)
        return False
    return True


def test_accepted_orders_up_to_128_follow_the_order_policy():
    primes = [p for p in range(2, 129) if all(p % d for d in range(2, p))]
    want = set(primes) | {4, 8, 9, 16, 25, 27, 49, 121, 125}
    assert {n for n in range(1, 129) if _accepted(n)} == want


class _Admitted(Exception):
    pass


def table_rule(order):
    """The earlier gate: every group of the prime-power order fits a table of
    r * n^(r+1) additive maps, r + 1 factors, at most 2^22 entries."""
    return len(_factorize(order)) == 1 and all(
        (len(f) - 1) * order ** len(f) <= 1 << 22 for f in abelian_groups_of_order(order)
    )


def test_the_gate_above_128_is_the_earlier_table_rule(monkeypatch):
    # an admitted order reaches the group list, which raises here instead of
    # enumerating; a refused one raises before it
    def admitted(order):
        raise _Admitted

    monkeypatch.setattr(enumeration, "abelian_groups_of_order", admitted)
    got = set()
    for order in range(129, 1025):
        try:
            enumerate_unital(order)
        except _Admitted:
            got.add(order)
        except FinringError as exc:
            assert "unsupported" in str(exc)
    assert got == {n for n in range(129, 1025) if table_rule(n)}
    assert {361, 961, 1021} <= got and not {243, 343, 625, 1024} & got


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


def test_order_27_has_one_noncommutative_class():
    rings = enumerate_unital(27)
    noncomm = [R for R in rings if (R.mul != R.mul.T).any()]
    assert len(noncomm) == 1
    assert is_isomorphic(noncomm[0], upper_triangular(galois(3), 2)).isomorphic is True


def test_prime_orders_yield_the_prime_field():
    for p in (2, 3, 5, 7):
        (R,) = enumerate_unital(p)
        assert is_isomorphic(R, galois(p)).isomorphic is True


def test_unsupported_order_is_an_error():
    with pytest.raises(FinringError, match="unsupported"):
        enumerate_unital(6)


def test_census_summarizes_taxonomy():
    rings = enumerate_unital(8)
    c = taxonomy_census(rings)
    assert c.count_where(commutative=False) == 1
    assert c.count_where(commutative=True) == 10
    assert c.count_where(ni=True) == 11
    text = c.as_text()
    assert text.splitlines()[0] == "isomorphism classes of order 8: 11"
    assert len(text.splitlines()) == 13  # title + header + 11 rows


# -- the orbit step: classes on one additive group are H-orbits ---------------
#
# H is checked against a brute-force construction.  Burnside's count, the
# pairwise check and the discarded-survivor check do not use the generating
# set that the orbit step propagates along.

ORBIT_ORDERS = (4, 8, 9, 16, 27)


@pytest.fixture(scope="module")
def searches():
    """(order, factors, search, sorted survivors, least index of each orbit)."""
    out = []
    for order in ORBIT_ORDERS:
        for factors in abelian_groups_of_order(order):
            search = _GroupSearch(factors)
            rows = np.unique(search.survivors(), axis=0)
            out.append((order, factors, search, rows, search.orbits(rows)))
    return out


def naive_stabiliser(G):
    """Every choice of images y_i (d_i y_i = 0) with e_0 fixed that is a bijection."""
    basis = G.basis()
    choices = [G.killed_by(d) for d in G.factors[1:]]
    out = set()
    for ys in itertools.product(*choices):
        images = [basis[0], *ys]
        h = tuple(
            int(G.encode(sum(int(c) * G.dec[y] for c, y in zip(G.dec[x], images))))
            for x in range(G.n)
        )
        if len(set(h)) == G.n:
            out.add(h)
    return out


def test_stabiliser_is_every_automorphism_fixing_one(searches):
    for order, factors, search, _, _ in searches:
        G = search.G
        H = search.stabiliser()
        assert {tuple(h) for h in H.tolist()} == naive_stabiliser(G), factors
        assert len(np.unique(H, axis=0)) == len(H)
        for h in H:
            assert h[search.one] == search.one
            assert np.array_equal(h[G.add], G.add[np.ix_(h, h)])
    sizes = {f: len(s.stabiliser()) for _, f, s, _, _ in searches}
    assert sizes[(2, 2, 2, 2)] == 1344 and sizes[(2, 2, 2)] == 24 and sizes[(3, 3)] == 6
    assert sizes[(3, 3, 3)] == 432


def generated(gens, n):
    """The element permutations that gens generate, by closure from the identity."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        reached = {tuple(g[x] for x in h) for h in frontier for g in gens}
        frontier = list(reached - group)
        group |= reached
    return group


def test_generators_generate_the_stabiliser(searches):
    for _, factors, search, _, _ in searches:
        H = search.stabiliser()
        gens = search.generators(H).tolist()
        assert len(gens) <= max(1, len(H)).bit_length()
        assert generated(gens, search.G.n) == {tuple(h) for h in H.tolist()}, factors


def stabiliser_of_e1(search):
    H = search.stabiliser()
    e1 = search.basis_elts[1]
    return H[H[:, e1] == e1]


def test_generators_generate_the_stabiliser_of_e1(searches):
    # K, the elements of H that also fix e_1, whose orbits on row 0 prune the search
    sizes = {}
    for _, factors, search, _, _ in searches:
        if search.r < 1:
            continue
        K = stabiliser_of_e1(search)
        gens = search.generators(K).tolist()
        assert len(gens) <= max(1, len(K)).bit_length()
        assert generated(gens, search.G.n) == {tuple(k) for k in K.tolist()}, factors
        sizes[factors] = len(K)
    assert sizes[(2, 2, 2, 2)] == 96 and sizes[(2, 2)] == 1 and sizes[(3, 3, 3)] == 18


def test_burnside_count_equals_the_number_of_orbits(searches):
    # h fixes a survivor iff h is an automorphism of its ring; h is additive
    # and the product bilinear, so the basis products decide it
    for order, factors, search, rows, least in searches:
        H = search.stabiliser()
        basis = np.array(search.basis_elts)
        muls = np.stack([search.table(row).mul for row in rows]).astype(np.int64)
        products = muls[:, basis[:, None], basis[None, :]]
        fixed = 0
        for h in H:
            moved = muls[:, h[basis][:, None], h[basis][None, :]]
            fixed += int((moved == h[products]).all(axis=(1, 2)).sum())
        assert fixed % len(H) == 0
        assert fixed // len(H) == len(np.unique(least)), factors


@pytest.mark.parametrize("order", ORBIT_ORDERS)
def test_representatives_are_pairwise_non_isomorphic(order):
    rings = enumerate_unital(order)
    for R, S in itertools.combinations(rings, 2):
        assert is_isomorphic(R, S).isomorphic is False


def test_every_discarded_survivor_is_isomorphic_to_its_representative(searches):
    # every one at orders up to 9, a seeded sample of 200 at orders 16 and 27
    pairs = {order: [] for order in ORBIT_ORDERS}
    for order, _, search, rows, least in searches:
        for i in np.flatnonzero(least != np.arange(len(rows))):
            pairs[order].append((search, rows[least[i]], rows[i]))
    rng = np.random.default_rng(16)
    for order in (16, 27):
        pairs[order] = [pairs[order][i] for i in rng.choice(len(pairs[order]), 200, replace=False)]
    for order, todo in pairs.items():
        for search, rep, row in todo:
            res = is_isomorphic(search.table(rep), search.table(row))
            assert res.isomorphic is True, (order, search.G.factors, row)


def test_each_generator_carries_tables_onto_tables(searches):
    rng = np.random.default_rng(4)
    for _, factors, search, rows, _ in searches:
        picks = rows[rng.choice(len(rows), min(len(rows), 12), replace=False)]
        for h in search.generators(search.stabiliser()):
            images = search.transport(picks, search.lookup(h))
            for row, image in zip(picks, images):
                T, U = search.table(row), search.table(image)
                grid = np.ix_(h, h)
                assert np.array_equal(U.add[grid], h[T.add]), factors
                assert np.array_equal(U.mul[grid], h[T.mul]), factors


def bilinear_transport(search, rows, h):
    """The assignments h carries rows to: the basis products
    h(h^-1(e_a) h^-1(e_b)) of each row's bilinear product, by the double loop."""
    u = np.argsort(h)[search.basis_elts]
    P = search.constants(rows)[:, None, None]
    prod = h[double_loop_bilinear(search.G, P, u[:, None], u[None, :])]
    i, j = np.array(search.schedule, dtype=np.int64).reshape(-1, 2).T
    return prod[:, i + 1, j + 1]


def test_lookup_transport_equals_the_bilinear_transport(searches):
    # the survivors of the orbit orders, and random assignments of larger
    # groups: h carries any bilinear product, associative or not; K's lookups
    # cut to row 0 carry the row-0 prefixes
    rng = np.random.default_rng(9)
    cases = [(search, rows) for _, _, search, rows, _ in searches]
    for factors in ((5, 5, 5), (25, 5), (7, 7), (8, 2, 2, 2), (4, 4, 2, 2)):
        search = _GroupSearch(factors)
        cases.append((search, np.stack([rng.choice(c, 1000) for c in search.omega], axis=1)))
    for search, rows in cases:
        factors, r = search.G.factors, search.r
        for h in search.generators(search.stabiliser()):
            assert np.array_equal(search.transport(rows, search.lookup(h)), bilinear_transport(search, rows, h)), factors
        if r < 2:
            continue
        for k in search.generators(stabiliser_of_e1(search)):
            c, phi = search.lookup(k)
            got = search.transport(rows[:, :r], (c[:r], phi[:r, :, :r]))
            assert np.array_equal(got, bilinear_transport(search, rows, k)[:, :r]), factors


def test_an_image_outside_the_survivors_is_an_internal_error():
    search = _GroupSearch((2, 2, 2))
    rows = np.unique(search.survivors(), axis=0)
    least = search.orbits(rows)
    moved = np.flatnonzero(least != np.arange(len(rows)))[0]
    with pytest.raises(InternalCheckError, match="outside the survivors"):
        search.orbits(np.delete(rows, moved, axis=0))


# -- the pruned path: search from the K-least row-0 prefixes, close under H ---


def test_classes_equal_the_full_search_and_its_orbits(searches):
    # every group of the orbit orders, the order-32 groups but Z2^5, and two
    # order-64 groups, which enumerate_unital does not admit
    cases = [(factors, search, rows, least) for _, factors, search, rows, least in searches]
    for factors in ((32,), (16, 2), (8, 4), (8, 2, 2), (4, 4, 2), (4, 2, 2, 2), (8, 2, 2, 2), (4, 4, 2, 2)):
        search = _GroupSearch(factors)
        rows = np.unique(search.survivors(), axis=0)
        cases.append((factors, search, rows, search.orbits(rows)))
    for factors, search, rows, least in cases:
        got_rows, got_least = search.classes()
        assert got_rows.dtype == rows.dtype, factors
        assert np.array_equal(got_rows, rows), factors
        assert np.array_equal(got_least, least), factors


def test_the_row_0_image_under_k_reads_row_0_only(searches):
    # image slot (0, j) = k(g_0 k^-1(g_j)) for k fixing e_1, so the other
    # slots may hold anything, associative or not
    rng = np.random.default_rng(22)
    for _, factors, search, _, _ in searches:
        r = search.r
        if r < 2:
            continue
        row0 = np.stack([rng.choice(c, 50) for c in search.omega[:r]], axis=1)
        for k in search.generators(stabiliser_of_e1(search)):
            lookup = search.lookup(k)
            images = []
            for _ in range(4):
                rest = np.stack([rng.choice(c, 50) for c in search.omega[r:]], axis=1)
                images.append(search.transport(np.concatenate([row0, rest], axis=1), lookup)[:, :r])
            assert all(np.array_equal(im, images[0]) for im in images), factors


def test_the_pruned_search_keeps_the_k_least_prefixes_only():
    search = _GroupSearch((2, 2, 2, 2))
    prefixes = search._least_prefixes(search.stabiliser())
    assert prefixes.shape == (80, 3)
    assert len(search._search([(search.r, prefixes)])) == 828
    assert len(search.classes()[0]) == 8184


def test_enumerating_order_16_stays_small():
    # the full survivor search and its orbit step peaked at 5.6 MiB
    enumerate_unital(16)
    tracemalloc.start()
    try:
        enumerate_unital(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


# -- oracles for the fast survivor search and the bilinear product ------------


def test_survivors_equal_a_brute_force_over_every_assignment():
    # every group whose assignments number at most 4,096, each assignment
    # built into a table and kept when the exhaustive axiom scan passes it
    checked = []
    for order in ORBIT_ORDERS:
        for factors in abelian_groups_of_order(order):
            search = _GroupSearch(factors)
            if np.prod([len(c) for c in search.omega]) > 4096:
                continue
            kept = [
                row
                for row in itertools.product(*search.omega)
                if _scan_axioms(search.table(np.array(row))).passed
            ]
            brute = np.array(kept, dtype=np.int16).reshape(len(kept), len(search.omega))
            assert np.array_equal(np.unique(search.survivors(), axis=0), brute), factors
            checked.append(factors)
    assert {(2, 2), (4, 2), (3, 3), (2, 2, 2), (4, 2, 2)} <= set(checked)


def three_gather_mask(search, assign, a, b, c):
    """The associativity check with 2-D gathers on dec, smul and add."""
    G = search.G
    x = assign[:, search.slot_pos[(a, b)]]
    y = assign[:, search.slot_pos[(b, c)]]
    lhs = rhs = 0
    for p in range(search.k):
        if p == 0:
            fac_l, fac_r = search.basis_elts[c + 1], search.basis_elts[a + 1]
        else:
            fac_l = assign[:, search.slot_pos[(p - 1, c)]]
            fac_r = assign[:, search.slot_pos[(a, p - 1)]]
        lhs = G.add[lhs, G.smul[G.dec[x, p], fac_l]]
        rhs = G.add[rhs, G.smul[G.dec[y, p], fac_r]]
    return lhs == rhs


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (4, 2, 2, 2), (3, 3, 3)], ids=str)
def test_triple_mask_equals_the_three_gather_check(factors):
    search = _GroupSearch(factors)
    rng = np.random.default_rng(11)
    assign = np.stack([rng.choice(c, 4000) for c in search.omega], axis=1)
    triples = [t for checks in search.checks for t in checks]
    assert len(triples) == search.r**3
    rows = np.arange(len(assign))
    for a, b, c in triples:
        mask = search._triple_mask(assign[:, :-1], assign[:, -1], rows, rows, a, b, c)
        assert np.array_equal(mask, three_gather_mask(search, assign, a, b, c)), (a, b, c)
        assert 0 < mask.sum() < len(mask)


def coordinate_loop(G, images, x):
    """sum_p x_p images[p], one add and one smul gather per coordinate."""
    want = np.zeros(np.broadcast_shapes(np.shape(x), *(np.shape(i) for i in images)), dtype=np.int64)
    for p, image in enumerate(images):
        want = G.add[want, G.smul[G.dec[x, p], image]]
    return want


@pytest.mark.parametrize("factors", [(2, 2), (2, 2, 2, 2), (4, 2, 2, 2), (3, 3, 3), (9, 3)], ids=str)
def test_linear_equals_the_coordinate_loop(factors):
    # the search's shapes: e_0 goes to a basis element, the other images and
    # the argument are (B, 1) parents against (m,) candidates, then 1-D
    # filtered pairs, each from parents or candidates
    G = CoordGroup(factors)
    rng = np.random.default_rng(5)
    parents = rng.integers(0, G.n, (G.k, 40)).astype(np.int16)
    cand = rng.integers(0, G.n, 7).astype(np.int16)
    pi, ci = rng.integers(0, 40, 300), rng.integers(0, 7, 300)
    for grid in ((np.arange(40)[:, None], np.arange(7)), (pi, ci)):
        for new in range(G.k):
            read = [cand.take(grid[1]) if p == new else parents[p].take(grid[0]) for p in range(G.k)]
            for one in G.basis():
                images = [one] + read[1:]
                got = G.linear(images, read[0])
                assert got.dtype == np.intp
                assert np.array_equal(got, coordinate_loop(G, images, read[0])), (new, one)


REFUSED_ORDERS = (32, 64, 81, 128, 243, 256, 343, 512, 625, 729, 1024)


@pytest.mark.parametrize("order", REFUSED_ORDERS)
def test_every_refused_prime_power_is_refused_at_once(order):
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(FinringError, match="unsupported"):
            enumerate_unital(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1
    assert peak < 1 << 20


def test_group_8222_classifies_in_little_memory():
    # 6.7 MiB traced (2 vCPUs, Python 3.11, numpy 2.4); a table of every
    # additive map into this group would hold 50,331,648 entries
    tracemalloc.start()
    try:
        _GroupSearch((8, 2, 2, 2)).classes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def survivor_digest(rows):
    h = hashlib.sha256(repr(rows.shape).encode())
    h.update(np.ascontiguousarray(rows, dtype="<i2").tobytes())
    return h.hexdigest()


def test_order_32_group_4222_survivors_are_pinned():
    # frozen from an earlier per-coordinate triple check, not from the
    # search it pins
    search = _GroupSearch((4, 2, 2, 2))
    for rows in (np.unique(search.survivors(), axis=0), search.classes()[0]):
        assert rows.shape == (16192, 9)
        assert survivor_digest(rows) == "b2704c9620ab8996f2f7f8b64c058b151bb5f99dd283caf88ce891aefe86765a"


# sha256 over the shape and int16 bytes of each group's sorted survivors,
# computed with the three-gather check above
SURVIVOR_SHA256 = {
    (16,): "e348257ed6d00ef430391febb897b529694897eefec945a8e16f20bcee055a74",
    (8, 2): "6c24877aa45008a43af9fdda487bbcb89f32eddca1aadc83660724414ecc5169",
    (4, 4): "34e6196705ac05e06ae89e07aa801b64332cef2bccbaab306ab298a986dc5569",
    (4, 2, 2): "3c2ef5cc2a6834953cc6e5b268e8740fd8c32e9da7530a2cdd7a711133ad8a44",
    (2, 2, 2, 2): "e8ffdbafbd00d55b094b0805c02805f957cd343e93b5291d55befda8efdc6775",
    (27,): "e348257ed6d00ef430391febb897b529694897eefec945a8e16f20bcee055a74",
    (9, 3): "d86905b35c4a23c22352dd023853b8a63c92c313e8abbba1ae09cba05e7067a8",
    (3, 3, 3): "6a43c0963521c3ab85ab237f726a00fb32cc54ee05eb031b4cecb569f0f91039",
}


def test_survivors_match_the_frozen_digests(searches):
    got, closed = {}, {}
    for order, factors, search, rows, _ in searches:
        if order in (16, 27):
            got[factors] = survivor_digest(rows)
            closed[factors] = survivor_digest(search.classes()[0])
    assert got == SURVIVOR_SHA256
    assert closed == SURVIVOR_SHA256


def double_loop_bilinear(G, P, x, y):
    """x*y as the sum over p, q of (x_p y_q) P[..., p, q]."""
    dx, dy = G.dec[x], G.dec[y]
    shape = np.broadcast_shapes(np.shape(P)[:-2], dx.shape[:-1], dy.shape[:-1])
    out = np.zeros(shape, dtype=np.int64)
    for p in range(G.k):
        for q in range(G.k):
            coef = (dx[..., p] * dy[..., q]) % G.exponent
            out = G.add[out, G.smul[coef, P[..., p, q]]]
    return out


@pytest.mark.parametrize("factors", [(2, 2, 2), (4, 2), (3, 3), (9, 3), (1, 2), ()], ids=str)
def test_product_tables_equal_add_and_bilinear(factors):
    # random basis products, associative or not: e_a e_b is killed by
    # gcd(d_a, d_b), so each bilinear product is well defined
    G = CoordGroup(factors)
    rng = np.random.default_rng(11)
    x = np.arange(G.n)
    cands = [[G.killed_by(np.gcd(da, db)) for db in G.factors] for da in G.factors]
    for _ in range(8):
        P = np.array([[rng.choice(c) for c in row] for row in cands], dtype=np.int64).reshape(G.k, G.k)
        add, mul = product_tables(G, G.dec[P])
        assert np.array_equal(add, G.add)
        assert np.array_equal(mul, double_loop_bilinear(G, P, x[:, None], x[None, :]))
