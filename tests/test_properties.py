"""Property predicates cross-checked against plain-Python exhaustive scans."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finring.construct import cyclic, galois, matrix_ring, upper_triangular
from finring.corpus import corpus
from finring.errors import InternalCheckError
from finring.enumeration import enumerate_unital
from finring.expr import parse_ring_expr
from finring.iso import is_isomorphic
from finring.presentation import build_from_text
from finring.properties import (
    LATTICE,
    PropertyProfile,
    _check_profile_invariants,
    _distinct_zero_rows,
    _high_powers,
    _nilpotency_index,
    _radical_plus,
    _zero_bits,
    _zero_row_bits,
    _zero_row_products,
    is_duo,
    is_ps_i,
    is_reflexive,
    is_semicommutative,
    is_symmetric,
    is_two_primal,
    jacobson_radical,
    left_duo_witness,
    lower_nilradical,
    nilpotent_set,
    profile,
    reflexive_witness,
    right_duo_witness,
    semicommutative_witness,
    symmetric_witness,
    upper_nilradical,
)
from finring.ringio import dumps_ring, loads_ring
from finring.table import (
    ElementSet,
    RingTable,
    _additive_generators,
    _first_triple,
    _row_blocks,
    direct_sum,
    opposite,
    projection_map,
    quotient,
    right_annihilator,
    verify_axioms,
)


# -- brute-force reference scans ----------------------------------------------
# Same tables, different algorithm: nested Python loops with set lookups,
# no shared code with the vectorized predicates under test.


def brute_nilpotents(R):
    out = set()
    for a in range(R.order):
        x = a
        for _ in range(R.order):
            if x == R.zero:
                out.add(a)
                break
            x = int(R.mul[x, a])
    return out


def brute_profile(R):
    n, mul, add, zero = R.order, R.mul, R.add, R.zero
    els = range(n)
    commutative = all(mul[a, b] == mul[b, a] for a in els for b in els)
    reduced = not any(a != zero and mul[a, a] == zero for a in els)
    zero_pairs = [(a, b) for a in els for b in els if mul[a, b] == zero]
    symmetric = all(
        mul[mul[a, c], b] == zero
        for a in els for b in els for c in els
        if mul[mul[a, b], c] == zero
    )
    reversible = all(mul[b, a] == zero for a, b in zero_pairs)
    semicommutative = all(
        mul[mul[a, r], b] == zero for a, b in zero_pairs for r in els
    )
    reflexive = all(
        all(mul[mul[b, r], a] == zero for r in els)
        for a in els
        for b in els
        if all(mul[mul[a, r], b] == zero for r in els)
    )
    right_duo = all(
        int(mul[r, a]) in {int(mul[a, s]) for s in els} for a in els for r in els
    )
    left_duo = all(
        int(mul[a, r]) in {int(mul[s, a]) for s in els} for a in els for r in els
    )
    idem = [e for e in els if mul[e, e] == e]
    abelian = all(mul[e, r] == mul[r, e] for e in idem for r in els)
    nil = brute_nilpotents(R)
    ni = all(int(add[a, b]) in nil for a in nil for b in nil) and all(
        int(mul[a, r]) in nil and int(mul[r, a]) in nil for a in nil for r in els
    )
    nonunits = {a for a in els if not R.unit_mask[a]}
    local = all(int(add[a, b]) in nonunits for a in nonunits for b in nonunits)
    return dict(
        commutative=commutative,
        reduced=reduced,
        symmetric=symmetric,
        reversible=reversible,
        semicommutative=semicommutative,
        reflexive=reflexive,
        right_duo=right_duo,
        left_duo=left_duo,
        abelian=abelian,
        ni=ni,
        local=local,
    )


SAMPLE_RINGS = [
    ("Z4", lambda: cyclic(4)),
    ("F4", lambda: galois(2, 2)),
    ("F2xF2", lambda: direct_sum(galois(2), galois(2))),
    ("U2F2", lambda: upper_triangular(galois(2), 2)),
    ("M2F2", lambda: matrix_ring(galois(2), 2)),
    ("S16F2b", lambda: build_from_text("F2<u,v>/(u^3,v^2,vu,u^2-uv)")),
]


@pytest.mark.parametrize("name,make", SAMPLE_RINGS)
def test_predicates_agree_with_brute_force(name, make):
    R = make()
    ref = brute_profile(R)
    p = profile(R)
    for key, want in ref.items():
        assert getattr(p, key) == want, f"{name}.{key}"
    assert p.nilpotent_size == len(brute_nilpotents(R))


# -- frozen reference profiles ------------------------------------------------

EXPECTED = {
    "Z4": dict(
        commutative=True, reduced=False, symmetric=True, reversible=True,
        semicommutative=True, reflexive=True, duo=True, abelian=True,
        ni=True, two_primal=True, ps_i=True, local=True,
        unit_count=2, idempotent_count=2, nilpotent_size=2, jacobson_size=2,
    ),
    "U2F2": dict(
        commutative=False, reduced=False, symmetric=False, reversible=False,
        semicommutative=False, reflexive=False, duo=False, abelian=False,
        ni=True, two_primal=True, ps_i=True, local=False,
        unit_count=2, idempotent_count=6, nilpotent_size=2, jacobson_size=2,
    ),
    "M2F2": dict(
        commutative=False, reduced=False, symmetric=False, reversible=False,
        semicommutative=False, reflexive=True, duo=False, abelian=False,
        ni=False, two_primal=False, ps_i=False, local=False,
        unit_count=6, idempotent_count=8, nilpotent_size=4, jacobson_size=1,
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_reference_profiles(name):
    make = dict(SAMPLE_RINGS)[name]
    p = profile(make())
    for key, want in EXPECTED[name].items():
        assert getattr(p, key) == want, f"{name}.{key}"


# -- radicals -----------------------------------------------------------------


def test_radicals_collapse_when_nilpotents_form_an_ideal():
    for make in (lambda: cyclic(8), lambda: upper_triangular(galois(2), 2),
                 lambda: build_from_text("F2<u,v>/(u^3,v^2,vu,u^2-uv)")):
        R = make()
        nil = set(nilpotent_set(R).indices())
        assert set(jacobson_radical(R).indices()) == nil
        assert set(upper_nilradical(R).indices()) == nil
        assert set(lower_nilradical(R).indices()) == nil


def test_radicals_separate_on_a_full_matrix_ring():
    R = matrix_ring(galois(2), 2)
    assert len(nilpotent_set(R)) == 4
    assert len(jacobson_radical(R)) == 1
    assert len(upper_nilradical(R)) == 1
    assert len(lower_nilradical(R)) == 1


def test_jacobson_of_triangular_ring_is_strict_upper_part():
    R = upper_triangular(galois(2), 2)
    j = jacobson_radical(R)
    assert len(j) == 2
    # every member squares to zero
    assert all(R.mul[x, x] == R.zero for x in j)


# -- PS I ---------------------------------------------------------------------


def test_ps_i_of_a_chain_ring_and_a_full_matrix_ring():
    assert is_ps_i(cyclic(4)) is True
    assert is_ps_i(matrix_ring(galois(2), 2)) is False


# -- report formatting --------------------------------------------------------


def test_as_kv_covers_every_boolean_key():
    p = profile(cyclic(4))
    kv = p.as_kv()
    keys = {line.split("=", 1)[0] for line in kv}
    assert set(PropertyProfile.BOOL_KEYS) <= keys
    assert "order" in keys and "additive" in keys
    assert all("=" in line for line in kv)


def test_as_text_carries_witnesses_for_failures():
    p = profile(upper_triangular(galois(2), 2))
    text = p.as_text()
    assert "commutative=false" in text
    assert "witness commutative:" in text
    # passing predicates get no witness line
    assert "witness ni:" not in text


def test_is_duo_is_the_conjunction():
    assert is_duo(cyclic(4)) is True
    assert is_duo(upper_triangular(galois(2), 2)) is False


# -- implication lattice over an exhaustive sample ----------------------------


def test_lattice_holds_across_all_small_unital_rings():
    # profile() itself raises InternalCheckError on any lattice violation,
    # so sweeping every ring of these orders is the assertion.  Every ring of
    # order up to 27 is a product of rings of these orders and of fields,
    # which is how far right_duo <=> left_duo is checked past Courter (1982).
    count = 0
    for order in (4, 8, 9, 16, 25, 27):
        for R in enumerate_unital(order):
            profile(R)
            count += 1
    assert count == 4 + 11 + 4 + 50 + 4 + 12


# One case per rule of the lattice as it stood before it was folded into
# chains: (catalog ring, flags flipped so that only this rule breaks, index of
# the LATTICE entry that covers it).
_BROKEN_RULES = {
    "reduced => commutative": ("Z2", dict(commutative=False), 0),
    "commutative => duo": ("Z4", dict(duo=False), 2),
    "commutative => symmetric": ("Z4", dict(symmetric=False), 1),
    "symmetric => reversible": ("SkewF4x2", dict(reversible=False, reflexive=False), 1),
    "duo => semicommutative": ("S16F2a", dict(semicommutative=False), 2),
    "reversible => semicommutative": ("U2F2", dict(reversible=True), 3),
    "semicommutative => abelian": ("S16F2b", dict(abelian=False), 4),
    "abelian => ni": ("Z4", dict(ni=False, two_primal=False, ps_i=False), 4),
    "reversible <=> semicommutative & reflexive": (
        "U2F2", dict(semicommutative=True, reflexive=True, abelian=True), 3),
    "right_duo <=> left_duo": ("U2F2", dict(right_duo=True), 5),
    "ni <=> two_primal": ("M2F2", dict(two_primal=True), 6),
    "ps_i <=> ni": ("M2F2", dict(ps_i=True), 7),
}


@pytest.fixture(scope="module")
def rule_profiles():
    names = {name for name, _, _ in _BROKEN_RULES.values()}
    return {e.name: profile(e.build()) for e in corpus() if e.name in names}


@pytest.mark.parametrize("rule", sorted(_BROKEN_RULES))
def test_each_broken_rule_raises_naming_its_lattice_entry(rule, rule_profiles):
    name, flips, index = _BROKEN_RULES[rule]
    p = dataclasses.replace(rule_profiles[name], **flips)
    label = LATTICE[index][0]
    assert [lbl for lbl, holds in LATTICE if not holds(p)] == [label]
    with pytest.raises(InternalCheckError, match=re.escape(f"profile violates {label}")):
        _check_profile_invariants(p)


# -- shared scans over the small catalog and every small unital ring ----------


@pytest.fixture(scope="module")
def small_rings():
    rings = [(e.name, e.build()) for e in corpus() if e.order <= 64]
    for order in (4, 8, 9):
        rings += [(f"order{order}[{i}]", R) for i, R in enumerate(enumerate_unital(order))]
    return rings


def test_left_duo_is_right_duo_of_the_opposite(small_rings):
    for name, R in small_rings:
        assert left_duo_witness(R) == right_duo_witness(opposite(R)), name


def test_projection_onto_radical_quotient_is_a_homomorphism(small_rings):
    for name, R in small_rings:
        J = jacobson_radical(R)
        Q = quotient(R, J)
        p = projection_map(R, J)
        assert sorted(set(p.tolist())) == list(range(Q.order)), name
        assert (p[R.zero], p[R.one]) == (Q.zero, Q.one), name
        grid = np.ix_(p, p)
        assert np.array_equal(Q.add[grid], p[R.add]), name
        assert np.array_equal(Q.mul[grid], p[R.mul]), name


@pytest.fixture(scope="module")
def rings_to_128(small_rings):
    return small_rings + [(e.name, e.build()) for e in corpus() if 64 < e.order <= 128]


def test_zero_row_products_rows_are_right_annihilators(rings_to_128):
    for name, R in rings_to_128:
        Q = _zero_row_products(R)
        for a in range(R.order):
            assert set(np.flatnonzero(Q[a]).tolist()) == right_annihilator(R, a).members, (
                name, a)


def test_ps_i_agrees_with_one_quotient_per_element(rings_to_128):
    for name, R in rings_to_128:
        want = all(
            is_two_primal(quotient(R, right_annihilator(R, a))) for a in range(R.order)
        )
        assert is_ps_i(R) is want, name


# -- PS I without quotient rings ----------------------------------------------
# is_ps_i decides each R / I on R itself, from J(R) + I and {x : x^N in I};
# the definition builds every quotient and computes its own radicals.


def quotient_ps_i(R):
    """PS I by its definition: R / I is 2-primal for each distinct row I = r-ann(aR)."""
    return all(
        is_two_primal(quotient(R, ElementSet.from_iterable(R, np.flatnonzero(row))))
        for row in np.unique(_zero_row_products(R), axis=0)
    )


REV256 = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv,u^2vu)"
R512 = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv)"


@pytest.mark.parametrize("text", ["GA(GF(2),Q8)", REV256, R512], ids=["F2Q8", "Rev256", "R512"])
def test_ps_i_is_evaluated_on_rings_of_order_256_and_512(text):
    R = parse_ring_expr(text)
    p = profile(R)
    assert p.order in (256, 512)
    assert p.ps_i is p.ni
    assert p.ps_i is quotient_ps_i(R)
    assert f"ps_i={str(p.ni).lower()}" in p.as_kv()


def test_profile_of_the_512_ring_builds_no_array_per_violation():
    # commutative_witness alone once listed all 233,472 noncommuting pairs
    R = build_from_text(R512)
    tracemalloc.start()
    try:
        profile(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.fixture(scope="module")
def enumerated_rings():
    """Every enumerated ring of orders 2 to 27, and its opposite."""
    out = []
    for order in (2, 3, 4, 5, 7, 8, 9, 16, 27):
        for i, R in enumerate(enumerate_unital(order)):
            out += [(f"order{order}[{i}]", R), (f"op(order{order}[{i}])", opposite(R))]
    return out


def test_ps_i_equals_one_quotient_per_distinct_row(enumerated_rings, rings_to_128):
    seen = set()
    for name, R in enumerated_rings + rings_to_128:
        got = is_ps_i(R)
        assert got is quotient_ps_i(R), name
        seen.add(got)
    assert seen == {True, False}


def test_quotient_radicals_are_the_images_of_the_sets_ps_i_reads(enumerated_rings, rings_to_128):
    # both sets are unions of cosets of I, so each is the preimage of its image
    rings = rings_to_128 + [(name, R) for name, R in enumerated_rings if R.order == 16]
    for name, R in rings:
        powers = _high_powers(R)
        for row in np.unique(_zero_row_products(R), axis=0):
            ideal = ElementSet.from_iterable(R, np.flatnonzero(row))
            Q, p = quotient(R, ideal), projection_map(R, ideal)
            assert np.array_equal(_radical_plus(R, row), jacobson_radical(Q).mask[p]), name
            assert np.array_equal(row[powers], nilpotent_set(Q).mask[p]), name


def brute_semicommutative_witness(R):
    """The lexicographically first (a, b) with ab = 0 and some arb != 0, with its least r."""
    mul, n, zero = R.mul.tolist(), R.order, R.zero
    for a in range(n):
        for b in range(n):
            if mul[a][b] == zero:
                for r in range(n):
                    if mul[mul[a][r]][b] != zero:
                        return (a, r, b)
    return None


def test_semicommutative_witness_is_the_lexicographic_first(rings_to_128):
    failing = 0
    for name, R in rings_to_128:
        for S in (R, opposite(R)):
            want = brute_semicommutative_witness(S)
            assert semicommutative_witness(S) == want, name
            failing += want is not None
    assert failing >= 20


# -- nilpotency index ------------------------------------------------------------


def nilpotency_index_in_n_steps(R):
    """Least k <= n with x^k = 0 per element, 0 when there is none."""
    n = R.order
    base = np.arange(n)
    cur, out = base.copy(), np.zeros(n, dtype=np.int64)
    for k in range(1, n + 1):
        out[(cur == R.zero) & (out == 0)] = k
        cur = R.mul[cur, base]
    return out


def test_nilpotency_index_needs_only_log2_n_powers(enumerated_rings):
    rings = [(e.name, e.build()) for e in corpus()] + enumerated_rings
    rings.append(("R512", parse_ring_expr(R512)))
    tight = []
    for name, R in rings:
        want = nilpotency_index_in_n_steps(R)
        assert np.array_equal(_nilpotency_index(R), want), name
        if want.max() == R.order.bit_length() - 1:
            tight.append(R.order)
    # 2 in Z16 has index 4 = log2 16, so the bound cannot be lowered
    assert 16 in tight


# -- bitset scans against the O(n^3) gathers -----------------------------------
# symmetric_witness and _zero_row_products read the zero sets as packed
# bitsets; these are the full gathers they replaced.


def gather_symmetric_witness(R):
    """The first (a, b, c) of the chunked [a, b, c] scan of abc = 0 and bac != 0."""
    mul, z = R.mul, R.zero
    return _first_triple(
        R.order, lambda a0, a1: (mul[mul[a0:a1], :] == z) & (mul[mul.T[a0:a1], :] != z)
    )


def gather_zero_row_products(R):
    """Q[a, b] = all over r of a*r*b == 0, from the [a, r, b] gather."""
    n, mul, z = R.order, R.mul, R.zero
    Q = np.empty((n, n), dtype=bool)
    for a0, a1 in _row_blocks(n, n * n):
        Q[a0:a1] = (mul[mul[a0:a1], :] == z).all(axis=1)
    return Q


def assert_scans_match_the_gathers(name, R):
    Q = gather_zero_row_products(R)
    assert np.array_equal(_zero_row_products(R), Q), name
    assert symmetric_witness(R) == gather_symmetric_witness(R), name
    # no padding bit is ever set, so none can flag a violation
    n = R.order
    for bits in (_zero_bits(R), _zero_row_bits(R)):
        assert bits.shape == (n, -(-n // 64)) and bits.dtype == np.uint64, name
        unpacked = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")
        assert not unpacked[:, n:].any(), name
    first = _distinct_zero_rows(R)
    assert len(first) == len(np.unique(Q, axis=0)), name
    assert np.array_equal(np.unique(Q[first], axis=0), np.unique(Q, axis=0)), name


def test_bitset_scans_equal_the_gathers_on_the_catalog():
    catalog = [(e.name, e.build()) for e in corpus()]
    assert max(R.order for _, R in catalog) == 256
    for name, R in catalog:
        for S in (R, opposite(R)):
            assert_scans_match_the_gathers(name, S)


def test_bitset_scans_equal_the_gathers_on_every_enumerated_ring(enumerated_rings):
    for name, R in enumerated_rings:
        assert_scans_match_the_gathers(name, R)


@pytest.mark.parametrize("text", [REV256, R512], ids=["Rev256", "R512"])
def test_bitset_scans_equal_the_gathers_at_orders_256_and_512(text):
    R = parse_ring_expr(text)
    assert_scans_match_the_gathers(text, R)
    assert symmetric_witness(R) is not None


def brute_symmetric_witness(R):
    """The lexicographically first (a, b, c) with abc = 0 and bac != 0."""
    mul, n, zero = R.mul.tolist(), R.order, R.zero
    for a in range(n):
        for b in range(n):
            ab, ba = mul[a][b], mul[b][a]
            for c in range(n):
                if mul[ab][c] == zero and mul[ba][c] != zero:
                    return (a, b, c)
    return None


def test_symmetric_witness_is_the_lexicographic_first(rings_to_128):
    failing = 0
    for name, R in rings_to_128:
        for S in (R, opposite(R)):
            want = brute_symmetric_witness(S)
            assert symmetric_witness(S) == want, name
            failing += want is not None
    assert failing >= 20


def brute_reflexive_witness(R):
    """The lexicographically first (a, b) with aRb = 0 and some bra != 0, with its least r."""
    mul, n, zero = R.mul.tolist(), R.order, R.zero
    for a in range(n):
        for b in range(n):
            if all(mul[mul[a][r]][b] == zero for r in range(n)):
                for r in range(n):
                    if mul[mul[b][r]][a] != zero:
                        return (a, b, r)
    return None


@pytest.mark.parametrize("name,make", [
    ("Z1", lambda: cyclic(1)),
    ("Z65", lambda: cyclic(65)),
    ("M2F2+Z5", lambda: direct_sum(matrix_ring(galois(2), 2), cyclic(5))),
    ("op(M2F2+Z5)", lambda: opposite(direct_sum(matrix_ring(galois(2), 2), cyclic(5)))),
])
def test_bitset_scans_on_orders_with_padding(name, make):
    R = make()
    assert_scans_match_the_gathers(name, R)
    ref = brute_profile(R)
    p = profile(R)
    for key in ("symmetric", "semicommutative", "reflexive"):
        assert getattr(p, key) == ref[key], (name, key)
    assert p.ps_i is quotient_ps_i(R), name


# -- invariance under relabeling ------------------------------------------------


@pytest.fixture(scope="module")
def rings_to_64(small_rings, enumerated_rings):
    return small_rings + enumerated_rings


def relabeled(R, pi):
    """R with element x renamed pi[x]."""
    sigma = np.argsort(pi)
    return RingTable(
        R.order, [R.labels[s] for s in sigma],
        pi[R.add[np.ix_(sigma, sigma)]], pi[R.mul[np.ix_(sigma, sigma)]],
        int(pi[R.zero]), int(pi[R.one]),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_product_predicates_survive_relabeling(rings_to_64, data):
    name, R = data.draw(st.sampled_from(rings_to_64), label="ring")
    pi = np.array(data.draw(st.permutations(range(R.order)), label="permutation"))
    S = relabeled(R, pi)
    for pred in (is_symmetric, is_semicommutative, is_reflexive, is_ps_i):
        assert pred(S) is pred(R), (name, pred.__name__)
    assert_scans_match_the_gathers(name, S)
    assert semicommutative_witness(S) == brute_semicommutative_witness(S), name
    assert reflexive_witness(S) == brute_reflexive_witness(S), name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_relabeled_ring_is_isomorphic_with_the_same_profile_and_file(rings_to_64, data):
    name, R = data.draw(st.sampled_from(rings_to_64), label="ring")
    pi = np.array(data.draw(st.permutations(range(R.order)), label="permutation"))
    S = relabeled(R, pi)
    r = is_isomorphic(R, S)
    assert r.isomorphic is True, (name, r.reason)
    phi = np.array(r.mapping)
    assert sorted(r.mapping) == list(range(R.order)), name
    assert np.array_equal(S.add[np.ix_(phi, phi)], phi[R.add]), name
    assert np.array_equal(S.mul[np.ix_(phi, phi)], phi[R.mul]), name
    # as_kv lists every BOOL_KEYS flag and every count of the profile
    assert profile(S).as_kv() == profile(R).as_kv(), name
    assert loads_ring(dumps_ring(S)).table_equal(S), name


def test_verify_axioms_and_zero_row_bits_share_the_additive_generators():
    S = build_from_text("F2<u,v>/(u^3,v^2,u^2+uv+vu,uvu)")
    R = RingTable(S.order, S.labels, S.add, S.mul, S.zero, S.one)  # cold caches
    assert verify_axioms(R).passed
    G = _additive_generators(R)
    _zero_row_bits(R)
    assert _additive_generators(R) is G
    assert not G.flags.writeable
