"""Constructor families: orders, axioms, and frozen structural facts."""

import tracemalloc

import numpy as np
import pytest

from finring import (
    TableStructureError,
    block_triangular,
    cyclic,
    cyclic_group,
    from_structure_constants,
    galois,
    group_algebra,
    is_commutative,
    is_local,
    matrix_ring,
    nonabelian_reflexive_64,
    quaternion_group,
    skew_quotient_f4,
    units,
    upper_triangular,
    verify_axioms,
)
from finring import construct
from finring.iso import is_isomorphic
from finring.table import RingTable, checked
from finring.abelian import CoordGroup
from finring.corpus import corpus
from finring.construct import _least_irreducible, _poly_divmod
from finring.table import additive_type


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (2, 2, 4), (2, 3, 8), (3, 1, 3),
                                   (3, 2, 9), (5, 1, 5), (7, 1, 7)])
def test_galois_fields(p, k, n):
    F = galois(p, k)
    assert F.order == n
    assert verify_axioms(F).passed
    # every nonzero element invertible
    assert len(units(F)) == n - 1
    assert F.characteristic == p


def test_galois_rejects_composite_base():
    with pytest.raises(TableStructureError):
        galois(6)


def test_coord_group_allows_factors_of_one_and_the_trivial_group():
    G = CoordGroup([1, 2])
    assert G.n == 2 and G.basis() == [0, 1]
    assert G.add.tolist() == [[0, 1], [1, 0]]
    T = CoordGroup(())
    assert T.n == 1 and T.basis() == [] and T.add.tolist() == [[0]]
    R = from_structure_constants((), np.zeros((0, 0, 0), dtype=np.int64), [])
    assert R.order == 1 and R.mul.tolist() == [[0]]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_galois_products_are_polynomial_products_mod_the_modulus(p, k):
    # element x has base-p digits x_0 .. x_{k-1}, the coefficients of w^0 .. w^{k-1}
    F = galois(p, k)
    f = _least_irreducible(p, k)
    coeffs = [[(x // p**i) % p for i in range(k)] for x in range(F.order)]
    index = {tuple(c): x for x, c in enumerate(coeffs)}
    for x in range(F.order):
        for y in range(F.order):
            rem = list(_poly_divmod(_poly_mul(coeffs[x], coeffs[y], p), f, p)[1])
            assert F.mul[x, y] == index[tuple(rem + [0] * (k - len(rem)))]


def test_matrix_ring_m2f2():
    M = matrix_ring(galois(2), 2)
    assert M.order == 16
    assert verify_axioms(M).passed
    assert not is_commutative(M)
    # |GL_2(F_2)| = 6
    assert len(units(M)) == 6


def test_matrix_ring_over_z4():
    M = matrix_ring(cyclic(4), 2)
    assert M.order == 256
    assert verify_axioms(M).passed


def test_upper_triangular_u2f2():
    U = upper_triangular(galois(2), 2)
    assert U.order == 8
    assert verify_axioms(U).passed
    assert not is_commutative(U)


@pytest.mark.parametrize("R0,k", [(cyclic(2), 2), (cyclic(4), 2), (galois(2, 2), 2),
                                  (cyclic(2), 3)])
def test_upper_triangular_is_the_triangular_subring_of_the_matrix_ring(R0, k):
    U, M = upper_triangular(R0, k), matrix_ring(R0, k)
    at = {lb: x for x, lb in enumerate(M.labels)}
    emb = np.array([at[lb] for lb in U.labels])
    assert len(set(emb.tolist())) == U.order == R0.order ** (k * (k + 1) // 2)
    assert np.array_equal(M.add[emb[:, None], emb[None, :]], emb[U.add])
    assert np.array_equal(M.mul[emb[:, None], emb[None, :]], emb[U.mul])
    assert emb[U.zero] == M.zero and emb[U.one] == M.one
    zero = R0.labels[R0.zero]
    for lb in U.labels:
        rows = [row.split(",") for row in lb[2:-2].split("],[")]
        assert all(rows[i][j] == zero for i in range(k) for j in range(i)), lb


def _shifted_cyclic(n, shift):
    # Zn relabelled by x -> x + shift mod n: zero is element shift
    Zn = cyclic(n)
    pi = (np.arange(n) + shift) % n
    sigma = np.argsort(pi)
    grid = np.ix_(sigma, sigma)
    labels = [Zn.labels[i] for i in sigma]
    return checked(RingTable(n, labels, pi[Zn.add[grid]], pi[Zn.mul[grid]], shift,
                             (1 + shift) % n, f"Z{n}'"))


@pytest.mark.parametrize("build", [
    lambda R: matrix_ring(R, 2),
    lambda R: upper_triangular(R, 2),
    lambda R: group_algebra(R, cyclic_group(2)),
], ids=["M", "U", "GA"])
def test_coefficient_zero_and_one_may_sit_at_any_index(build):
    R0 = _shifted_cyclic(3, 1)
    assert (R0.zero, R0.one) == (1, 2)
    R, S = build(R0), build(cyclic(3))
    assert R.labels[R.zero] == S.labels[S.zero]
    assert R.labels[R.one] == S.labels[S.one]
    r = is_isomorphic(R, S)
    assert r.isomorphic is True
    phi = np.asarray(r.mapping)
    assert sorted(phi.tolist()) == list(range(S.order))
    assert np.array_equal(S.add[np.ix_(phi, phi)], phi[R.add])
    assert np.array_equal(S.mul[np.ix_(phi, phi)], phi[R.mul])
    assert (phi[R.zero], phi[R.one]) == (S.zero, S.one)


def reference_monomial_algebra(R0, one, products, label, provenance):
    """construct._monomial_algebra by the tensor fill: the coordinates of
    every sum and product of two elements at once, as (n, n, b) arrays."""
    b = len(one)
    n = R0.order**b
    grp = CoordGroup([R0.order] * b)
    C = grp.dec
    add = grp.encode(R0.add[C[:, None, :], C[None, :, :]])
    acc = np.full((b, n, n), R0.zero, dtype=np.int64)
    for i, j, t in products:
        acc[t] = R0.add[acc[t], R0.mul[C[:, None, i], C[None, :, j]]]
    mul = grp.encode(np.moveaxis(acc, 0, -1))
    zero, one = grp.encode(np.array([[R0.zero] * b, one]))
    labels = [label(c) for c in C]
    return checked(RingTable(n, labels, add, mul, int(zero), int(one), provenance))


def _with_reference_fill(monkeypatch, build):
    """build() and build() again with the tensor fill, as a pair of rings."""
    R = build()
    with monkeypatch.context() as m:
        m.setattr(construct, "_monomial_algebra", reference_monomial_algebra)
        return R, build()


MONOMIAL_CATALOG = [
    e for e in corpus() if any(f in e.recipe for f in ("M(", "U(", "T(", "GA("))
]


@pytest.mark.parametrize("entry", MONOMIAL_CATALOG, ids=lambda e: e.name)
def test_monomial_tables_equal_the_tensor_oracle(entry, monkeypatch):
    R, S = _with_reference_fill(monkeypatch, entry.build)
    assert R.table_equal(S) and R.provenance == S.provenance


@pytest.mark.parametrize("n,shift", [(3, 1), (3, 2), (4, 3)])
@pytest.mark.parametrize("build", [
    lambda R: matrix_ring(R, 2),
    lambda R: upper_triangular(R, 2),
    lambda R: group_algebra(R, cyclic_group(2)),
    lambda R: group_algebra(R, cyclic_group(3)),
], ids=["M", "U", "GA2", "GA3"])
def test_monomial_tables_equal_the_tensor_oracle_when_zero_is_not_0(n, shift, build, monkeypatch):
    R0 = _shifted_cyclic(n, shift)
    R, S = _with_reference_fill(monkeypatch, lambda: build(R0))
    assert R.zero != 0
    assert R.table_equal(S)


@pytest.mark.parametrize("blocks", [(2, 1), (1, 2)], ids=["T21", "T12"])
def test_block_triangular_tables_equal_the_tensor_oracle_when_zero_is_not_0(blocks, monkeypatch):
    # seven free entries: over Z2, since 3^7 is past the order cap
    R0 = _shifted_cyclic(2, 1)
    R, S = _with_reference_fill(monkeypatch, lambda: block_triangular(R0, blocks))
    assert R.order == 128 and R.zero != 0
    assert R.table_equal(S)


def test_quaternion_group_table():
    G = quaternion_group()
    assert G.order == 8
    # -1 is the unique element of order 2
    two_torsion = [g for g in range(8) if g != G.identity and G.op[g, g] == G.identity]
    assert len(two_torsion) == 1


def test_cyclic_group():
    G = cyclic_group(6)
    assert G.order == 6
    assert G.op[3, 4] == 1


def test_group_algebra_f2q8():
    R = group_algebra(galois(2), quaternion_group())
    assert R.order == 256
    assert verify_axioms(R).passed
    assert not is_commutative(R)
    assert is_local(R)


def test_group_algebra_f3c2_splits():
    # 3 does not divide |C2|, so the algebra is semisimple and commutative
    R = group_algebra(galois(3), cyclic_group(2))
    assert R.order == 9
    assert is_commutative(R)
    assert len(units(R)) == 4  # Z3 x Z3 component-wise units


def test_skew_quotient_is_local_noncommutative():
    R = skew_quotient_f4()
    assert R.order == 16
    assert verify_axioms(R).passed
    assert not is_commutative(R)
    assert is_local(R)
    assert additive_type(R) == (2, 2, 2, 2)


def test_reflexive64_shape():
    R = nonabelian_reflexive_64()
    assert R.order == 64
    assert verify_axioms(R).passed
    assert not is_commutative(R)


def test_block_triangular_with_blocks_2_1_over_f2():
    T = block_triangular(galois(2), (2, 1))
    assert T.order == 128 and T.provenance == "T(2,1,GF(2))"
    assert verify_axioms(T).passed
    # 3x3 labels whose entries (2, 0) and (2, 1), below the diagonal blocks, are 0
    rows = [[row.split(",") for row in lb[2:-2].split("],[")] for lb in T.labels]
    assert all(len(r) == 3 and all(len(e) == 3 for e in r) for r in rows)
    assert sorted({tuple(r[2][:2]) for r in rows}) == [("0", "0")]
    assert len(set(T.labels)) == 128


@pytest.mark.parametrize("blocks", [(), (0,), (2, -1)])
def test_block_triangular_refuses_a_block_size_below_one(blocks):
    with pytest.raises(TableStructureError, match="block sizes"):
        block_triangular(galois(2), blocks)


def test_block_triangular_with_blocks_1_1_over_z2():
    T = block_triangular(cyclic(2), (1, 1))
    assert T.order == 8
    assert verify_axioms(T).passed
    assert T.table_equal(upper_triangular(cyclic(2), 2))


def test_structure_constants_z4():
    S = from_structure_constants([4], [[[1]]], [1])
    assert S.order == 4
    assert S.table_equal(cyclic(4), labels=False)


def test_structure_constants_f4():
    # basis (1, x) with x^2 = x + 1
    S = from_structure_constants(
        [2, 2],
        [[[1, 0], [0, 1]], [[0, 1], [1, 1]]],
        [1, 0],
    )
    assert S.order == 4
    assert len(units(S)) == 3


@pytest.mark.parametrize("factors,one,match", [
    ((44, 44), [1, 0], "order 1936"),  # over the cap: its tables are never built
    ((2, 0), [1, 0], "factors"),
    ((4,), [1, 0], "one_coords"),
], ids=["over-cap", "factor-below-one", "one-coords-length"])
def test_structure_constants_refuse_bad_input_before_allocating(factors, one, match):
    k = len(factors)
    tracemalloc.start()
    try:
        with pytest.raises(TableStructureError, match=match):
            from_structure_constants(factors, np.zeros((k, k, k), dtype=np.int64), one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_structure_constants_reject_broken_identity():
    # claims e0 is the unity but e0*e1 = 0
    with pytest.raises(Exception):
        from_structure_constants(
            [2, 2],
            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            [1, 0],
        )
