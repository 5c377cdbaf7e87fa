"""Constructors for concrete small rings.

Everything returns a RingTable that has passed verify_axioms.
Provenance strings double as build recipes; where the ring-expression
grammar can express a construction, the provenance is that expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .abelian import CoordGroup, digit_tables
from .errors import InternalCheckError, TableStructureError
from .table import MAX_ORDER, RingTable, _row_blocks, checked

_DTYPE = np.int16


def cyclic(n: int) -> RingTable:
    """The ring Z/nZ."""
    n = int(n)
    if n < 1 or n > MAX_ORDER:
        raise TableStructureError(f"cyclic ring order must be in 1..{MAX_ORDER}, got {n}")
    ids = np.arange(n)
    add = (ids[:, None] + ids[None, :]) % n
    mul = (ids[:, None] * ids[None, :]) % n
    one = 1 % n
    return checked(
        RingTable(n, [str(i) for i in ids], add, mul, 0, one, provenance=f"Zn({n})")
    )


# -- polynomial helpers over Z/pZ (little-endian coefficient tuples) ---------


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_divmod(num, den, p):
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    quo = [0] * max(0, len(num) - dd)
    for shift in range(len(num) - dd - 1, -1, -1):
        coef = (num[shift + dd] * inv_lead) % p
        if coef:
            quo[shift] = coef
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - coef * d) % p
    return _poly_trim(quo), _poly_trim(num)


@lru_cache(maxsize=None)
def _least_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible of degree k over Z/pZ with the least coefficient encoding.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are ordered by the integer
    sum(c_i * p^i); the first with no divisor of degree 1..k//2 wins.
    """
    if k == 1:
        return (0, 1)
    divisors = []
    for d in range(1, k // 2 + 1):
        for m in range(p**d):
            tail = [(m // p**i) % p for i in range(d)]
            divisors.append(tuple(tail) + (1,))
    for m in range(p**k):
        tail = [(m // p**i) % p for i in range(k)]
        f = tuple(tail) + (1,)
        if all(_poly_divmod(f, g, p)[1] for g in divisors):
            return f
    raise InternalCheckError(f"no irreducible of degree {k} over F_{p}")


def galois(p: int, k: int = 1) -> RingTable:
    """The finite field GF(p^k), elements encoded as base-p coefficient vectors.

    The modulus is the fixed least irreducible returned by _least_irreducible,
    so tables are reproducible across runs.
    """
    p, k = int(p), int(k)
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise TableStructureError(f"{p} is not prime")
    if k < 1:
        raise TableStructureError(f"field degree must be at least 1, got {k}")
    n = p**k
    if n > MAX_ORDER:
        raise TableStructureError(f"field order {n} exceeds cap {MAX_ORDER}")
    # basis products w^i w^j = w^(i+j); row t of powers is w^t mod f
    f = _least_irreducible(p, k)
    powers = np.zeros((2 * k - 1, k), dtype=np.int64)
    for t in range(2 * k - 1):
        rem = _poly_divmod((0,) * t + (1,), f, p)[1]
        powers[t, : len(rem)] = rem
    labels = [_poly_label(c, "w") for c in CoordGroup([p] * k).dec]
    name = f"GF({p})" if k == 1 else f"GF({p},{k})"
    return from_structure_constants(
        [p] * k, powers[np.add.outer(range(k), range(k))], [1] + [0] * (k - 1), labels, name
    )


def _poly_label(coeffs, var: str) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
    return "+".join(terms) if terms else "0"


def frobenius_map(F: RingTable) -> np.ndarray:
    """The element map x -> x^p where p is the characteristic of the field F."""
    p = F.characteristic
    cur = np.arange(F.order, dtype=_DTYPE)
    base = np.arange(F.order, dtype=_DTYPE)
    for _ in range(p - 1):
        cur = F.mul[cur, base]
    return cur


# -- rings free over a coefficient ring ---------------------------------------


def _monomial_algebra(R0: RingTable, one, products, label, provenance: str) -> RingTable:
    """The free R0-module on e_0 .. e_{b-1}, b = len(one), with e_i*e_j = e_t
    for each (i, j, t) in products and 0 for every other pair.  An element is
    its vector of b coefficients, each an element index of R0; one is the
    unity's vector and label(coeffs) names an element.

    The tables are filled by abelian.digit_tables from the pure elements
    c*e_a: (c*e_a)*y has coordinate t the sum of c*y_j over the products
    (a, j, t).  That is O(|products| * m * n) for m = |R0|, then one O(n^2)
    gather per coordinate and table."""
    b = len(one)
    m = R0.order
    n = m**b
    if n > MAX_ORDER:
        raise TableStructureError(f"order {n} of {provenance} exceeds cap {MAX_ORDER}")
    grp = CoordGroup([m] * b)
    C = grp.dec
    y = np.arange(n)
    by_left = [[] for _ in range(b)]
    for i, j, t in products:
        by_left[i].append((j, t))
    add_rows, mul_rows = [], []
    for a in range(b):
        # rows of c*e_a for every c: y with coordinate a replaced by c + y_a
        add_rows.append(y + (R0.add[:, C[:, a]] - C[:, a]) * m**a)
        acc = np.full((b, m, n), R0.zero, dtype=np.int64)
        for j, t in by_left[a]:
            acc[t] = R0.add[acc[t], R0.mul[:, C[:, j]]]
        mul_rows.append(grp.encode(np.moveaxis(acc, 0, -1)))
    zero, one = grp.encode(np.array([[R0.zero] * b, one]))
    add, mul = digit_tables(grp.factors, int(zero), add_rows, mul_rows)
    labels = [label(c) for c in C]
    return checked(RingTable(n, labels, add, mul, int(zero), int(one), provenance))


def _matrices(R0: RingTable, k: int, pos: list, name: str) -> RingTable:
    """k x k matrices over R0 with free entries at pos, one coordinate each
    in that order, and R0's zero everywhere else.  The basis is the matrix
    units, E_ij * E_jl = E_il."""
    at = {ij: t for t, ij in enumerate(pos)}
    units = (
        (s, u, at[i, l]) for s, (i, j) in enumerate(pos) for u, (j2, l) in enumerate(pos) if j == j2
    )

    def label(coeffs):
        entry = dict(zip(pos, coeffs))
        rows = [
            "[" + ",".join(R0.labels[entry.get((i, j), R0.zero)] for j in range(k)) + "]"
            for i in range(k)
        ]
        return "[" + ",".join(rows) + "]"

    one = [R0.one if i == j else R0.zero for i, j in pos]
    return _monomial_algebra(R0, one, units, label, f"{name}({k},{R0.provenance})")


def matrix_ring(R0: RingTable, k: int) -> RingTable:
    """Full k x k matrix ring over R0, entries packed row-major."""
    k = int(k)
    return _matrices(R0, k, [(i, j) for i in range(k) for j in range(k)], "M")


def upper_triangular(R0: RingTable, k: int) -> RingTable:
    """Upper triangular k x k matrices over R0 (diagonal included)."""
    k = int(k)
    return _matrices(R0, k, [(i, j) for i in range(k) for j in range(k) if i <= j], "U")


# -- group algebras -----------------------------------------------------------


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a dense operation table."""

    name: str
    order: int
    labels: tuple
    op: np.ndarray
    identity: int

    def validate(self) -> None:
        op = self.op
        n = self.order
        if op.shape != (n, n):
            raise TableStructureError("group table shape mismatch")
        # (xy)z against x(yz) a block of x at a time, not as one n^3 array
        for a0, a1 in _row_blocks(n, n * n):
            rows = op[a0:a1]
            if not np.array_equal(op[rows], rows[:, op]):
                raise TableStructureError("group operation not associative")
        ids = np.arange(n)
        if not (np.array_equal(op[self.identity], ids) and np.array_equal(op[:, self.identity], ids)):
            raise TableStructureError("group identity broken")
        if not ((op == self.identity).any(axis=1)).all():
            raise TableStructureError("group element without inverse")


def cyclic_group(n: int, name: str = "") -> GroupTable:
    ids = np.arange(n)
    op = (ids[:, None] + ids[None, :]) % n
    g = GroupTable(name or f"C{n}", n, tuple(f"g{i}" if i else "e" for i in ids), op, 0)
    g.validate()
    return g


def quaternion_group() -> GroupTable:
    """Q8 = {1,-1,i,-i,j,-j,k,-k}; index = 2*axis + sign."""
    # axis products: (result axis, sign flip)
    ax = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (2, 0): (2, 0), (3, 0): (3, 0),
        (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }
    op = np.zeros((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            a, s = x // 2, x % 2
            b, t = y // 2, y % 2
            c, u = ax[(a, b)]
            op[x, y] = 2 * c + (s + t + u) % 2
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    g = GroupTable("Q8", 8, labels, op, 0)
    g.validate()
    return g


def group_algebra(F: RingTable, G: GroupTable) -> RingTable:
    """The group ring F[G]: formal F-combinations of group elements."""
    g = range(G.order)
    return _monomial_algebra(
        F,
        [F.one if h == G.identity else F.zero for h in g],
        ((h, h2, G.op[h, h2]) for h in g for h2 in g),
        lambda c: _combo_label(c, F, G.labels),
        f"GA({F.provenance},{G.name})",
    )


def _combo_label(coeffs, F: RingTable, glabels) -> str:
    terms = []
    for g, c in enumerate(coeffs):
        if c == F.zero:
            continue
        if c == F.one:
            terms.append(glabels[g])
        else:
            terms.append(f"{F.labels[c]}*{glabels[g]}")
    return "+".join(terms) if terms else "0"


# -- bespoke constructions ----------------------------------------------------


def skew_quotient_f4() -> RingTable:
    """F4[x; frobenius] / (x^2): pairs a + b*x with x*a = frob(a)*x and x^2 = 0."""
    F = galois(2, 2)
    frob = frobenius_map(F)
    grp = CoordGroup([4, 4])
    n = grp.n
    a, b = grp.dec.T
    add = grp.encode(np.stack([F.add[a[:, None], a[None, :]], F.add[b[:, None], b[None, :]]], -1))
    # (a1 + b1 x)(a2 + b2 x) = a1 a2 + (a1 b2 + b1 frob(a2)) x
    mul = grp.encode(np.stack([
        F.mul[a[:, None], a[None, :]],
        F.add[F.mul[a[:, None], b[None, :]], F.mul[b[:, None], frob[a[None, :]]]],
    ], -1))
    labels = []
    for x in range(n):
        la, lb = F.labels[a[x]], F.labels[b[x]]
        if b[x] == 0:
            labels.append(la)
        else:
            xs = "x" if b[x] == 1 else f"({lb})x"
            labels.append(xs if a[x] == 0 else f"{la}+{xs}")
    return checked(RingTable(n, labels, add, mul, 0, 1, provenance="SkewF4x2()"))


@dataclass(frozen=True)
class BimoduleSpec:
    """An (A, B)-bimodule given by explicit tables.

    add: m x m table of the module's abelian group; left_act[a, u] and
    right_act[u, b] give the two actions.  validate() checks every bimodule
    law exhaustively against the two rings.
    """

    add: np.ndarray
    left_act: np.ndarray
    right_act: np.ndarray
    labels: tuple

    @property
    def order(self) -> int:
        return self.add.shape[0]

    def zero_index(self) -> int:
        ids = np.arange(self.order)
        for z in range(self.order):
            if np.array_equal(self.add[z], ids):
                return z
        raise TableStructureError("module addition has no identity")

    def validate(self, A: RingTable, B: RingTable) -> None:
        madd, la, ra = self.add, self.left_act, self.right_act
        m = self.order
        if la.shape != (A.order, m) or ra.shape != (m, B.order):
            raise TableStructureError("action table shapes do not match the rings")
        if not np.array_equal(madd, madd.T):
            raise TableStructureError("module addition not commutative")
        if not np.array_equal(madd[madd, :], madd[:, madd]):
            raise TableStructureError("module addition not associative")
        z = self.zero_index()
        ids = np.arange(m)
        if not ((madd == z).any(axis=1)).all():
            raise TableStructureError("module element without negative")
        if not (np.array_equal(la[A.one], ids) and np.array_equal(ra[:, B.one], ids)):
            raise TableStructureError("module actions not unital")
        na = np.arange(A.order)
        # (a1*a2).u == a1.(a2.u)
        if not np.array_equal(la[A.mul, :], la[na[:, None, None], la[None, :, :]]):
            raise TableStructureError("left action not associative")
        # u.(b1*b2) == (u.b1).b2
        if not np.array_equal(ra[:, B.mul], ra[ra]):
            raise TableStructureError("right action not associative")
        # a.(u+v) == a.u + a.v
        if not np.array_equal(la[:, madd], madd[la[:, :, None], la[:, None, :]]):
            raise TableStructureError("left action not additive in the module")
        # (a1+a2).u == a1.u + a2.u
        if not np.array_equal(la[A.add, :], madd[la[:, None, :], la[None, :, :]]):
            raise TableStructureError("left action not additive in the ring")
        # (u+v).b == u.b + v.b
        if not np.array_equal(ra[madd, :], madd[ra[:, None, :], ra[None, :, :]]):
            raise TableStructureError("right action not additive in the module")
        # u.(b1+b2) == u.b1 + u.b2
        if not np.array_equal(ra[:, B.add], madd[ra[:, :, None], ra[:, None, :]]):
            raise TableStructureError("right action not additive in the ring")
        # a.(u.b) == (a.u).b
        if not np.array_equal(la[:, ra], ra[la, :]):
            raise TableStructureError("left and right actions do not commute")


def ring_bimodule(R: RingTable) -> BimoduleSpec:
    """R itself as an (R, R)-bimodule via ring multiplication."""
    return BimoduleSpec(add=R.add, left_act=R.mul, right_act=R.mul, labels=R.labels)


def column_bimodule(field: RingTable, k: int):
    """(matrix_ring(field,k), field)-bimodule of k-columns.

    Returns (A, B, spec): matrices act on the left, scalars on the right.
    """
    A = matrix_ring(field, k)
    B = field
    q = field.order
    grp = CoordGroup([q] * k)
    U = grp.dec  # (m, k)
    m = grp.n
    madd = grp.encode(field.add[U[:, None, :], U[None, :, :]])
    E = CoordGroup([q] * (k * k)).dec.reshape(A.order, k, k)
    acc = None
    for t in range(k):
        term = field.mul[E[:, None, :, t], U[None, :, t, None]]
        acc = term if acc is None else field.add[acc, term]
    left = grp.encode(acc)  # (nA, m)
    right = grp.encode(field.mul[U[:, :, None], np.arange(q)[None, None, :]].transpose(0, 2, 1))
    labels = tuple("[" + ",".join(field.labels[c] for c in U[x]) + "]" for x in range(m))
    return A, B, BimoduleSpec(add=madd, left_act=left, right_act=right, labels=labels)


def formal_triangular(A: RingTable, B: RingTable, M: BimoduleSpec) -> RingTable:
    """Triangular ring of triples (a, u, b): (a,u,b)(a',u',b') = (aa', a.u' + u.b', bb')."""
    M.validate(A, B)
    na, nb, m = A.order, B.order, M.order
    n = na * m * nb
    if n > MAX_ORDER:
        raise TableStructureError(f"triangular ring order {n} exceeds cap {MAX_ORDER}")
    grp = CoordGroup([na, m, nb])
    a, u, b = grp.dec.T
    add = grp.encode(np.stack([
        A.add[a[:, None], a[None, :]], M.add[u[:, None], u[None, :]], B.add[b[:, None], b[None, :]]
    ], -1))
    mid = M.add[M.left_act[a[:, None], u[None, :]], M.right_act[u[:, None], b[None, :]]]
    mul = grp.encode(np.stack([A.mul[a[:, None], a[None, :]], mid, B.mul[b[:, None], b[None, :]]], -1))
    mz = M.zero_index()
    zero = grp.encode(np.array([A.zero, mz, B.zero]))
    one = grp.encode(np.array([A.one, mz, B.one]))
    labels = [f"({A.labels[a[x]]}|{M.labels[u[x]]}|{B.labels[b[x]]})" for x in range(n)]
    pa, pb = A.provenance or "A", B.provenance or "B"
    return checked(
        RingTable(n, labels, add, mul, int(zero), int(one), provenance=f"tri({pa},{pb},|M|={m})")
    )


def nonabelian_reflexive_64() -> RingTable:
    """Order-64 glued ring on (F2[x]/(x^2))^2 + F2 + F2 with twisted products.

    Coordinates (p, q, e, z) with p = a1 + b1*x and q = c1 + d1*x; the product
    couples the two nilpotent pair-components through the e/z bits:

      (p1,q1,e1,z1)(p2,q2,e2,z2)
        = (e1*z2*x + p1*p2, e2*z1*x + q1*q2, a1*e2 + c2*e1, c1*z2 + a2*z1)

    On the F2-basis (a, b, c, d, e, z) that is 12 nonzero products, each a
    basis element: aa = a, ab = ba = ez = b, cc = c, cd = dc = ze = d,
    ae = ec = e and cz = za = z.
    """
    names = "abcdez"
    P = np.zeros((6, 6, 6), dtype=np.int64)
    for x, y, t in "aaa abb bab ezb ccc cdd dcd zed aee ece czz zaz".split():
        P[names.index(x), names.index(y), names.index(t)] = 1
    pair = ("0", "1", "x", "1+x")  # cst + lin*x at index cst + 2*lin
    labels = [
        f"({pair[a + 2 * b]},{pair[c + 2 * d]},{e},{z})"
        for a, b, c, d, e, z in CoordGroup([2] * 6).dec
    ]
    return from_structure_constants([2] * 6, P, [1, 0, 1, 0, 0, 0], labels, "Reflexive64()")


def from_structure_constants(
    factors: Sequence[int],
    products,
    one_coords: Sequence[int],
    labels=None,
    provenance: str = "structure-constants",
) -> RingTable:
    """Ring from an additive decomposition and basis products.

    factors: cyclic orders d_1..d_k of the additive group.
    products[i][j]: coefficient vector of e_i * e_j over the basis.
    one_coords: coefficient vector of the unity.

    The bilinear extension is formed over the coordinate group and then every
    ring law is verified; bad constants raise AxiomViolationError.
    """
    grp = CoordGroup(factors)
    k = grp.k
    P = np.asarray(products, dtype=np.int64)
    if P.shape != (k, k, k):
        raise TableStructureError(f"products must have shape ({k},{k},{k}), got {P.shape}")
    pidx = grp.encode(P)  # (k, k) element index of e_i e_j
    # torsion guard: ord(e_i e_j) must divide both d_i and d_j
    for i in range(k):
        for j in range(k):
            o = int(grp.order_of[pidx[i, j]])
            if grp.factors[i] % o or grp.factors[j] % o:
                raise TableStructureError(
                    f"product e_{i}*e_{j} has additive order {o}, incompatible with "
                    f"factors {grp.factors[i]}, {grp.factors[j]}"
                )
    x = np.arange(grp.n)
    mul = grp.bilinear(pidx, x[:, None], x[None, :])
    one = int(grp.encode(np.asarray(one_coords, dtype=np.int64)))
    if labels is None:
        labels = [
            "+".join(
                (f"{ci}e{t}" if ci > 1 else f"e{t}")
                for t, ci in enumerate(grp.dec[x])
                if ci
            )
            or "0"
            for x in range(grp.n)
        ]
    return checked(
        RingTable(grp.n, labels, grp.add, mul, 0, one, provenance=provenance)
    )
