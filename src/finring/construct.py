"""Constructors for concrete small rings.

Everything returns a RingTable that has passed verify_axioms.  Each
constructor states its ring by basis products, and its provenance is the
ring expression (see expr.py) that builds it again, given coefficient rings
and groups that the grammar names.  from_structure_constants is the one
exception: its provenance is whatever the caller passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .abelian import CoordGroup, _factorize, digit_tables, product_tables
from .errors import InternalCheckError, TableStructureError
from .table import MAX_ORDER, RingTable, _first_triple, checked


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
    if k < 1:
        raise TableStructureError(f"field degree must be at least 1, got {k}")
    # p and k are bounded before the trial division and p**k, and not formatted
    if p > MAX_ORDER or k > MAX_ORDER.bit_length() or (n := p**k) > MAX_ORDER:
        raise TableStructureError(f"field order p^k exceeds cap {MAX_ORDER}")
    if _factorize(p) != {p: 1}:
        raise TableStructureError(f"{p} is not prime")
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


def _check_coordinates(m: int, b: int) -> None:
    """Refuse matrices with b free entries over a ring of order m once
    max(m, 2)^b passes MAX_ORDER, so the zero ring is bounded too.  It runs
    before anything is allocated and formats neither b nor m^b."""
    if max(m, 2) ** min(b, MAX_ORDER) > MAX_ORDER:
        raise TableStructureError(
            f"matrices over a ring of order {m} exceed cap {MAX_ORDER}: "
            f"max({m}, 2)^b > {MAX_ORDER} for their b free entries"
        )


def _matrices(R0: RingTable, blocks: tuple, provenance: str) -> RingTable:
    """Block upper triangular matrices over R0 with diagonal blocks of the
    given sizes and R0's zero below them.  One coordinate per free entry,
    ordered by block pairs (I, J) with I <= J row-major, then row-major inside
    the block.  The basis is the matrix units, E_ij * E_jl = E_il."""
    if not blocks or min(blocks) < 1:
        raise TableStructureError(f"block sizes must be one or more positive ints, got {blocks}")
    k = sum(blocks)
    _check_coordinates(R0.order, (k * k + sum(s * s for s in blocks)) // 2)
    edges = [0, *accumulate(blocks)]
    span = [range(a, z) for a, z in zip(edges, edges[1:])]
    pos = [(i, j) for I, rows in enumerate(span) for cols in span[I:] for i in rows for j in cols]
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
    return _monomial_algebra(R0, one, units, label, provenance)


def matrix_ring(R0: RingTable, k: int) -> RingTable:
    """Full k x k matrix ring over R0, entries packed row-major."""
    k = int(k)
    return _matrices(R0, (k,), f"M({k},{R0.provenance})")


def upper_triangular(R0: RingTable, k: int) -> RingTable:
    """Upper triangular k x k matrices over R0 (diagonal included)."""
    k = int(k)
    _check_coordinates(R0.order, k * (k + 1) // 2)  # before (1,) * k is allocated
    return _matrices(R0, (1,) * k, f"U({k},{R0.provenance})")


def block_triangular(R0: RingTable, blocks: Sequence[int]) -> RingTable:
    """Block upper triangular matrices over R0 with diagonal blocks of the
    given sizes; blocks (2, 1) over GF(2) is the order-128 Tri128."""
    blocks = tuple(int(s) for s in blocks)
    return _matrices(R0, blocks, f"T({','.join(map(str, blocks))},{R0.provenance})")


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
        if _first_triple(n, lambda a0, a1: op[op[a0:a1]] != op[a0:a1][:, op]) is not None:
            raise TableStructureError("group operation not associative")
        ids = np.arange(n)
        if not (np.array_equal(op[self.identity], ids) and np.array_equal(op[:, self.identity], ids)):
            raise TableStructureError("group identity broken")
        if not ((op == self.identity).any(axis=1)).all():
            raise TableStructureError("group element without inverse")


def cyclic_group(n: int) -> GroupTable:
    ids = np.arange(n)
    op = (ids[:, None] + ids[None, :]) % n
    g = GroupTable(f"C{n}", n, tuple(f"g{i}" if i else "e" for i in ids), op, 0)
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
    """F4[x; frobenius] / (x^2): pairs a + b*x with x*a = frob(a)*x and x^2 = 0.

    Over F4 = F2[w]/(w^2 + w + 1), frob(w) = w^2 = 1 + w.  On the F2-basis
    (1, w, x, wx), where a + b*x packs as a + 4b, the products of w, x and
    wx that are not 0 are ww = 1 + w, w.x = wx, w.wx = x + wx, xw = x + wx
    and wx.w = x.
    """
    P = np.zeros((4, 4, 4), dtype=np.int64)
    P[0] = P[:, 0] = np.eye(4, dtype=np.int64)
    P[1, 1] = [1, 1, 0, 0]
    P[1, 2] = [0, 0, 0, 1]
    P[1, 3] = P[2, 1] = [0, 0, 1, 1]
    P[3, 1] = [0, 0, 1, 0]
    f4 = ("0", "1", "w", "1+w")  # a0 + a1*w at index a0 + 2*a1, as in GF(2,2)
    labels = []
    for b in range(4):
        xs = "x" if b == 1 else f"({f4[b]})x"
        labels += [f4[a] if not b else xs if not a else f"{f4[a]}+{xs}" for a in range(4)]
    return from_structure_constants([2] * 4, P, [1, 0, 0, 0], labels, "SkewF4x2()")


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

    Bad input raises TableStructureError before any table is allocated.  The
    tables are abelian.product_tables of the products, and then every ring
    law is verified; bad constants raise AxiomViolationError.
    """
    factors = tuple(int(d) for d in factors)
    if any(d < 1 for d in factors):
        raise TableStructureError(f"factors must all be >= 1, got {factors}")
    n = math.prod(factors)
    if n > MAX_ORDER:
        raise TableStructureError(f"order {n} exceeds the supported cap {MAX_ORDER}")
    k = len(factors)
    P = np.asarray(products, dtype=np.int64)
    if P.shape != (k, k, k):
        raise TableStructureError(f"products must have shape ({k},{k},{k}), got {P.shape}")
    if len(one_coords) != k:
        raise TableStructureError(f"one_coords must have length {k}, got {len(one_coords)}")
    grp = CoordGroup(factors)
    pidx = grp.encode(P)  # (k, k) element index of e_i e_j
    # torsion guard: ord(e_i e_j) must divide both d_i and d_j
    for i in range(k):
        for j in range(k):
            o = int(grp.order_of[pidx[i, j]])
            if factors[i] % o or factors[j] % o:
                raise TableStructureError(
                    f"product e_{i}*e_{j} has additive order {o}, incompatible with "
                    f"factors {factors[i]}, {factors[j]}"
                )
    add, mul = product_tables(grp, P)
    one = int(grp.encode(np.asarray(one_coords, dtype=np.int64)))
    if labels is None:
        labels = [
            "+".join(
                (f"{ci}e{t}" if ci > 1 else f"e{t}")
                for t, ci in enumerate(grp.dec[x])
                if ci
            )
            or "0"
            for x in range(n)
        ]
    return checked(RingTable(n, labels, add, mul, 0, one, provenance=provenance))
