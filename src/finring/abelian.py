"""Finite abelian groups as coordinate tuples over cyclic factors.

Elements of Z_{d_1} x ... x Z_{d_k} are packed little-endian:
index = c_1 + d_1*(c_2 + d_2*(...)).  The first factor carries the
largest invariant, so coordinate (1, 0, ..., 0) is always an element of
maximal additive order.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Sequence

import numpy as np


class CoordGroup:
    """Additive group with precomputed coordinate tables.

    Factors of 1 are allowed, and no factors at all is the trivial group.
    The n x n addition and scalar tables are built on first use, so a
    caller that only packs coordinates never pays for them.
    """

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(d) for d in factors)
        if any(d < 1 for d in factors):
            raise ValueError(f"factors must all be >= 1, got {factors}")
        self.factors = factors
        self.n = int(np.prod(factors))
        self.k = len(factors)
        self.exponent = reduce(np.lcm, factors, 1)
        # dec[x] = coordinate vector of x; enc reverses
        dec = np.zeros((self.n, self.k), dtype=np.int64)
        x = np.arange(self.n)
        for i, d in enumerate(factors):
            dec[:, i] = x % d
            x = x // d
        self.dec = dec
        o = np.ones(self.n, dtype=np.int64)
        for i, d in enumerate(factors):
            fo = d // np.gcd(dec[:, i], d)
            o = np.lcm(o, fo)
        self.order_of = o

    @cached_property
    def add(self) -> np.ndarray:
        return self.encode(self.dec[:, None, :] + self.dec[None, :, :])

    @cached_property
    def smul(self) -> np.ndarray:
        """smul[s, x] = s*x for 0 <= s < exponent."""
        s = np.arange(self.exponent)
        return self.encode(s[:, None, None] * self.dec[None, :, :])

    @cached_property
    def scaled(self) -> np.ndarray:
        """scaled[p, x * n + y] = x_p * y, one flat row per coordinate."""
        return self.smul[self.dec.T].reshape(self.k, -1)

    def linear(self, images, x) -> np.ndarray:
        """sum_p x_p images[p], the additive map with e_p -> images[p] at x;
        images holds one array or int per coordinate, broadcast against x.
        Flat takes with intp indices: n * n overflows int16 from n = 182."""
        n = self.n
        x = np.asarray(x, dtype=np.intp) * n
        out = np.zeros(x.shape, dtype=np.intp)
        for p, image in enumerate(images):
            term = self.scaled[p].take(x + image)
            out = self.add.take(out * n + term) if p else term
        return out

    def encode(self, coords: np.ndarray) -> np.ndarray:
        """Index of each coordinate vector on the last axis, each coordinate
        taken mod its factor."""
        coords = np.asarray(coords)
        if not self.k:
            return np.zeros(coords.shape[:-1], dtype=np.int64)
        # C order varies the last index fastest, so the coordinates go in reversed
        digits = tuple(np.moveaxis(coords, -1, 0)[::-1])
        return np.ravel_multi_index(digits, self.factors[::-1], mode="wrap")

    def basis(self) -> list:
        """Indices of the standard generators e_i."""
        return self.encode(np.eye(self.k, dtype=np.int64)).tolist()

    def killed_by(self, m: int) -> np.ndarray:
        """Indices of elements x with m*x = 0."""
        return np.flatnonzero(m % self.order_of == 0)


def product_tables(grp: CoordGroup, T, reduce=None):
    """The add and mul tables of the bilinear product on grp with basis
    products T[a, b], the coordinate vector of e_a * e_b.

    Only the rows of the pure elements c*e_a are computed in coordinates:
    c*e_a + y and c*(y @ T[a]) for every y, O(n k^2) per coordinate.
    reduce maps integer coordinate vectors on the last axis to the box
    vectors of their cosets; None takes each coordinate mod its factor.
    digit_tables fills the rest, so the zero is index 0 and no (n, n, k)
    array is built.  Nothing here checks a ring law."""

    def rows(X):
        # encode takes each coordinate mod its factor
        return grp.encode(X if reduce is None else reduce(X))

    V = grp.dec
    T = np.asarray(T, dtype=np.int64)
    unit = np.eye(grp.k, dtype=np.int64)
    add_rows, mul_rows = [], []
    for a, d in enumerate(grp.factors):
        c = np.arange(d)[:, None, None]
        add_rows.append(rows(V + c * unit[a]))
        mul_rows.append(rows(c * (V @ T[a])))
    return digit_tables(grp.factors, 0, add_rows, mul_rows)


def digit_tables(factors: Sequence[int], zero: int, add_rows, mul_rows):
    """The add and mul tables of a ring whose elements are packed little-endian
    over factors, filled from the rows of its pure elements.  product_tables
    and construct._monomial_algebra compute those rows.

    The pure element (a, c) has digit c at a and the zero's digits elsewhere;
    add_rows[a][c] and mul_rows[a][c] are its rows of the two tables, so each
    of add_rows[a] and mul_rows[a] has shape (factors[a], n).  Every element
    is the sum of its pure parts.  With stride_a the product of the factors
    below a, the elements whose digits from a on are the zero's fill the rows
    block_a = zero - zero % stride_a + [0, stride_a), and the element with
    digit c at a and the zero's digits above is x + (a, c) for the x in
    block_a with the same digits below a.  So each block_{a+1} comes from
    block_a in one gather per table, broadcast over c:
    add[x + (a, c)] = add_rows[a][c][add[x]] and
    mul[x + (a, c)] = add[mul[x], mul_rows[a][c]].
    That is O(n^2) in all: no entry is computed in coordinates.
    """
    factors = tuple(int(d) for d in factors)
    n = int(np.prod(factors))
    add = np.empty((n, n), dtype=np.int16)
    mul = np.empty((n, n), dtype=np.int16)
    add[zero] = np.arange(n)
    mul[zero] = zero
    blocks = []  # (block_a, block_{a+1}) per digit
    stride = 1
    for d in factors:
        lo, top = zero - zero % stride, zero - zero % (stride * d)
        blocks.append((slice(lo, lo + stride), slice(top, top + stride * d)))
        stride *= d
    from .table import _pair_take  # table imports this module, so not at the top

    # mul needs the whole add table, so add is filled first.  Each gather is
    # laid out [x, c, y], so that _pair_take's blocks run over the x of
    # block_a, and written to the rows x + (a, c) of block_{a+1} as [c, x, y]
    for (src, dst), pure in zip(blocks, add_rows):
        c = np.arange(len(pure))[:, None]
        add[dst].reshape(len(pure), -1, n)[...] = _pair_take(
            pure, c, add[src][:, None, :]
        ).transpose(1, 0, 2)
    for (src, dst), pure in zip(blocks, mul_rows):
        mul[dst].reshape(len(pure), -1, n)[...] = _pair_take(
            add, mul[src][:, None, :], pure[None]
        ).transpose(1, 0, 2)
    return add, mul


def partitions(total: int) -> list:
    """All integer partitions of total, each sorted descending, in reverse
    lexicographic order: (3,), (2, 1), (1, 1, 1)."""
    out = []
    lam = [total] if total else []
    while True:
        out.append(tuple(lam))
        rest = 0
        while lam and lam[-1] == 1:
            rest += lam.pop()
        if not lam:
            return out
        # lower the last part above 1 by one, and refill greedily with parts
        # no larger than it
        part = lam.pop() - 1
        count, left = divmod(rest + part + 1, part)
        lam += [part] * count + ([left] if left else [])


def _factorize(n: int) -> dict:
    """{p: e} with n the product of p**e, by trial division; primes ascending."""
    fac = {}
    m = n
    p = 2
    while m > 1:
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    return fac


def abelian_groups_of_order(n: int) -> list:
    """Factor tuples of every abelian group of order n, invariants descending per prime."""
    per_prime = []
    for p, e in _factorize(n).items():
        per_prime.append([(p, lam) for lam in partitions(e)])
    groups = [()]
    for choices in per_prime:
        groups = [
            g + tuple(p**part for part in lam) for g in groups for (p, lam) in choices
        ]
    # sort factors descending so the first factor realises the exponent
    return [tuple(sorted(g, reverse=True)) for g in groups]
