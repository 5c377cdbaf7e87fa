"""Finite abelian groups as coordinate tuples over cyclic factors.

Elements of Z_{d_1} x ... x Z_{d_k} are packed little-endian:
index = c_1 + d_1*(c_2 + d_2*(...)).  The first factor carries the
largest invariant, so coordinate (1, 0, ..., 0) is always an element of
maximal additive order.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np


class CoordGroup:
    """Additive group with precomputed coordinate and operation tables."""

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(d) for d in factors)
        if not factors or any(d < 2 for d in factors):
            raise ValueError(f"factors must all be >= 2, got {factors}")
        self.factors = factors
        self.n = int(np.prod(factors))
        self.k = len(factors)
        self.exponent = reduce(np.lcm, factors)
        # dec[x] = coordinate vector of x; enc reverses
        dec = np.zeros((self.n, self.k), dtype=np.int64)
        x = np.arange(self.n)
        for i, d in enumerate(factors):
            dec[:, i] = x % d
            x = x // d
        self.dec = dec
        self.add = self.encode((dec[:, None, :] + dec[None, :, :]))
        self.neg = self.encode(-dec)
        # smul[s, x] = s*x for 0 <= s < exponent
        s = np.arange(self.exponent)
        self.smul = self.encode(s[:, None, None] * dec[None, :, :])
        o = np.ones(self.n, dtype=np.int64)
        for i, d in enumerate(factors):
            fo = d // np.gcd(dec[:, i], d)
            o = np.lcm(o, fo)
        self.order_of = o

    def encode(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords)
        out = np.zeros(coords.shape[:-1], dtype=np.int64)
        radix = 1
        for i, d in enumerate(self.factors):
            out += (coords[..., i] % d) * radix
            radix *= d
        return out

    def basis(self) -> list:
        """Indices of the standard generators e_i."""
        out = []
        radix = 1
        for d in self.factors:
            out.append(radix)
            radix *= d
        return out

    def killed_by(self, m: int) -> np.ndarray:
        """Indices of elements x with m*x = 0."""
        return np.flatnonzero(m % self.order_of == 0)


def partitions(total: int) -> list:
    """All integer partitions of total, each sorted descending."""
    if total == 0:
        return [()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(total, total, [])
    return out


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
