"""Exhaustive enumeration of unital rings of small order, one table per
isomorphism class.

Strategy per abelian group: the identity element must have additive order
equal to the group exponent, and every such element is equivalent under an
additive automorphism, so the identity is pinned to the first basis vector.
The unknowns are the products of the remaining basis generators; torsion
bounds each product to the subgroup killed by gcd of the generator orders.
Assignment runs over a staircase schedule (row 0, column 0, row 1, ...) with
vectorized batch filtering: a generator triple becomes checkable as soon as
its row and column are fully assigned, and associativity on generator triples
extends bilinearly to the whole table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .abelian import CoordGroup, abelian_groups_of_order
from .errors import FinringError, InternalCheckError
from .iso import fingerprint, is_isomorphic
from .properties import profile
from .table import RingTable, verify_axioms

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)
DEEP_ORDERS = (16,)


def _slot_schedule(r: int):
    """Staircase: row 0, rest of column 0, row 1 from column 1, ..."""
    out = []
    for s in range(r):
        for j in range(s, r):
            out.append((s, j))
        for i in range(s + 1, r):
            out.append((i, s))
    return out


def _checks_by_position(schedule, r: int):
    """For each schedule position, the generator triples that become
    decidable once that slot is assigned: (a,b,c) needs row a and column c."""
    assigned = set()
    seen = set()
    out = []
    for pos, slot in enumerate(schedule):
        assigned.add(slot)
        fresh = []
        for a in range(r):
            if any((a, t) not in assigned for t in range(r)):
                continue
            for c in range(r):
                if any((t, c) not in assigned for t in range(r)):
                    continue
                for b in range(r):
                    tr = (a, b, c)
                    if tr not in seen:
                        seen.add(tr)
                        fresh.append(tr)
        out.append(fresh)
    return out


class _GroupSearch:
    def __init__(self, factors, seed=None):
        self.G = CoordGroup(tuple(factors))
        G = self.G
        self.k = G.k
        self.r = G.k - 1
        self.basis_elts = G.basis()
        self.one = self.basis_elts[0] if G.k else 0
        self.schedule = _slot_schedule(self.r)
        self.slot_pos = {s: i for i, s in enumerate(self.schedule)}
        self.checks = _checks_by_position(self.schedule, self.r)
        self.rng = np.random.default_rng(seed) if seed is not None else None

        self.omega = []
        for (i, j) in self.schedule:
            di = int(G.factors[i + 1])
            dj = int(G.factors[j + 1])
            g = np.gcd(di, dj)
            cand = G.killed_by(int(g))
            if self.rng is not None:
                cand = self.rng.permutation(cand)
            self.omega.append(cand.astype(np.int16))

    def _triple_mask(self, assign, a, b, c):
        """Associativity of (g_a g_b) g_c vs g_a (g_b g_c), batch-vectorized."""
        G = self.G
        exp = G.exponent
        x = assign[:, self.slot_pos[(a, b)]].astype(np.int64)
        y = assign[:, self.slot_pos[(b, c)]].astype(np.int64)
        dx = G.dec[x]
        dy = G.dec[y]
        lhs = np.zeros(len(assign), dtype=np.int64)
        rhs = np.zeros(len(assign), dtype=np.int64)
        for p in range(self.k):
            if p == 0:
                fac_l = np.full(len(assign), self.basis_elts[c + 1], dtype=np.int64)
                fac_r = np.full(len(assign), self.basis_elts[a + 1], dtype=np.int64)
            else:
                fac_l = assign[:, self.slot_pos[(p - 1, c)]].astype(np.int64)
                fac_r = assign[:, self.slot_pos[(a, p - 1)]].astype(np.int64)
            lhs = G.add[lhs, G.smul[dx[:, p] % exp, fac_l]]
            rhs = G.add[rhs, G.smul[dy[:, p] % exp, fac_r]]
        return lhs == rhs

    # expansion cap: between associativity checks the batch multiplies by the
    # candidate count, so oversized batches are split before expanding.  At
    # order 16, batches of 1 << 22 rows peaked near 500 MiB; 1 << 20 peaks
    # near 175 MiB and runs no slower.
    _BATCH_LIMIT = 1 << 20

    def survivors(self) -> np.ndarray:
        """All associative structure-constant assignments, shape (m, nslots)."""
        nslots = len(self.schedule)
        done = []
        stack = [(0, np.zeros((1, 0), dtype=np.int16))]
        while stack:
            pos, assign = stack.pop()
            if pos == nslots:
                done.append(assign)
                continue
            cand = self.omega[pos]
            B = len(assign)
            if B > 1 and B * len(cand) > self._BATCH_LIMIT:
                half = B // 2
                stack.append((pos, assign[:half]))
                stack.append((pos, assign[half:]))
                continue
            assign = np.concatenate(
                [
                    np.repeat(assign, len(cand), axis=0),
                    np.tile(cand, B)[:, None].astype(np.int16),
                ],
                axis=1,
            )
            for (a, b, c) in self.checks[pos]:
                if not len(assign):
                    break
                assign = assign[self._triple_mask(assign, a, b, c)]
            if len(assign):
                stack.append((pos + 1, assign))
        if not done:
            return np.zeros((0, nslots), dtype=np.int16)
        return np.vstack(done)

    def table(self, row) -> RingTable:
        """Bilinear extension of one assignment to a full RingTable."""
        G = self.G
        n, k, exp = G.n, self.k, G.exponent
        P = np.zeros((k, k), dtype=np.int64)
        P[0, :] = self.basis_elts
        P[:, 0] = self.basis_elts
        for (i, j), v in zip(self.schedule, row):
            P[i + 1, j + 1] = v
        mul = np.zeros((n, n), dtype=np.int64)
        dec = G.dec
        for p in range(k):
            for q in range(k):
                coef = (dec[:, p][:, None] * dec[None, :, q]) % exp
                mul = G.add[mul, G.smul[coef, P[p, q]]]
        labels = [".".join(str(int(v)) for v in dec[x]) for x in range(n)]
        return RingTable(
            n,
            labels,
            G.add.astype(np.int16),
            mul.astype(np.int16),
            0,
            int(self.one),
            provenance=f"enumerated(order={n},additive={'x'.join(map(str, G.factors))})",
        )


def _dedup(tables):
    buckets = {}
    reps = []
    for T in tables:
        key = fingerprint(T)
        bucket = buckets.setdefault(key, [])
        hit = False
        for rep in bucket:
            # rep first: its spanning trace is built once and cached on it
            res = is_isomorphic(rep, T)
            if res.isomorphic is None:
                raise InternalCheckError("isomorphism search exhausted its budget during dedup")
            if res.isomorphic:
                hit = True
                break
        if not hit:
            bucket.append(T)
            reps.append(T)
    return reps


def enumerate_unital(order: int, deep: bool = False, seed=None):
    """All isomorphism classes of unital rings of the given order.

    Orders 2,3,4,5,7,8,9 run directly; 16 is a long run and must be opted
    into with deep=True.  seed shuffles the search's branching order only:
    each group's survivors are sorted before tables are built, so the
    classes, their order and their representative tables are the same for
    every seed.
    """
    if order in DEEP_ORDERS:
        if not deep:
            raise FinringError(f"order {order} enumeration is a long run; pass deep=True")
    elif order not in SUPPORTED_ORDERS:
        raise FinringError(f"unsupported enumeration order {order}")

    # tables stream into _dedup, so only the representatives outlive their check
    reps = _dedup(_tables(order, seed))
    reps.sort(key=fingerprint)
    return reps


def _tables(order: int, seed):
    """Every associative unital table of the given order, checked, group by group."""
    groups = abelian_groups_of_order(order)
    if seed is not None:
        rng = np.random.default_rng(seed)
        groups = [groups[i] for i in rng.permutation(len(groups))]
    for factors in groups:
        search = _GroupSearch(factors, seed=seed)
        for row in np.unique(search.survivors(), axis=0):
            T = search.table(row)
            report = verify_axioms(T)
            if not report.passed:
                raise InternalCheckError(
                    f"enumerated table fails axioms: {report.violations[:2]}"
                )
            yield T


@dataclass
class Census:
    order: int
    rows: tuple  # (profile, ring) pairs in emission order

    def count_where(self, **props) -> int:
        out = 0
        for p, _ in self.rows:
            if all(getattr(p, k) == v for k, v in props.items()):
                out += 1
        return out

    def as_text(self) -> str:
        cols = ("commutative", "local", "semicommutative", "reversible", "symmetric", "duo", "abelian", "ni", "reflexive")
        lines = [f"isomorphism classes of order {self.order}: {len(self.rows)}"]
        header = "idx  " + "  ".join(f"{c[:6]:>6}" for c in cols) + "  additive"
        lines.append(header)
        for i, (p, _) in enumerate(self.rows):
            row = f"{i:>3}  " + "  ".join(f"{str(bool(getattr(p, c))).lower():>6}" for c in cols)
            row += "  " + "x".join(str(d) for d in p.additive)
            lines.append(row)
        return "\n".join(lines)


def taxonomy_census(rings) -> Census:
    """Profile every ring and aggregate."""
    if not rings:
        return Census(0, ())
    rows = tuple((profile(R), R) for R in rings)
    return Census(rings[0].order, rows)
