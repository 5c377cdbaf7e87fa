"""Isomorphism testing for ring tables.

Two-stage: a cheap invariant fingerprint rejects almost every non-isomorphic
pair, then a backtracking search over generator images (McKay 1981) settles
the rest.  The search is one loop over an explicit stack holding a candidate
iterator per generator.  Each image it places replays a spanning trace (the
op sequence that discovers each element from the generators), so a candidate
costs O(n), and each replayed op spends one node of the budget.  Every
full-depth candidate is checked once, for bijection, addition and
multiplication, before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .properties import _nilpotency_index, jacobson_radical
from .table import RingTable, _closure, _memoised, additive_type

DEFAULT_NODE_BUDGET = 10_000_000


@_memoised
def element_invariants(R: RingTable) -> np.ndarray:
    """(n, 9) matrix of per-element isomorphism invariants.

    Columns: additive order, unit flag, nilpotency index, central flag,
    |xR|, |Rx|, row zero count, column zero count, idempotent flag.
    The one-sided sizes |xR| and |Rx| separate a ring from its opposite
    even when every two-sided count agrees.
    """
    n = R.order
    cols = np.empty((n, 9), dtype=np.int64)
    cols[:, 0] = R.additive_order
    cols[:, 1] = R.unit_mask
    cols[:, 2] = _nilpotency_index(R)
    cols[:, 3] = R.central_mask
    # distinct entries per row (|xR|) and per column (|Rx|) of the sorted table
    rows = np.sort(R.mul, axis=1)
    cols[:, 4] = 1 + (rows[:, 1:] != rows[:, :-1]).sum(axis=1)
    columns = np.sort(R.mul, axis=0)
    cols[:, 5] = 1 + (columns[1:] != columns[:-1]).sum(axis=0)
    zero = R.mul == R.zero
    cols[:, 6] = zero.sum(axis=1)
    cols[:, 7] = zero.sum(axis=0)
    diag = R.mul[np.arange(n), np.arange(n)]
    cols[:, 8] = diag == np.arange(n)
    return cols


@_memoised
def fingerprint(R: RingTable) -> tuple:
    """Hashable isomorphism invariant; unequal fingerprints mean unequal rings."""
    return (
        ("order", R.order),
        ("characteristic", R.characteristic),
        ("additive", additive_type(R)),
        ("commutative", bool((R.mul == R.mul.T).all())),
        ("center_size", int(R.central_mask.sum())),
        ("jacobson_size", len(jacobson_radical(R))),
        ("element_classes", tuple(sorted((k, len(v)) for k, v in _class_ids(R).items()))),
    )


def _class_ids(R: RingTable) -> dict:
    out = {}
    for x, row in enumerate(element_invariants(R).tolist()):
        out.setdefault(tuple(row), []).append(x)
    return out


@_memoised
def _spanning_trace(R: RingTable):
    """Greedy unital generating set plus the op log that rebuilds the ring.

    Returns (gens, segments, trace) where segments[k] is the list of ops
    unlocked by generator k (segment 0 needs no generators) and trace lists
    the elements in the order the ops discover them.  Each op is
    (kind, i, j) with kind 0=add 1=mul over trace positions; every op yields
    a NEW element, so a replay of all segments enumerates the whole ring.

    Each invariant class offers its least element outside the trace; the
    next generator is the offer that, with the trace, generates the largest
    subring, ties going to the smaller class, then the lower index.  The
    search tries every class member as a generator's image, so the product
    of the generators' class sizes bounds its leaves.
    """
    classes = _class_ids(R)
    n = R.order
    trace = np.empty(n, dtype=np.intp)
    inside = np.zeros(n, dtype=bool)
    size = 0
    gens = []
    segments = []

    def push(vals):
        nonlocal size
        trace[size : size + len(vals)] = vals
        inside[vals] = True
        size += len(vals)

    def close(start):
        # pairs of elements before start are already closed.  Position k
        # offers x+y, y+x, x*y, y*x for each y = trace[j], j <= k, in that
        # order; the first offer of each new value joins the trace.
        seg = []
        k = start
        while k < size and size < n:
            x, ys = trace[k], trace[: k + 1]
            offers = np.stack(
                (R.add[x, ys], R.add[ys, x], R.mul[x, ys], R.mul[ys, x]), axis=1
            ).ravel()
            at = np.flatnonzero(~inside[offers])
            if at.size:
                at = at[np.sort(np.unique(offers[at], return_index=True)[1])]
                push(offers[at])
                for p in at.tolist():
                    j, r = divmod(p, 4)
                    kind, swapped = divmod(r, 2)
                    seg.append((kind, j, k) if swapped else (kind, k, j))
            k += 1
        return seg

    def rank(members):
        x = next(x for x in members if not inside[x])
        grown = inside.copy()
        grown[x] = True
        return -int(_closure(grown, R.add, R.mul).sum()), len(members), x

    push([R.zero, R.one] if R.one != R.zero else [R.zero])
    segments.append(close(0))
    while size < n:
        g = min(rank(m) for m in classes.values() if not inside[m].all())[2]
        gens.append(g)
        push([g])
        segments.append(close(size - 1))
    return gens, segments, trace.tolist()


@dataclass
class IsoResult:
    """isomorphic: True / False / None (search budget exhausted)."""

    isomorphic: Optional[bool]
    mapping: Optional[list]
    reason: str

    def __bool__(self):
        return self.isomorphic is True


def is_isomorphic(R: RingTable, S: RingTable, node_budget: int = DEFAULT_NODE_BUDGET) -> IsoResult:
    """Decide R ~= S; may return inconclusive if node_budget is exhausted."""
    fa, fb = fingerprint(R), fingerprint(S)
    for (ka, va), (_, vb) in zip(fa, fb):
        if va != vb:
            return IsoResult(False, None, f"fingerprint:{ka}")

    gens, segments, trace = _spanning_trace(R)
    inv_R = element_invariants(R)
    classes_S = _class_ids(S)
    cand = [classes_S[tuple(int(v) for v in inv_R[g])] for g in gens]
    tables = (S.add, S.mul)
    n = R.order
    budget = node_budget
    # phi[k] is the image of trace[k]; used holds the images taken so far
    phi = [S.zero, S.one] if R.one != R.zero else [S.zero]
    used = set(phi)

    def replay(seg) -> bool:
        # one node per op; False on a repeated image or a spent budget
        nonlocal budget
        for kind, i, j in seg:
            budget -= 1
            v = int(tables[kind][phi[i], phi[j]])
            if budget < 0 or v in used:
                return False
            phi.append(v)
            used.add(v)
        return True

    # one entry per placed generator: its candidate iterator, and len(phi)
    # before its image.  deeper: the last replay extended phi cleanly, so the
    # next generator (or, past the last, the mapping check) comes next
    stack = []
    deeper = len(used) == len(phi) and replay(segments[0])
    while True:
        if deeper and len(stack) < len(gens):
            stack.append((iter(cand[len(stack)]), len(phi)))
        elif deeper:
            # replay covers only the spanning ops; the rest of both tables is
            # a real constraint, so a full-depth candidate is still a candidate
            mapping = np.empty(n, dtype=np.int64)
            mapping[trace] = phi
            if (
                len(np.unique(mapping)) == n
                and all(
                    np.array_equal(St.take(mapping, axis=0).take(mapping, axis=1), mapping[Rt])
                    for St, Rt in ((S.add, R.add), (S.mul, R.mul))
                )
            ):
                return IsoResult(True, mapping.tolist(), "search")
        if not stack or budget < 0:
            break
        images, mark = stack[-1]
        while len(phi) > mark:
            used.discard(phi.pop())
        img = next((x for x in images if x not in used), None)
        if img is None:
            stack.pop()
            deeper = False
        else:
            phi.append(img)
            used.add(img)
            deeper = replay(segments[len(stack)])
    return IsoResult(None, None, "budget") if budget < 0 else IsoResult(False, None, "search")
