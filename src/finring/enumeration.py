"""Exhaustive enumeration of unital rings of small order, one table per
isomorphism class.

Strategy per abelian group G: the identity element must have additive order
equal to the group exponent, and every such element is equivalent under an
additive automorphism, so the identity is pinned to the first basis vector
e_0.  The unknowns are the products slot(i, j) = g_i g_j of the remaining
basis generators g_i = e_{i+1}; torsion bounds each product to the subgroup
killed by gcd of the generator orders.  Assignment runs over a staircase
schedule (row 0, column 0, row 1, ...), and associativity on generator
triples extends bilinearly to the whole table.  On a triple it says that left
multiplication by g_a commutes with right multiplication by g_c: with L_a the
additive map e_0 -> g_a, e_p -> slot(a, p-1) and R_c the map e_0 -> g_c,
e_p -> slot(p-1, c), (g_a g_b) g_c = R_c(slot(a, b)) must equal
g_a (g_b g_c) = L_a(slot(b, c)).  A triple becomes checkable as soon as row a
and column c are fully assigned.  A table of every additive map with e_0 sent
to a generator decides each side with one lookup, whose index is linear in
the slots, so each new slot is checked on the whole (parent, candidate) grid
at once and only the pairs that pass become rows.  The assignments that pass
are the survivors.

Classes: two survivors give isomorphic rings exactly when an automorphism of
G that fixes e_0 carries one set of basis products onto the other, since a
ring isomorphism between them is additive and sends 1 to 1.  So the classes
on G are the orbits of H = Stab_Aut(G)(e_0) on the survivors.  They are found
from a small generating set of H by propagating the least survivor index
along each generator's permutation of the survivors; only the least survivor
of each orbit is built into a table and checked with verify_axioms.  No
isomorphism search runs (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998; the tests check the orbit count against Burnside's
lemma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import CoordGroup, abelian_groups_of_order, product_tables
from .errors import FinringError, InternalCheckError
from .iso import fingerprint
from .properties import profile
from .table import RingTable, verify_axioms

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 27)
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
    def __init__(self, factors):
        self.G = CoordGroup(tuple(factors))
        G = self.G
        self.k = G.k
        self.r = G.k - 1
        self.basis_elts = G.basis()
        self.one = self.basis_elts[0] if G.k else 0
        self.schedule = _slot_schedule(self.r)
        self.slot_pos = {s: i for i, s in enumerate(self.schedule)}
        self.checks = _checks_by_position(self.schedule, self.r)

        self.omega = []
        for (i, j) in self.schedule:
            di = int(G.factors[i + 1])
            dj = int(G.factors[j + 1])
            g = np.gcd(di, dj)
            self.omega.append(G.killed_by(int(g)).astype(np.int16))

        # maps[a][code*n + x] is the additive map with e_0 -> g_a and e_p -> img_p
        # at x, where code packs img_1..img_r in base n
        n, r = G.n, self.r
        if r * n ** (r + 1) > self._MAP_ENTRIES:
            raise FinringError(
                f"the map table of {G.factors} needs {r * n ** (r + 1)} entries, over {self._MAP_ENTRIES}"
            )
        images = np.zeros((n**r, G.k), dtype=np.int64)
        images[:, 1:] = np.arange(n**r)[:, None] // n ** np.arange(r) % n
        # only the e_0 term, x_0 g_a, differs between the rows: the sum over
        # img_1..img_r is built once and x_0 g_a added with one gather per row
        rest = G.linear(images[:, None, :], np.arange(n)).astype(np.int16)
        add = G.add.astype(np.int16)
        maps = np.empty((r, n**r, n), dtype=np.int16)
        for a in range(r):
            maps[a] = add[rest, G.smul[G.dec[:, 0], self.basis_elts[a + 1]]]
        self.maps = maps.reshape(r, n ** (r + 1))

        # the lookup index of each side of each triple as coefficients on the
        # slots: R_c at slot(a, b) in maps[c], then L_a at slot(b, c) in maps[a]
        self.forms = {}
        for a, b, c in (t for checks in self.checks for t in checks):
            form = np.zeros((2, len(self.schedule)), dtype=np.int64)
            form[0, self.slot_pos[a, b]] += 1
            form[1, self.slot_pos[b, c]] += 1
            for q in range(r):
                form[0, self.slot_pos[q, c]] += n ** (q + 1)
                form[1, self.slot_pos[a, q]] += n ** (q + 1)
            self.forms[a, b, c] = form

    # map-table cap: (4,2,2,2) needs 3.1 M entries (6 MiB), Z2^5 would need 134 M
    _MAP_ENTRIES = 1 << 22

    def _triple_mask(self, assign, cand, pi, ci, a, b, c):
        """Whether (g_a g_b) g_c = g_a (g_b g_c) on the assignments assign[pi]
        followed by cand[ci]; pi and ci broadcast.  Each side's lookup index is
        a parent's share plus the new slot's, each computed once."""
        w = assign.shape[1]
        form = self.forms[a, b, c]
        head = form[:, :w] @ assign.T
        tail = form[:, w, None] * cand
        lhs = self.maps[c].take(head[0].take(pi) + tail[0].take(ci))
        rhs = self.maps[a].take(head[1].take(pi) + tail[1].take(ci))
        return lhs == rhs

    # grid cap: a batch whose (parent, candidate) grid exceeds it is split.  A
    # process running the order-16 enumeration peaks near 38 MiB at 1 << 17
    # grid entries and near 42 MiB at 1 << 18, at about the same speed; the
    # survivor search slows below 1 << 16.
    _BATCH_LIMIT = 1 << 17

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
            # (parent, candidate) index pairs, the full grid until a check filters it
            pi, ci = np.arange(B)[:, None], np.arange(len(cand))
            for a, b, c in self.checks[pos]:
                ok = self._triple_mask(assign, cand, pi, ci, a, b, c)
                pi, ci = (np.broadcast_to(v, ok.shape)[ok] for v in (pi, ci))
                if not len(pi):
                    break
            pi, ci = (v.ravel() for v in np.broadcast_arrays(pi, ci))
            if len(pi):
                stack.append((pos + 1, np.concatenate([assign[pi], cand[ci, None]], axis=1)))
        if not done:
            return np.zeros((0, nslots), dtype=np.int16)
        return np.vstack(done)

    def constants(self, rows) -> np.ndarray:
        """Basis products P[..., p, q] = e_p e_q of each assignment, shape (..., k, k)."""
        rows = np.asarray(rows)
        P = np.empty(rows.shape[:-1] + (self.k, self.k), dtype=np.int64)
        P[..., 0, :] = self.basis_elts
        P[..., :, 0] = self.basis_elts
        for pos, (i, j) in enumerate(self.schedule):
            P[..., i + 1, j + 1] = rows[..., pos]
        return P

    def table(self, row) -> RingTable:
        """Bilinear extension of one assignment to a full RingTable, not
        verified: the assignment need not be associative."""
        G = self.G
        add, mul = product_tables(G, G.dec[self.constants(row)])
        labels = [".".join(str(int(v)) for v in coords) for coords in G.dec]
        return RingTable(
            G.n,
            labels,
            add,
            mul,
            0,
            int(self.one),
            provenance=f"enumerated(order={G.n},additive={'x'.join(map(str, G.factors))})",
        )

    def stabiliser(self) -> np.ndarray:
        """H, the automorphisms of the additive group that fix e_0 (where 1 is
        pinned), as element permutations h[x], shape (|H|, n).

        Elements with coordinates in the first i factors only are the indices
        below d_0...d_{i-1}, so each partial map is defined on a prefix of the
        indices.  Each step sends e_i to an element killed by d_i and keeps the
        maps that stay injective on the grown subgroup.
        """
        G = self.G
        maps = np.arange(G.factors[0])[None, :]
        for d in G.factors[1:]:
            size = maps.shape[1]
            cand = G.killed_by(d)
            steps = G.smul[np.arange(d)[:, None], cand[None, :]]  # steps[c, y] = c*y
            # the image of x + c*e_i, at index x + c*size, is h(x) + c*y
            grown = G.add[maps[:, None, None, :], steps.T[None, :, :, None]]
            grown = grown.reshape(len(maps) * len(cand), d * size)
            ordered = np.sort(grown, axis=1)
            maps = grown[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
        return maps

    def generators(self, H) -> np.ndarray:
        """Rows of H that generate it: each next one is the first element
        outside the group the earlier ones generate, so there are at most
        log2 |H| of them."""
        basis = np.asarray(self.basis_elts[1:], dtype=np.int64)
        # an automorphism fixing e_0 is known by the images of the other e_i
        radix = self.G.n ** np.arange(len(basis), dtype=np.int64)
        codes = H[:, basis] @ radix
        order = np.argsort(codes)
        sorted_codes = codes[order]

        def index(images):
            return order[np.searchsorted(sorted_codes, images @ radix)]

        inside = np.zeros(len(H), dtype=bool)
        inside[index(basis[None, :])] = True
        gens = []
        while not inside.all():
            gens.append(int(np.argmin(inside)))
            frontier = np.flatnonzero(inside)
            while len(frontier):
                reached = np.concatenate([index(H[g][H[frontier][:, basis]]) for g in gens])
                frontier = np.unique(reached[~inside[reached]])
                inside[frontier] = True
        return H[gens]

    def _codes(self, rows) -> np.ndarray:
        """One int64 per assignment, ordered as the rows are lexicographically."""
        n, nslots = self.G.n, len(self.schedule)
        if n**nslots >= 1 << 63:
            raise FinringError(f"{nslots} slots over {n} elements do not pack into int64")
        radix = n ** np.arange(nslots - 1, -1, -1, dtype=np.int64)
        return np.asarray(rows, dtype=np.int64) @ radix

    def _bilinear_transport(self, rows, h) -> np.ndarray:
        """The assignments h carries the given ones to: the ring with basis
        products h(h^-1(e_i) h^-1(e_j)), to which h is an isomorphism."""
        u = np.argsort(h)[self.basis_elts]
        prod = h[self.G.bilinear(self.constants(rows)[:, None, None], u[:, None], u[None, :])]
        i, j = np.array(self.schedule, dtype=np.int64).reshape(-1, 2).T
        return prod[:, i + 1, j + 1]

    def transport(self, rows, h) -> np.ndarray:
        """_bilinear_transport by lookup.  h is additive and the product is
        bilinear in the basis products, so image slot t is
        c_t + sum_s phi_{s,t}(x_s).  c is the image of the zero assignment and
        c_t + phi_{s,t}(v) that of the assignment with x_s = v alone."""
        G, n, nslots = self.G, self.G.n, len(self.schedule)
        probes = np.zeros((1 + nslots * n, nslots), dtype=np.int64)
        probes[1 + np.arange(nslots * n), np.repeat(np.arange(nslots), n)] = np.tile(np.arange(n), nslots)
        img = self._bilinear_transport(probes, h)
        c = img[0]
        phi = G.encode(G.dec[img[1:]] - G.dec[c]).reshape(nslots, n, nslots)
        add = G.add.ravel()
        out = np.repeat(c[None, :], len(rows), axis=0)
        for s in range(nslots):
            out = add.take(out * n + phi[s].take(rows[:, s], axis=0))
        return out

    def orbits(self, rows) -> np.ndarray:
        """For sorted, distinct survivors, the index of the least row in each
        row's H-orbit.  Two survivors give isomorphic rings exactly when they
        share an orbit, so the orbits are the isomorphism classes on this group."""
        codes = self._codes(rows)
        perms = []
        for h in self.generators(self.stabiliser()):
            image = self._codes(self.transport(rows, h))
            at = np.minimum(np.searchsorted(codes, image), len(codes) - 1)
            if (codes[at] != image).any():
                raise InternalCheckError("an automorphism fixing 1 maps a survivor outside the survivors")
            perms.append(at)
        least = np.arange(len(rows))
        while True:
            before = least
            for p in perms:
                least = np.minimum(least, least[p])
                least[p] = np.minimum(least[p], least)
            least = least[least]
            if np.array_equal(least, before):
                return least


def enumerate_unital(order: int, deep: bool = False, seed=None):
    """All isomorphism classes of unital rings of the given order.

    Orders 2,3,4,5,7,8,9,27 run directly; 16 must be opted into with
    deep=True.  Each class is represented by the least survivor of its
    orbit.  seed is accepted and ignored: the search has no random choice,
    and the keyword stays only for callers that still pass it.
    """
    if order in DEEP_ORDERS:
        if not deep:
            raise FinringError(f"order {order} enumeration is opt-in; pass deep=True")
    elif order not in SUPPORTED_ORDERS:
        raise FinringError(f"unsupported enumeration order {order}")

    reps = list(_classes(order))
    reps.sort(key=fingerprint)
    return reps


def _classes(order: int):
    """One checked table per isomorphism class, group by group."""
    for factors in abelian_groups_of_order(order):
        search = _GroupSearch(factors)
        rows = np.unique(search.survivors(), axis=0)
        least = search.orbits(rows)
        for row in rows[least == np.arange(len(rows))]:
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
