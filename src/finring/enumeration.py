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
and column c are fully assigned.  CoordGroup.linear applies each side to the
slots themselves, the parent's terms once per parent and the new slot's on
the whole (parent, candidate) grid at once, so only the pairs that pass
become rows.  The assignments that pass are the survivors.

Classes: two survivors give isomorphic rings exactly when an automorphism of
G that fixes e_0 carries one set of basis products onto the other, since a
ring isomorphism between them is additive and sends 1 to 1.  So the classes
on G are the orbits of H = Stab_Aut(G)(e_0) on the survivors.  Each h in H
acts on the assignments by an affine map of the slots, whose coefficients
lookup writes down in closed form from the coordinates of h^-1(e_a).  The
orbits are found from a small generating set of H by propagating the least
survivor index along each generator's permutation of the survivors, which
_closure alone reads off the images; only the least survivor of each orbit
is built into a table and checked with verify_axioms.  No
isomorphism search runs (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998; the tests check the orbit count against Burnside's
lemma).

The search itself runs from a fraction of row 0.  Let K be the elements of
H that also fix e_1.  For k in K, k^-1(e_1) = e_1, so the image of slot
(0, j) is k(g_0 k^-1(g_j)), a combination of g_0 and row 0: K acts on the
row-0 assignments alone.  Row 0 comes first in the schedule and no check
applies to it before column 0 is complete, so every row-0 assignment is
listed, only the least of each K-orbit is kept (80 of 4096 on Z2^4), and
the staircase search runs from those prefixes.  Every H-orbit of survivors
holds one whose row 0 is K-least (carry any survivor by the k that makes
its row 0 least), so the closure of the search's result under H's
generators is the full survivor set, and the orbit permutations are read
off the same images.  The least survivor of an orbit has a K-least row 0,
since row 0 leads the order, so the representatives are those of the full
search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import CoordGroup, _factorize, abelian_groups_of_order, product_tables
from .errors import FinringError, InternalCheckError
from .iso import fingerprint
from .properties import profile
from .table import MAX_ORDER, RingTable, verify_axioms


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
        # a side whose argument is the new slot is summed on the whole grid, so
        # those triples go last, where earlier checks have shrunk the grid
        fresh.sort(key=lambda t: ((t[0], t[1]) == slot) + ((t[1], t[2]) == slot))
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
            self.omega.append(G.killed_by(int(g)))

    def _triple_mask(self, assign, cand, pi, ci, a, b, c):
        """Whether (g_a g_b) g_c = g_a (g_b g_c) on the assignments assign[pi]
        followed by cand[ci]; pi and ci broadcast.  The left side is R_c at
        slot(a, b), the right side L_a at slot(b, c).  A side whose argument a
        parent holds sums its terms once per parent, the new slot's image read
        as 0, and adds the new slot's term on the grid; a side whose argument
        is the new slot is summed on the grid."""
        G, n, w = self.G, self.G.n, assign.shape[1]
        cols, new = assign.T, cand.take(ci)

        def side(e0, x, images):
            x, images = self.slot_pos[x], [self.slot_pos[s] for s in images]
            if x == w:
                return G.linear([e0] + [new if s == w else cols[s].take(pi) for s in images], new)
            head = G.linear([e0] + [0 if s == w else cols[s] for s in images], cols[x])
            if w not in images:
                return head.take(pi)
            term = G.scaled[images.index(w) + 1].take(np.multiply(cols[x], n, dtype=np.intp).take(pi) + new)
            return G.add.take((head * n).take(pi) + term)

        g, r = self.basis_elts, self.r
        lhs = side(g[c + 1], (a, b), [(q, c) for q in range(r)])
        rhs = side(g[a + 1], (b, c), [(a, q) for q in range(r)])
        return lhs == rhs

    # grid cap: a batch whose (parent, candidate) grid exceeds it is split.  A
    # process running the order-16 enumeration peaks near 35 MiB at 1 << 17
    # grid entries and near 36 MiB at 1 << 18, at about the same speed from
    # 1 << 14 up (2 vCPUs, Python 3.11, numpy 2.4).
    _BATCH_LIMIT = 1 << 17

    def survivors(self) -> np.ndarray:
        """All associative structure-constant assignments, shape (m, nslots)."""
        return self._search([(0, np.zeros((1, 0), dtype=np.int16))])

    def _search(self, stack) -> np.ndarray:
        """Every associative completion of the (pos, assign) entries on the
        stack, each assign holding slots 0..pos-1, shape (m, nslots)."""
        nslots = len(self.schedule)
        done = []
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
                # with r = 1 the only slot is the new one, and ok lacks pi's axis
                ok, pi, ci = np.broadcast_arrays(ok, pi, ci)
                pi, ci = pi[ok], ci[ok]
                if not len(pi):
                    break
            pi, ci = (v.ravel() for v in np.broadcast_arrays(pi, ci))
            if len(pi):
                # column-major, so that the checks read each slot contiguously
                grown = np.empty((len(pi), pos + 1), dtype=np.int16, order="F")
                for s in range(pos):
                    grown[:, s] = assign[:, s].take(pi)
                grown[:, pos] = cand.take(ci)
                stack.append((pos + 1, grown))
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
        partial maps that stay injective on the grown subgroup.
        """
        G = self.G
        partial = np.arange(G.factors[0])[None, :]
        for d in G.factors[1:]:
            size = partial.shape[1]
            cand = G.killed_by(d)
            steps = G.smul[np.arange(d)[:, None], cand[None, :]]  # steps[c, y] = c*y
            # the image of x + c*e_i, at index x + c*size, is h(x) + c*y
            grown = G.add[partial[:, None, None, :], steps.T[None, :, :, None]]
            grown = grown.reshape(len(partial) * len(cand), d * size)
            ordered = np.sort(grown, axis=1)
            partial = grown[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)]
        return partial

    def generators(self, H) -> np.ndarray:
        """Rows of H that generate it: each next one is the first element
        outside the group the earlier ones generate, so there are at most
        log2 |H| of them."""
        basis = np.asarray(self.basis_elts[1:], dtype=np.int64)
        # an automorphism fixing e_0 is known by the images of the other e_i
        codes = self._codes(H[:, basis])
        order = np.argsort(codes)
        sorted_codes = codes[order]

        def index(images):
            return order[np.searchsorted(sorted_codes, self._codes(images))]

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

    def _radix(self, width: int) -> np.ndarray:
        """The place values of an assignment of the given width in base n."""
        n = self.G.n
        if n**width >= 1 << 63:
            raise FinringError(f"{width} slots over {n} elements do not pack into int64")
        return n ** np.arange(width - 1, -1, -1, dtype=np.int64)

    def _codes(self, rows) -> np.ndarray:
        """One int64 per assignment, ordered as the rows are lexicographically."""
        rows = np.asarray(rows, dtype=np.int64)
        return rows @ self._radix(rows.shape[1])

    def _rows(self, codes, width: int) -> np.ndarray:
        """The assignments of the given width with the given codes, as int16."""
        return (codes[:, None] // self._radix(width) % self.G.n).astype(np.int16)

    def lookup(self, h):
        """(c, phi) such that h carries an assignment x to the one with slot t
        equal to c_t + sum_s phi[s, x_s, t]: the ring with basis products
        h(h^-1(e_a) h^-1(e_b)), to which h is an isomorphism.

        With u_a the coordinates of h^-1(e_a), slot t = (a-1, b-1) of the
        image is h(h^-1(e_a) h^-1(e_b)) = sum_pq u_ap u_bq h(e_p e_q), since h
        is additive and the product bilinear.  For p, q >= 1, e_p e_q is slot
        s = (p-1, q-1), so the value v there adds
        phi[s, v, t] = h((u_ap u_bq mod exponent) v).  The terms with e_0 = 1
        sum to c_t = u_a0 e_b + u_b0 e_a - u_a0 u_b0 e_0, as
        sum_q u_bq h(e_q) = h(h^-1(e_b)) = e_b and h(e_0) = e_0."""
        G = self.G
        u = G.dec[np.argsort(h)[self.basis_elts]]
        # the basis indices a, b of each slot (a-1, b-1)
        a, b = np.array(self.schedule, dtype=np.intp).reshape(-1, 2).T + 1
        # coef[t, s] = u_ap u_bq for t = (a-1, b-1) and s = (p-1, q-1)
        coef = u[a][:, a] * u[b][:, b] % G.exponent
        phi = h[G.smul[coef.T[:, None, :], np.arange(G.n)[:, None]]]
        unit, a0, b0 = np.eye(self.k, dtype=np.int64), u[a, :1], u[b, :1]
        c = G.encode(a0 * unit[b] + b0 * unit[a] - a0 * b0 * unit[0])
        return c, phi

    def transport(self, rows, lookup) -> np.ndarray:
        """The images of rows under h by the (c, phi) of lookup(h), over the
        first len(phi) slots of rows."""
        c, phi = lookup
        n, add = self.G.n, self.G.add.ravel()
        out = np.repeat(c[None, :], len(rows), axis=0)
        for s in range(len(phi)):
            out = add.take(out * n + phi[s].take(rows[:, s], axis=0))
        return out

    def orbits(self, rows) -> np.ndarray:
        """For sorted, distinct survivors, the index of the least row in each
        row's H-orbit.  Two survivors give isomorphic rings exactly when they
        share an orbit, so the orbits are the isomorphism classes on this group."""
        closed, least = self._closure(rows, [self.lookup(h) for h in self.generators(self.stabiliser())])
        if len(closed) != len(rows):
            raise InternalCheckError("an automorphism fixing 1 maps a survivor outside the survivors")
        return least

    def classes(self):
        """np.unique(survivors(), axis=0) and orbits() of it, searched from the
        K-least row-0 prefixes only and closed under H."""
        H = self.stabiliser()
        if self.r < 2:
            # K fixes e_0 and e_1, which then generate G, so K is trivial
            found = self.survivors()
        else:
            # column 0 ends after row 0, so no check applies to a row-0 prefix
            found = self._search([(self.r, self._least_prefixes(H))])
        return self._closure(found, [self.lookup(h) for h in self.generators(H)])

    def _least_prefixes(self, H) -> np.ndarray:
        """The row-0 assignments that are least in their K-orbit."""
        r, e1 = self.r, self.basis_elts[1]
        prefixes = np.stack([v.ravel() for v in np.meshgrid(*self.omega[:r], indexing="ij")], axis=1)
        # k fixes e_1, so image slot (0, j) = k(g_0 k^-1(g_j)) reads row 0 only
        lookups = [(c[:r], phi[:r, :, :r]) for c, phi in map(self.lookup, self.generators(H[H[:, e1] == e1]))]
        rows, least = self._closure(prefixes, lookups)
        return rows[least == np.arange(len(rows))]

    def _closure(self, found, lookups):
        """The closure of the assignments found under the maps of lookups,
        sorted, and the index of the least row in each row's orbit.  Each row
        is carried by each map once, the rows of found as given, and the
        permutations are read off those images."""
        width, frontier = found.shape[1], self._codes(found)
        known, rows, moves = np.unique(frontier), found, []
        while len(frontier):
            images = [self._codes(self.transport(rows, L)) for L in lookups]
            moves.append((frontier, images))
            reached = np.array(images, dtype=np.int64)
            frontier = np.unique(reached[~np.isin(reached, known)])
            # two sorted runs, which a stable sort merges in one pass
            known = np.sort(np.concatenate([known, frontier]), kind="stable")
            rows = self._rows(frontier, width)
        perms = [np.empty(len(known), dtype=np.intp) for _ in lookups]
        for source, images in moves:
            at = np.searchsorted(known, source)
            for perm, image in zip(perms, images):
                perm[at] = np.searchsorted(known, image)
        return self._rows(known, width), _least(perms, len(known))


def _least(perms, m) -> np.ndarray:
    """For permutations of range(m), the least index in each index's orbit
    under the group they generate, by propagation to a fixed point."""
    least = np.arange(m)
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

    The order must be p or p^2 for a prime p, at most MAX_ORDER, or one of
    8, 16, 27 and 125; up to 128 these are the primes and 4, 8, 9, 16, 25,
    27, 49, 121 and 125.  Each class is represented by the least survivor
    of its orbit.  deep and seed are accepted and ignored: the search has no
    random choice.  They stay only because the benchmark's enum16 workload
    passes them.
    """
    # the bound first: _factorize's trial division of a large prime would not return
    powers = _factorize(order) if 1 < order <= MAX_ORDER else {}
    # a measured policy, applied before any group is built: the cost lives in
    # the survivor sets and their orbits, not in the search's tables.  Every
    # admitted group has at most 16,225 survivors, at (5,5,5).  (3,3,3,3) has
    # 734,319 (21 s, 784 MiB), (7,7,7) has 120,001 but a stabiliser of 98,784
    # automorphisms (2.8 s, 893 MiB), and Z2^5 ~4e10 search nodes at slot 10
    if len(powers) != 1 or (max(powers.values()) > 2 and order not in (8, 16, 27, 125)):
        raise FinringError(
            f"unsupported enumeration order {order}: "
            f"only p and p^2 up to {MAX_ORDER} for a prime p, 8, 16, 27 and 125"
        )
    reps = []
    for factors in abelian_groups_of_order(order):
        search = _GroupSearch(factors)
        rows, least = search.classes()
        for row in rows[least == np.arange(len(rows))]:
            T = search.table(row)
            report = verify_axioms(T)
            if not report.passed:
                raise InternalCheckError(
                    f"enumerated table fails axioms: {report.violations[:2]}"
                )
            reps.append(T)
    reps.sort(key=fingerprint)
    return reps


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
