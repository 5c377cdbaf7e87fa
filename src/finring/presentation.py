"""Finitely presented algebras over Z_{p^k}, built down to operation tables.

A presentation is a base (F2, F3, Z4, Z8, Z9), noncommuting generators, and
polynomial relations.  The two-sided ideal the relations generate is truncated
at word degree D and canonicalized (Howell form over the word module); when
the quotient size agrees at D and D+1 and every degree-(D+1) word rewrites
into lower degree, the quotient is the finite ring and we emit its tables on
the surviving coset basis.  For n elements over s basis words, only the rows
of the pure elements c*e_a are computed in coordinates, O(n s^2) for each
basis word; every other entry is one gather from an n x n table, O(n^2) in
all, with no (n, n, s) array.  Correctness is enforced after the fact: the
table must pass the full axiom scan, every relation must evaluate to zero in
the built ring, and any declared expected order must match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalCheckError, PresentationError
from .abelian import CoordGroup, product_tables
from .howell import howell, prime_power, reduce_vectors, span_size
from .lexer import Tokens
from .table import MAX_ORDER, RingTable, verify_axioms

BASES = {"F2": 2, "F3": 3, "Z4": 4, "Z8": 8, "Z9": 9}
D_MAX = 10


@dataclass(frozen=True)
class Presentation:
    base: str
    gens: tuple
    relations: tuple  # each relation: tuple of (word, coeff), word = gen index tuple
    expected_order: Optional[int] = None
    text: str = ""

    @property
    def q(self):
        return BASES[self.base]

    def max_degree(self):
        degs = [len(w) for rel in self.relations for (w, _) in rel]
        return max(degs, default=0)


# -- DSL parser ---------------------------------------------------------------


def _padd(a, b, q):
    out = dict(a)
    for w, c in b.items():
        v = (out.get(w, 0) + c) % q
        if v:
            out[w] = v
        else:
            out.pop(w, None)
    return out


def _pscale(a, s, q):
    out = {}
    for w, c in a.items():
        v = c * s % q
        if v:
            out[w] = v
    return out


def _parts(a, g):
    """{degree d: coefficients of a's degree-d words, indexed by word value in base g}.

    int16 holds any part of a product: coefficients are below 9, so a sum of at
    most D_MAX + 1 products of two of them stays below 1,000."""
    out = {}
    for w, c in a.items():
        part = out.setdefault(len(w), np.zeros(g ** len(w), dtype=np.int16))
        part[_asc_index(w, g) - _ncols(g, len(w) - 1)] = c
    return out


def _pmul(a, b, q, g, bound):
    """a*b in g generators, raising when a word longer than bound keeps a
    nonzero coefficient, so no relation grows past what build_ring can take.
    Word values concatenate as v1 * g^len(w2) + v2, so the degree-d part of
    a*b is the sum of the flattened outer products of a's degree-i and b's
    degree-(d-i) parts: every pair of words is accumulated once, in numpy."""
    pa, pb = _parts(a, g), _parts(b, g)
    out = {}
    for d in sorted({i + j for i in pa for j in pb}):
        part = sum(np.outer(pa[i], pb[d - i]).ravel() for i in pa if d - i in pb) % q
        hits = np.flatnonzero(part)
        if len(hits) and d > bound:
            raise PresentationError(f"relation degree {d} beyond engine bound {bound}")
        for v in hits.tolist():
            out[_asc_word(_ncols(g, d - 1) + v, g)] = int(part[v])
    return out


class _RelParser(Tokens):
    def __init__(self, text, start, gens, q):
        # longest name first, so the alternation splits a run of letters greedily
        names = "|".join(re.escape(g) for g in sorted(gens, key=len, reverse=True))
        super().__init__(text, names, "+-*^(),", PresentationError, start)
        self.index = {g: i for i, g in enumerate(gens)}
        self.q = q
        self.g = len(gens)
        self.bound = degree_bound(self.g)

    def mul(self, a, b):
        return _pmul(a, b, self.q, self.g, self.bound)

    def expr(self):
        t = self.peek()
        neg = False
        if t.kind == "-":
            self.take()
            neg = True
        acc = self.term()
        if neg:
            acc = _pscale(acc, -1, self.q)
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            if op == "-":
                rhs = _pscale(rhs, -1, self.q)
            acc = _padd(acc, rhs, self.q)
        return acc

    def term(self):
        acc = self.factor()
        while True:
            k = self.peek().kind
            if k == "*":
                self.take()
                acc = self.mul(acc, self.factor())
            elif k in ("int", "name", "("):  # juxtaposition
                acc = self.mul(acc, self.factor())
            else:
                return acc

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            e = self.take("int").val
            out = {(): 1}
            while e:  # repeated squaring
                if e & 1:
                    out = self.mul(out, base)
                e >>= 1
                if e:
                    base = self.mul(base, base)
            return out
        return base

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.take()
            c = t.val % self.q
            return {(): c} if c else {}
        if t.kind == "name":
            self.take()
            return {(self.index[t.val],): 1}
        if t.kind == "(":
            self.take()
            out = self.expr()
            self.take(")")
            return out
        raise PresentationError(f"expected value, got {t.kind!r} at position {t.pos}")


def parse_presentation(text: str, expected_order: Optional[int] = None) -> Presentation:
    """Parse `base<gens>/(rel, rel, ...)` into a Presentation."""
    lt = text.find("<")
    if lt < 0:
        raise PresentationError("missing '<' after base name")
    base = text[:lt].strip()
    if base not in BASES:
        raise PresentationError(f"unknown base {base!r}; supported: {', '.join(sorted(BASES))}")
    gt = text.find(">", lt)
    if gt < 0:
        raise PresentationError("missing '>' after generator list")
    gens = tuple(g.strip() for g in text[lt + 1 : gt].split(","))
    if not gens or any(not g.isalpha() for g in gens):
        raise PresentationError(f"generator names must be alphabetic, got {gens}")
    if len(set(gens)) != len(gens):
        raise PresentationError(f"duplicate generator names in {gens}")
    rest = text[gt + 1 :].strip()
    slash = text.find("/", gt)
    if slash < 0 or not rest.startswith("/"):
        raise PresentationError("missing '/' before relation list")

    pp = _RelParser(text, slash + 1, gens, BASES[base])
    pp.take("(")
    rels = []
    if pp.peek().kind != ")":
        while True:
            poly = pp.expr()
            if poly:
                rels.append(tuple(sorted(poly.items())))
            k = pp.take().kind
            if k == ")":
                break
            if k != ",":
                raise PresentationError(f"expected ',' or ')' at position {pp.toks[pp.i-1].pos}")
    else:
        pp.take(")")
    if pp.peek().kind != "end":
        t = pp.peek()
        raise PresentationError(f"trailing input at position {t.pos}")
    return Presentation(base, gens, tuple(rels), expected_order, text.strip())


# -- word bookkeeping ---------------------------------------------------------


def _ncols(g: int, D: int) -> int:
    return sum(g**d for d in range(D + 1))


def degree_bound(g: int) -> int:
    """Largest word degree D <= D_MAX handled for g generators: the one whose
    word module is no wider than the 2,047 columns two generators reach at
    D_MAX (10, 10, 6, 5, 4 for g = 1 .. 5)."""
    return max(D for D in range(D_MAX + 1) if _ncols(g, D) <= _ncols(2, D_MAX))


def _asc_index(w, g: int) -> int:
    off = _ncols(g, len(w) - 1) if w else 0
    v = 0
    for c in w:
        v = v * g + c
    return off + v


def _asc_word(i: int, g: int):
    d = 0
    while i >= g**d:
        i -= g**d
        d += 1
    out = []
    for _ in range(d):
        out.append(i % g)
        i //= g
    return tuple(reversed(out))


@dataclass
class ModuleMatrix:
    """Rows over the degree-<=degree word module; columns in descending
    deg-lex order so Howell pivots rewrite large words into smaller ones."""

    rows: np.ndarray
    q: int
    degree: int
    ngens: int
    pivots: list

    @property
    def ncols(self):
        return _ncols(self.ngens, self.degree)

    def col_of(self, w) -> int:
        return self.ncols - 1 - _asc_index(w, self.ngens)

    def word_at(self, col: int):
        return _asc_word(self.ncols - 1 - col, self.ngens)

    def quotient_size(self) -> int:
        p, _ = prime_power(self.q)
        return span_size(self.pivots, self.ncols, self.q, p)


def bounded_ideal_span(P: Presentation, D: int) -> ModuleMatrix:
    """Canonical span of {w1 * rel * w2 : total degree <= D}."""
    g = len(P.gens)
    q = P.q
    nc = _ncols(g, D)
    H = np.zeros((0, nc), dtype=np.int64)
    piv: list = []
    block = []

    def flush():
        nonlocal H, piv, block
        if block:
            H, piv = howell(np.vstack([H, np.array(block, dtype=np.int64)]), q)
            block = []

    for rel in P.relations:
        dr = max(len(w) for (w, _) in rel)
        if dr > D:
            raise PresentationError(f"degree bound {D} below relation degree {dr}")
        for la in range(D - dr + 1):
            for ia in range(g**la):
                w1 = _asc_word(_ncols(g, la - 1) + ia if la else 0, g)
                for lb in range(D - dr - la + 1):
                    for ib in range(g**lb):
                        w2 = _asc_word(_ncols(g, lb - 1) + ib if lb else 0, g)
                        row = np.zeros(nc, dtype=np.int64)
                        for w, c in rel:
                            col = nc - 1 - _asc_index(w1 + w + w2, g)
                            row[col] = (row[col] + c) % q
                        if row.any():
                            block.append(row)
                        if len(block) >= 2048:
                            flush()
    flush()
    if not len(H):
        H, piv = howell(np.zeros((0, nc), dtype=np.int64), q)
    return ModuleMatrix(H, q, D, g, piv)


def _closed(M: ModuleMatrix) -> bool:
    """True when every top-degree word column has a unit pivot (rewrites down)."""
    top = M.ngens ** M.degree
    pv = dict(M.pivots)
    return all(pv.get(c) == 0 for c in range(top))


def _harvest(M: ModuleMatrix, d: int) -> ModuleMatrix:
    """Rows supported entirely on words of degree <= d, over that column block.

    With columns in descending deg-lex order the low-degree words form a
    trailing coordinate block, and a Howell form spans every trailing-block
    submodule of its row space, so this is the full visible intersection.
    Needed when a relation rewrites a word into one of higher degree (for
    example v^2 -> u^3): reducing v^k then transits through words of degree
    k+1, and the top-degree block of a single bounded span never closes even
    though the lower blocks are complete."""
    if d >= M.degree:
        return M
    ncd = _ncols(M.ngens, d)
    off = M.ncols - ncd
    keep = [i for i, (c, _) in enumerate(M.pivots) if c >= off]
    if keep:
        rows = M.rows[np.array(keep)][:, off:]
    else:
        rows = np.zeros((0, ncd), dtype=np.int64)
    H, piv = howell(rows, M.q)
    return ModuleMatrix(H, M.q, d, M.ngens, piv)


@dataclass
class PresentationBuild:
    presentation: Presentation
    degree: int
    basis_words: tuple
    ranges: tuple
    matrix: ModuleMatrix
    generator_elements: list  # element index of each generator, in P.gens order


def presentation_build(R: RingTable) -> Optional[PresentationBuild]:
    """How `build_ring` made R, or None when R was not built from a presentation."""
    return R._cache.get("presentation_build")


def build_ring(P: Presentation, min_degree: Optional[int] = None) -> RingTable:
    """Stabilize the truncated quotient and emit its verified RingTable.

    Searches (working degree E, basis degree D) pairs: the span is computed
    at degree E, the candidate basis harvested at D.  A candidate is accepted
    only after the emitted table passes verify_axioms and every
    relation evaluates to zero through the table's own arithmetic; that pair
    of facts forces the table to be the universal quotient (it is a quotient
    of the presented algebra and vice versa), so acceptance is sound no
    matter which candidate fired first."""
    g = len(P.gens)
    spans = {}

    def span(E):
        if E not in spans:
            spans[E] = bounded_ideal_span(P, E)
        return spans[E]

    bound = degree_bound(g)
    reldeg = max(1, P.max_degree())
    dfloor = 1 if min_degree is None else max(1, min_degree)
    estart = max(reldeg, dfloor + 1)
    if estart > bound:
        raise PresentationError(f"relation degree {reldeg} beyond engine bound {bound}")
    rejects: list = []
    for E in range(estart, bound + 1):
        HE = span(E)
        for D in range(dfloor, E):
            B = _harvest(HE, D + 1)
            if not _closed(B):
                continue
            if _harvest(HE, D).quotient_size() != B.quotient_size():
                continue
            R, why = _emit(P, D, B)
            if R is not None:
                return R
            rejects.append(f"candidate D={D} E={E}: {why}")
    detail = ("; " + "; ".join(rejects[-2:])) if rejects else ""
    raise PresentationError(
        f"possibly infinite ring: quotient size not stabilized by degree {bound}{detail}"
    )


@dataclass
class _CosetBasis:
    """The quotient on one candidate's coset basis.

    An element is a box vector: coordinate i runs over range(ranges[i]), the
    coefficient of words[i].  torsion holds (coordinate, p^v, row over the
    basis) for each torsion pivot, in pivot order.  one and gens are the
    unity's and the generators' vectors, and T[a, b] is words[a] * words[b]."""

    words: tuple
    ranges: tuple
    q: int
    torsion: list
    one: np.ndarray
    gens: np.ndarray
    T: np.ndarray

    def reduce(self, X):
        """The box vector of the coset of each integer vector on X's last axis."""
        X = X % self.q
        for si, pval, row in self.torsion:
            t = X[..., si] // pval
            X = (X - t[..., None] * row) % self.q
        return X


def _coset_basis(P: Presentation, B: ModuleMatrix) -> _CosetBasis:
    """The coset basis of candidate B, with the products of its words."""
    q = P.q
    p, _ = prime_power(q)
    g = len(P.gens)

    # surviving coset basis: free columns plus torsion (non-unit) pivots
    pv = dict(B.pivots)
    s_cols = [c for c in range(B.ncols) if pv.get(c, 1) != 0]
    s_cols.sort(key=lambda c: _asc_index(B.word_at(c), g))  # ascending deg-lex
    basis_words = tuple(B.word_at(c) for c in s_cols)
    ranges = tuple(p ** pv[c] if c in pv else q for c in s_cols)

    col_to_s = {c: i for i, c in enumerate(s_cols)}
    s = len(s_cols)
    outside = np.ones(B.ncols, dtype=bool)
    outside[s_cols] = False

    # torsion pivot rows restricted to basis coordinates, in pivot order
    vrows = []
    for i, (c, v) in enumerate(B.pivots):
        if v == 0:
            continue
        row = B.rows[i]
        if row[outside].any():
            raise InternalCheckError("torsion pivot row leaks outside coset basis")
        vrows.append((col_to_s[c], p**v, row[s_cols].copy()))

    # 1, the generators and every basis word times a generator: each has
    # degree <= D + 1, since _closed(B) leaves no basis word of degree D + 1
    words = [(), *((i,) for i in range(g)), *(w + (i,) for w in basis_words for i in range(g))]
    E = np.zeros((len(words), B.ncols), dtype=np.int64)
    E[np.arange(len(words)), [B.col_of(w) for w in words]] = 1
    red = reduce_vectors(E, B.rows, B.pivots, q, p)
    if red[:, outside].any():
        raise InternalCheckError("reduced word leaks outside coset basis")
    red = red[:, s_cols]
    right = red[g + 1 :].reshape(s, g, s)
    cb = _CosetBasis(
        basis_words, ranges, q, vrows, red[0], red[1 : g + 1], np.zeros((s, s, s), dtype=np.int64)
    )

    # T[a, b] = e_a * basis_words[b], one right multiplication per letter
    for b, w in enumerate(basis_words):
        X = np.eye(s, dtype=np.int64)
        for x in w:
            X = cb.reduce(X @ right[:, x])
        cb.T[:, b] = X
    return cb


def _emit(P: Presentation, D: int, B: ModuleMatrix):
    """Construct and verify the table for one stabilization candidate.

    The tables are abelian.product_tables of the basis words' products
    cb.T, with each row reduced onto the coset basis by cb.reduce: O(n s^2)
    per basis word in coordinates, then one O(n^2) gather per basis word and
    table, with no (n, n, s) array.  The labels follow the same recurrence.

    Returns (ring, None) on success, (None, reason) when the candidate is
    rejected by the verification suite and the search should continue."""
    n = B.quotient_size()
    if n > MAX_ORDER:
        return None, f"order {n} exceeds limit {MAX_ORDER}"
    cb = _coset_basis(P, B)
    grp = CoordGroup(cb.ranges)
    if grp.n != n:
        raise InternalCheckError("coset basis ranges do not multiply to quotient size")

    add, mul = product_tables(grp, cb.T, cb.reduce)

    # x + c*e_a for x below e_a: the label of x, then the term c*e_a
    labels = ["0"]
    for w, d in zip(cb.words, cb.ranges):
        word = "".join(P.gens[i] for i in w)
        below = labels[1:]
        for c in range(1, d):
            term = word if word and c == 1 else f"{c}{word}"
            labels += [term, *(f"{lb}+{term}" for lb in below)]

    R = RingTable(
        n,
        labels,
        add,
        mul,
        0,
        int(grp.encode(cb.one)),
        provenance=P.text or repr(P.relations),
    )
    report = verify_axioms(R)
    if not report.passed:
        return None, f"table fails axioms: {report.violations[:2]}"

    gen_elts = [int(x) for x in grp.encode(cb.gens)]
    for rel in P.relations:
        acc = R.zero
        for w, c in rel:
            t = R.one
            for gi in w:
                t = int(R.mul[t, gen_elts[gi]])
            acc = int(R.add[acc, R.smul(c, t)])
        if acc != R.zero:
            return None, f"relation {rel} is nonzero in the candidate table"

    if P.expected_order is not None and n != P.expected_order:
        raise PresentationError(f"built order {n} != declared expected order {P.expected_order}")

    R._cache["presentation_build"] = PresentationBuild(P, D, cb.words, cb.ranges, B, gen_elts)
    return R, None


def build_from_text(text: str, expected_order: Optional[int] = None) -> RingTable:
    return build_ring(parse_presentation(text, expected_order))
