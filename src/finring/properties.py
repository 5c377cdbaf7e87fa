"""Radicals and taxonomy predicates.

Every predicate is decided exactly on the operation tables; the *_witness
functions return the lexicographically first violating tuple or None, and
the is_* wrappers just test for None.  table._first picks that first
violation, row-major, for every witness.  The predicates on zero products
(symmetric, semicommutative, reflexive, PS I) read the zero set of each
element as a bitset row, so each costs O(n^2 * n/64) word operations instead
of an O(n^3) gather.  Radicals, bitsets and other derived tables are
memoised on the ring instance by table._memoised, which states the memo rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalCheckError
from .table import (
    ElementSet,
    RingTable,
    _additive_generators,
    _closure,
    _first,
    _first_triple,
    _ideal_witness,
    _memoised,
    _row_blocks,
    additive_type,
    ideal_generated,
    idempotents,
    units,
)


@_memoised
def _nilpotency_index(R: RingTable) -> np.ndarray:
    """Per element: least k with x^k = 0, or 0 when x is not nilpotent.

    For n > 1 a nilpotent x of index m has m <= log2 n: in the subring Z[x]
    that x generates, the ideals Z[x] > xZ[x] > ... > x^m Z[x] = 0 strictly
    decrease (x is no unit, and x^k = x^(k+1) y would give x^k = x^(k+j) y^j
    = 0), each of index at least 2.  So n.bit_length() powers suffice, and
    for the zero ring its single power does.
    """
    n = R.order
    base = np.arange(n, dtype=np.int16)
    cur = base.copy()
    out = np.zeros(n, dtype=np.int64)
    for k in range(1, n.bit_length() + 1):
        hit = (cur == R.zero) & (out == 0)
        out[hit] = k
        cur = R.mul[cur, base]
    return out


@_memoised
def nilpotent_set(R: RingTable) -> ElementSet:
    """All x with x^k = 0 for some k."""
    return ElementSet(R, _nilpotency_index(R) > 0)


@_memoised
def jacobson_radical(R: RingTable) -> ElementSet:
    """{x : 1 - r*x is a unit for every r}; checked to be a nil two-sided ideal."""
    vals = R.add[R.one, R.neg[R.mul]]  # vals[r, x] = 1 - r*x
    out = ElementSet(R, R.unit_mask[vals].all(axis=0))
    if (out.mask & ~nilpotent_set(R).mask).any():
        raise InternalCheckError("jacobson radical contains a non-nilpotent element")
    if not out.is_ideal():
        raise InternalCheckError("jacobson radical is not a two-sided ideal")
    return out


@_memoised
def upper_nilradical(R: RingTable) -> ElementSet:
    """Sum of all nil two-sided ideals, accumulated over nil principal ideals."""
    nil = nilpotent_set(R).mask
    acc = np.zeros(R.order, dtype=bool)
    acc[R.zero] = True
    for x in np.flatnonzero(nil):
        if acc[x]:
            continue
        I = ideal_generated(R, [int(x)]).mask
        if (I & ~nil).any():
            continue
        acc = _closure(acc | I, R.add)
    out = ElementSet(R, acc)
    if (acc & ~nil).any() or not out.is_ideal():
        raise InternalCheckError("upper nilradical accumulation broke ideal/nil state")
    return out


@_memoised
def lower_nilradical(R: RingTable) -> ElementSet:
    """Prime radical via the ascending chain I' = ideal({x : xRx inside I})."""
    n = R.order
    # sandwich[x, r] = (x*r)*x, fixed across iterations
    sandwich = R.mul[R.mul, np.arange(n, dtype=np.int16)[:, None]]
    mask = np.zeros(n, dtype=bool)
    mask[R.zero] = True
    while True:
        cand = mask[sandwich].all(axis=1)
        new = ideal_generated(R, np.flatnonzero(cand)).mask
        if (new == mask).all():
            return ElementSet(R, mask)
        mask = new


# -- witness scans ------------------------------------------------------------


def commutative_witness(R: RingTable):
    return _first(R.mul != R.mul.T)


def reduced_witness(R: RingTable):
    """Nonzero x with x*x = 0, if any."""
    n = R.order
    diag = R.mul[np.arange(n), np.arange(n)]
    return _first((diag == R.zero) & (np.arange(n) != R.zero))


@_memoised
def _zero_bits(R: RingTable) -> np.ndarray:
    """Z[x] is the bitset {c : x*c = 0}: bit c of the row is bit c % 64 of
    word c // 64, in ceil(n/64) uint64 words, with the padding bits zero."""
    n = R.order
    packed = np.zeros((n, 8 * -(-n // 64)), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(R.mul == R.zero, axis=1, bitorder="little")
    return packed.view("<u8")


def symmetric_witness(R: RingTable):
    """(a, b, c) with abc = 0 but bac != 0, the least in lexicographic order.

    The scan flags word k of Z[ab] & ~Z[ba] when it is nonzero, and c is
    the lowest set bit of the first flagged word; the padding bits are zero
    in Z[ab], so they never flag.
    """
    mul, Z = R.mul, _zero_bits(R)
    w = _first_triple(R.order, lambda a0, a1: (Z[mul[a0:a1]] & ~Z[mul.T[a0:a1]]) != 0)
    if w is None:
        return None
    a, b, k = w
    word = int(Z[mul[a, b], k] & ~Z[mul[b, a], k])
    return (a, b, 64 * k + (word & -word).bit_length() - 1)


def reversible_witness(R: RingTable):
    """(a, b) with ab = 0 but ba != 0."""
    P = R.mul == R.zero
    return _first(P & ~P.T)


@_memoised
def _zero_row_bits(R: RingTable) -> np.ndarray:
    """Row a is the bitset r-ann(aR): the AND of Z[a*g] over g in G and 0.

    R must be a verified ring, and G is its additive generating set from
    _additive_generators.  r -> a*r*c is additive, so a*r*c = 0 for every r
    once it holds for every g in G.  Z[a*0] holds every element, so the AND
    is also right when G is empty (the zero ring).
    """
    n, Z = R.order, _zero_bits(R)
    cols = R.mul[:, [R.zero, *_additive_generators(R)]]
    out = np.empty_like(Z)
    for a0, a1 in _row_blocks(n, n * cols.shape[1]):
        np.bitwise_and.reduce(Z[cols[a0:a1]], axis=1, out=out[a0:a1])
    return out


@_memoised
def _zero_row_products(R: RingTable) -> np.ndarray:
    """Q[a, b] true iff a*r*b = 0 for every r: row a is r-ann(aR), unpacked
    from _zero_row_bits."""
    bits = _zero_row_bits(R).view(np.uint8)
    return np.unpackbits(bits, axis=1, count=R.order, bitorder="little").view(bool)


def semicommutative_witness(R: RingTable):
    """(a, r, b) with ab = 0 but arb != 0."""
    w = _first((R.mul == R.zero) & ~_zero_row_products(R))
    if w is None:
        return None
    a, b = w
    (r,) = _first(R.mul[R.mul[a, :], b] != R.zero)
    return (a, r, b)


def reflexive_witness(R: RingTable):
    """(a, b, r) with aRb = 0 but b*r*a != 0."""
    Q = _zero_row_products(R)
    w = _first(Q & ~Q.T)
    if w is None:
        return None
    a, b = w
    (r,) = _first(R.mul[R.mul[b, :], a] != R.zero)
    return (a, b, r)


def _duo_witness(mul: np.ndarray):
    """(a, b) with mul[b, a] outside {mul[a, s]}: right duo of the table mul."""
    n = len(mul)
    rows = np.arange(n)[:, None]
    in_aR = np.zeros((n, n), dtype=bool)
    in_aR[rows, mul] = True
    return _first(~in_aR[rows, mul.T])  # [a, b]: is b*a outside aR


def right_duo_witness(R: RingTable):
    """(a, b) with b*a outside aR."""
    return _duo_witness(R.mul)


def left_duo_witness(R: RingTable):
    """(a, b) with a*b outside Ra: right duo of the opposite ring."""
    return _duo_witness(R.mul.T)


def abelian_witness(R: RingTable):
    """(e, r) with e idempotent and er != re."""
    return _first(idempotents(R).mask[:, None] & (R.mul != R.mul.T))


def ni_witness(R: RingTable):
    """Violation of N(R) being a two-sided ideal, as table._ideal_witness names it."""
    return _ideal_witness(R, nilpotent_set(R).mask)


def two_primal_witness(R: RingTable):
    """Nilpotent element outside the prime radical, if any."""
    return _first(nilpotent_set(R).mask & ~lower_nilradical(R).mask)


def local_witness(R: RingTable):
    """(x, y) nonunits with x + y a unit; None when nonunits form an ideal."""
    idx = np.flatnonzero(~R.unit_mask)
    w = _first(R.unit_mask[R.add[np.ix_(idx, idx)]])
    return None if w is None else (int(idx[w[0]]), int(idx[w[1]]))


def is_commutative(R):
    return commutative_witness(R) is None


def is_reduced(R):
    return reduced_witness(R) is None


def is_symmetric(R):
    return symmetric_witness(R) is None


def is_reversible(R):
    return reversible_witness(R) is None


def is_semicommutative(R):
    return semicommutative_witness(R) is None


def is_reflexive(R):
    return reflexive_witness(R) is None


def is_right_duo(R):
    return right_duo_witness(R) is None


def is_left_duo(R):
    return left_duo_witness(R) is None


def is_duo(R):
    return is_right_duo(R) and is_left_duo(R)


def is_abelian(R):
    return abelian_witness(R) is None


def is_ni(R):
    return ni_witness(R) is None


def is_two_primal(R):
    return two_primal_witness(R) is None


def is_local(R):
    return local_witness(R) is None


def _high_powers(R: RingTable) -> np.ndarray:
    """x^N for each x, with N >= the ring order a power of 2, by repeated
    squaring: x + I is nilpotent in R/I iff x^N lies in I."""
    p, N = np.arange(R.order), 1
    while N < R.order:
        p, N = R.mul[p, p], 2 * N
    return p


def _radical_plus(R: RingTable, ideal: np.ndarray) -> np.ndarray:
    """Mask of J(R) + I for the ideal with the given mask: the preimage of J(R/I)."""
    out = np.zeros(R.order, dtype=bool)
    out[R.add[np.ix_(jacobson_radical(R).indices(), np.flatnonzero(ideal))]] = True
    return out


def _distinct_zero_rows(R: RingTable) -> np.ndarray:
    """One a for each distinct row of _zero_row_bits, each row compared as
    one opaque run of bytes."""
    bits = _zero_row_bits(R)
    rows = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()
    return np.unique(rows, return_index=True)[1]


def is_ps_i(R: RingTable) -> bool:
    """For every a, R / r-ann(aR) must be 2-primal.

    r-ann(aR) is row a of _zero_row_products, so each distinct row I is one
    test, with no quotient ring built; _distinct_zero_rows finds the distinct
    rows on the packed bitsets, 8 bytes per 64 elements.  Two facts about
    finite rings decide it on R: the prime radical equals the Jacobson
    radical, and J(R/I) = (J(R) + I)/I, as finite rings are semilocal.  So
    R/I is 2-primal iff every x with x^N in I lies in J(R) + I.
    """
    powers = _high_powers(R)
    for row in _zero_row_products(R)[_distinct_zero_rows(R)]:
        if not _radical_plus(R, row)[row[powers]].all():
            return False
    return True


@dataclass
class PropertyProfile:
    """Full predicate evaluation of one ring, with witnesses for the failures."""

    order: int
    characteristic: int
    additive: tuple
    commutative: bool
    reduced: bool
    symmetric: bool
    reversible: bool
    semicommutative: bool
    reflexive: bool
    right_duo: bool
    left_duo: bool
    duo: bool
    abelian: bool
    ni: bool
    two_primal: bool
    ps_i: bool
    local: bool
    unit_count: int
    idempotent_count: int
    nilpotent_size: int
    jacobson_size: int
    witnesses: dict = field(default_factory=dict)

    BOOL_KEYS = (
        "commutative",
        "reduced",
        "symmetric",
        "reversible",
        "semicommutative",
        "reflexive",
        "right_duo",
        "left_duo",
        "duo",
        "abelian",
        "ni",
        "two_primal",
        "ps_i",
        "local",
    )

    def as_kv(self) -> list:
        out = [
            f"order={self.order}",
            f"characteristic={self.characteristic}",
            f"additive={'x'.join(str(d) for d in self.additive)}",
        ]
        for k in self.BOOL_KEYS:
            out.append(f"{k}={str(bool(getattr(self, k))).lower()}")
        out += [
            f"unit_count={self.unit_count}",
            f"idempotent_count={self.idempotent_count}",
            f"nilpotent_size={self.nilpotent_size}",
            f"jacobson_size={self.jacobson_size}",
        ]
        return out

    def as_text(self) -> str:
        lines = self.as_kv()
        wit = [f"  witness {k}: {v}" for k, v in sorted(self.witnesses.items())]
        return "\n".join(lines + wit)


def _chain(p: PropertyProfile, *keys: str) -> bool:
    """keys[0] => keys[1] => ... holds on the profile p."""
    return all(not getattr(p, a) or getattr(p, b) for a, b in zip(keys, keys[1:]))


# The implication lattice of finite rings (Marks, "A taxonomy of 2-primal
# rings", J. Algebra 266, 2003, draws it for all rings).  Each label names its
# source, so a failure says whether a bug or an unsearched ring broke it.
LATTICE = (
    ("reduced => commutative (Artin-Wedderburn and Wedderburn's little theorem)",
     lambda p: _chain(p, "reduced", "commutative")),
    ("commutative => symmetric => reversible (definitions)",
     lambda p: _chain(p, "commutative", "symmetric", "reversible")),
    ("commutative => duo => semicommutative (definitions)",
     lambda p: _chain(p, "commutative", "duo", "semicommutative")),
    ("reversible <=> semicommutative and reflexive (definitions)",
     lambda p: p.reversible == (p.semicommutative and p.reflexive)),
    ("semicommutative => abelian => ni (definitions; finite => Artinian)",
     lambda p: _chain(p, "semicommutative", "abelian", "ni")),
    ("right_duo <=> left_duo (Courter 1982 at squarefree characteristic; "
     "otherwise checked on every ring up to order 27)",
     lambda p: p.right_duo == p.left_duo),
    ("ni <=> two_primal (finite => Artinian)", lambda p: p.ni == p.two_primal),
    ("ps_i <=> ni (a = 1; finite => Artinian)", lambda p: p.ps_i == p.ni),
)


def _check_profile_invariants(p: PropertyProfile) -> None:
    """Raise on the first LATTICE entry that p breaks."""
    for label, holds in LATTICE:
        if not holds(p):
            raise InternalCheckError(f"profile violates {label}")


def profile(R: RingTable) -> PropertyProfile:
    """Evaluate every predicate on R and cross-check the implication lattice."""
    wit = {}

    def run(name, fn):
        w = fn(R)
        if w is not None:
            wit[name] = w
        return w is None

    commutative = run("commutative", commutative_witness)
    reduced = run("reduced", reduced_witness)
    symmetric = run("symmetric", symmetric_witness)
    reversible = run("reversible", reversible_witness)
    semicommutative = run("semicommutative", semicommutative_witness)
    reflexive = run("reflexive", reflexive_witness)
    right_duo = run("right_duo", right_duo_witness)
    left_duo = run("left_duo", left_duo_witness)
    abelian = run("abelian", abelian_witness)
    ni = run("ni", ni_witness)
    two_primal = run("two_primal", two_primal_witness)
    local = run("local", local_witness)

    p = PropertyProfile(
        order=R.order,
        characteristic=R.characteristic,
        additive=additive_type(R),
        commutative=commutative,
        reduced=reduced,
        symmetric=symmetric,
        reversible=reversible,
        semicommutative=semicommutative,
        reflexive=reflexive,
        right_duo=right_duo,
        left_duo=left_duo,
        duo=right_duo and left_duo,
        abelian=abelian,
        ni=ni,
        two_primal=two_primal,
        ps_i=is_ps_i(R),
        local=local,
        unit_count=len(units(R)),
        idempotent_count=len(idempotents(R)),
        nilpotent_size=len(nilpotent_set(R)),
        jacobson_size=len(jacobson_radical(R)),
        witnesses=wit,
    )
    _check_profile_invariants(p)
    return p
