"""Dense operation-table representation of finite unital rings.

Elements of a ring of order n are the indices 0..n-1.  Both operations are
stored as full n x n lookup tables, so every structural question reduces to
array indexing.  Tables are immutable once constructed; all derived data is
memoised on the instance by `_memoised`, the one place the memo rule lives.
Every witness of a broken law or failed predicate is the first violation in
row-major order, as `_first` picks it, the one place the witness rule lives.
A subset of the elements has one format, an `ElementSet`: the ring and a
read-only boolean mask of shape (n,), from which its members, length and
indices are read.  Every producer hands over a mask; `ElementSet.from_iterable`
is only for element indices from outside the package.  The two subset rules
live here too: `_closure` is the least superset closed under given operations
(ideals are the additive closure of R*S*R), and `_induced` is the ring a
subring or a set of cosets induces (corners and quotients).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .abelian import _factorize
from .errors import (
    AxiomViolationError,
    InternalCheckError,
    NotAnIdealError,
    TableStructureError,
)

# Largest ring order a RingTable accepts.
MAX_ORDER = 1024

# Cap on entries per temporary block in the chunked triple scans (~2M int16,
# 4 MiB): at n = 512, blocks of 1 << 24 entries took twice the peak memory
# and ran the scans slower.  With 1 << 22, the 8 MiB temporaries of one
# n = 256 scan could not reuse the holes earlier ones left in the heap, so
# the peak memory of `finring verify` swung by 4 MiB with the heap layout.
_BLOCK_ENTRIES = 1 << 21

_DTYPE = np.int16


def _first(bad: np.ndarray):
    """Row-major index of the first True entry of bad, as a tuple of ints, or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def _as_table(arr, n: int, name: str) -> np.ndarray:
    t = np.asarray(arr)
    if t.ndim == 1 and t.size == n * n:
        t = t.reshape(n, n)
    if t.shape != (n, n):
        raise TableStructureError(f"{name} table has shape {t.shape}, expected ({n}, {n})")
    if not np.issubdtype(t.dtype, np.integer):
        raise TableStructureError(f"{name} table must be integer, got dtype {t.dtype}")
    if t.size and (t.min() < 0 or t.max() >= n):
        bad = _first((t < 0) | (t >= n))
        raise TableStructureError(f"{name} table entry at {bad} is {t[bad]}, outside 0..{n - 1}")
    t = np.ascontiguousarray(t, dtype=_DTYPE)
    t.setflags(write=False)
    return t


def _memoised(fn):
    """fn(R), computed once per ring and kept in R._cache under fn's qualified name.

    An ndarray is stored read-only.  An ElementSet is stored as its mask,
    already read-only, and rewrapped on each call: it refers back to R, so
    storing it would keep R alive, after its last use, until a full garbage
    collection.  fn returns one type, so its first call settles as_set.
    """
    key = fn.__qualname__
    as_set = False

    @functools.wraps(fn)
    def memoised(R):
        nonlocal as_set
        cache = R._cache
        if key not in cache:
            out = fn(R)
            as_set = isinstance(out, ElementSet)
            if as_set:
                out = out.mask
            elif isinstance(out, np.ndarray):
                out.setflags(write=False)
            cache[key] = out
        out = cache[key]
        return ElementSet(R, out) if as_set else out

    return memoised


def _element(R: RingTable, x) -> int:
    """x as an element index of R; IndexError when it lies outside 0..n-1."""
    x = int(x)
    if not 0 <= x < R.order:
        raise IndexError(f"element index {x} outside 0..{R.order - 1}")
    return x


class RingTable:
    """A finite unital ring given by dense addition and multiplication tables.

    Construction validates structure only (shapes, index ranges, labels).
    Ring laws are checked by :func:`verify_axioms`; every constructor in this
    package runs that check before handing a table to callers.
    """

    __slots__ = ("order", "labels", "add", "mul", "zero", "one", "provenance", "_cache")

    def __init__(self, order, labels, add, mul, zero, one, provenance=""):
        order = int(order)
        if order < 1:
            raise TableStructureError(f"order must be positive, got {order}")
        if order > MAX_ORDER:
            raise TableStructureError(f"order {order} exceeds the supported cap {MAX_ORDER}")
        labels = tuple(str(lb) for lb in labels)
        if len(labels) != order:
            raise TableStructureError(f"got {len(labels)} labels for order {order}")
        # str.split() splits on exactly the characters str.isspace() accepts
        if " ".join(labels).split() != list(labels):
            for lb in labels:
                if not lb or any(ch.isspace() for ch in lb):
                    raise TableStructureError(f"label {lb!r} is empty or contains whitespace")
        zero = int(zero)
        one = int(one)
        if not (0 <= zero < order and 0 <= one < order):
            raise TableStructureError(f"zero={zero} or one={one} outside 0..{order - 1}")
        self.order = order
        self.labels = labels
        self.add = _as_table(add, order, "add")
        self.mul = _as_table(mul, order, "mul")
        self.zero = zero
        self.one = one
        self.provenance = str(provenance)
        self._cache = {}

    @property
    @_memoised
    def neg(self) -> np.ndarray:
        """neg[x] is the additive inverse of x."""
        rows, cols = np.nonzero(self.add == self.zero)
        out = np.empty(self.order, dtype=_DTYPE)
        out[rows] = cols
        return out

    @property
    @_memoised
    def additive_order(self) -> np.ndarray:
        """additive_order[x] is the least k >= 1 with k*x = 0."""
        n = self.order
        out = np.zeros(n, dtype=np.int64)
        cur = np.arange(n, dtype=_DTYPE)
        ids = np.arange(n, dtype=_DTYPE)
        k = 1
        while True:
            hit = (cur == self.zero) & (out == 0)
            out[hit] = k
            if (out > 0).all():
                return out
            cur = self.add[cur, ids]
            k += 1
            if k > n:
                raise InternalCheckError("additive order exceeded ring order")

    @property
    def characteristic(self) -> int:
        return int(self.additive_order[self.one])

    @property
    @_memoised
    def unit_mask(self) -> np.ndarray:
        """Boolean mask of two-sided units."""
        return self.inverse >= 0

    @property
    @_memoised
    def inverse(self) -> np.ndarray:
        """inverse[x] is the two-sided inverse of x, or -1 when x is not a unit."""
        two_sided = (self.mul == self.one) & (self.mul.T == self.one)
        return np.where(two_sided.any(axis=1), two_sided.argmax(axis=1), -1)

    @property
    @_memoised
    def central_mask(self) -> np.ndarray:
        return (self.mul == self.mul.T).all(axis=1)

    def pow(self, x: int, k: int) -> int:
        """x**k for k >= 0 (k = 0 gives the unity), by repeated squaring."""
        x = _element(self, x)
        if k < 0:
            raise ValueError(f"exponent {k} is negative")
        acc = self.one
        while k:
            if k & 1:
                acc = int(self.mul[acc, x])
            x, k = int(self.mul[x, x]), k >> 1
        return acc

    def smul(self, k: int, x: int) -> int:
        """Integer multiple k*x in the additive group."""
        x = _element(self, x)
        k %= int(self.additive_order[x])
        acc = self.zero
        for _ in range(k):
            acc = int(self.add[acc, x])
        return acc

    def table_equal(self, other: "RingTable", labels: bool = True) -> bool:
        """Entry-for-entry equality of the two tables (provenance ignored)."""
        if self.order != other.order or self.zero != other.zero or self.one != other.one:
            return False
        if labels and self.labels != other.labels:
            return False
        return np.array_equal(self.add, other.add) and np.array_equal(self.mul, other.mul)

    def __repr__(self):
        src = f", {self.provenance}" if self.provenance else ""
        return f"<RingTable order={self.order}{src}>"


@dataclass(frozen=True, eq=False)
class ElementSet:
    """A subset of a ring's elements: a read-only bool mask of shape (n,)."""

    ring: RingTable
    mask: np.ndarray

    def __post_init__(self):
        n, mask = self.ring.order, np.asarray(self.mask)
        if mask.dtype != bool or mask.shape != (n,):
            raise ValueError(f"mask is {mask.dtype} of shape {mask.shape}, not bool of shape ({n},)")
        if mask.flags.writeable:
            mask = mask.copy()
            mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_iterable(cls, ring: RingTable, it: Iterable[int]) -> "ElementSet":
        """The set of the given element indices; IndexError outside 0..n-1."""
        mask = np.zeros(ring.order, dtype=bool)
        mask[[_element(ring, x) for x in it]] = True
        return cls(ring, mask)

    @property
    def members(self) -> frozenset:
        return frozenset(self)

    def __contains__(self, x) -> bool:
        x = int(x)
        return 0 <= x < self.ring.order and bool(self.mask[x])

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices().tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __eq__(self, other):
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.ring is other.ring and np.array_equal(self.mask, other.mask)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def is_ideal(self) -> bool:
        """Two-sided ideal test: holds 0, closed under +, absorbing R on both sides."""
        return bool(self.mask[self.ring.zero]) and _ideal_witness(self.ring, self.mask) is None


@dataclass
class AxiomReport:
    """Outcome of a ring-law check: passed, and the first witness of each failing law."""

    passed: bool
    violations: list = field(default_factory=list)  # [(law, witness tuple)]

    def law_names(self) -> list:
        return [law for law, _ in self.violations]


def _row_blocks(n: int, per_row: int):
    """Row ranges [a0, a1) covering range(n), each within _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // max(1, per_row))
    for a0 in range(0, n, step):
        yield a0, min(n, a0 + step)


def _first_triple(n: int, violations):
    """First (a, b, c) flagged by a chunked (n, n, m) scan, or None.

    violations(a0, a1) returns the boolean block for a in [a0, a1); m is n
    for a law of three elements.
    """
    for a0, a1 in _row_blocks(n, n * n):
        w = _first(violations(a0, a1))
        if w is not None:
            return (w[0] + a0, *w[1:])
    return None


def _two_variable_violations(R: RingTable) -> list:
    """[(law, witness)] for the laws of at most two elements: additive group, unity, zero."""
    add, mul, zero, one = R.add, R.mul, R.zero, R.one
    ids = np.arange(R.order, dtype=_DTYPE)
    violations = []
    w = _first(add != add.T)
    if w is not None:
        violations.append(("add_commutative", w))
    # the rest name one element x: a one-sided law stacks its left and right
    # rows, so its witness is the first bad x on the left, else on the right
    for law, bad in (
        ("add_identity", add[zero] != ids),
        ("add_inverse", ~(add == zero).any(axis=1)),
        ("unity", np.stack([mul[one], mul[:, one]]) != ids),
        ("zero_annihilation", np.stack([mul[zero], mul[:, zero]]) != zero),
    ):
        w = _first(bad)
        if w is not None:
            violations.append((law, w[-1:]))
    return violations


def _scan_axioms(R: RingTable) -> AxiomReport:
    """Exhaustive check of every ring law, witnessing the first violation per law.

    The O(n^3) reference for verify_axioms, and its path whenever a law fails.
    """
    n = R.order
    add, mul = R.add, R.mul
    scans = (
        ("add_associative", lambda a0, a1: add[add[a0:a1], :] != add[a0:a1][:, add]),
        ("mul_associative", lambda a0, a1: mul[mul[a0:a1], :] != mul[a0:a1][:, mul]),
        (
            "left_distributive",
            lambda a0, a1: mul[a0:a1][:, add] != add[mul[a0:a1, :, None], mul[a0:a1, None, :]],
        ),
        # rhs[a,b,c] = add[mul[a,c], mul[b,c]]
        (
            "right_distributive",
            lambda a0, a1: mul[add[a0:a1], :] != add[mul[a0:a1, None, :], mul[None, :, :]],
        ),
    )
    violations = _two_variable_violations(R)
    for law, scan in scans:
        w = _first_triple(n, scan)
        if w is not None:
            violations.append((law, w))
    return AxiomReport(passed=not violations, violations=violations)


@_memoised
def _additive_generators(R: RingTable):
    """Greedy G such that every element is a left-nested sum (..((0+g1)+g2)..)+gm over G.

    Returns G as an intp array, or None once |G| exceeds n.bit_length(),
    which no group reaches: in a group each new generator at least doubles
    the span.  Each element joins the span once and queues |G| sums, so the
    search for each generator's span takes at most n * (|G| + 1) steps.
    """
    n = R.order
    inside = [False] * n
    inside[R.zero] = True
    reached = 1
    gens, cols = [], []
    while reached < n:
        g = inside.index(False)
        gens.append(g)
        if len(gens) > n.bit_length():
            return None
        cols.append(R.add[:, g].tolist())
        # the old span is closed under the old generators, so only s+g is new
        queue = [cols[-1][x] for x in range(n) if inside[x]]
        while queue:
            y = queue.pop()
            if not inside[y]:
                inside[y] = True
                reached += 1
                queue.extend(col[y] for col in cols)
    return np.array(gens, dtype=np.intp)


def _laws_hold_on_generators(R: RingTable) -> bool:
    """All four three-variable laws, given that the two-variable laws hold.

    With G from _additive_generators:
    - addition is associative iff (x+g)+y = x+(g+y) for every g in G (Light's
      test: the middle elements that associate are closed under +, and G
      together with 0 generates every element);
    - in the resulting abelian group, a map f with f(0) = 0 is additive iff
      f(x+g) = f(x)+f(g) for every g in G.  For the column maps x -> xc this
      is right distributivity, checked as (x+g)c = xc+gc per g, next to
      Light's test;
    - right distributivity gives f_{a+b} = f_a + f_b for the row maps
      f_a: x -> ax, so the a whose f_a is additive are closed under + and
      left distributivity needs checking only for a in G: a(x+g) = ax+ag;
    - (ab)c and a(bc) are then biadditive in (b, c), so they agree everywhere
      once they agree on (a, g, h) for g, h in G.
    """
    G = _additive_generators(R)
    if G is None:
        return False
    add, mul = R.add, R.mul
    for g in G:
        if not (
            np.array_equal(add[add[:, g]], add[:, add[g]])
            and np.array_equal(mul[add[:, g]], add[mul, mul[g]])
        ):
            return False
    mG = mul[G]
    return np.array_equal(
        mG[:, add[:, G]], add[mG[:, :, None], mG[:, G][:, None, :]]
    ) and np.array_equal(mul[mul[:, G][:, :, None], G], mul[:, mul[np.ix_(G, G)]])


def verify_axioms(R: RingTable) -> AxiomReport:
    """Check every ring law on R, witnessing the first violation per law.

    Covers: additive abelian group laws, both associativities, both
    distributive laws, two-sided unity, and zero annihilation.  The
    three-variable laws are checked on an additive generating set G
    (|G| <= log2 n): additive associativity and right distributivity as
    2|G| (n, n) comparisons, left distributivity on G x n x G and
    multiplicative associativity on n x G x G, O(n^2 log n) in all.  When
    any law fails, the exhaustive O(n^3) scan runs instead, so the report
    names every failing law with the same witness whichever path found it.
    """
    if not _two_variable_violations(R) and _laws_hold_on_generators(R):
        return AxiomReport(passed=True)
    return _scan_axioms(R)


def checked(R: RingTable) -> RingTable:
    """Run verify_axioms and raise AxiomViolationError on failure."""
    rep = verify_axioms(R)
    if not rep.passed:
        # the error's traceback keeps this frame for as long as the error is
        # kept, so the rejected table is dropped first
        del R
        raise AxiomViolationError(rep)
    return R


# -- element scans ----------------------------------------------------------


def units(R: RingTable) -> ElementSet:
    """All elements with a two-sided multiplicative inverse."""
    return ElementSet(R, R.unit_mask)


def idempotents(R: RingTable) -> ElementSet:
    """All x with x*x = x."""
    ids = np.arange(R.order)
    return ElementSet(R, R.mul[ids, ids] == ids)


def central_idempotents(R: RingTable) -> ElementSet:
    return ElementSet(R, idempotents(R).mask & R.central_mask)


# -- derived rings ----------------------------------------------------------


def opposite(R: RingTable) -> RingTable:
    """Same elements and addition, multiplication reversed."""
    src = R.provenance or "ring"
    return RingTable(
        R.order, R.labels, R.add, R.mul.T.copy(), R.zero, R.one, provenance=f"op({src})"
    )


def direct_sum(A: RingTable, B: RingTable) -> RingTable:
    """Componentwise product ring on pairs (a, b), packed as a*|B| + b."""
    na, nb = A.order, B.order
    if na * nb > MAX_ORDER:
        raise TableStructureError(f"direct sum order {na * nb} exceeds cap {MAX_ORDER}")
    add = (A.add[:, None, :, None].astype(np.int64) * nb + B.add[None, :, None, :]).reshape(
        na * nb, na * nb
    )
    mul = (A.mul[:, None, :, None].astype(np.int64) * nb + B.mul[None, :, None, :]).reshape(
        na * nb, na * nb
    )
    labels = [f"({la},{lb})" for la in A.labels for lb in B.labels]
    pa = A.provenance or "A"
    pb = B.provenance or "B"
    return checked(
        RingTable(
            na * nb,
            labels,
            add,
            mul,
            A.zero * nb + B.zero,
            A.one * nb + B.one,
            provenance=f"sum({pa},{pb})",
        )
    )


# -- ideals and quotients ----------------------------------------------------


def _ideal_witness(R: RingTable, mask: np.ndarray):
    """First failure of the elements in mask to absorb + and R, or None.

    ("sum", x, y) with x + y outside, else ("lmul", r, x) with r*x outside,
    else ("rmul", x, r) with x*r outside, for x, y in mask and r in R.
    """
    idx, every = np.flatnonzero(mask), np.arange(R.order)
    for kind, table, rows, cols in (
        ("sum", R.add, idx, idx),
        ("lmul", R.mul, every, idx),
        ("rmul", R.mul, idx, every),
    ):
        w = _first(~mask[table[np.ix_(rows, cols)]])
        if w is not None:
            return (kind, int(rows[w[0]]), int(cols[w[1]]))
    return None


def _closure(mask: np.ndarray, *tables) -> np.ndarray:
    """Least superset of mask closed under each binary operation table."""
    mask = mask.copy()
    while True:
        cur = np.flatnonzero(mask)
        new = mask.copy()
        for t in tables:
            new[t[np.ix_(cur, cur)].ravel()] = True
        if (new == mask).all():
            return mask
        mask = new


def ideal_generated(R: RingTable, seeds: Iterable[int]) -> ElementSet:
    """Smallest two-sided ideal of R containing the seed elements.

    R is unital, so that ideal is the additive span of R*S*R: the span is
    absorbing, and R*S*R holds S = 1*S*1.
    """
    mask = np.zeros(R.order, dtype=bool)
    mask[R.zero] = True
    mask[[_element(R, s) for s in seeds]] = True
    mask[R.mul[:, mask]] = True
    mask[R.mul[mask, :]] = True
    return ElementSet(R, _closure(mask, R.add))


def right_annihilator(R: RingTable, a: int) -> ElementSet:
    """{t : x*t = 0 for every x in the right ideal aR}.  Always a two-sided ideal."""
    aR = np.unique(R.mul[_element(R, a), :])
    out = ElementSet(R, (R.mul[aR] == R.zero).all(axis=0))
    if not out.is_ideal():
        raise InternalCheckError(f"right annihilator of element {a} is not a two-sided ideal")
    return out


def _cosets(R: RingTable, ideal: ElementSet) -> tuple:
    """(reps, proj): each coset's least element, ascending, and element -> coset index."""
    rep = R.add[:, ideal.indices()].min(axis=1).astype(np.int64)
    reps = np.unique(rep)
    pos = np.full(R.order, -1, dtype=np.int64)
    pos[reps] = np.arange(len(reps))
    return reps, pos[rep]


def _induced(R: RingTable, reps, index: np.ndarray, unit: int, provenance: str) -> RingTable:
    """The ring R induces on reps, reading both tables through index.

    index maps each element of R to its position in reps: -1 off a subring,
    or the coset of each element in a quotient.  A subset whose sums or
    products leave it is refused, and the table must pass verify_axioms.
    """
    add = index[R.add[np.ix_(reps, reps)]]
    mul = index[R.mul[np.ix_(reps, reps)]]
    if (add < 0).any() or (mul < 0).any():
        raise InternalCheckError(f"{provenance}: subset is not closed under ring operations")
    T = RingTable(
        len(reps), [R.labels[r] for r in reps], add, mul, index[R.zero], index[unit], provenance
    )
    report = verify_axioms(T)
    if not report.passed:
        raise InternalCheckError(f"{provenance} fails {report.violations[0][0]}")
    return T


def quotient(R: RingTable, ideal: ElementSet) -> RingTable:
    """Quotient ring R/I with cosets named by their least element."""
    if ideal.ring is not R:
        raise NotAnIdealError("ideal belongs to a different ring instance")
    if not ideal.is_ideal():
        raise NotAnIdealError("quotient requires a two-sided ideal")
    reps, proj = _cosets(R, ideal)
    return _induced(
        R, reps, proj, R.one, f"quotient({R.provenance or 'ring'}, |I|={len(ideal)})"
    )


def projection_map(R: RingTable, ideal: ElementSet) -> np.ndarray:
    """Element map of the canonical surjection R -> R/I onto quotient()'s indices."""
    return _cosets(R, ideal)[1]


# -- additive structure -------------------------------------------------------


def additive_type(R: RingTable) -> tuple:
    """Elementary-divisor profile of (R, +): sorted tuple of prime powers.

    Recovered from element order counts: for each prime p, the number of
    elements killed by p^k determines the partition of the p-part.
    """
    orders = np.asarray(R.additive_order)
    out = []
    for p in _factorize(R.order):
        # conjugate partition from counts of elements of order dividing p^k;
        # each count is p^a for the a below
        prev = 0
        conj = []
        k = 1
        while True:
            c = int(np.count_nonzero((p**k) % orders == 0))
            a = 0
            while c % p == 0:
                c //= p
                a += 1
            if a == prev:
                break
            conj.append(a - prev)
            prev = a
            k += 1
        # conj[k-1] = number of parts >= k; convert to parts
        parts = []
        for i, cnt in enumerate(conj):
            nxt = conj[i + 1] if i + 1 < len(conj) else 0
            parts.extend([i + 1] * (cnt - nxt))
        out.extend(p**e for e in parts)
    return tuple(sorted(out))
