"""Peirce-style decomposition of a finite unital ring.

Lift the primitive central idempotents of R/J(R) to an orthogonal family
e_1..e_m with sum 1, split R into corner rings R_i = e_i R e_i and glue
modules M_ij = e_i R e_j, and evaluate the structural laws that connect the
decomposition to the taxonomy predicates (abelian, NI, reflexive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

import numpy as np

from .errors import InternalCheckError
from .properties import (
    _radical_cosets,
    is_abelian,
    is_local,
    is_ni,
    is_reflexive,
    jacobson_radical,
)
from .table import (
    ElementSet,
    RingTable,
    _closure,
    _first,
    _induced,
    _pair_take,
    central_idempotents,
    idempotents,
    quotient,
)


def _corner(R: RingTable, e: int, f: int) -> ElementSet:
    """The element set e*R*f."""
    mask = np.zeros(R.order, dtype=bool)
    mask[R.mul[R.mul[e, :], f]] = True
    return ElementSet(R, mask)


def _sum_of(R: RingTable, parts) -> ElementSet:
    """The sum of additive subgroups, given as element sets: the closure of their union."""
    mask = np.zeros(R.order, dtype=bool)
    mask[R.zero] = True
    for part in parts:
        mask |= part.mask
    return ElementSet(R, _closure(mask, R.add))


@dataclass
class Decomposition:
    ring: RingTable
    idems: tuple  # orthogonal idempotents summing to 1, by quotient block
    components: tuple  # corner rings e_i R e_i as RingTables
    component_elements: tuple  # the ElementSet of each corner inside the parent
    modules: dict  # (i, j) -> ElementSet of the glue module e_i R e_j, i != j
    s_elements: ElementSet  # internal direct sum of the corners
    m_elements: ElementSet  # internal direct sum of the off-diagonal modules
    all_components_local: bool
    m_nonzero: bool
    m_square_zero: bool

    def module_sizes(self):
        return {ij: len(v) for ij, v in sorted(self.modules.items())}

    def summary(self) -> str:
        comp = ", ".join(f"R{i+1}: order {c.order}" for i, c in enumerate(self.components))
        mods = ", ".join(f"|M{i+1}{j+1}|={len(v)}" for (i, j), v in sorted(self.modules.items()))
        lines = [
            f"blocks m={len(self.idems)}",
            f"components: {comp}",
            f"modules: {mods if mods else '(none)'}",
            f"all components local: {self.all_components_local}",
            f"glue nonzero: {self.m_nonzero}",
            f"glue squares to zero: {self.m_square_zero}",
        ]
        return "\n".join(lines)


def peirce(R: RingTable) -> Decomposition:
    """Decompose R along lifted primitive central idempotents of R/J."""
    J = jacobson_radical(R)
    Q = quotient(R, J)
    proj = _radical_cosets(R)

    cents = [e for e in central_idempotents(Q) if e != Q.zero]
    prim = [e for e in cents if not any(f != e and Q.mul[f, e] == f for f in cents)]

    # each block lifts to the first idempotent over it orthogonal to those chosen
    idem = idempotents(R).mask
    chosen = []
    for eq in prim:
        orth = (R.mul[:, chosen] == R.zero).all(axis=1) & (R.mul[chosen] == R.zero).all(axis=0)
        w = _first(idem & (proj == eq) & orth)
        if w is None:
            raise InternalCheckError("idempotent lift failed for a central block")
        chosen.append(w[0])

    total = R.zero
    for e in chosen:
        total = int(R.add[total, e])
    if total != R.one:
        raise InternalCheckError("lifted idempotents do not sum to 1")

    comp_sets = tuple(_corner(R, e, e) for e in chosen)
    components = []
    for i, (e, cs) in enumerate(zip(chosen, comp_sets)):
        pos = np.where(cs.mask, np.cumsum(cs.mask) - 1, -1)
        components.append(_induced(R, cs.indices(), pos, e, f"corner{i+1}[{R.provenance}]"))
    modules = {(i, j): _corner(R, e, f) for (i, e), (j, f) in permutations(enumerate(chosen), 2)}

    s_set = _sum_of(R, comp_sets)
    m_set = _sum_of(R, modules.values())

    if len(s_set) != math.prod(map(len, comp_sets)):
        raise InternalCheckError("corner sum is not an internal direct sum")
    if len(m_set) != math.prod(map(len, modules.values())):
        raise InternalCheckError("module sum is not an internal direct sum")
    if len(s_set) * len(m_set) != R.order:
        raise InternalCheckError("decomposition sizes do not reconstruct the ring order")

    if (m_set.mask & ~J.mask).any():
        raise InternalCheckError("glue module is not inside the radical")

    # each corner must be primary: corner/J(corner) has only trivial central
    # idempotents.  A one-block ring is its own corner, and Q is already R/J
    for i, C in enumerate(components):
        CQ = Q if C is R else quotient(C, jacobson_radical(C))
        if len(central_idempotents(CQ)) != (2 if CQ.order > 1 else 1):
            raise InternalCheckError(f"corner {i+1} is not primary")

    glue = m_set.indices()
    msq = bool((R.mul.take(glue, axis=0).take(glue, axis=1) == R.zero).all())

    dec = Decomposition(
        ring=R,
        idems=tuple(chosen),
        components=tuple(components),
        component_elements=comp_sets,
        modules=modules,
        s_elements=s_set,
        m_elements=m_set,
        all_components_local=all(is_local(C) for C in components),
        m_nonzero=len(m_set) > 1,
        m_square_zero=msq,
    )
    if msq:
        _verify_split_model(dec)
    return dec


def _verify_split_model(D: Decomposition) -> None:
    """With M^2 = 0 every product must follow (s1+u1)(s2+u2) = s1s2 + (s1u2 + u1s2).

    Exercises the uniqueness of the S (+) M additive splitting on all pairs.
    """
    R = D.ring
    S, M = D.s_elements.indices(), D.m_elements.indices()
    sums = R.add.take(S, axis=0).take(M, axis=1).ravel()
    if len(sums) != R.order or len(np.unique(sums)) != R.order:
        raise InternalCheckError("S+M splitting is not a bijection onto the ring")
    sa, ua = np.empty((2, R.order), dtype=np.int64)
    sa[sums], ua[sums] = np.repeat(S, len(M)), np.tile(M, len(S))
    ss, su, us = (_pair_take(R.mul, x[:, None], y) for x, y in ((sa, sa), (sa, ua), (ua, sa)))
    rhs = _pair_take(R.add, ss, _pair_take(R.add, su, us))
    bad = _first(R.mul != rhs)
    if bad is not None:
        raise InternalCheckError(f"split multiplication model fails at pair {bad}")


@dataclass
class CheckResult:
    name: str
    predicted: Optional[bool]
    actual: bool
    agree: bool
    note: str = ""


@dataclass
class DecompositionReport:
    ring: RingTable
    decomposition: Decomposition
    checks: tuple

    @property
    def overall_pass(self) -> bool:
        return all(c.agree for c in self.checks)

    def as_text(self) -> str:
        out = [self.decomposition.summary()]
        for c in self.checks:
            status = "agree" if c.agree else "MISMATCH"
            pred = "n/a" if c.predicted is None else str(c.predicted).lower()
            out.append(f"{c.name}: predicted={pred} actual={str(c.actual).lower()} [{status}]{c.note}")
        return "\n".join(out)


def _split_checks(D: Decomposition, abelian: bool, ni: bool, reflexive: bool) -> list:
    """The block-split laws: the decomposition's prediction of each flag."""
    pred = (not D.m_nonzero) and D.all_components_local
    checks = [
        CheckResult("abelian iff no glue and local corners", pred, abelian, pred == abelian),
        CheckResult("NI iff all corners local", D.all_components_local, ni,
                    D.all_components_local == ni),
    ]
    name = "square-zero glue forces nonreflexive"
    if D.m_nonzero and D.m_square_zero:
        checks.append(CheckResult(name, False, reflexive, reflexive is False))
    else:
        checks.append(CheckResult(name, None, reflexive, True,
                                  note=" (vacuous: no square-zero glue)"))
    return checks


def decomposition_report(R: RingTable) -> DecompositionReport:
    """Cross-check the decomposition flags against the scan-based predicates."""
    D = peirce(R)
    checks = _split_checks(D, is_abelian(R), is_ni(R), is_reflexive(R))
    return DecompositionReport(R, D, tuple(checks))
