"""Peirce-style decomposition of a finite unital ring.

Lift the primitive central idempotents of R/J(R) to an orthogonal family
e_1..e_m with sum 1, split R into corner rings R_i = e_i R e_i and glue
modules M_ij = e_i R e_j, and evaluate the structural laws that connect the
decomposition to the taxonomy predicates (abelian, NI, reflexive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalCheckError
from .properties import (
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
    central_idempotents,
    idempotents,
    projection_map,
    quotient,
)


def _corner(R: RingTable, e: int, f: int) -> list:
    """Element set e*R*f, ascending."""
    return np.unique(R.mul[R.mul[e, :], f]).tolist()


def _sum_of(R: RingTable, parts) -> np.ndarray:
    """Sorted elements of the sum of additive subgroups: the closure of their union."""
    mask = np.zeros(R.order, dtype=bool)
    mask[R.zero] = True
    for part in parts:
        mask[list(part)] = True
    return np.flatnonzero(_closure(mask, R.add))


@dataclass
class Decomposition:
    ring: RingTable
    idems: tuple  # orthogonal idempotents summing to 1, by quotient block
    components: tuple  # corner rings e_i R e_i as RingTables
    component_elements: tuple  # their element sets inside the parent
    modules: dict  # (i, j) -> sorted element list of e_i R e_j, i != j
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
    proj = projection_map(R, J)

    cents = sorted(central_idempotents(Q).members - {Q.zero})
    prim = []
    for e in cents:
        parts = [f for f in cents if f != e and Q.mul[f, e] == f]
        if not parts:
            prim.append(e)
    prim.sort()

    idems_R = idempotents(R).indices()
    chosen = []
    for eq in prim:
        found = None
        for cand in idems_R:
            if proj[cand] != eq:
                continue
            if all(
                R.mul[cand, f] == R.zero and R.mul[f, cand] == R.zero for f in chosen
            ):
                found = int(cand)
                break
        if found is None:
            raise InternalCheckError("idempotent lift failed for a central block")
        chosen.append(found)

    total = R.zero
    for e in chosen:
        total = int(R.add[total, e])
    if total != R.one:
        raise InternalCheckError("lifted idempotents do not sum to 1")

    m = len(chosen)
    comp_sets = [tuple(_corner(R, e, e)) for e in chosen]
    components = []
    for i, (e, cs) in enumerate(zip(chosen, comp_sets)):
        pos = np.full(R.order, -1, dtype=np.int64)
        pos[list(cs)] = np.arange(len(cs))
        components.append(_induced(R, cs, pos, e, f"corner{i+1}[{R.provenance}]"))
    modules = {}
    for i in range(m):
        for j in range(m):
            if i != j:
                modules[(i, j)] = _corner(R, chosen[i], chosen[j])

    s_set = _sum_of(R, comp_sets)
    m_set = _sum_of(R, modules.values())

    if len(s_set) != math.prod(map(len, comp_sets)):
        raise InternalCheckError("corner sum is not an internal direct sum")
    if len(m_set) != math.prod(map(len, modules.values())):
        raise InternalCheckError("module sum is not an internal direct sum")
    if len(s_set) * len(m_set) != R.order:
        raise InternalCheckError("decomposition sizes do not reconstruct the ring order")

    m_es = ElementSet.from_iterable(R, m_set)
    if not m_es.members <= J.members:
        raise InternalCheckError("glue module is not inside the radical")

    # each corner must be primary: corner/J(corner) has only trivial central idempotents
    for i, C in enumerate(components):
        CQ = quotient(C, jacobson_radical(C))
        if len(central_idempotents(CQ)) != (2 if CQ.order > 1 else 1):
            raise InternalCheckError(f"corner {i+1} is not primary")

    msq = bool((R.mul[np.ix_(m_set, m_set)] == R.zero).all())

    dec = Decomposition(
        ring=R,
        idems=tuple(chosen),
        components=tuple(components),
        component_elements=tuple(comp_sets),
        modules=modules,
        s_elements=ElementSet.from_iterable(R, s_set),
        m_elements=m_es,
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
    sums = R.add[np.ix_(S, M)].ravel()
    if len(sums) != R.order or len(np.unique(sums)) != R.order:
        raise InternalCheckError("S+M splitting is not a bijection onto the ring")
    sa, ua = np.empty((2, R.order), dtype=np.int64)
    sa[sums], ua[sums] = np.repeat(S, len(M)), np.tile(M, len(S))
    lhs = R.mul
    rhs = R.add[
        R.mul[sa[:, None], sa[None, :]],
        R.add[R.mul[sa[:, None], ua[None, :]], R.mul[ua[:, None], sa[None, :]]],
    ]
    bad = _first(lhs != rhs)
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
