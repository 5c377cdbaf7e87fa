"""Named ring catalogue and the full verification runner.

Each entry records a recipe, the expected order, and the property values the
ring is known to have.  The recipe is a ring expression or presentation that
parse_ring_expr builds, with no other construction path, and it is also the
built ring's provenance.  Only known values are asserted; everything
else the profile computes is reported as informative.  verify_corpus builds
every entry, checks the expectations, and runs the cross-cutting invariant
suites (radical agreement, the implication lattice, opposite-ring symmetry,
the local cube-zero criterion, structure-split consistency) plus the
small-order enumeration cross-checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .abelian import _factorize
from .construct import galois, upper_triangular
from .peirce import _split_checks, peirce
from .enumeration import enumerate_unital
from .errors import FinringError
from .expr import parse_ring_expr
from .iso import is_isomorphic
from .presentation import presentation_build
from .properties import (
    LATTICE,
    PropertyProfile,
    is_left_duo,
    is_reflexive,
    is_reversible,
    is_semicommutative,
    jacobson_radical,
    lower_nilradical,
    profile,
    upper_nilradical,
)
from .table import RingTable, _closure, opposite


@dataclass(frozen=True)
class CorpusEntry:
    """A catalogued ring: recipe is its ring expression or presentation, which
    build() parses; expects holds the property values known to hold."""

    name: str
    recipe: str
    order: int
    expects: dict
    note: str = ""
    basis_span: tuple | None = None  # words that must additively span the ring

    def build(self) -> RingTable:
        return parse_ring_expr(self.recipe)


def corpus() -> list:
    """Every catalogued ring, sorted by name."""
    E = CorpusEntry
    entries = [
        E("Z2", "Zn(2)", 2,
          dict(commutative=True, reduced=True),
          "prime field, the smallest reduced ring"),
        E("Z3", "Zn(3)", 3,
          dict(commutative=True, reduced=True),
          "prime field of odd characteristic"),
        E("Z4", "Zn(4)", 4,
          dict(commutative=True, reduced=False, local=True),
          "a smallest nonreduced chain ring"),
        E("F2x", "F2<x>/(x^2)", 4,
          dict(commutative=True, reduced=False, local=True),
          "dual numbers over F2, the other indecomposable nonreduced order-4 ring"),
        E("F4", "GF(2,2)", 4,
          dict(commutative=True, reduced=True, local=True),
          "four-element field"),
        E("F2F2", "sum(Zn(2),Zn(2))", 4,
          dict(commutative=True, reduced=True, local=False),
          "split order-4 ring, completes the order-4 classification"),
        E("U2F2", "U(2,GF(2))", 8,
          dict(ni=True, abelian=False, reflexive=False),
          "upper triangular 2x2 over F2; the unique smallest noncommutative ring, "
          "NI but not abelian and not reflexive"),
        E("M2F2", "M(2,GF(2))", 16,
          dict(reflexive=True, ni=False),
          "full 2x2 matrices over F2; the smallest ring whose nilpotents do not "
          "form an ideal, yet reflexive"),
        E("SkewF4x2", "SkewF4x2()", 16,
          dict(commutative=False, semicommutative=True, right_duo=True,
               left_duo=True, reflexive=True, symmetric=True, local=True),
          "skew dual numbers over F4 twisted by squaring; the smallest "
          "noncommutative ring that is symmetric, and a smallest that is duo"),
        E("S16F2a", "F2<u,v>/(u^3,v^3,vu,u^2-uv,v^2-uv)", 16,
          dict(commutative=False, semicommutative=True, right_duo=True,
               left_duo=True, reflexive=False, local=True),
          "characteristic-2 local ring; a smallest duo ring that is not reflexive"),
        E("S16Z4a", "Z4<u,v>/(u^3,v^3,vu,u^2-uv,v^2-uv,2-uv,2u,2v)", 16,
          dict(commutative=False, semicommutative=True, right_duo=True,
               left_duo=True, reflexive=False, local=True),
          "characteristic-4 twin of S16F2a with the same one-sided structure"),
        E("S16F2b", "F2<u,v>/(u^3,v^2,vu,u^2-uv)", 16,
          dict(commutative=False, semicommutative=True, right_duo=False,
               left_duo=False, reflexive=False, local=True),
          "a smallest semicommutative ring that is neither duo nor reflexive"),
        E("S16Z4b", "Z4<u,v>/(u^3,v^2,vu,u^2-uv,2-uv,2u,2v)", 16,
          dict(commutative=False, semicommutative=True, right_duo=False,
               left_duo=False, reflexive=False, local=True),
          "characteristic-4 twin of S16F2b"),
        E("L32a", "F2<u,v>/(u^4,uv,vu-u^3,v^2)", 32,
          dict(commutative=False, semicommutative=True, local=True),
          "order-32 local ring whose radical cubes are nonzero, case 1 of 7"),
        E("L32b", "F2<u,v>/(u^4,uv,vu-u^3,v^2-u^3)", 32,
          dict(commutative=False, semicommutative=True, local=True),
          "order-32 local ring, case 2: the square of the second generator "
          "lands on the cube of the first"),
        E("L32c", "Z4<u,v>/(u^4,uv,vu-u^3,v^2,u^3-2)", 32,
          dict(commutative=False, semicommutative=True, local=True),
          "order-32 local ring of characteristic 4, case 3"),
        E("L32d", "Z4<u,v>/(u^4,uv,vu-u^3,v^2-u^3,u^3-2)", 32,
          dict(commutative=False, semicommutative=True, local=True),
          "order-32 local ring of characteristic 4, case 4"),
        E("L32e", "Z4<u,v>/(u^4,uv,vu-u^3,v^2,u^2-2)", 32,
          dict(commutative=False, semicommutative=True, local=True),
          "order-32 local ring of characteristic 4, case 5"),
        E("L32f", "Z4<u,v>/(u^4,uv,vu-u^3,v^2-u^3,u^2-2)", 32,
          dict(commutative=False, semicommutative=True, local=True),
          "order-32 local ring of characteristic 4, case 6"),
        E("L32g", "Z4<u,v>/(u^4,uv,vu-u^3,v^2,u^2-2-2u)", 32,
          dict(commutative=False, semicommutative=True, local=True),
          "order-32 local ring of characteristic 4, case 7"),
        E("Sym32", "F2<u,v>/(u^3,v^2,u^2+uv+vu,uvu)", 32,
          dict(commutative=False, symmetric=True, reversible=True,
               right_duo=False, left_duo=False, local=True),
          "smallest symmetric ring that is not duo",
          basis_span=((), ("u",), ("v",), ("u", "v"), ("v", "u"))),
        E("Abel64", "F2<u,v>/(u^2,v^2,uvu-vuv)", 64,
          dict(abelian=True, semicommutative=False, reflexive=False, local=True),
          "smallest ring that is abelian but not semicommutative"),
        E("Reflexive64", "Reflexive64()", 64,
          dict(commutative=False, ni=True, abelian=False, reflexive=True),
          "smallest reflexive NI ring that is not abelian"),
        E("Tri128", "T(2,1,GF(2))", 128,
          dict(ni=False, reflexive=False),
          "3x3 matrices over F2 with diagonal blocks of sizes 2 and 1, that is "
          "2x2 matrices over F2 glued to F2 by the columns F2^2; "
          "indecomposable, neither NI nor reflexive"),
        E("Tri128op", "op(T(2,1,GF(2)))", 128,
          dict(ni=False, reflexive=False),
          "opposite of Tri128; not isomorphic to it"),
        E("M2F2_U2F2", "sum(M(2,GF(2)),U(2,GF(2)))", 128,
          dict(ni=False, reflexive=False),
          "the decomposable order-128 ring that is neither NI nor reflexive"),
        E("F2Q8", "GA(GF(2),Q8)", 256,
          dict(reversible=True, symmetric=False, right_duo=True, left_duo=True),
          "group algebra of the quaternion group over F2; smallest reversible "
          "nonsymmetric ring, and it is duo"),
        E("Rev256", "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv,u^2vu)", 256,
          dict(reversible=True, symmetric=False, right_duo=False,
               left_duo=False, local=True),
          "smallest reversible nonsymmetric ring that is not duo. The first "
          "four relations alone present an order-512 algebra; that algebra has "
          "a unique minimal two-sided ideal, spanned by u^2vu, and the fifth "
          "relation kills it, giving the order-256 quotient with the stated "
          "properties (the 512-element ring itself is not reversible)"),
        E("M2F2_F2", "sum(M(2,GF(2)),Zn(2))", 32,
          dict(ni=False),
          "matrix-by-field sum: the non-NI component spoils NI for the sum"),
        E("M2F2_Z4", "sum(M(2,GF(2)),Zn(4))", 64,
          dict(ni=False),
          "matrix-by-chain-ring sum, non-NI of order 64"),
        E("M2F2_F4", "sum(M(2,GF(2)),GF(2,2))", 64,
          dict(ni=False),
          "matrix-by-field sum, non-NI of order 64"),
        E("U2F2_U2F2", "sum(U(2,GF(2)),U(2,GF(2)))", 64,
          dict(ni=True, abelian=False),
          "sum of two NI rings stays NI"),
    ]
    entries.sort(key=lambda e: e.name)
    return entries


@dataclass
class EntryResult:
    name: str
    order_expected: int
    order_actual: int = -1
    failures: list = field(default_factory=list)
    checked: list = field(default_factory=list)
    informative: dict = field(default_factory=dict)
    error: str = ""
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures and not self.error


@dataclass
class SuiteResult:
    name: str
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class VerificationReport:
    entries: list
    suites: list
    seconds: float

    @property
    def overall_pass(self) -> bool:
        return all(e.passed for e in self.entries) and all(s.passed for s in self.suites)

    def as_kv(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"entry.{e.name}.pass={str(e.passed).lower()}")
            lines.append(f"entry.{e.name}.order={e.order_actual}")
            for kv in e.checked:
                lines.append(f"entry.{e.name}.{kv}")
        for s in self.suites:
            key = s.name.replace(" ", "_")
            lines.append(f"suite.{key}.pass={str(s.passed).lower()}")
            lines.append(f"suite.{key}.checked={s.checked}")
        lines.append(f"overall.pass={str(self.overall_pass).lower()}")
        return "\n".join(lines)

    def as_text(self) -> str:
        out = []
        for e in self.entries:
            mark = "PASS" if e.passed else "FAIL"
            out.append(f"[{mark}] {e.name:12} order {e.order_actual:4} ({e.seconds:.2f}s)")
            if e.error:
                out.append(f"         error: {e.error}")
            for f in e.failures:
                out.append(f"         {f}")
            if e.informative:
                info = " ".join(f"{k}={v}" for k, v in sorted(e.informative.items()))
                out.append(f"         informative: {info}")
        for s in self.suites:
            mark = "PASS" if s.passed else "FAIL"
            out.append(f"[{mark}] suite {s.name}: {s.checked} checks")
            for v in s.violations[:10]:
                out.append(f"         {v}")
        out.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'} in {self.seconds:.1f}s")
        return "\n".join(out)


def _check_entry(entry: CorpusEntry) -> tuple:
    t0 = time.time()
    res = EntryResult(entry.name, entry.order)
    try:
        R = entry.build()
    except FinringError as exc:
        res.error = f"build failed: {exc}"
        res.seconds = time.time() - t0
        return res, None
    res.order_actual = R.order
    if R.order != entry.order:
        res.failures.append(f"order: expected {entry.order}, built {R.order}")
    prof = profile(R)
    for key, want in sorted(entry.expects.items()):
        got = getattr(prof, key)
        res.checked.append(f"{key}={str(got).lower()} expected={str(want).lower()}")
        if got != want:
            res.failures.append(f"{key}: expected {want}, got {got}")
    for key in PropertyProfile.BOOL_KEYS:
        if key not in entry.expects:
            res.informative[key] = getattr(prof, key)
    if entry.basis_span is not None:
        err = _check_basis_span(R, entry.basis_span)
        if err:
            res.failures.append(err)
        else:
            res.checked.append("basis_span=true expected=true")
    res.seconds = time.time() - t0
    return res, (R, prof)


def _check_basis_span(R: RingTable, words: tuple) -> str:
    build = presentation_build(R)
    if build is None:
        return "basis_span: ring was not built from a presentation"
    if len(build.basis_words) != len(words):
        return (f"basis_span: build has {len(build.basis_words)} basis words, "
                f"expected {len(words)}")
    name_to_elt = dict(zip(build.presentation.gens, build.generator_elements))
    mask = np.zeros(R.order, dtype=bool)
    mask[R.zero] = True
    for w in words:
        e = R.one
        for nm in w:
            e = int(R.mul[e, name_to_elt[nm]])
        mask[e] = True
    span = int(_closure(mask, R.add).sum())
    if span != R.order:
        return f"basis_span: claimed words span {span} of {R.order} elements"
    return ""


def _suite(name: str, built: list, checks) -> SuiteResult:
    """Count each (label, ok) pair that checks(R, prof) yields on every ring."""
    s = SuiteResult(name)
    for ring, R, prof in built:
        for label, ok in checks(R, prof):
            s.checked += 1
            if not ok:
                s.violations.append(f"{ring}: {label}")
    return s


def _radicals(R: RingTable, prof: PropertyProfile):
    j, up, lo = jacobson_radical(R), upper_nilradical(R), lower_nilradical(R)
    yield f"radical sizes jacobson={len(j)} upper={len(up)} lower={len(lo)}", j == up == lo


def _implications(R: RingTable, prof: PropertyProfile):
    for label, holds in LATTICE:
        yield label, holds(prof)


def _opposite(R: RingTable, prof: PropertyProfile):
    Rop = opposite(R)
    for label, a, b in (
        ("right_duo vs left_duo of opposite", prof.right_duo, is_left_duo(Rop)),
        ("reflexive invariance", prof.reflexive, is_reflexive(Rop)),
        ("reversible invariance", prof.reversible, is_reversible(Rop)),
        ("semicommutative invariance", prof.semicommutative, is_semicommutative(Rop)),
    ):
        yield f"{label} ({a} vs {b})", a == b


def _local_cube(R: RingTable, prof: PropertyProfile):
    """A local ring with prime-field residue and J^3 = 0 is semicommutative."""
    j = jacobson_radical(R).indices()
    q = R.order // len(j)
    if prof.local and _factorize(q) == {q: 1}:
        sq = np.unique(R.mul[np.ix_(j, j)])
        if (R.mul[np.ix_(sq, j)] == R.zero).all():
            yield ("local, prime residue, cube-zero radical, but not semicommutative",
                   prof.semicommutative)


def _split(R: RingTable, prof: PropertyProfile):
    """Structure-split consistency on every decomposable profile."""
    D = peirce(R)
    for c in _split_checks(D, prof.abelian, prof.ni, prof.reflexive):
        yield c.name, c.agree
    yield "glue inside radical", D.m_elements.members <= jacobson_radical(R).members


def _suite_enumeration() -> SuiteResult:
    s = SuiteResult("enumeration counts")
    expected = {2: 1, 3: 1, 4: 4, 5: 1, 7: 1, 8: 11, 9: 4}
    for order, want in sorted(expected.items()):
        rings = enumerate_unital(order)
        s.checked += 1
        if len(rings) != want:
            s.violations.append(f"order {order}: {len(rings)} classes, expected {want}")
        if order == 8:
            rings8 = rings
    noncomm = [R for R in rings8 if not profile(R).commutative]
    s.checked += 1
    if len(noncomm) != 1:
        s.violations.append(f"order 8: {len(noncomm)} noncommutative classes, expected 1")
    else:
        u2 = upper_triangular(galois(2), 2)
        s.checked += 1
        if not is_isomorphic(noncomm[0], u2):
            s.violations.append("order 8: the noncommutative class is not the "
                                "triangular matrix ring")
    return s


def verify_corpus() -> VerificationReport:
    """Build and check every entry, then run the cross-cutting suites."""
    t0 = time.time()
    results = []
    built = []
    for entry in corpus():
        res, payload = _check_entry(entry)
        results.append(res)
        if payload is not None:
            built.append((entry.name, payload[0], payload[1]))
    suites = [
        _suite("radicals agree", built, _radicals),
        _suite("implication lattice", built, _implications),
        _suite("opposite symmetry", built, _opposite),
        _suite("local cube-zero semicommutative", built, _local_cube),
        _suite("structure split", built, _split),
        _suite_enumeration(),
    ]
    return VerificationReport(results, suites, time.time() - t0)
