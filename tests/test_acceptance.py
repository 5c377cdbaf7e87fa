"""Acceptance gate: one test per shipping criterion.

Run with -v to get one pass/fail line per criterion.  Every expected value
here is either a classical fact about a named small ring or was frozen from
an independent brute-force computation; nothing is copied from the code
under test.
"""

import pytest

from finring.construct import galois, matrix_ring, upper_triangular
from finring.corpus import corpus
from finring.enumeration import enumerate_unital
from finring.iso import is_isomorphic
from finring.peirce import peirce
from finring.presentation import build_ring, parse_presentation, presentation_build
from finring.properties import (
    jacobson_radical,
    lower_nilradical,
    profile,
    upper_nilradical,
)
from finring.ringio import dumps_ring, loads_ring

SHALLOW_ORDERS = (2, 3, 4, 5, 7, 8, 9)


@pytest.fixture(scope="module")
def catalog():
    return {e.name: (e, e.build()) for e in corpus()}


@pytest.fixture(scope="module")
def all_rings(catalog):
    rings = [(name, R) for name, (_, R) in sorted(catalog.items())]
    for n in SHALLOW_ORDERS:
        rings += [(f"enum{n}_{i}", R) for i, R in enumerate(enumerate_unital(n))]
    return rings


@pytest.fixture(scope="module")
def profiles(all_rings):
    return [(name, R, profile(R)) for name, R in all_rings]


def additive_closure(R, seeds):
    seen = set(seeds) | {R.zero}
    frontier = list(seen)
    while frontier:
        a = frontier.pop()
        for b in list(seen):
            c = int(R.add[a, b])
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return seen


def prof_of(profiles, name):
    return next(p for n, _, p in profiles if n == name)


def ring_of(profiles, name):
    return next(R for n, R, _ in profiles if n == name)


def test_criterion_01_catalog_profiles(profiles):
    """Every named catalog ring reproduces its stated property booleans."""
    want = {
        "F2Q8": dict(reversible=True, symmetric=False, right_duo=True, left_duo=True),
        "Rev256": dict(reversible=True, symmetric=False, duo=False),
        "Sym32": dict(symmetric=True, duo=False, order=32),
        "Abel64": dict(abelian=True, semicommutative=False, reflexive=False),
        "Reflexive64": dict(ni=True, abelian=False, reflexive=True, order=64),
        "U2F2": dict(ni=True, abelian=False, reflexive=False, order=8),
        "M2F2": dict(reflexive=True, ni=False),
    }
    for name in ("SkewF4x2", "S16F2a", "S16Z4a", "S16F2b", "S16Z4b"):
        want[name] = dict(order=16, semicommutative=True, commutative=False)
    for name in ("SkewF4x2", "S16F2a", "S16Z4a"):
        want[name]["duo"] = True
    for name in ("S16F2a", "S16Z4a"):
        want[name]["reflexive"] = False
    for name in ("S16F2b", "S16Z4b"):
        want[name].update(duo=False, reflexive=False)
    for name in ("L32a", "L32b", "L32c", "L32d", "L32e", "L32f", "L32g"):
        want[name] = dict(order=32, semicommutative=True)
    for name in ("Tri128", "Tri128op", "M2F2_U2F2"):
        want[name] = dict(order=128, ni=False, reflexive=False)

    assert prof_of(profiles, "F2Q8").order == 256
    for name, flags in want.items():
        p = prof_of(profiles, name)
        for key, val in flags.items():
            assert getattr(p, key) == val, f"{name}.{key} != {val}"

    # the order-32 symmetric ring is additively spanned by 1, u, v, uv, vu
    R = ring_of(profiles, "Sym32")
    u, v = presentation_build(R).generator_elements
    words = [R.one, u, v, int(R.mul[u, v]), int(R.mul[v, u])]
    assert len(additive_closure(R, words)) == R.order == 32


def test_criterion_02_radical_triple_agreement(all_rings):
    """Jacobson radical and both nilradicals coincide element-for-element."""
    for name, R in all_rings:
        j = set(jacobson_radical(R).indices())
        up = set(upper_nilradical(R).indices())
        low = set(lower_nilradical(R).indices())
        assert j == up == low, name


def test_criterion_03_taxonomy_implications(profiles):
    """The predicate implication lattice holds with zero violations."""
    for name, R, p in profiles:
        assert p.reversible == (p.semicommutative and p.reflexive), name
        assert not p.semicommutative or p.abelian, name
        assert not p.reduced or p.commutative, name
        assert p.right_duo == p.left_duo, name
        assert p.ni == p.two_primal, name
        assert not p.duo or p.semicommutative, name
        assert not p.symmetric or p.reversible, name
        assert p.ps_i == p.ni, name


def test_criterion_04_enumeration_counts():
    """Class counts at small orders, including the long order-16 run."""
    assert len(enumerate_unital(4)) == 4
    for n in (2, 3, 5, 7):
        assert len(enumerate_unital(n)) == 1
    rings8 = enumerate_unital(8)
    noncomm8 = [R for R in rings8 if (R.mul != R.mul.T).any()]
    assert len(noncomm8) == 1
    assert is_isomorphic(noncomm8[0], upper_triangular(galois(2), 2)).isomorphic

    rings16 = enumerate_unital(16)
    noncomm16 = [R for R in rings16 if (R.mul != R.mul.T).any()]
    assert len(noncomm16) == 13
    from finring.properties import is_ni, is_ps_i

    assert all(is_ps_i(R) == is_ni(R) for R in rings16)
    non_ni = [R for R in rings16 if not is_ni(R)]
    assert len(non_ni) == 1
    assert is_isomorphic(non_ni[0], matrix_ring(galois(2), 2)).isomorphic


def test_criterion_05_block_split_laws(profiles):
    """Idempotent splitting flags match the scan predicates on every ring."""
    for name, R, p in profiles:
        D = peirce(R)
        assert p.abelian == ((not D.m_nonzero) and D.all_components_local), name
        assert p.ni == D.all_components_local, name
        if D.m_nonzero and D.m_square_zero:
            assert not p.reflexive, name
        j = set(jacobson_radical(R).indices())
        m = set(int(x) for x in D.m_elements.indices())
        assert m <= j, name


def test_criterion_06_local_cube_zero_semicommutative(profiles):
    """Local rings with prime residue field and cube-zero radical are
    semicommutative."""
    checked = 0
    for name, R, p in profiles:
        if not p.local:
            continue
        j = list(jacobson_radical(R).indices())
        residue = R.order // len(j)
        if residue not in (2, 3, 5, 7):
            continue
        j2 = {int(R.mul[a, b]) for a in j for b in j}
        j3 = {int(R.mul[a, b]) for a in j2 for b in j}
        if j3 == {R.zero}:
            assert p.semicommutative, name
            checked += 1
    assert checked >= 20  # the catalog alone contributes its local families


def test_criterion_07_presentation_stability(catalog):
    """Presented rings rebuild at the stated order at the stabilization
    degree and two past it, and their relations vanish in the table."""
    seen = 0
    for name, (entry, R) in sorted(catalog.items()):
        if "<" not in entry.recipe:
            continue
        seen += 1
        assert R.order == entry.order, name
        P = parse_presentation(entry.recipe)
        d = presentation_build(R).degree
        R2 = build_ring(P, min_degree=d + 2)
        assert R2.order == entry.order, name

        for S in (R, R2):
            gens = presentation_build(S).generator_elements
            for rel in P.relations:
                acc = S.zero
                for word, coeff in rel:
                    x = S.one
                    for gi in word:
                        x = int(S.mul[x, gens[gi]])
                    acc = int(S.add[acc, S.smul(coeff, x)])
                assert acc == S.zero, f"{name}: relation {rel} nonzero"
    assert seen >= 15


def test_criterion_08_table_file_round_trip(catalog):
    """RINGTAB serialization is bit-exact over the whole catalog."""
    for name, (_, R) in sorted(catalog.items()):
        S = loads_ring(dumps_ring(R))
        assert S.table_equal(R, labels=True), name
        assert (S.zero, S.one) == (R.zero, R.one), name
