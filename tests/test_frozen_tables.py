"""Frozen tables: one sha256 over the RINGTAB text, labels included, of the
catalog, the enumerated classes, the constructor families and three
presentations.

The value was computed before the element packing and the bilinear product
moved into abelian.CoordGroup.  Any change to a table, a label, an identity
index or the order of the enumerated classes changes it.

A second digest covers constructor cases the first lacks: a noncommutative
coefficient ring, group algebras over GF(4) and Z4, and matrices over GF(3).
Its value was computed before the matrix rings, group algebras, Galois
fields and Reflexive64 were rebuilt from their basis products.
"""

import hashlib

from finring import build_from_text, corpus, dumps_ring, enumerate_unital, parse_ring_expr

TABLES_SHA256 = "e4123df90407b82c2220f74e01ed65c98626228d06462bf3c81d438ef3352636"

EXPRESSIONS = (
    "GF(2,3)", "GF(3,2)", "GF(2,5)", "U(3,GF(2))", "M(2,Zn(4))",
    "U(2,GF(2,2))", "M(3,GF(2))", "GA(GF(3),C2)",
)

CONSTRUCTOR_SHA256 = "5a861200c5f274b3f6ea4d568476f5a6be855679f02ad573710e64c7ccf946a8"

CONSTRUCTOR_EXPRESSIONS = ("U(2,U(2,GF(2)))", "GA(GF(2,2),C4)", "GA(Zn(4),C2)", "M(2,GF(3))")

PRESENTATIONS = (
    "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv)",  # order 512
    "F2<x>/(1)",  # order 1
    "Z9<x>/(x^2-3)",
)


def test_tables_match_the_frozen_digest():
    rings = [entry.build() for entry in corpus()]
    for n in (2, 3, 4, 5, 7, 8, 9):
        rings += enumerate_unital(n)
    rings += enumerate_unital(16, deep=True)
    rings += [parse_ring_expr(e) for e in EXPRESSIONS]
    rings += [build_from_text(t) for t in PRESENTATIONS]
    assert len(rings) == 116
    h = hashlib.sha256()
    for R in rings:
        h.update(dumps_ring(R).encode())
    assert h.hexdigest() == TABLES_SHA256


def test_constructor_tables_match_the_frozen_digest():
    h = hashlib.sha256()
    for e in CONSTRUCTOR_EXPRESSIONS:
        h.update(dumps_ring(parse_ring_expr(e)).encode())
    assert h.hexdigest() == CONSTRUCTOR_SHA256
