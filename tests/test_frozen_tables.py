"""Frozen tables: one sha256 over the RINGTAB text, labels included, of the
catalog, the enumerated classes, the constructor families and three
presentations.

The value was computed before the element packing and the bilinear product
moved into abelian.CoordGroup.  Any change to a table, a label, an identity
index or the order of the enumerated classes changes it.  It was re-frozen
once since, when Tri128 and Tri128op became block triangular matrices: only
their labels changed, from (matrix|column|scalar) triples to 3x3 matrices.
The earlier value, e4123df9..., comes back when the old labels are put on
the new tables, and a third digest pins their add, mul, zero and one.

A second digest covers constructor cases the first lacks: a noncommutative
coefficient ring, group algebras over GF(4) and Z4, and matrices over GF(3).
Its value was computed before the matrix rings, group algebras, Galois
fields and Reflexive64 were rebuilt from their basis products.
"""

import hashlib

from finring import build_from_text, corpus, dumps_ring, enumerate_unital, parse_ring_expr

TABLES_SHA256 = "1825bf16ea49f15c1bca952d06af1ffabf4abf628f160e84dc5f9743fa75a5f3"

EXPRESSIONS = (
    "GF(2,3)", "GF(3,2)", "GF(2,5)", "U(3,GF(2))", "M(2,Zn(4))",
    "U(2,GF(2,2))", "M(3,GF(2))", "GA(GF(3),C2)",
)

CONSTRUCTOR_SHA256 = "5a861200c5f274b3f6ea4d568476f5a6be855679f02ad573710e64c7ccf946a8"

CONSTRUCTOR_EXPRESSIONS = ("U(2,U(2,GF(2)))", "GA(GF(2,2),C4)", "GA(Zn(4),C2)", "M(2,GF(3))")

TRI128_SHA256 = "7d2fbb52349ea2b8fc03d25063754ad2dac21833d23442f67da255de902b547c"

PRESENTATIONS = (
    "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv)",  # order 512
    "F2<x>/(1)",  # order 1
    "Z9<x>/(x^2-3)",
)


def test_tables_match_the_frozen_digest():
    rings = [entry.build() for entry in corpus()]
    for n in (2, 3, 4, 5, 7, 8, 9):
        rings += enumerate_unital(n)
    rings += enumerate_unital(16)
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


def test_tables_of_Tri128_and_Tri128op_match_the_label_free_digest():
    # add, mul, zero and one of Tri128 and Tri128op, frozen when they were
    # still glued from M(2,GF(2)) and GF(2) along the column module
    h = hashlib.sha256()
    for entry in corpus():
        if entry.name in ("Tri128", "Tri128op"):
            R = entry.build()
            for table in (R.add, R.mul):
                h.update(table.astype("<i8").tobytes())
            h.update(f"{R.zero} {R.one}".encode())
    assert h.hexdigest() == TRI128_SHA256
