"""
Building finite rings four different ways
=========================================

Every ring in this library is a pair of dense Cayley tables that has been
checked against the full unital-ring axiom set.  This script builds the
same kinds of objects through each construction route and prints what the
library knows about them.
"""

from finring import (
    build_from_text,
    cyclic,
    galois,
    matrix_ring,
    parse_ring_expr,
    presentation_build,
    profile,
    upper_triangular,
)

# route 1: direct constructors
Z9 = cyclic(9)
F8 = galois(2, 3)
M2 = matrix_ring(galois(2), 2)
U2 = upper_triangular(galois(2), 2)
for R in (Z9, F8, M2, U2):
    print(f"{R.provenance:24} order {R.order:4} characteristic {R.characteristic}")

print()

# route 2: the expression grammar, handy on the command line
for text in ("Zn(12)", "sum(GF(3),Zn(4))", "op(U(2,GF(2)))", "GA(GF(2),Q8)"):
    R = parse_ring_expr(text)
    print(f"{text:24} order {R.order}")

print()

# route 3: generators and relations; the builder finds the minimal degree
# at which the quotient stabilizes and proves the table is the quotient
R = build_from_text("F2<u,v>/(u^3,v^2,u^2+uv+vu,uvu)")
info = presentation_build(R)
print(f"presented ring: order {R.order}, stabilized at degree {info.degree}")
print("monomial basis:", ", ".join("".join("uv"[i] for i in w) or "1" for w in info.basis_words))

print()

# route 4: a full property profile of the presented ring
print(profile(R).as_text())
