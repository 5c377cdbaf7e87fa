"""Ring expression parser.

One-line constructor syntax for the CLI and tests:

    Zn(k)          integers mod k
    GF(p[,k])      Galois field of order p^k
    M(k,e)         k x k matrices over e
    U(k,e)         k x k upper triangular matrices over e
    T(b1,..,bm,e)  block upper triangular matrices over e with diagonal
                   blocks of sizes b1..bm; M(k,e) is T(k,e) and U(k,e) is
                   T(1,..,1,e) with k blocks
    GA(e,G)        group algebra of G over e; G is Q8 or Cn
    SkewF4x2()     F4[x;Frobenius]/(x^2)
    Reflexive64()  the order-64 reflexive nonabelian example
    sum(e1,e2,..)  direct sum
    op(e)          opposite ring

Any string containing '<' is handed to the presentation engine instead,
e.g. "F2<u,v>/(u^2,v^2,uv+vu)".
"""

from __future__ import annotations

from .construct import (
    block_triangular,
    cyclic,
    cyclic_group,
    galois,
    group_algebra,
    matrix_ring,
    nonabelian_reflexive_64,
    quaternion_group,
    skew_quotient_f4,
    upper_triangular,
)
from .errors import ExpressionError, TableStructureError
from .lexer import Tokens
from .presentation import build_from_text
from .table import MAX_ORDER, RingTable, direct_sum, opposite

class _Parser(Tokens):
    def __init__(self, text: str):
        super().__init__(text, r"[A-Za-z][A-Za-z0-9]*", "(),", ExpressionError)

    def _int_arg(self):
        t = self.take("int")
        return t.val, t.pos

    def parse(self) -> RingTable:
        out = self._expr()
        t = self.peek()
        if t.kind != "end":
            raise ExpressionError(f"trailing {t.val!r} at position {t.pos}")
        return out

    def _expr(self) -> RingTable:
        t = self.take("name")
        name = t.val
        self.take("(")
        if name == "Zn":
            k, pos = self._int_arg()
            if k < 1:
                raise ExpressionError(f"Zn needs a positive modulus at position {pos}")
            self.take(")")
            return cyclic(k)
        if name == "GF":
            p, pos = self._int_arg()
            k = 1
            if self.peek().kind == ",":
                self.take(",")
                k, _ = self._int_arg()
            self.take(")")
            try:
                return galois(p, k)
            except TableStructureError as exc:
                raise ExpressionError(f"{exc} at position {pos}")
        if name in ("M", "U", "T"):
            sizes = []
            while not sizes or (name == "T" and self.peek().kind == "int"):
                k, pos = self._int_arg()
                if k < 1:
                    raise ExpressionError(f"{name} needs a positive size at position {pos}")
                sizes.append(k)
                self.take(",")
            base = self._expr()
            self.take(")")
            if name == "T":
                return block_triangular(base, sizes)
            return (matrix_ring if name == "M" else upper_triangular)(base, sizes[0])
        if name == "GA":
            base = self._expr()
            self.take(",")
            g = self.take("name")
            if g.val == "Q8":
                G = quaternion_group()
            elif (
                g.val.startswith("C")
                and g.val[1:].isdigit()
                and (n := self.integer(g.val[1:], g.pos + 1)) >= 1
            ):
                # free on n basis elements, so at least 2^n elements over a
                # nonzero base; the bound holds over the zero ring too, so the
                # group table is never built past it
                if max(base.order, 2) ** min(n, MAX_ORDER) > MAX_ORDER:
                    raise TableStructureError(
                        f"GA over C{n} at position {g.pos} exceeds cap {MAX_ORDER}: "
                        f"{n} basis elements over a ring of order {base.order}"
                    )
                G = cyclic_group(n)
            else:
                raise ExpressionError(
                    f"unknown group {g.val!r} at position {g.pos}; use Q8 or Cn"
                )
            self.take(")")
            return group_algebra(base, G)
        if name == "SkewF4x2":
            self.take(")")
            return skew_quotient_f4()
        if name == "Reflexive64":
            self.take(")")
            return nonabelian_reflexive_64()
        if name == "sum":
            parts = [self._expr()]
            while self.peek().kind == ",":
                self.take(",")
                parts.append(self._expr())
            self.take(")")
            out = parts[0]
            for nxt in parts[1:]:
                out = direct_sum(out, nxt)
            return out
        if name == "op":
            base = self._expr()
            self.take(")")
            return opposite(base)
        raise ExpressionError(f"unknown constructor {name!r} at position {t.pos}")


def parse_ring_expr(text: str) -> RingTable:
    """Build a ring from a constructor expression or presentation string."""
    if "<" in text:
        return build_from_text(text)
    stripped = text.strip()
    if not stripped:
        raise ExpressionError("empty expression")
    try:
        return _Parser(stripped).parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
