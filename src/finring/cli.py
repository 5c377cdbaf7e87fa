"""Command line interface.

    finring build 'M(2,GF(2))' --out m2f2.ringtab
    finring props 'F2<u,v>/(u^2,v^2,uv+vu)'
    finring decompose 'sum(M(2,GF(2)),U(2,GF(2)))'
    finring iso 'Zn(4)' 'F2<x>/(x^2)'
    finring enumerate 8 --census
    finring enumerate 27 --census
    finring verify --deep
    finring export 'GA(GF(2),Q8)' --out f2q8.ringtab
    finring import f2q8.ringtab

`enumerate` runs orders 2, 3, 4, 5, 7, 8, 9 and 27.  `verify` exits 0 only
when every corpus expectation and invariant suite passes.  `--deep` applies
to enumerate and verify and opts into the order-16 enumeration.
"""

from __future__ import annotations

import argparse
import os
import sys

from .corpus import verify_corpus
from .enumeration import enumerate_unital, taxonomy_census
from .errors import FinringError
from .expr import parse_ring_expr
from .iso import is_isomorphic
from .peirce import decomposition_report
from .properties import profile
from .ringio import export_ring, import_ring
from .table import RingTable


def _load(text: str) -> RingTable:
    """A ring argument is a file path if it names a file, else an expression."""
    if os.path.exists(text):
        return import_ring(text)
    return parse_ring_expr(text)


def _summary(R: RingTable) -> str:
    lines = [f"order {R.order}", f"zero index {R.zero}", f"one index {R.one}"]
    if R.provenance:
        lines.append(f"built from {R.provenance}")
    return "\n".join(lines)


def _cmd_build(args) -> int:
    R = _load(args.expr)
    print(_summary(R))
    if args.out:
        export_ring(R, args.out)
        print(f"written to {args.out}")
    return 0


def _cmd_props(args) -> int:
    R = _load(args.expr)
    prof = profile(R)
    print("\n".join(prof.as_kv()) if args.kv else prof.as_text())
    return 0


def _cmd_decompose(args) -> int:
    R = _load(args.expr)
    rep = decomposition_report(R)
    print(rep.as_text())
    return 0 if rep.overall_pass else 1


def _cmd_iso(args) -> int:
    A = _load(args.left)
    B = _load(args.right)
    res = is_isomorphic(A, B)
    if res.isomorphic is None:
        print(f"undecided: {res.reason}")
        return 2
    if res.isomorphic:
        print("isomorphic")
        if args.mapping:
            print(" ".join(str(int(v)) for v in res.mapping))
        return 0
    print(f"not isomorphic ({res.reason})")
    return 1


def _cmd_enumerate(args) -> int:
    rings = enumerate_unital(args.order, deep=args.deep)
    print(f"order {args.order}: {len(rings)} isomorphism classes")
    if args.census:
        print(taxonomy_census(rings).as_text())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, R in enumerate(rings):
            export_ring(R, os.path.join(args.out, f"order{args.order}_{i:03d}.ringtab"))
        print(f"{len(rings)} tables written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    rep = verify_corpus(deep=args.deep)
    text = rep.as_kv() if args.kv else rep.as_text()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rep.as_kv() + "\n")
        print(f"machine report written to {args.out}")
    return 0 if rep.overall_pass else 1


def _cmd_export(args) -> int:
    R = _load(args.expr)
    export_ring(R, args.out)
    print(f"order {R.order} written to {args.out}")
    return 0


def _cmd_import(args) -> int:
    R = import_ring(args.path)
    print(_summary(R))
    print(profile(R).as_text())
    return 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="finring",
                                  description="finite unital ring computations")
    sub = top.add_subparsers(dest="command", required=True)

    def deep(p):
        p.add_argument("--deep", action="store_true",
                       help="opt into the order-16 enumeration")

    p = sub.add_parser("build", help="build a ring and show a summary")
    p.add_argument("expr", help="ring expression, presentation, or RINGTAB path")
    p.add_argument("--out", default=None, help="also export as RINGTAB")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("props", help="full property profile")
    p.add_argument("expr")
    p.add_argument("--kv", action="store_true", help="machine-readable key=value lines")
    p.set_defaults(fn=_cmd_props)

    p = sub.add_parser("decompose", help="idempotent splitting and component report")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("iso", help="isomorphism test; exit 0 yes, 1 no, 2 undecided")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mapping", action="store_true", help="print the element mapping")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("enumerate", help="all unital rings of a given order")
    p.add_argument("order", type=int)
    p.add_argument("--census", action="store_true", help="property census table")
    p.add_argument("--out", default=None, help="directory for RINGTAB exports")
    deep(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the full expectation and invariant suite")
    p.add_argument("--kv", action="store_true", help="machine-readable output")
    p.add_argument("--out", default=None, help="write machine report to a file")
    deep(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export", help="write a ring as a RINGTAB file")
    p.add_argument("expr")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("import", help="read and re-verify a RINGTAB file")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_import)

    args = top.parse_args(argv)
    try:
        return args.fn(args)
    except FinringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
