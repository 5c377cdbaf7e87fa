"""Table file format, expression grammar, and command-line entry points."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from finring.cli import main
from finring.construct import GroupTable
from finring.errors import (
    AxiomViolationError,
    ExpressionError,
    PresentationError,
    RingFormatError,
    TableStructureError,
)
from finring.expr import parse_ring_expr
from finring.ringio import dumps_ring, export_ring, import_ring, loads_ring
from finring.table import RingTable


# -- round trips --------------------------------------------------------------

ROUND_TRIP = [
    "Zn(4)",
    "Zn(9)",
    "GF(2,2)",
    "M(2,GF(2))",
    "U(2,GF(2))",
    "SkewF4x2()",
    "Reflexive64()",
    "sum(GF(3),Zn(4))",
    "op(U(2,GF(2)))",
    "GA(GF(3),C2)",
    "F2<x>/(x^2)",
]


@pytest.mark.parametrize("expr", ROUND_TRIP)
def test_dump_load_is_bit_exact(expr):
    R = parse_ring_expr(expr)
    S = loads_ring(dumps_ring(R))
    assert S.table_equal(R, labels=True)
    assert S.zero == R.zero and S.one == R.one


def test_file_round_trip_keeps_provenance(tmp_path):
    R = parse_ring_expr("M(2,GF(2))")
    path = tmp_path / "m2f2.ringtab"
    export_ring(R, str(path))
    S = import_ring(str(path))
    assert S.table_equal(R, labels=True)
    assert S.provenance == "ringtab:m2f2.ringtab"


# -- format errors carry line numbers ------------------------------------------


def good_lines():
    return dumps_ring(parse_ring_expr("Zn(4)")).splitlines()


def reject(lines, lineno, fragment):
    with pytest.raises(RingFormatError) as err:
        loads_ring("\n".join(lines) + "\n")
    assert f"line {lineno}:" in str(err.value)
    assert fragment in str(err.value)


def test_bad_magic():
    lines = good_lines()
    lines[0] = "RINGTAB 2"
    reject(lines, 1, "RINGTAB 1")


def test_non_integer_header():
    lines = good_lines()
    lines[1] = "order four"
    reject(lines, 2, "non-integer")


@pytest.mark.parametrize("order", [0, 1025])
def test_out_of_range_order_is_rejected_at_the_header(order):
    # rejected on the order line, before any label or row is read
    reject(["RINGTAB 1", f"order {order}", "zero 0", "one 1"], 2, f"order {order} is outside")


@pytest.mark.parametrize("lineno,header", [(3, "zero 9"), (4, "one -1")])
def test_out_of_range_zero_or_one_is_rejected_at_its_line(lineno, header):
    lines = good_lines()
    lines[lineno - 1] = header
    reject(lines, lineno, f"{header} is outside 0..3")


@pytest.mark.parametrize("token", ["0_0", "+0", "-0", "\u0660", "0" * 5000],
                         ids=["underscore", "plus", "minus-zero", "arabic-indic", "5000-digits"])
def test_only_ascii_digits_spell_a_number(token):
    # int() reads each token but the last as 0, which Zn(4)'s zero line and
    # the last entry of its addition row 1 both hold
    lines = good_lines()
    lines[2] = f"zero {token}"
    reject(lines, 3, "non-integer value")
    lines = good_lines()
    assert lines[6] == "1 2 3 0"
    lines[6] = f"1 2 3 {token}"
    reject(lines, 7, "non-integer entry in addition row 1")


def test_a_negative_entry_is_out_of_range():
    lines = good_lines()
    lines[6] = "1 2 3 -01"
    reject(lines, 7, "addition row 1 entry out of range")


def test_short_label_line():
    lines = good_lines()
    lines[4] = "a"
    reject(lines, 5, "label")


def test_missing_table_row():
    reject(good_lines()[:5], 6, "missing row")


def test_out_of_range_entry():
    lines = good_lines()
    lines[5] = "0 1 2 9"
    reject(lines, 6, "out of range")


def test_non_integer_entry():
    lines = good_lines()
    lines[6] = "1 2 x 0"
    reject(lines, 7, "non-integer entry in addition row 1")


def test_row_of_the_wrong_length():
    lines = good_lines()
    lines[7] = "2 3 0"
    reject(lines, 8, "addition row 2 has 3 entries, expected 4")


def test_out_of_range_entry_in_the_multiplication_table():
    # Zn(4): rows of the multiplication table start at line 5 + n + 1 = 10
    lines = good_lines()
    lines[5 + 4 + 2] = "0 2 4 2"
    reject(lines, 5 + 4 + 2 + 1, "multiplication row 2 entry out of range")


def test_trailing_content():
    lines = good_lines() + ["0 0 0 0"]
    reject(lines, 14, "trailing")


def test_import_reverifies_ring_laws():
    # a well-formed file whose tables break associativity must not load
    lines = good_lines()
    lines[11] = "0 2 0 2".replace("0 2 0 2", "0 2 0 3")
    with pytest.raises(AxiomViolationError):
        loads_ring("\n".join(lines) + "\n")


def test_rejected_table_traceback_does_not_hold_the_split_lines():
    # a caller that keeps the exception keeps every frame of its traceback
    lines = good_lines()
    lines[11] = "0 2 0 3"
    with pytest.raises(AxiomViolationError) as err:
        loads_ring("\n".join(lines) + "\n")
    tb = err.value.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        if frame.f_globals["__name__"].startswith("finring."):
            assert "lines" not in frame.f_locals, frame.f_code.co_name
        tb = tb.tb_next


def test_rejected_table_traceback_does_not_hold_the_table():
    lines = good_lines()
    lines[11] = "0 2 0 3"
    with pytest.raises(AxiomViolationError) as err:
        loads_ring("\n".join(lines) + "\n")
    tb = err.value.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        held = [k for k, v in frame.f_locals.items() if isinstance(v, RingTable)]
        assert not held, (frame.f_code.co_name, held)
        tb = tb.tb_next


# -- expression grammar --------------------------------------------------------

GRAMMAR_ORDERS = [
    ("Zn(12)", 12),
    ("GF(3)", 3),
    ("GF(2,3)", 8),
    ("M(2,GF(2))", 16),
    ("U(2,GF(2))", 8),
    ("GA(GF(2),Q8)", 256),
    ("GA(GF(3),C2)", 9),
    ("SkewF4x2()", 16),
    ("Reflexive64()", 64),
    ("sum(M(2,GF(2)),U(2,GF(2)))", 128),
    ("T(2,1,GF(2))", 128),
    ("op(U(2,GF(2)))", 8),
    ("sum(GF(2),GF(2),GF(2))", 8),
    ("M(2,Zn(1))", 1),
    ("U(3,Zn(1))", 1),
    ("GA(Zn(1),C2)", 1),
]


@pytest.mark.parametrize("expr,order", GRAMMAR_ORDERS)
def test_expression_orders(expr, order):
    assert parse_ring_expr(expr).order == order


@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_block_is_m_and_unit_blocks_are_u(k):
    # table_equal compares labels too
    T, M = parse_ring_expr(f"T({k},GF(2))"), parse_ring_expr(f"M({k},GF(2))")
    assert T.table_equal(M) and T.provenance == f"T({k},GF(2))"
    units = ",".join(["1"] * k)
    assert parse_ring_expr(f"T({units},GF(2))").table_equal(parse_ring_expr(f"U({k},GF(2))"))


@pytest.mark.parametrize(
    "expr,fragment",
    [
        ("", "empty expression"),
        ("Zn(0)", "positive modulus"),
        ("GF(2,", "unexpected end"),
        ("GF(6)", "not prime"),
        ("GF(2,0)", "field degree must be at least 1"),
        ("frob(GF(4))", "unknown constructor"),
        ("Zn(4) junk", "trailing"),
        ("GA(GF(2),D4)", "unknown group"),
        ("Zn(4) $", r"'\$' at position 6"),
        ("T(GF(2))", "expected 'int' but found 'GF' at position 2"),
        ("T(0,GF(2))", "T needs a positive size at position 2"),
    ],
)
def test_expression_errors_carry_position(expr, fragment):
    with pytest.raises(ExpressionError, match=fragment):
        parse_ring_expr(expr)


# each text must be refused before its tables, its support or its group
# table grow, and before a huge order is formatted; prints the peak RSS growth
REFUSED_BEFORE_ALLOCATION = """
import resource, sys
from finring.errors import TableStructureError
from finring.expr import parse_ring_expr
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for text in sys.argv[1:]:
    try:
        parse_ring_expr(text)
    except TableStructureError:
        pass
    else:
        raise SystemExit(text + " was built")
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)
"""


def _refused_peak_rss_mib(*texts):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", REFUSED_BEFORE_ALLOCATION, *texts],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return int(proc.stdout)


# GA(e,Cn) has |e|^n elements, and the n x n group table is built first: each
# call must be refused before either grows, whatever the base
def test_an_oversized_group_algebra_is_refused_before_its_group_is_built():
    texts = ("GA(GF(2),C200)", "GA(GF(2),C11)", "GA(Zn(1),C100000)", "GA(Zn(1),C11)")
    assert _refused_peak_rss_mib(*texts) < 8
    assert parse_ring_expr("GA(Zn(1),C10)").order == 1


# M(k,e), U(k,e) and T(b1,..,bm,e) have |e|^b elements for b free entries: each
# is refused once max(|e|, 2)^b passes the cap, before its support is listed
def test_oversized_matrices_are_refused_before_their_support_is_listed(capsys):
    texts = ("M(8,Zn(1))", "U(11,Zn(1))", "M(120,GF(2))", "M(100000,GF(2))", "T(100000,1,GF(2))")
    assert _refused_peak_rss_mib(*texts) < 8
    assert parse_ring_expr("M(2,Zn(1))").order == parse_ring_expr("U(3,Zn(1))").order == 1
    for text in ("M(8,Zn(1))", "M(120,GF(2))", "M(4,Zn(1))"):
        assert main(["build", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200, err


def test_group_validation_finds_a_non_associative_operation():
    # 0 is an identity and every row holds it, but (1*1)*2 = 2 while 1*(1*2) = 1
    op = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(TableStructureError, match="not associative"):
        GroupTable("bad", 3, ("e", "a", "b"), op, 0).validate()


# -- command line ---------------------------------------------------------------


def test_cli_build_and_props(capsys):
    assert main(["build", "Zn(4)"]) == 0
    assert main(["props", "Zn(4)", "--kv"]) == 0
    out = capsys.readouterr().out
    assert "order=4" in out
    assert "commutative=true" in out


def test_cli_builds_the_zero_matrix_ring_and_reports_a_bad_degree(capsys):
    assert main(["build", "M(2,Zn(1))"]) == 0
    assert "order 1" in capsys.readouterr().out
    assert main(["build", "GF(2,0)"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_iso_exit_codes():
    assert main(["iso", "Zn(4)", "Zn(4)"]) == 0
    assert main(["iso", "Zn(4)", "F2<x>/(x^2)"]) == 1


def test_cli_export_import_cycle(tmp_path, capsys):
    path = str(tmp_path / "u2.ringtab")
    assert main(["export", "U(2,GF(2))", "--out", path]) == 0
    assert main(["import", path]) == 0
    out = capsys.readouterr().out
    assert "order" in out


def test_cli_enumerate_census(capsys):
    assert main(["enumerate", "4", "--census"]) == 0
    out = capsys.readouterr().out
    assert "isomorphism classes of order 4: 4" in out


def test_cli_decompose(capsys):
    assert main(["decompose", "U(2,GF(2))"]) == 0
    assert "blocks m=2" in capsys.readouterr().out


def test_cli_bad_input_exits_2(capsys):
    assert main(["build", "Zn(0)"]) == 2
    assert "positive modulus" in capsys.readouterr().err


# 5,000 digits is past Python's default limit of 4,300 digits for int()
LONG = "9" * 5000


@pytest.mark.parametrize("text,pos", [
    (f"Zn({LONG})", 3),
    (f"GA(GF(2),C{LONG})", 10),
    (f"F2<u>/(u^{LONG})", 9),
    (f"Z4<u>/({LONG}u)", 7),
], ids=["Zn", "GA", "power", "coefficient"])
def test_an_integer_past_the_digit_limit_is_a_grammar_error(text, pos, capsys):
    with pytest.raises((ExpressionError, PresentationError), match=f"integer of 5000 digits at position {pos}$"):
        parse_ring_expr(text)
    assert main(["build", text]) == 2
    assert "integer of 5000 digits" in capsys.readouterr().err


# each is refused before the trial division and before p^k is computed or
# formatted: trial division of 1000000007 takes over a minute, and 3^1000000
# has more digits than int-to-str conversion allows
@pytest.mark.parametrize("text", [
    "GF(1000000007)", "GF(3,1000000)", "GF(3," + "1" * 4000 + ")",
], ids=["large-p", "large-k", "4000-digit-k"])
def test_an_oversized_field_is_refused_at_once(text, capsys):
    t0 = time.perf_counter()
    with pytest.raises(ExpressionError, match="exceeds cap 1024"):
        parse_ring_expr(text)
    assert main(["build", text]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("text,error", [
    ("op(" * 5000 + "Zn(2)" + ")" * 5000, ExpressionError),
    ("F2<u>/(" + "(" * 5000 + "u" + ")" * 5000 + ")", PresentationError),
], ids=["expression", "presentation"])
def test_deep_nesting_is_a_grammar_error(text, error, capsys):
    with pytest.raises(error, match="nested too deeply"):
        parse_ring_expr(text)
    assert main(["build", text]) == 2
    assert "nested too deeply" in capsys.readouterr().err
