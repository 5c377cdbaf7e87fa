"""RINGTAB v1 serialization.

Line-oriented text: `RINGTAB 1`, `order n`, `zero i`, `one j`, one line of
space-separated labels, then n rows of the addition table and n rows of the
multiplication table.  Round-trips bit-exactly; import re-verifies the ring
axioms before handing the table out.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import RingFormatError
from .table import MAX_ORDER, RingTable, checked

# RINGTAB numbers are ASCII decimal integers; int() and numpy's string cast
# would also read "1_0", "+1", "-0" and non-ASCII digits
_NUMBER = re.compile(r"[0-9]+|-0*[1-9][0-9]*")
_DIGIT_LINES = re.compile(r"[0-9\s]*")


def dumps_ring(R: RingTable) -> str:
    lines = [
        "RINGTAB 1",
        f"order {R.order}",
        f"zero {R.zero}",
        f"one {R.one}",
        " ".join(R.labels),
    ]
    for T in (R.add, R.mul):
        lines.extend(" ".join(map(str, row)) for row in T.tolist())
    return "\n".join(lines) + "\n"


def export_ring(R: RingTable, path) -> None:
    # encoded before the file is opened, so a refused ring leaves no file
    try:
        data = dumps_ring(R).encode("ascii")
    except UnicodeEncodeError:
        label = next(label for label in R.labels if not label.isascii())
        raise RingFormatError(f"label {label!r} is not ASCII; RINGTAB files are ASCII") from None
    with open(path, "wb") as fh:
        fh.write(data)


def _int(token: str):
    """token's value, or None if it is not a RINGTAB number."""
    if not _NUMBER.fullmatch(token):
        return None
    try:
        return int(token)
    except ValueError:  # past int()'s digit limit
        return None


def _intline(lines, i, key, lo, hi):
    if i >= len(lines):
        raise RingFormatError(f"missing {key!r} line", line=i + 1)
    parts = lines[i].split()
    if len(parts) != 2 or parts[0] != key:
        raise RingFormatError(f"expected {key!r} and a value, got {lines[i]!r}", line=i + 1)
    value = _int(parts[1])
    if value is None:
        raise RingFormatError(f"non-integer value in {lines[i]!r}", line=i + 1)
    if not lo <= value <= hi:
        raise RingFormatError(f"{key} {value} is outside {lo}..{hi}", line=i + 1)
    return value


def _table_rows(lines, start, n, what):
    # one check and one conversion for the whole table; a ragged, non-digit or
    # out-of-range table falls through to the row walk, which names the line
    block = lines[start : start + n]
    if _DIGIT_LINES.fullmatch("\n".join(block)):
        try:
            T = np.array([line.split() for line in block], dtype=np.int64)
            if T.shape == (n, n) and T.max() < n:
                return T.astype(np.int16)
        except (ValueError, OverflowError):
            pass
    rows = []
    for r in range(n):
        i = start + r
        if i >= len(lines):
            raise RingFormatError(f"missing row {r} of the {what} table", line=i + 1)
        parts = lines[i].split()
        if len(parts) != n:
            raise RingFormatError(
                f"{what} row {r} has {len(parts)} entries, expected {n}", line=i + 1
            )
        vals = [_int(v) for v in parts]
        if None in vals:
            raise RingFormatError(f"non-integer entry in {what} row {r}", line=i + 1)
        if any(v < 0 or v >= n for v in vals):
            raise RingFormatError(f"{what} row {r} entry out of range", line=i + 1)
        rows.append(vals)
    return np.array(rows, dtype=np.int16)


def loads_ring(text: str, provenance: str = "") -> RingTable:
    # parsing returns before the check, so the traceback of a rejected table
    # holds neither its split lines nor (see checked) the table
    return checked(_parse(text, provenance))


def _parse(text: str, provenance: str) -> RingTable:
    lines = text.splitlines()
    if not lines or lines[0].split() != ["RINGTAB", "1"]:
        raise RingFormatError("file does not start with 'RINGTAB 1'", line=1)
    n = _intline(lines, 1, "order", 1, MAX_ORDER)
    zero = _intline(lines, 2, "zero", 0, n - 1)
    one = _intline(lines, 3, "one", 0, n - 1)
    if len(lines) < 5:
        raise RingFormatError("missing label line", line=5)
    labels = lines[4].split()
    if len(labels) != n:
        raise RingFormatError(f"{len(labels)} labels for order {n}", line=5)
    add = _table_rows(lines, 5, n, "addition")
    mul = _table_rows(lines, 5 + n, n, "multiplication")
    extra = 5 + 2 * n
    if any(line.strip() for line in lines[extra:]):
        raise RingFormatError("trailing content after the tables", line=extra + 1)
    return RingTable(n, labels, add, mul, zero, one, provenance=provenance)


def import_ring(path) -> RingTable:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise RingFormatError(f"non-ASCII byte {exc.object[exc.start]:#04x}; "
                              "RINGTAB files are ASCII") from None
    return loads_ring(text, provenance=f"ringtab:{os.path.basename(str(path))}")
