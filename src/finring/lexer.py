"""Tokenizer and token cursor shared by the expression and presentation grammars."""

from __future__ import annotations

import re
from typing import NamedTuple

_BLANK = re.compile(r"\s*")


class Tok(NamedTuple):
    kind: str  # "int", "name", "end" or the punctuation character itself
    val: object
    pos: int


class Tokens:
    """Cursor over the tokens of `text[start:]`: decimal ints, names matching
    `name_re` and the single characters in `punct`, then an "end" token.

    Lexing is eager, so a bad character is reported before any parse error.
    Every error is raised as `error(message)` with a position in `text`."""

    def __init__(self, text: str, name_re: str, punct: str, error, start: int = 0):
        self.error = error
        token = re.compile(rf"(?P<int>\d+)|(?P<name>{name_re})|(?P<punct>[{re.escape(punct)}])")
        self.toks = []
        i = _BLANK.match(text, start).end()
        while i < len(text):
            m = token.match(text, i)
            if m is None:
                raise error(f"unexpected character {text[i]!r} at position {i}")
            kind, val = m.lastgroup, m.group()
            if kind == "int":
                val = self.integer(val, i)
            elif kind == "punct":
                kind = val
            self.toks.append(Tok(kind, val, i))
            i = _BLANK.match(text, m.end()).end()
        self.toks.append(Tok("end", None, len(text)))
        self.i = 0

    def integer(self, digits: str, pos: int) -> int:
        """int(digits), or the grammar's error past Python's limit on the
        digits of one int (4,300 by default)."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"integer of {len(digits)} digits at position {pos}") from None

    def peek(self) -> Tok:
        return self.toks[self.i]

    def take(self, kind: str | None = None) -> Tok:
        t = self.toks[self.i]
        if t.kind == "end":
            raise self.error(f"unexpected end of expression at position {t.pos}")
        if kind is not None and t.kind != kind:
            raise self.error(f"expected {kind!r} but found {t.val!r} at position {t.pos}")
        self.i += 1
        return t
