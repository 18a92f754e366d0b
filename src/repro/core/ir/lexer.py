"""Lexer for the textual IL+XDP syntax.

Tokenises the paper's notation, including the multi-character transfer
operators, with one compiled master regex matched in a loop.  Longest-match
ordering lives in the regex alternation, which tries operators in order:
``-=>`` before ``->`` and ``-``; ``<=-`` before ``<=`` before ``<-`` and
``<``.  Comments run from ``//`` or ``#`` to end of line.  Newlines are
significant (statements are line-oriented) and are emitted as NEWLINE
tokens; consecutive newlines are collapsed.  A token's column counts
characters from the start of its line (a tab is one column); the closing
NEWLINE and EOF of a text that ends in a comment sit where the comment
starts.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

__all__ = ["Token", "tokenize"]


class Token(NamedTuple):
    kind: str       # NAME, INT, FLOAT, OP, NEWLINE, EOF
    text: str
    line: int
    col: int


_OPERATORS = [
    "-=>", "<=-", "<=", "<-", "->", "=>", ">=", "==", "!=",
    "(", ")", "[", "]", "{", "}", ",", ":", "+", "-", "*", "/", "%",
    "<", ">", "=",
]

_EXPONENT = r"[eE](?:[+-]\d*|\d+)"
# Alternatives are tried in order, the frequent ones first.  Blanks are
# folded into the token after them, and a comment into the newline that ends
# it (whose column is then the comment's); '/' is an operator only when no
# second '/' opens a comment.  A comment that ends the text (COMMENT), an
# unmatched character (ERROR) or the end of the text (no group) ends the
# loop.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<OP>" + "|".join(
        "/(?!/)" if op == "/" else re.escape(op) for op in _OPERATORS
    ) + ")"
    r"|(?P<NAME>[^\W\d]\w*)"
    r"|(?P<NEWLINE>(?:(?://|#)[^\n]*)?\n)"
    r"|(?P<COMMENT>(?://|#)[^\n]*)"
    rf"|(?P<FLOAT>(?:\d+\.\d*|\.\d+)(?:{_EXPONENT})?|\d+{_EXPONENT})"
    r"|(?P<INT>\d+)"
    r"|(?P<ERROR>.)"
    r")?"
)
_new_token = tuple.__new__  # Token(...) without NamedTuple's Python __new__


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the first character of the current line
    after_newline = True  # no NEWLINE token before the first other token
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # only blanks were left
            col = m.end() - line_start + 1
            break
        if kind == "NEWLINE":
            if not after_newline:
                append(_new_token(Token, (
                    "NEWLINE", "\n", line, m.start(kind) - line_start + 1)))
                after_newline = True
            line += 1
            line_start = m.end()
        elif kind == "COMMENT":
            col = m.start(kind) - line_start + 1
            break
        else:
            s = m.group(kind)
            # [^\W\d] also admits numeric characters such as '½'; a name
            # starts with a letter or '_'.
            if kind == "ERROR" or (
                kind == "NAME" and s[0] > "\x7f" and not s[0].isalpha()
            ):
                raise ParseError(f"unexpected character {s[0]!r}",
                                 line, m.start(kind) - line_start + 1)
            append(_new_token(Token, (kind, s, line, m.start(kind) - line_start + 1)))
            after_newline = False

    if not after_newline:
        append(Token("NEWLINE", "\n", line, col))
    append(Token("EOF", "", line, col))
    return tokens
