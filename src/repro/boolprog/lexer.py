"""Tokenizer for the Boolean program concrete syntax."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from .errors import ParseError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = {
    "decl",
    "begin",
    "end",
    "skip",
    "call",
    "return",
    "if",
    "then",
    "else",
    "fi",
    "while",
    "do",
    "od",
    "goto",
    "assert",
    "assume",
    "shared",
    "thread",
    "init",
    "T",
    "F",
}

_TOKEN_SPEC = [
    ("COMMENT", r"//[^\n]*|/\*.*?\*/"),
    ("WS", r"[ \t\r\n]+"),
    ("ASSIGN", r":="),
    ("NEQ", r"!="),
    ("EQEQ", r"=="),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("PUNCT", r"[():,;]"),
    ("OP", r"[!&|^*]"),
    ("LABEL", r":"),
]

_MASTER = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC), re.DOTALL)


@dataclass(frozen=True)
class Token:
    """A lexical token with its source position (1-based line/column)."""

    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize Boolean-program source text.

    Keywords are reported with kind ``KEYWORD``; identifiers with ``IDENT``;
    punctuation and operators with their literal text as kind.  Comments and
    whitespace are dropped.  An :class:`~repro.boolprog.errors.ParseError` is
    raised on unexpected characters.
    """
    tokens: List[Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(source):
        match = _MASTER.match(source, position)
        if match is None:
            column = position - line_start + 1
            raise ParseError(f"unexpected character {source[position]!r}", line, column)
        kind = match.lastgroup
        text = match.group()
        column = position - line_start + 1
        if kind not in ("WS", "COMMENT"):
            if kind == "IDENT" and text in KEYWORDS:
                tokens.append(Token("KEYWORD", text, line, column))
            elif kind in ("PUNCT", "OP", "ASSIGN", "NEQ", "EQEQ"):
                tokens.append(Token(text, text, line, column))
            else:
                tokens.append(Token(kind, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = position + text.rfind("\n") + 1
        position = match.end()
    tokens.append(Token("EOF", "", line, position - line_start + 1))
    return tokens
