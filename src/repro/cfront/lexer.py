"""Tokenizer for the C subset used by TSVC kernels and SIMD candidates.

The keyword set includes the vector type name of every registered target
ISA (derived from :mod:`repro.targets`), so candidates for a new backend
lex without touching this module.
"""

from __future__ import annotations

import enum
import functools
import re
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.errors import LexError, SourceLocation
from repro.targets.isa import PREDICATE_TYPE_NAMES, VECTOR_TYPE_LANES


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    PUNCT = "punct"
    STRING = "string"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "int",
        "void",
        "char",
        "long",
        "short",
        "unsigned",
        "signed",
        "const",
        "if",
        "else",
        "for",
        "while",
        "do",
        "return",
        "break",
        "continue",
        "goto",
        "struct",
        "sizeof",
        "static",
        "extern",
        "int16_t",
        "int32_t",
        "int64_t",
    }
) | frozenset(VECTOR_TYPE_LANES) | PREDICATE_TYPE_NAMES

# Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = [
    "<<=",
    ">>=",
    "...",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "<<",
    ">>",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ";",
    ",",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ".",
]


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source location."""

    kind: TokenKind
    text: str
    location: SourceLocation

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.location})"


def _char_class(predicate: Callable[[str], bool]) -> str:
    """A regex character class body matching every code point ``predicate`` accepts."""
    ranges: list[str] = []
    low = None
    for code in range(sys.maxunicode + 2):
        inside = code <= sys.maxunicode and predicate(chr(code))
        if inside and low is None:
            low = code
        elif not inside and low is not None:
            ranges.append(f"{re.escape(chr(low))}-{re.escape(chr(code - 1))}")
            low = None
    return "".join(ranges)


def _token_pattern(digit: str, alpha: str) -> re.Pattern:
    """One alternation, a named group per lexical category, tried in order.

    ``digit``/``alpha`` are the character classes of ``str.isdigit`` and
    ``str.isalpha``; ``\\w`` is exactly ``str.isalnum`` plus ``_``.
    Comments, whitespace and ``#`` lines at column 1 are trivia; the
    ``open_*`` groups are unterminated constructs and ``other`` is any
    character no category accepts.
    """
    punct = "|".join(re.escape(p) for p in _PUNCTUATORS)
    groups = {
        "space": r"[ \t\r\n]+",
        "comment": r"//[^\n]*|/\*.*?\*/",
        "open_comment": r"/\*",
        "directive": r"#[^\n]*",
        "number": rf"0[xX][0-9a-fA-F]*[uUlL]*|[{digit}]+(?:\.[{digit}]+)?[uUlL]*",
        "ident": rf"[{alpha}_]\w*",
        "string": r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'',
        "open_string": r"[\"']",
        "punct": punct,
        "other": r".",
    }
    return re.compile("|".join(f"(?P<{name}>{body})" for name, body in groups.items()),
                      re.DOTALL)


_ASCII_PATTERN = _token_pattern("0-9", "A-Za-z")


@functools.cache
def _unicode_pattern() -> re.Pattern:
    """The pattern for non-ASCII sources, whose letters and digits follow
    ``str.isalpha``/``str.isdigit`` (built on first use)."""
    return _token_pattern(_char_class(str.isdigit), _char_class(str.isalpha))


def _end_location(source: str) -> SourceLocation:
    return SourceLocation(source.count("\n") + 1, len(source) - source.rfind("\n"))


#: Categories whose text may span lines; the line count advances past them.
_MULTILINE = frozenset({"space", "comment", "string"})


def iter_tokens(source: str) -> Iterator[Token]:
    """Yield tokens for ``source``, ending with a single EOF token."""
    pattern = _ASCII_PATTERN if source.isascii() else _unicode_pattern()
    line, line_start = 1, 0
    for match in pattern.finditer(source):
        kind = match.lastgroup
        start, end = match.span()
        if kind != "space" and kind != "comment":
            location = SourceLocation(line, start - line_start + 1)
            text = match.group()
            if kind == "ident":
                yield Token(TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
                            text, location)
            elif kind == "punct":
                yield Token(TokenKind.PUNCT, text, location)
            elif kind == "number":
                yield Token(TokenKind.NUMBER, text, location)
            elif kind == "string":
                yield Token(TokenKind.STRING, text[1:-1], location)
            elif kind == "directive":
                # Preprocessor directives (#include <immintrin.h>) are ignored;
                # intrinsic semantics are supplied by repro.intrinsics.
                if location.column != 1:
                    raise LexError("unexpected character '#'", location)
            elif kind == "open_comment":
                raise LexError("unterminated block comment", _end_location(source))
            elif kind == "open_string":
                raise LexError("unterminated string literal", location)
            else:
                raise LexError(f"unexpected character {text!r}", location)
        if kind in _MULTILINE:
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, end) + 1
    yield Token(TokenKind.EOF, "", _end_location(source))


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` into a list ending with an EOF token."""
    return list(iter_tokens(source))
