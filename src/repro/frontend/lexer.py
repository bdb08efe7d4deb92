"""Lexer for the C-like frontend language.

The language is a small C subset: ``long``/``double``/pointer types,
functions, ``if``/``while``/``for``, array indexing, and a ``prefetch``
builtin — enough to write every kernel in this repository at source
level (see ``examples/clike_frontend.py``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

KEYWORDS = frozenset({
    "long", "double", "void", "if", "else", "while", "for", "return",
    "prefetch", "pure", "restrict",
})

#: Operators, longest first so maximal munch works.
_OPERATORS = (
    "<<=", ">>=", "&&", "||", "==", "!=", "<=", ">=", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
)


@dataclass
class Token:
    """One lexical token.

    :ivar kind: ``ident``, ``number``, ``float``, ``keyword``, ``op`` or
        ``eof``.
    :ivar text: the exact source text.
    :ivar line: 1-based source line (for error messages).
    """

    kind: str
    text: str
    line: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


class LexError(Exception):
    """Raised on characters the language does not know."""


def int_value(text: str) -> int:
    """The value of an integer-constant token: hex after ``0x``, octal
    after a leading ``0`` (as in C), else decimal."""
    octal = text[0] == "0" and text[1:2].isdigit()
    return int(text, 8 if octal else 0)


def _int_token(text: str, line: int) -> Token:
    """An integer-constant token, which must fit in 64 bits.  The IR
    reads values from ``2**63`` up as two's complement, so a mask such
    as ``0xFFFFFFFFFFFFFFFF`` is -1; from ``2**64`` up, bits would be
    lost silently."""
    if int_value(text) >= 1 << 64:
        raise LexError(f"line {line}: integer constant {text!r} does "
                       f"not fit in 64 bits")
    return Token("number", text, line)


#: One alternative per token class, tried in order at each position;
#: ``bad`` catches any other character, so matches tile the source.  A
#: block comment ends at the first ``*/`` after its opening ``/*``, as
#: in C (so ``/*/`` opens one).  A ``word`` may start with a character
#: ``\w`` accepts but that is not a letter (``²``); :func:`tokenize`
#: rejects those.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<unterminated>/\*)
  | (?P<word>[^\W\d]\w*)
  | (?P<hex>0[xX][0-9a-fA-F]*)
  | (?P<float>[0-9]+\.[0-9]+)
  | (?P<number>[0-9]+)
  | (?P<op>""" + "|".join(map(re.escape, _OPERATORS)) + r""")
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens (comments ``//`` and ``/* */``).

    Numbers are ASCII digits only; any other character that is not a
    letter, ``_``, an operator or white space is a :class:`LexError`."""
    tokens: list[Token] = []
    line = 1
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "space" or kind == "comment":
            line += text.count("\n")
        elif kind == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(
                    f"line {line}: unexpected character {text[0]!r}")
            tokens.append(Token(
                "keyword" if text in KEYWORDS else "ident", text, line))
        elif kind == "op":
            tokens.append(Token("op", text, line))
        elif kind == "number":
            # A leading 0 makes an integer octal, as in C.
            if text[0] == "0" and ("8" in text or "9" in text):
                raise LexError(f"line {line}: invalid digit in "
                               f"octal constant {text!r}")
            tokens.append(_int_token(text, line))
        elif kind == "hex":
            if len(text) == 2:
                raise LexError(f"line {line}: hex constant "
                               f"{text!r} has no digits")
            tokens.append(_int_token(text, line))
        elif kind == "float":
            if math.isinf(float(text)):
                raise LexError(f"line {line}: floating constant "
                               f"{text!r} does not fit in a double")
            tokens.append(Token("float", text, line))
        elif kind == "unterminated":
            raise LexError(f"line {line}: unterminated comment")
        else:
            raise LexError(f"line {line}: unexpected character {text!r}")
    tokens.append(Token("eof", "", line))
    return tokens
