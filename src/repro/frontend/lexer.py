"""Lexer for the C-like frontend language.

The language is a small C subset: ``long``/``double``/pointer types,
functions, ``if``/``while``/``for``, array indexing, and a ``prefetch``
builtin — enough to write every kernel in this repository at source
level (see ``examples/clike_frontend.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

KEYWORDS = frozenset({
    "long", "double", "void", "if", "else", "while", "for", "return",
    "prefetch", "pure", "restrict",
})

#: Multi-character operators, longest first so maximal munch works.
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


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens (comments ``//`` and ``/* */``)."""
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i)
            if end < 0:
                raise LexError(f"line {line}: unterminated comment")
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            i = j
            continue
        if ch.isdigit():
            j = i
            if source.startswith("0x", i) or source.startswith("0X", i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                if j == i + 2:
                    raise LexError(f"line {line}: hex constant "
                                   f"{source[i:j]!r} has no digits")
                tokens.append(_int_token(source[i:j], line))
                i = j
                continue
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and \
                    source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
                tokens.append(Token("float", source[i:j], line))
            else:
                text = source[i:j]
                # A leading 0 makes an integer octal, as in C.
                if text[0] == "0" and ("8" in text or "9" in text):
                    raise LexError(f"line {line}: invalid digit in "
                                   f"octal constant {text!r}")
                tokens.append(_int_token(text, line))
            i = j
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line))
                i += len(op)
                break
        else:
            raise LexError(f"line {line}: unexpected character {ch!r}")
    tokens.append(Token("eof", "", line))
    return tokens
