"""A C-like frontend that lowers to the repro IR.

Example::

    from repro.frontend import compile_source

    module = compile_source(\"\"\"
        void count(long* keys, long* buckets, long n) {
            for (long i = 0; i < n; i++)
                buckets[keys[i]] += 1;
        }
    \"\"\")

The resulting module is in SSA form (mem2reg has run), so the prefetch
pass can find its induction variables.
"""

from . import ast
from .lexer import LexError, Token, tokenize
from .lowering import LoweringError, compile_source, lower_program
from .parser import Parser, SyntaxErrorC, parse_source

#: The errors that mean the source itself is wrong.  Any other exception
#: from the compile path is a compiler bug.
SOURCE_ERRORS = (LexError, SyntaxErrorC, LoweringError)

__all__ = [
    "ast", "LexError", "Token", "tokenize",
    "LoweringError", "compile_source", "lower_program",
    "Parser", "SyntaxErrorC", "parse_source", "SOURCE_ERRORS",
]
