"""Recursive-descent parser for the C-like frontend."""

from __future__ import annotations

from . import ast
from .lexer import Token, int_value, tokenize


class SyntaxErrorC(Exception):
    """Raised on malformed frontend source."""


#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>=")

#: Deepest nesting the parser accepts, over one budget: each statement
#: (blocks and ``if``/``while``/``for`` bodies nest), each expression
#: (so each parenthesis, index, call argument and ternary arm) and each
#: unary operator is a level.  At this depth every construct still
#: compiles and round-trips within Python's default recursion limit;
#: deeper source is a ``SyntaxErrorC``, never a ``RecursionError``.
MAX_NESTING = 100


class Parser:
    """Parses a token stream into a :class:`~repro.frontend.ast.Program`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token helpers --------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, text: str) -> bool:
        return self.current.text == text and self.current.kind in (
            "op", "keyword")

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise SyntaxErrorC(
                f"line {self.current.line}: expected {text!r}, got "
                f"{self.current.text!r}")
        return self.advance()

    def expect_ident(self) -> str:
        if self.current.kind != "ident":
            raise SyntaxErrorC(
                f"line {self.current.line}: expected identifier, got "
                f"{self.current.text!r}")
        return self.advance().text

    def nest(self) -> None:
        """Enter one more level of nesting (see :data:`MAX_NESTING`);
        the caller steps back out with ``self.depth -= 1``.  A parse
        that raises is abandoned, so no ``finally`` is needed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxErrorC(
                f"line {self.current.line}: nesting deeper than "
                f"{MAX_NESTING} levels")

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        functions = []
        while self.current.kind != "eof":
            functions.append(self.parse_function())
        return ast.Program(functions)

    def _at_type(self) -> bool:
        return self.current.kind == "keyword" and self.current.text in (
            "long", "double", "void")

    def parse_type(self) -> ast.TypeName:
        if not self._at_type():
            raise SyntaxErrorC(
                f"line {self.current.line}: expected a type, got "
                f"{self.current.text!r}")
        base = self.advance().text
        pointers = 0
        while self.accept("*"):
            pointers += 1
        return ast.TypeName(base, pointers)

    def parse_function(self) -> ast.FunctionDef:
        line = self.current.line
        pure = self.accept("pure")
        return_type = self.parse_type()
        name = self.expect_ident()
        self.expect("(")
        params = []
        if not self.check(")"):
            while True:
                ptype = self.parse_type()
                restrict = self.accept("restrict")
                pname = self.expect_ident()
                params.append(ast.Param(ptype, pname,
                                        restrict=restrict))
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.parse_block()
        return ast.FunctionDef(name, return_type, params, body,
                               pure=pure, line=line)

    def parse_block(self) -> list[ast.Stmt]:
        self.expect("{")
        statements = []
        while not self.accept("}"):
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> ast.Stmt:
        self.nest()
        stmt = self._statement()
        self.depth -= 1
        return stmt

    def _statement(self) -> ast.Stmt:
        line = self.current.line
        if self.check("{"):
            # A bare block: flatten it as an If(true) would be overkill;
            # represent it as an If with constant-true condition.
            return ast.If(ast.IntLiteral(1, line=line),
                          self.parse_block(), [], line=line)
        if self._at_type():
            decl_type = self.parse_type()
            name = self.expect_ident()
            init = None
            if self.accept("="):
                init = self.parse_expression()
            self.expect(";")
            return ast.Declaration(decl_type, name, init, line=line)
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            then = self._branch_body()
            otherwise: list[ast.Stmt] = []
            if self.accept("else"):
                otherwise = self._branch_body()
            return ast.If(cond, then, otherwise, line=line)
        if self.accept("while"):
            self.expect("(")
            cond = self.parse_expression()
            self.expect(")")
            return ast.While(cond, self._branch_body(), line=line)
        if self.accept("for"):
            self.expect("(")
            init = None if self.check(";") else self._simple_statement()
            self.expect(";")
            cond = None if self.check(";") else self.parse_expression()
            self.expect(";")
            step = None if self.check(")") else self._simple_statement()
            self.expect(")")
            return ast.For(init, cond, step, self._branch_body(),
                           line=line)
        if self.accept("return"):
            value = None if self.check(";") else self.parse_expression()
            self.expect(";")
            return ast.Return(value, line=line)
        if self.accept("prefetch"):
            self.expect("(")
            target = self.parse_expression()
            self.expect(")")
            self.expect(";")
            return ast.PrefetchStmt(target, line=line)
        stmt = self._simple_statement()
        self.expect(";")
        return stmt

    def _branch_body(self) -> list[ast.Stmt]:
        if self.check("{"):
            return self.parse_block()
        return [self.parse_statement()]

    def _simple_statement(self) -> ast.Stmt:
        """An assignment, increment, declaration, or expression (no ';')."""
        line = self.current.line
        if self._at_type():
            decl_type = self.parse_type()
            name = self.expect_ident()
            init = None
            if self.accept("="):
                init = self.parse_expression()
            return ast.Declaration(decl_type, name, init, line=line)
        expr = self.parse_expression()
        if self.current.kind == "op" and self.current.text in _ASSIGN_OPS:
            op = self.advance().text
            value = self.parse_expression()
            return ast.Assign(expr, op, value, line=line)
        if self.current.kind == "op" and self.current.text in ("++", "--"):
            op = self.advance().text
            one = ast.IntLiteral(1, line=line)
            return ast.Assign(expr, "+=" if op == "++" else "-=", one,
                              line=line)
        return ast.ExprStmt(expr, line=line)

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        self.nest()
        expr = self.parse_ternary()
        self.depth -= 1
        return expr

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_expression()
            self.expect(":")
            otherwise = self.parse_expression()
            return ast.Ternary(cond, then, otherwise, line=cond.line)
        return cond

    def parse_binary(self, min_precedence: int) -> ast.Expr:
        lhs = self.parse_unary()
        while self.current.kind == "op" and \
                _PRECEDENCE.get(self.current.text, -1) >= min_precedence:
            op = self.advance().text
            rhs = self.parse_binary(_PRECEDENCE[op] + 1)
            lhs = ast.Binary(op, lhs, rhs, line=lhs.line)
        return lhs

    def parse_unary(self) -> ast.Expr:
        line = self.current.line
        if self.current.kind == "op" and self.current.text in ("-", "!",
                                                               "~"):
            op = self.advance().text
            self.nest()
            operand = self.parse_unary()
            self.depth -= 1
            return ast.Unary(op, operand, line=line)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            if self.accept("["):
                index = self.parse_expression()
                self.expect("]")
                expr = ast.Index(expr, index, line=expr.line)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            return ast.IntLiteral(int_value(token.text), line=token.line)
        if token.kind == "float":
            self.advance()
            return ast.FloatLiteral(float(token.text), line=token.line)
        if token.kind == "ident":
            name = self.advance().text
            if self.accept("("):
                args = []
                if not self.check(")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self.accept(","):
                            break
                self.expect(")")
                return ast.CallExpr(name, args, line=token.line)
            return ast.VarRef(name, line=token.line)
        if self.accept("("):
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise SyntaxErrorC(
            f"line {token.line}: unexpected token {token.text!r}")


def parse_source(source: str) -> ast.Program:
    """Tokenise and parse a translation unit."""
    return Parser(tokenize(source)).parse_program()
