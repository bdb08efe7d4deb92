"""Lowering from the C-like AST to repro IR.

Local variables become one-element ``alloc`` slots in the entry block
with explicit loads and stores; :class:`repro.passes.mem2reg.Mem2RegPass`
then promotes them to SSA registers, after which loop counters are
visible to the induction-variable analysis (and hence the prefetch pass).
"""

from __future__ import annotations

from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import Alloc, Jump
from ..ir.module import Module
from ..ir.types import (FLOAT64, INT1, INT64, PointerType, Type, VOID,
                        FloatType, IntType)
from ..ir.values import Constant, Value
from ..ir.verifier import verify_module
from ..passes.constfold import ConstantFoldingPass
from ..passes.dce import DeadCodeEliminationPass
from ..passes.mem2reg import Mem2RegPass
from . import ast
from .parser import parse_source


class LoweringError(Exception):
    """Raised on semantic errors (unknown names, type mismatches...)."""


def _lower_type(t: ast.TypeName, line: int) -> Type:
    base: Type
    if t.base == "long":
        base = INT64
    elif t.base == "double":
        base = FLOAT64
    elif t.base == "void":
        if t.pointers:
            raise LoweringError(f"line {line}: void pointers are not "
                                "supported")
        base = VOID
    else:  # pragma: no cover - parser guarantees the base
        raise LoweringError(f"unknown type {t.base}")
    for _ in range(t.pointers):
        base = PointerType(base)
    return base


_INT_BINOPS = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv",
               "%": "srem", "&": "and", "|": "or", "^": "xor",
               "<<": "shl", ">>": "ashr"}
_FLOAT_BINOPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
_INT_CMPS = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
             ">": "sgt", ">=": "sge"}
_FLOAT_CMPS = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole",
               ">": "ogt", ">=": "oge"}


class _FunctionLowering:
    def __init__(self, module: Module, func: Function,
                 definition: ast.FunctionDef):
        self.module = module
        self.func = func
        self.definition = definition
        self.builder = IRBuilder()
        self.scopes: list[dict[str, Value]] = [{}]
        self.entry = func.add_block("entry")
        self.entry_jump: Jump | None = None
        #: How many blocks :meth:`_new_block` has made per base name.
        self.block_counts: dict[str, int] = {}

    # -- scope helpers --------------------------------------------------

    def declare(self, name: str, slot: Value) -> None:
        scope = self.scopes[-1]
        if name in scope:
            raise LoweringError(f"redeclaration of {name!r}")
        scope[name] = slot

    def lookup(self, name: str) -> Value:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise LoweringError(f"unknown variable {name!r}")

    # -- driver -----------------------------------------------------------

    def lower(self) -> None:
        body_start = self.func.add_block("body")
        self.builder.set_insert_point(self.entry)
        self.entry_jump = self.builder.jmp(body_start)
        self.builder.set_insert_point(body_start)

        # Parameters get slots too, so they are assignable like in C.
        for arg in self.func.args:
            slot = self._entry_alloc(arg.type, arg.name)
            self.builder.store(arg, slot)
            self.declare(arg.name, slot)

        self.lower_statements(self.definition.body)
        if self.builder.block.terminator is None:
            if isinstance(self.func.return_type, IntType):
                self.builder.ret(Constant(self.func.return_type, 0))
            elif isinstance(self.func.return_type, FloatType):
                self.builder.ret(Constant(self.func.return_type, 0.0))
            else:
                self.builder.ret()

    def _entry_alloc(self, type: Type, name: str) -> Alloc:
        alloc = Alloc(type, Constant(INT64, 1), name)
        self.entry.insert_before(self.entry_jump, alloc)
        return alloc

    def _new_block(self, name: str) -> BasicBlock:
        # Repeated constructs (nested loops, chains of ifs) reuse the
        # same base names: the first block of a base takes the bare name,
        # the next ones ``name.1``, ``name.2``, ...  No base ends in
        # ``.<digits>``, so these never collide.
        count = self.block_counts.get(name, 0)
        self.block_counts[name] = count + 1
        return self.func.add_block(f"{name}.{count}" if count else name)

    # -- statements ----------------------------------------------------------

    def lower_statements(self, statements: list[ast.Stmt]) -> None:
        self.scopes.append({})
        for stmt in statements:
            self.lower_statement(stmt)
        self.scopes.pop()

    def lower_statement(self, stmt: ast.Stmt) -> None:
        if self.builder.block.terminator is not None:
            # Unreachable code after return: lower into a fresh dead
            # block so construction stays well-formed.
            self.builder.set_insert_point(self._new_block("dead"))
        if isinstance(stmt, ast.Declaration):
            var_type = _lower_type(stmt.type, stmt.line)
            if isinstance(var_type, type(VOID)):
                raise LoweringError(
                    f"line {stmt.line}: cannot declare void variable")
            slot = self._entry_alloc(var_type, stmt.name)
            self.declare(stmt.name, slot)
            if stmt.init is not None:
                value = self.lower_expr(stmt.init, expect=var_type)
                self.builder.store(value, slot)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, ast.PrefetchStmt):
            if not isinstance(stmt.target, ast.Index):
                raise LoweringError(
                    f"line {stmt.line}: prefetch needs array[index]")
            ptr = self._lower_address(stmt.target)
            self.builder.prefetch(ptr)
        elif isinstance(stmt, ast.Return):
            value = None
            if stmt.value is not None:
                value = self.lower_expr(stmt.value,
                                        expect=self.func.return_type)
            elif not isinstance(self.func.return_type, type(VOID)):
                raise LoweringError(
                    f"line {stmt.line}: non-void function must return "
                    f"a value")
            self.builder.ret(value)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        else:  # pragma: no cover - parser produces no other nodes
            raise LoweringError(f"cannot lower {type(stmt).__name__}")

    def _lower_assign(self, stmt: ast.Assign) -> None:
        if isinstance(stmt.target, ast.VarRef):
            slot = self.lookup(stmt.target.name)
            target_type = slot.type.pointee  # type: ignore[attr-defined]
            ptr = slot
        elif isinstance(stmt.target, ast.Index):
            ptr = self._lower_address(stmt.target)
            target_type = ptr.type.pointee  # type: ignore[attr-defined]
        else:
            raise LoweringError(
                f"line {stmt.line}: cannot assign to this expression")
        value = self.lower_expr(stmt.value, expect=target_type)
        if stmt.op != "=":
            current = self.builder.load(ptr, "cur")
            opcode = self._binop_opcode(stmt.op[:-1], target_type,
                                        stmt.line)
            value = self.builder.binop(opcode, current, value)
        self.builder.store(value, ptr)

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self.lower_condition(stmt.cond)
        then_block = self._new_block("if.then")
        merge = self._new_block("if.end")
        else_block = self._new_block("if.else") if stmt.otherwise else merge
        self.builder.br(cond, then_block, else_block)
        self.builder.set_insert_point(then_block)
        self.lower_statements(stmt.then)
        if self.builder.block.terminator is None:
            self.builder.jmp(merge)
        if stmt.otherwise:
            self.builder.set_insert_point(else_block)
            self.lower_statements(stmt.otherwise)
            if self.builder.block.terminator is None:
                self.builder.jmp(merge)
        self.builder.set_insert_point(merge)

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._new_block("while.cond")
        body = self._new_block("while.body")
        exit_block = self._new_block("while.end")
        self.builder.jmp(header)
        self.builder.set_insert_point(header)
        cond = self.lower_condition(stmt.cond)
        self.builder.br(cond, body, exit_block)
        self.builder.set_insert_point(body)
        self.lower_statements(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.jmp(header)
        self.builder.set_insert_point(exit_block)

    def _lower_for(self, stmt: ast.For) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self.lower_statement(stmt.init)
        header = self._new_block("for.cond")
        body = self._new_block("for.body")
        exit_block = self._new_block("for.end")
        self.builder.jmp(header)
        self.builder.set_insert_point(header)
        if stmt.cond is not None:
            cond = self.lower_condition(stmt.cond)
            self.builder.br(cond, body, exit_block)
        else:
            self.builder.jmp(body)
        self.builder.set_insert_point(body)
        self.lower_statements(stmt.body)
        if stmt.step is not None and \
                self.builder.block.terminator is None:
            self.lower_statement(stmt.step)
        if self.builder.block.terminator is None:
            self.builder.jmp(header)
        self.builder.set_insert_point(exit_block)
        self.scopes.pop()

    # -- expressions ------------------------------------------------------------

    def lower_condition(self, expr: ast.Expr) -> Value:
        """Lower an expression used as a branch condition to an i1."""
        if isinstance(expr, ast.Binary) and expr.op in _INT_CMPS:
            lhs = self.lower_expr(expr.lhs)
            rhs = self.lower_expr(expr.rhs, expect=lhs.type)
            table = _FLOAT_CMPS if isinstance(lhs.type, FloatType) \
                else _INT_CMPS
            return self.builder.cmp(table[expr.op], lhs, rhs)
        value = self.lower_expr(expr)
        if value.type == INT1:
            return value
        zero = Constant(value.type, 0)
        return self.builder.cmp(
            "one" if isinstance(value.type, FloatType) else "ne",
            value, zero)

    def _binop_opcode(self, op: str, type: Type, line: int) -> str:
        if isinstance(type, FloatType):
            opcode = _FLOAT_BINOPS.get(op)
        else:
            opcode = _INT_BINOPS.get(op)
        if opcode is None:
            raise LoweringError(
                f"line {line}: operator {op!r} not supported for {type}")
        return opcode

    def lower_expr(self, expr: ast.Expr,
                   expect: Type | None = None) -> Value:
        value = self._lower_expr_inner(expr)
        if expect is not None and value.type != expect:
            if isinstance(value, Constant) and \
                    isinstance(expect, (IntType, FloatType)):
                return Constant(expect, value.value)
            raise LoweringError(
                f"line {expr.line}: expected {expect}, got {value.type}")
        return value

    def _lower_expr_inner(self, expr: ast.Expr) -> Value:
        b = self.builder
        if isinstance(expr, ast.IntLiteral):
            return Constant(INT64, expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return Constant(FLOAT64, expr.value)
        if isinstance(expr, ast.VarRef):
            slot = self.lookup(expr.name)
            return b.load(slot, expr.name)
        if isinstance(expr, ast.Index):
            return b.load(self._lower_address(expr))
        if isinstance(expr, ast.Unary):
            operand = self._lower_expr_inner(expr.operand)
            if expr.op == "-":
                zero = Constant(operand.type, 0)
                opcode = "fsub" if isinstance(operand.type, FloatType) \
                    else "sub"
                return b.binop(opcode, zero, operand)
            if expr.op == "~":
                return b.xor(operand, Constant(operand.type, -1))
            if expr.op == "!":
                is_zero = b.cmp("eq", operand,
                                Constant(operand.type, 0))
                return b.cast("zext", is_zero, INT64)
            raise LoweringError(f"unknown unary operator {expr.op}")
        if isinstance(expr, ast.Binary):
            # The parser builds ``a + b + c`` left-deep, so a long flat
            # chain is walked down its left spine, not recursed into;
            # operands are still lowered left to right.
            spine = []
            while isinstance(expr, ast.Binary):
                spine.append(expr)
                expr = expr.lhs
            lhs = self._lower_expr_inner(expr)
            for node in reversed(spine):
                rhs = self.lower_expr(node.rhs, expect=lhs.type)
                lhs = self._lower_binary(node, lhs, rhs)
            return lhs
        if isinstance(expr, ast.Ternary):
            cond = self.lower_condition(expr.cond)
            then = self._lower_expr_inner(expr.then)
            otherwise = self.lower_expr(expr.otherwise, expect=then.type)
            return b.select(cond, then, otherwise)
        if isinstance(expr, ast.CallExpr):
            try:
                callee = self.module.function(expr.name)
            except KeyError:
                raise LoweringError(
                    f"line {expr.line}: unknown function "
                    f"{expr.name!r}") from None
            params = callee.type.param_types
            if len(params) != len(expr.args):
                raise LoweringError(
                    f"line {expr.line}: {expr.name} expects "
                    f"{len(params)} arguments")
            args = [self.lower_expr(a, expect=p)
                    for a, p in zip(expr.args, params)]
            return b.call(callee, args)
        raise LoweringError(
            f"cannot lower expression {type(expr).__name__}")

    def _lower_binary(self, expr: ast.Binary, lhs: Value,
                      rhs: Value) -> Value:
        b = self.builder
        if expr.op in _INT_CMPS:
            table = _FLOAT_CMPS if isinstance(lhs.type, FloatType) \
                else _INT_CMPS
            flag = b.cmp(table[expr.op], lhs, rhs)
            return b.cast("zext", flag, INT64)
        if expr.op in ("&&", "||"):
            # Non-short-circuit logical ops on 0/1 longs.
            opcode = "and" if expr.op == "&&" else "or"
            lb = b.cmp("ne", lhs, Constant(lhs.type, 0))
            rb = b.cmp("ne", rhs, Constant(rhs.type, 0))
            return b.binop(opcode, b.cast("zext", lb, INT64),
                           b.cast("zext", rb, INT64))
        opcode = self._binop_opcode(expr.op, lhs.type, expr.line)
        return b.binop(opcode, lhs, rhs)

    def _lower_address(self, expr: ast.Index) -> Value:
        base = self._lower_expr_inner(expr.base)
        if not isinstance(base.type, PointerType):
            raise LoweringError(
                f"line {expr.line}: indexing a non-pointer "
                f"({base.type})")
        index = self.lower_expr(expr.index, expect=INT64)
        return self.builder.gep(base, index)


def lower_program(program: ast.Program, name: str = "module",
                  optimize: bool = True) -> Module:
    """Lower a parsed program to IR (verified; optionally cleaned up by
    mem2reg + constant folding + DCE)."""
    module = Module(name)
    functions = []
    for definition in program.functions:
        line = definition.line
        if any(d.name == definition.name for _, d in functions):
            raise LoweringError(f"line {line}: redefinition of function "
                                f"{definition.name!r}")
        params = [(p.name, _lower_type(p.type, line))
                  for p in definition.params]
        for pname, ptype in params:
            if ptype is VOID:
                raise LoweringError(f"line {line}: parameter {pname!r} "
                                    "cannot be void")
        func = module.create_function(
            definition.name, _lower_type(definition.return_type, line),
            params, pure=definition.pure)
        for arg, param in zip(func.args, definition.params):
            arg.noalias = param.restrict
        functions.append((func, definition))
    for func, definition in functions:
        _FunctionLowering(module, func, definition).lower()
    verify_module(module)
    if optimize:
        Mem2RegPass().run(module)
        ConstantFoldingPass().run(module)
        DeadCodeEliminationPass().run(module)
        verify_module(module)
    return module


def compile_source(source: str, name: str = "module",
                   optimize: bool = True) -> Module:
    """Parse and lower C-like source to a verified IR module."""
    from ..obs.sinks import span
    with span("frontend", "compile_source", module=name,
              optimize=optimize):
        return lower_program(parse_source(source), name, optimize)
