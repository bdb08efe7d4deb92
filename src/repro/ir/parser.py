"""Parser for the textual IR produced by :mod:`repro.ir.printer`.

The format is line-oriented; see the printer docstring for a sample.  The
parser supports forward references (e.g. a loop phi referencing the
increment defined later in the block) by inserting placeholders that are
patched once the whole function has been read.
"""

from __future__ import annotations

import re

from .basicblock import BasicBlock
from .function import Function
from .instructions import (Alloc, BinOp, Branch, Call, Cast, Cmp, GEP,
                           Instruction, Jump, Load, Phi, Prefetch, Ret,
                           Select, Store)
from .module import Module
from .types import FloatType, PointerType, Type, INT1, INT64, parse_type
from .values import Constant, UndefValue, Value


class ParseError(Exception):
    """Raised on malformed textual IR."""


_FUNC_RE = re.compile(
    r"^func(?P<pure>\s+pure)?\s+@(?P<name>[\w.]+)\((?P<params>[^)]*)\)"
    r"\s*->\s*(?P<ret>[\w*]+)\s*\{$")
_LABEL_RE = re.compile(r"^(?P<name>[\w.]+):$")
_PHI_ARM_RE = re.compile(r"\[([^,\]]+),\s*([\w.]+)\]")


class _Forward(UndefValue):
    """Placeholder for a value referenced before its definition."""

    def __init__(self, type: Type, ref_name: str):
        super().__init__(type, ref_name)
        self.ref_name = ref_name


class _FunctionParser:
    def __init__(self, func: Function, lines: list[str],
                 module: Module):
        self.func = func
        self.lines = lines
        self.module = module
        self.values: dict[str, Value] = {a.name: a for a in func.args}
        self.forwards: list[_Forward] = []

    def parse(self) -> None:
        # Pass 1: create all blocks so branch targets resolve.
        for line in self.lines:
            m = _LABEL_RE.match(line)
            if m:
                self.func.add_block(m.group("name"))
        if not self.func.blocks:
            raise ParseError(f"function {self.func.name} has no blocks")

        # Pass 2: parse instructions into their blocks.
        current: BasicBlock | None = None
        for line in self.lines:
            m = _LABEL_RE.match(line)
            if m:
                current = self.func.block(m.group("name"))
                continue
            if current is None:
                raise ParseError(f"instruction before first label: {line}")
            inst = self.parse_instruction(line)
            current.append(inst)

        # Patch forward references.
        for fwd in self.forwards:
            target = self.values.get(fwd.ref_name)
            if target is None:
                raise ParseError(
                    f"{self.func.name}: undefined value %{fwd.ref_name}")
            fwd.replace_all_uses_with(target)

    # -- helpers ---------------------------------------------------------

    def define(self, name: str, value: Value) -> Value:
        if name in self.values:
            raise ParseError(
                f"{self.func.name}: redefinition of %{name}")
        value.name = name
        self.values[name] = value
        return value

    def ref(self, token: str, type: Type) -> Value:
        token = token.strip()
        if token.startswith("%"):
            name = token[1:]
            value = self.values.get(name)
            if value is None:
                value = _Forward(type, name)
                self.forwards.append(value)
            return value
        if token.startswith("undef:"):
            return UndefValue(parse_type(token[6:]))
        try:
            if isinstance(type, FloatType):
                return Constant(type, float(token))
            return Constant(type, int(token))
        except ValueError:
            raise ParseError(f"bad operand token {token!r}") from None

    def block_ref(self, name: str) -> BasicBlock:
        return self.func.block(name.strip())

    # -- instruction parsing ------------------------------------------------

    def parse_instruction(self, line: str) -> Instruction:
        name = ""
        body = line
        if line.startswith("%"):
            lhs, _, body = line.partition("=")
            name = lhs.strip()[1:]
            body = body.strip()
        parts = body.split(None, 1)
        if not parts:
            raise ParseError(f"empty instruction line: {line!r}")
        opcode, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        inst = self._dispatch(opcode, rest, line)
        if name:
            self.define(name, inst)
        return inst

    def _dispatch(self, opcode: str, rest: str, line: str) -> Instruction:
        if opcode in BinOp.INT_OPS + BinOp.FLOAT_OPS:
            type_tok, ops = rest.split(None, 1)
            t = parse_type(type_tok)
            a, b = (s.strip() for s in ops.split(","))
            return BinOp(opcode, self.ref(a, t), self.ref(b, t))
        if opcode == "cmp":
            pred, type_tok, ops = rest.split(None, 2)
            t = parse_type(type_tok)
            a, b = (s.strip() for s in ops.split(","))
            return Cmp(pred, self.ref(a, t), self.ref(b, t))
        if opcode == "select":
            type_tok, ops = rest.split(None, 1)
            t = parse_type(type_tok)
            c, a, b = (s.strip() for s in ops.split(","))
            return Select(self.ref(c, INT1), self.ref(a, t), self.ref(b, t))
        if opcode in Cast.OPS:
            from_tok, value_tok, to_kw, to_tok = rest.split()
            if to_kw != "to":
                raise ParseError(f"malformed cast: {line!r}")
            return Cast(opcode, self.ref(value_tok, parse_type(from_tok)),
                        parse_type(to_tok))
        if opcode == "alloc":
            elem_tok, count_tok = (s.strip() for s in rest.split(","))
            return Alloc(parse_type(elem_tok), self.ref(count_tok, INT64))
        if opcode == "gep":
            type_tok, ops = rest.split(None, 1)
            t = parse_type(type_tok)
            base, index = (s.strip() for s in ops.split(","))
            return GEP(self.ref(base, t), self.ref(index, INT64))
        if opcode == "load":
            type_tok, ptr_tok = rest.split()
            return Load(self.ref(ptr_tok, parse_type(type_tok)))
        if opcode == "store":
            type_tok, ops = rest.split(None, 1)
            t = parse_type(type_tok)
            value_tok, ptr_tok = (s.strip() for s in ops.split(","))
            return Store(self.ref(value_tok, t),
                         self.ref(ptr_tok, PointerType(t)))
        if opcode == "prefetch":
            type_tok, ptr_tok = rest.split()
            return Prefetch(self.ref(ptr_tok, parse_type(type_tok)))
        if opcode == "phi":
            type_tok, arms_text = rest.split(None, 1)
            t = parse_type(type_tok)
            phi = Phi(t)
            for value_tok, block_name in _PHI_ARM_RE.findall(arms_text):
                phi.add_incoming(self.ref(value_tok, t),
                                 self.block_ref(block_name))
            return phi
        if opcode == "br":
            cond_tok, then_name, else_name = (
                s.strip() for s in rest.split(","))
            return Branch(self.ref(cond_tok, INT1),
                          self.block_ref(then_name),
                          self.block_ref(else_name))
        if opcode == "jmp":
            return Jump(self.block_ref(rest))
        if opcode == "ret":
            if not rest.strip():
                return Ret()
            type_tok, value_tok = rest.split()
            return Ret(self.ref(value_tok, parse_type(type_tok)))
        if opcode == "call":
            m = re.match(r"@([\w.]+)\((.*)\)$", rest.strip())
            if not m:
                raise ParseError(f"malformed call: {line!r}")
            callee = self.module.function(m.group(1))
            args = []
            arg_text = m.group(2).strip()
            if arg_text:
                for piece in arg_text.split(","):
                    type_tok, value_tok = piece.split()
                    args.append(self.ref(value_tok, parse_type(type_tok)))
            return Call(callee, args)
        raise ParseError(f"unknown opcode {opcode!r} in line: {line!r}")


def parse_module(text: str, name: str = "module") -> Module:
    """Parse a whole module from text; raises :class:`ParseError`."""
    module = Module(name)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines
             if ln and not ln.startswith("#") and not ln.startswith(";")]
    i = 0
    # First register all function signatures so calls resolve across
    # definition order.
    pending: list[tuple[Function, list[str]]] = []
    while i < len(lines):
        m = _FUNC_RE.match(lines[i])
        if not m:
            raise ParseError(f"expected function header, got: {lines[i]!r}")
        params = []
        params_text = m.group("params").strip()
        if params_text:
            for piece in params_text.split(","):
                pname, ptype = (s.strip() for s in piece.split(":"))
                if not pname.startswith("%"):
                    raise ParseError(f"bad parameter name {pname!r}")
                params.append((pname[1:], parse_type(ptype)))
        func = module.create_function(
            m.group("name"), parse_type(m.group("ret")), params,
            pure=bool(m.group("pure")))
        i += 1
        body: list[str] = []
        while i < len(lines) and lines[i] != "}":
            body.append(lines[i])
            i += 1
        if i == len(lines):
            raise ParseError(f"unterminated function @{func.name}")
        i += 1  # skip '}'
        pending.append((func, body))
    for func, body in pending:
        _FunctionParser(func, body, module).parse()
    return module


def parse_function(text: str) -> Function:
    """Parse a single function (convenience wrapper)."""
    module = parse_module(text)
    funcs = module.functions
    if len(funcs) != 1:
        raise ParseError(f"expected exactly one function, got {len(funcs)}")
    return funcs[0]
