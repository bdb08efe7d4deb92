"""Tests for the C-like frontend: lexer, parser, lowering, execution."""

import pytest

from repro.frontend import (LexError, LoweringError, SyntaxErrorC,
                            compile_source, parse_source, tokenize)
from repro.ir import verify_module
from repro.machine import Interpreter, Memory


class TestLexer:
    def test_keywords_and_idents(self):
        toks = tokenize("long foo")
        assert [(t.kind, t.text) for t in toks[:-1]] == \
            [("keyword", "long"), ("ident", "foo")]

    def test_numbers(self):
        toks = tokenize("42 0x1F 3.5")
        assert [(t.kind, t.text) for t in toks[:-1]] == \
            [("number", "42"), ("number", "0x1F"), ("float", "3.5")]

    def test_operators_maximal_munch(self):
        toks = tokenize("a <<= b << c <= d")
        ops = [t.text for t in toks if t.kind == "op"]
        assert ops == ["<<=", "<<", "<="]

    def test_comments_skipped(self):
        toks = tokenize("a // line\n /* block\n */ b")
        idents = [t.text for t in toks if t.kind == "ident"]
        assert idents == ["a", "b"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 4]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    @pytest.mark.parametrize("text", ("08", "09", "0x"))
    def test_malformed_integer_constants(self, text):
        with pytest.raises(LexError):
            tokenize(f"long x = {text};")

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestParser:
    def test_function_structure(self):
        prog = parse_source("""
        long add(long a, long b) { return a + b; }
        """)
        (f,) = prog.functions
        assert f.name == "add"
        assert [p.name for p in f.params] == ["a", "b"]

    def test_precedence(self):
        from repro.frontend import ast
        prog = parse_source("long f() { return 1 + 2 * 3; }")
        ret = prog.functions[0].body[0]
        assert isinstance(ret.value, ast.Binary)
        assert ret.value.op == "+"
        assert ret.value.rhs.op == "*"

    def test_restrict_param(self):
        prog = parse_source("void f(long* restrict p, long* q) {}")
        assert prog.functions[0].params[0].restrict
        assert not prog.functions[0].params[1].restrict

    def test_pure_function(self):
        prog = parse_source("pure long f(long x) { return x; }")
        assert prog.functions[0].pure

    def test_for_with_empty_clauses(self):
        prog = parse_source("void f() { for (;;) { } }")
        loop = prog.functions[0].body[0]
        assert loop.init is None and loop.cond is None and \
            loop.step is None

    def test_missing_semicolon(self):
        with pytest.raises(SyntaxErrorC):
            parse_source("void f() { long x = 1 }")

    def test_dangling_else_binds_inner(self):
        prog = parse_source("""
        long f(long x) {
            if (x > 0) if (x > 10) return 2; else return 1;
            return 0;
        }
        """)
        outer = prog.functions[0].body[0]
        assert outer.otherwise == []  # else bound to the inner if

    def test_increment_statement(self):
        prog = parse_source("void f(long* a) { a[0]++; }")
        stmt = prog.functions[0].body[0]
        from repro.frontend import ast
        assert isinstance(stmt, ast.Assign) and stmt.op == "+="


class TestLoweringAndExecution:
    def run(self, source, func, args, setup=None):
        module = compile_source(source)
        verify_module(module)
        mem = Memory()
        handles = setup(mem) if setup else {}
        resolved = [handles.get(a, a) if isinstance(a, str) else a
                    for a in args]
        return Interpreter(module, mem).run(func, resolved), handles

    def test_fibonacci(self):
        src = """
        long fib(long n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
        """
        result, _ = self.run(src, "fib", [10])
        assert result.value == 55

    def test_while_loop(self):
        src = """
        long collatz(long n) {
            long steps = 0;
            while (n != 1) {
                if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
                steps++;
            }
            return steps;
        }
        """
        assert self.run(src, "collatz", [6])[0].value == 8

    def test_array_sum(self):
        src = """
        long sum(long* a, long n) {
            long acc = 0;
            for (long i = 0; i < n; i++) acc += a[i];
            return acc;
        }
        """

        def setup(mem):
            arr = mem.allocate(8, 5, "a")
            arr.fill([1, 2, 3, 4, 5])
            return {"a": arr.base}

        result, _ = self.run(src, "sum", ["a", 5], setup)
        assert result.value == 15

    def test_double_arithmetic(self):
        src = """
        double mean(double* x, long n) {
            double s = 0.0;
            for (long i = 0; i < n; i++) s = s + x[i];
            return s / 2.0;
        }
        """

        def setup(mem):
            arr = mem.allocate(8, 2, "x", is_float=True)
            arr.fill([1.5, 2.5])
            return {"x": arr.base}

        result, _ = self.run(src, "mean", ["x", 2], setup)
        assert result.value == 2.0

    def test_ternary_and_logical(self):
        src = """
        long clamp01(long x) {
            return x < 0 ? 0 : (x > 1 ? 1 : x);
        }
        long both(long a, long b) { return (a > 0) && (b > 0); }
        """
        assert self.run(src, "clamp01", [-5])[0].value == 0
        assert self.run(src, "clamp01", [99])[0].value == 1
        assert self.run(src, "both", [1, 1])[0].value == 1
        assert self.run(src, "both", [1, 0])[0].value == 0

    def test_shadowing_scopes(self):
        src = """
        long f() {
            long x = 1;
            { long y = 10; x = x + y; }
            return x;
        }
        """
        assert self.run(src, "f", [])[0].value == 11

    def test_prefetch_statement_lowered(self):
        src = """
        void touch(long* restrict a, long n) {
            for (long i = 0; i < n; i++) {
                prefetch(a[i + 8]);
                a[i] = i;
            }
        }
        """
        module = compile_source(src)
        from repro.ir import Prefetch
        f = module.function("touch")
        assert any(isinstance(i, Prefetch) for i in f.instructions())

    def test_nested_loops_matrix(self):
        src = """
        void fill(long* m, long rows, long cols) {
            for (long r = 0; r < rows; r++)
                for (long c = 0; c < cols; c++)
                    m[r * cols + c] = r * 100 + c;
        }
        """

        def setup(mem):
            arr = mem.allocate(8, 12, "m")
            return {"m": arr.base}

        _, handles = self.run(src, "fill", ["m", 3, 4], setup)

    def test_unknown_variable(self):
        with pytest.raises(LoweringError):
            compile_source("long f() { return nope; }")

    def test_type_mismatch(self):
        with pytest.raises(LoweringError):
            compile_source("long f(double x) { long y = x; return y; }")

    def test_unknown_function(self):
        with pytest.raises(LoweringError):
            compile_source("long f() { return g(); }")

    def test_indexing_non_pointer(self):
        with pytest.raises(LoweringError):
            compile_source("long f(long x) { return x[0]; }")

    def test_redeclaration_same_scope(self):
        with pytest.raises(LoweringError):
            compile_source("long f() { long x = 1; long x = 2; return x; }")


class TestValidSourceThatCrashedTheCompiler:
    """Valid C that raised an internal ``ValueError`` instead of
    compiling; each must compile, verify and round-trip."""

    OCTAL = "long kernel(long *a, long n) { long x = 010; return x; }"
    #: The code after the condition-less loop is unreachable, so
    #: mem2reg's dominator-tree walk never renamed its loads.
    UNREACHABLE = """
    long kernel(long *a, long n) {
      long s = 0;
      for (long i = 0; ; i++) { s += a[i]; }
      s = s + 1;
      return s;
    }
    """

    @pytest.mark.parametrize("source", (OCTAL, UNREACHABLE),
                             ids=("octal", "unreachable"))
    def test_compiles_verifies_and_round_trips(self, source):
        from repro.ir import parse_module, print_module
        from repro.passes import IndirectPrefetchPass
        module = compile_source(source)
        IndirectPrefetchPass().run(module)
        verify_module(module)
        text = print_module(module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text

    def test_leading_zero_is_octal(self):
        module = compile_source(self.OCTAL)
        assert Interpreter(module).run("kernel", [0, 0]).value == 8


class TestFrontendToPrefetchPipeline:
    def test_full_pipeline(self):
        """Source -> IR -> prefetch pass -> timed simulation."""
        from repro.machine import HASWELL
        from repro.passes import IndirectPrefetchPass
        import numpy as np

        src = """
        void histogram(long* restrict keys, long* restrict out, long n) {
            for (long i = 0; i < n; i++)
                out[keys[i]] += 1;
        }
        """
        rng = np.random.default_rng(0)
        values = rng.integers(0, 4096, 400)

        def run(transform):
            module = compile_source(src)
            if transform:
                report = IndirectPrefetchPass().run(module)
                assert report.num_prefetches == 2
            mem = Memory()
            keys = mem.allocate(8, 400, "keys")
            keys.fill(values)
            out = mem.allocate(8, 4096, "out")
            interp = Interpreter(module, mem, machine=HASWELL)
            interp.run("histogram", [keys.base, out.base, 400])
            return list(out.data)

        assert run(False) == run(True)
