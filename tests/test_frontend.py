"""Tests for the C-like frontend: lexer, parser, lowering, execution."""

import contextlib
import random
import signal

import pytest

from repro.frontend import (SOURCE_ERRORS, LexError, LoweringError,
                            SyntaxErrorC, compile_source, parse_source,
                            tokenize)
from repro.frontend.parser import MAX_NESTING
from repro.ir import parse_module, print_module, verify_module
from repro.machine import Interpreter, Memory
from repro.passes import (CommonSubexpressionEliminationPass,
                          DeadCodeEliminationPass, IndirectPrefetchPass,
                          LoopInvariantCodeMotionPass, PassManager,
                          SimplifyCFGPass)
from tests import test_property_based

HISTOGRAM = """
void histogram(long* restrict keys, long* restrict out, long n) {
    for (long i = 0; i < n; i++)
        out[keys[i]] += 1;
}
"""
COLLATZ = """
long collatz(long n) {
    long steps = 0;
    while (n != 1) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        steps++;
    }
    return steps;
}
"""
CLAMP = """
long clamp01(long x) {
    return x < 0 ? 0 : (x > 1 ? 1 : x);
}
long both(long a, long b) { return (a > 0) && (b > 0); }
"""
MEAN = """
double mean(double* x, long n) {
    double s = 0.0;
    for (long i = 0; i < n; i++) s = s + x[i];
    return s / 2.0;
}
"""
MATRIX = """
void fill(long* m, long rows, long cols) {
    for (long r = 0; r < rows; r++)
        for (long c = 0; c < cols; c++)
            m[r * cols + c] = r * 100 + c;
}
"""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_slash_star_slash_opens_a_comment(self):
        """As in C, ``/*/`` only opens a comment: it ends at the first
        ``*/`` after the ``/*``.  It used to close itself, so the
        ``return 2;`` below compiled and the ``*/`` was a syntax
        error."""
        module = compile_source(
            "long f() { return 1; /*/ return 2; */ }")
        assert Interpreter(module).run("f", []).value == 1

    def test_lone_slash_star_slash_is_unterminated(self):
        with pytest.raises(LexError,
                           match=r"^line 1: unterminated comment$"):
            tokenize("/*/")

    @pytest.mark.parametrize("text", ("08", "09", "0x"))
    def test_malformed_integer_constants(self, text):
        with pytest.raises(LexError):
            tokenize(f"long x = {text};")

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    @pytest.mark.parametrize("text", (
        "18446744073709551616", "99999999999999999999999",
        "0x10000000000000000", "02000000000000000000000"))
    def test_constant_of_2_to_the_64_or_more(self, text):
        with pytest.raises(LexError, match=(
                rf"^line 2: integer constant '{text}' does not fit")):
            tokenize(f"long f() {{\n    long x = {text};")

    def test_floating_constant_beyond_a_double(self):
        """It would silently become ``inf``."""
        text = "9" * 400 + ".0"
        with pytest.raises(LexError, match=(
                rf"^line 2: floating constant '{text}' does not fit "
                rf"in a double$")):
            tokenize(f"double f() {{\n    return {text};")

    @pytest.mark.parametrize("text", ("²", "١", "1١", "1.٥"), ids=(
        "superscript-two", "arabic-indic-one", "one-arabic-indic-one",
        "one-point-arabic-indic-five"))
    def test_numbers_are_ascii_digits_only(self, text):
        """``²`` made ``int()`` raise ``ValueError`` (a 500 from ``repro
        serve``); ``١`` was read as 1, and ``1١`` as 11."""
        with pytest.raises(LexError,
                           match=r"^line 2: unexpected character '.'$"):
            tokenize(f"long f() {{\n    return {text};")

    @pytest.mark.parametrize("text, value", (
        ("0xFFFFFFFFFFFFFFFF", -1), ("18446744073709551615", -1),
        ("9223372036854775808", -2 ** 63),
        ("0x7FFFFFFFFFFFFFFF", 2 ** 63 - 1)))
    def test_constants_from_2_to_the_63_wrap(self, text, value):
        """Up to ``2**64 - 1`` a constant keeps its two's-complement
        reading, so 64-bit masks still work."""
        module = compile_source(f"long f() {{ return {text}; }}")
        assert Interpreter(module).run("f", []).value == value


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
        assert self.run(COLLATZ, "collatz", [6])[0].value == 8

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
        def setup(mem):
            arr = mem.allocate(8, 2, "x", is_float=True)
            arr.fill([1.5, 2.5])
            return {"x": arr.base}

        result, _ = self.run(MEAN, "mean", ["x", 2], setup)
        assert result.value == 2.0

    def test_ternary_and_logical(self):
        assert self.run(CLAMP, "clamp01", [-5])[0].value == 0
        assert self.run(CLAMP, "clamp01", [99])[0].value == 1
        assert self.run(CLAMP, "both", [1, 1])[0].value == 1
        assert self.run(CLAMP, "both", [1, 0])[0].value == 0

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
        def setup(mem):
            arr = mem.allocate(8, 12, "m")
            return {"m": arr.base}

        _, handles = self.run(MATRIX, "fill", ["m", 3, 4], setup)

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


class TestInvalidSourceThatCrashedTheCompiler:
    """Invalid C that raised an internal ``ValueError`` from the IR
    layer instead of a ``LoweringError``.  :class:`TestCompileFuzz`'s
    mutator found the first and last in runs of 10,000 mutants."""

    @pytest.mark.parametrize("source, message", (
        ("void* f() { }", "void pointers"),
        ("long f(void* p) { return 0; }", "void pointers"),
        ("long f(void x) { return 0; }", "cannot be void"),
        ("long f() { return 0; }\nlong f() { return 1; }",
         "line 2: redefinition of function 'f'"),
    ), ids=("void-pointer-return", "void-pointer-param", "void-param",
            "duplicate-function"))
    def test_raises_lowering_error(self, source, message):
        with pytest.raises(LoweringError, match=message):
            compile_source(source)


def _nested_for(n):
    heads = "".join(f"for (long i{k} = 0; i{k} < n; i{k}++) {{\n"
                    for k in range(n))
    return ("void f(long* restrict a, long* restrict b, long n) {\n"
            + heads + f"b[a[i{n - 1}]] += 1;\n" + "}\n" * n + "}")


#: ``name: (levels, source)``: ``source(n)`` nests ``n`` levels of one
#: construct, one per line from line 2, around an innermost statement
#: that adds ``levels`` more (the statement and its expression; the
#: ``for`` body also indexes twice).
NESTED = {
    "parens": (2, lambda n: "long f(long a) {\nreturn " + "(\n" * n
               + "a" + ")" * n + "; }"),
    "unary": (2, lambda n: "long f(long a) {\nreturn " + "-\n" * n
              + "a; }"),
    "braces": (2, lambda n: "long f(long a) {\nlong x = 0; " + "{\n" * n
               + "x = a;\n" + "}\n" * n + "return x; }"),
    "if": (2, lambda n: "long f(long a) {\nlong x = 0; "
           + "if (a) {\n" * n + "x = a;\n" + "}\n" * n + "return x; }"),
    "for": (4, _nested_for),
}


class TestNestingLimit:
    """Nesting past ``MAX_NESTING`` levels is a ``SyntaxErrorC`` naming
    its line, never a ``RecursionError`` (a 500 from ``repro serve``);
    source nested exactly at the limit still compiles."""

    @pytest.mark.parametrize("name", NESTED)
    def test_limit_compiles_passes_and_round_trips(self, name):
        levels, source = NESTED[name]
        module = compile_source(source(MAX_NESTING - levels))
        IndirectPrefetchPass().run(module)
        verify_module(module)
        text = print_module(module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text

    @pytest.mark.parametrize("name", NESTED)
    def test_one_level_deeper_raises(self, name):
        levels, source = NESTED[name]
        n = MAX_NESTING - levels + 1
        # Line 1 is the function header, level k opens on line k + 1,
        # so the innermost statement sits on line n + 2.
        with pytest.raises(SyntaxErrorC, match=(
                rf"^line {n + 2}: nesting deeper than {MAX_NESTING} ")):
            compile_source(source(n))

    @pytest.mark.parametrize("name", NESTED)
    def test_two_thousand_levels_raise(self, name):
        with pytest.raises(SyntaxErrorC, match="nesting deeper than"):
            compile_source(NESTED[name][1](2_000))


class TestDivisionByConstantZero:
    """``-O`` folds constant arithmetic but never a division by zero:
    with or without it, the program raises at run time."""

    @pytest.mark.parametrize("optimize", (True, False), ids=("O", "O0"))
    @pytest.mark.parametrize("source", (
        "long f() { return 1 / 0; }",
        "long f() { return 7 % 0; }",
        "double f() { return 1.0 / 0.0; }",
    ), ids=("sdiv", "srem", "fdiv"))
    def test_raises_at_run_time(self, source, optimize):
        module = compile_source(source, optimize=optimize)
        with pytest.raises(ZeroDivisionError):
            Interpreter(module).run("f", [])

    @pytest.mark.parametrize("optimize", (True, False), ids=("O", "O0"))
    @pytest.mark.parametrize("source", (
        "long f(long a) { long x = a / 0; return 0; }",
        "long f(long a) { long x = a % 0; return 0; }",
        "long f(long a) { double x = 1.0 / 0.0; return 0; }",
    ), ids=("sdiv", "srem", "fdiv"))
    def test_unused_result_still_raises(self, source, optimize):
        """Dead code elimination keeps a division whose result nobody
        reads, because it raises."""
        module = compile_source(source, optimize=optimize)
        with pytest.raises(ZeroDivisionError):
            Interpreter(module).run("f", [7])

    def test_unused_division_by_a_nonzero_constant_is_deleted(self):
        module = compile_source(
            "long f(long a) { long x = a / 3; return 0; }")
        assert "sdiv" not in print_module(module)


class TestFrontendToPrefetchPipeline:
    def test_full_pipeline(self):
        """Source -> IR -> prefetch pass -> timed simulation."""
        from repro.machine import HASWELL
        import numpy as np

        rng = np.random.default_rng(0)
        values = rng.integers(0, 4096, 400)

        def run(transform):
            module = compile_source(HISTOGRAM)
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


class TestCompileFuzz:
    """Seeded token-level mutants of the kernels these tests build."""

    SEED = 2
    MUTANTS = 400
    #: Seconds one mutant may take through the whole compile path.
    DEADLINE_S = 5.0

    @staticmethod
    def corpus() -> list[list[str]]:
        """Token texts of each seed kernel."""
        hash_kernel = \
            test_property_based.TestPassEquivalence._random_kernel_source
        sources = [hash_kernel(ops) for ops in
                   ([], ["mul"], ["xorshift", "add"],
                    ["shl", "xorshift", "mul", "add"])]
        sources += [HISTOGRAM, COLLATZ, CLAMP, MEAN, MATRIX,
                    TestValidSourceThatCrashedTheCompiler.OCTAL,
                    TestValidSourceThatCrashedTheCompiler.UNREACHABLE]
        return [[t.text for t in tokenize(s) if t.kind != "eof"]
                for s in sources]

    @staticmethod
    def spans(tokens: list[str], rng: random.Random) -> tuple[int, int]:
        """A random run of whole statements: the bounds are token
        positions just after a ``;``, ``{`` or ``}`` (or the ends)."""
        cuts = [0] + [i + 1 for i, t in enumerate(tokens)
                      if t in (";", "{", "}")]
        first = rng.randrange(len(cuts))
        last = min(len(cuts) - 1, first + rng.randint(0, 2))
        return cuts[first], cuts[last]

    @classmethod
    def mutate(cls, rng: random.Random, tokens: list[str],
               corpus: list[list[str]], pool: list[str]) -> list[str]:
        """One or two token inserts or deletes, statement splices from
        another kernel, or statement duplicates."""
        out = list(tokens)
        for _ in range(rng.choice((1, 1, 2))):
            how = rng.choice(("insert", "delete", "splice", "duplicate"))
            if how == "insert":
                out.insert(rng.randrange(len(out) + 1), rng.choice(pool))
            elif how == "delete":
                del out[rng.randrange(len(out))]
            elif how == "splice":
                lo, hi = cls.spans(out, rng)
                donor = rng.choice(corpus)
                dlo, dhi = cls.spans(donor, rng)
                out[lo:hi] = donor[dlo:dhi]
            else:
                lo, hi = cls.spans(out, rng)
                out[lo:lo] = out[lo:hi]
        return out

    def test_mutants_compile_or_raise_source_errors(self):
        """Every mutant, within the deadline, either raises one of
        ``SOURCE_ERRORS`` or compiles, passes the prefetch pass,
        verifies and round-trips print -> parse -> print."""
        rng = random.Random(self.SEED)
        corpus = self.corpus()
        pool = sorted({t for tokens in corpus for t in tokens})
        compiled, failures = 0, []
        for _ in range(self.MUTANTS):
            source = " ".join(
                self.mutate(rng, rng.choice(corpus), corpus, pool))
            try:
                with deadline(self.DEADLINE_S):
                    module = compile_source(source)
                    IndirectPrefetchPass().run(module)
                    verify_module(module)
                    text = print_module(module)
                    reparsed = parse_module(text)
                    verify_module(reparsed)
                    assert print_module(reparsed) == text, "round trip"
                compiled += 1
            except SOURCE_ERRORS:
                pass
            except Exception as exc:
                failures.append(f"{exc!r}: {source}")
        assert not failures, "\n".join(failures)
        # Seed 2 compiles 59 of its 400 mutants; the floor keeps the
        # test from passing on frontend rejections alone.
        assert compiled >= 20, compiled


def flat_sum(n: int) -> str:
    """``a + a + ... + a`` of ``n`` terms, which the parser builds as a
    left-deep tree ``n - 1`` levels deep."""
    return "long f(long a) {\n    return " + " + ".join(["a"] * n) \
        + ";\n}\n"


def sequential_ifs(n: int) -> str:
    """``n`` ifs in a row, each two blocks below the last in the
    dominator tree."""
    return ("long f(long a) {\n    long x = 0;\n"
            + "    if (a > 1) x = x + a;\n" * n + "    return x;\n}\n")


def dead_sum(n: int) -> str:
    """A ``flat_sum`` nobody reads: dead code elimination deletes its
    ``n - 1`` adds, whose operands all use one argument."""
    return "long f(long a) {\n    long x = " + " + ".join(["a"] * n) \
        + ";\n    return 0;\n}\n"


class TestLongFunctions:
    """Functions far longer than any kernel, each within
    :class:`TestCompileFuzz`'s deadline: every stage of the compile path
    does work linear in the function's size and recurses neither per
    operator nor per block.  At 1,000 terms or 2,000 ``if``s each raised
    ``RecursionError`` (a 500 from ``repro serve``)."""

    @pytest.mark.parametrize("source, a, value", (
        (flat_sum(1_000), 3, 3_000),
        (flat_sum(10_000), 3, 30_000),
        (sequential_ifs(2_000), 2, 4_000),
        (dead_sum(10_000), 3, 0),
    ), ids=("sum-1000", "sum-10000", "ifs-2000", "dead-sum-10000"))
    def test_compiles_passes_and_round_trips(self, source, a, value):
        with deadline(TestCompileFuzz.DEADLINE_S):
            module = compile_source(source)
            IndirectPrefetchPass().run(module)
            verify_module(module)
            text = print_module(module)
            reparsed = parse_module(text)
            verify_module(reparsed)
            assert print_module(reparsed) == text
        assert Interpreter(module).run("f", [a]).value == value

    def test_optimize_pipeline_on_a_long_if_chain(self):
        """``-O``'s CSE walks the dominator tree without recursion: its
        depth grows by one per ``if``, and at 1,000 raised
        ``RecursionError``.  (No deadline: SimplifyCFG still rescans
        the function after every change.)"""
        module = compile_source(sequential_ifs(1_000))
        IndirectPrefetchPass().run(module)
        pipeline = PassManager()
        for pass_ in (SimplifyCFGPass(), LoopInvariantCodeMotionPass(),
                      CommonSubexpressionEliminationPass(),
                      DeadCodeEliminationPass()):
            pipeline.add(pass_)
        pipeline.run(module)
        text = print_module(module)
        assert print_module(parse_module(text)) == text
        assert Interpreter(module).run("f", [2]).value == 2_000
