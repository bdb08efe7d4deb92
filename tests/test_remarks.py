"""Tests for the optimization-remarks subsystem: the Remark model,
emitter scoping, the JSON-lines stream contracts, pass-manager
instrumentation, per-pass remark emission, and stable prefetch IDs with
their runtime-PC mapping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import (Constant, INT64, IRBuilder, Load, Module, Namer,
                      Prefetch, VOID, pointer, print_module,
                      verify_module)
from repro.machine import Interpreter, Memory
from repro.machine.interpreter import static_prefetch_pcs
from repro.passes import (CommonSubexpressionEliminationPass,
                          ConstantFoldingPass, DeadCodeEliminationPass,
                          IndirectPrefetchPass,
                          LoopInvariantCodeMotionPass, Mem2RegPass,
                          PassManager, PrefetchOptions, SimplifyCFGPass,
                          StrideIndirectBaselinePass)
from repro.remarks import (KNOWN_REMARKS, Remark, RemarkEmitter,
                           active_emitter, canonical_stream, collecting,
                           dumps_stream, emit, parse_stream,
                           remark_from_dict, remark_to_dict,
                           render_remarks, validate_remark_dict)
from tests.conftest import build_indirect_kernel


class TestRemarkModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Remark(kind="info", pass_name="p", name="PassExecuted")

    def test_unregistered_name_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            Remark(kind="passed", pass_name="p", name="MadeItFaster")

    def test_non_scalar_arg_rejected(self):
        with pytest.raises(TypeError, match="JSON scalars"):
            Remark(kind="passed", pass_name="p", name="PassExecuted",
                   args=(("module", object()),))

    def test_arg_lookup_and_message(self):
        remark = Remark(kind="missed", pass_name="indirect-prefetch",
                        name="PrefetchRejected", function="kernel",
                        args=(("load", "%k"), ("reason", "NOT_INDIRECT")))
        assert remark.arg("load") == "%k"
        assert remark.arg("missing", 7) == 7
        assert "PrefetchRejected" in remark.message
        assert "@kernel" in remark.message

    def test_every_known_name_documented(self):
        assert all(KNOWN_REMARKS.values())  # each has a meaning string


class TestEmitterScoping:
    def test_emit_is_noop_without_emitter(self):
        assert active_emitter() is None
        assert emit("passed", "p", "PassExecuted") is None

    def test_collecting_routes_and_restores(self):
        emitter = RemarkEmitter()
        with collecting(emitter):
            recorded = emit("analysis", "p", "PassExecuted", wall_us=3)
        assert active_emitter() is None
        assert recorded is not None
        assert emitter.remarks == [recorded]
        assert recorded.arg("wall_us") == 3

    def test_scopes_nest_innermost_wins(self):
        outer, inner = RemarkEmitter(), RemarkEmitter()
        with collecting(outer):
            with collecting(inner):
                emit("analysis", "p", "PassExecuted")
            emit("analysis", "q", "PassExecuted")
        assert [r.pass_name for r in inner] == ["p"]
        assert [r.pass_name for r in outer] == ["q"]

    def test_filter_helpers(self):
        emitter = RemarkEmitter()
        with collecting(emitter):
            emit("passed", "indirect-prefetch", "PrefetchInserted",
                 prefetch_id="pf:kernel:0")
            emit("missed", "indirect-prefetch", "PrefetchRejected")
            emit("analysis", "pm", "PassExecuted")
        assert len(emitter.by_name("PrefetchRejected")) == 1
        assert len(emitter.by_pass("indirect-prefetch")) == 2
        assert len(emitter.by_kind("analysis")) == 1
        assert len(emitter.for_prefetch("pf:kernel:0")) == 1


class TestSerialization:
    def _sample_remarks(self):
        emitter = RemarkEmitter()
        with collecting(emitter):
            emit("analysis", "pm", "PassExecuted", wall_us=123,
                 insts_before=10, insts_after=8)
            emit("passed", "indirect-prefetch", "PrefetchInserted",
                 function="kernel", prefetch_id="pf:kernel:0",
                 covered_load="%k", position=0, offset=64, t=2, c=64,
                 clamp_source="none", new_instructions=2)
            emit("missed", "indirect-prefetch", "PrefetchRejected",
                 function="kernel", load="%k", reason="NOT_INDIRECT",
                 detail="", path=["%p", "%k"])
        return emitter.remarks

    def test_round_trip_is_byte_identical(self):
        stream = dumps_stream(self._sample_remarks())
        assert dumps_stream(parse_stream(stream)) == stream

    def test_dict_round_trip_preserves_fields(self):
        for remark in self._sample_remarks():
            clone = remark_from_dict(remark_to_dict(remark))
            assert clone == remark

    def test_header_is_schema_tagged(self):
        stream = dumps_stream([])
        assert stream.splitlines()[0] == '{"schema":"repro-remarks-v1"}'

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_stream('{"schema":"repro-remarks-v0"}\n')
        with pytest.raises(ValueError, match="empty"):
            parse_stream("")

    def test_unknown_name_rejected_on_parse(self):
        stream = ('{"schema":"repro-remarks-v1"}\n'
                  '{"kind":"passed","pass":"p","name":"Novel","args":{}}\n')
        with pytest.raises(ValueError, match="unknown remark name"):
            parse_stream(stream)
        with pytest.raises(ValueError, match="unknown remark kind"):
            validate_remark_dict({"kind": "info", "pass": "p",
                                  "name": "PassExecuted"})

    def test_canonical_stream_zeroes_wall_clock_only(self):
        stream = dumps_stream(self._sample_remarks())
        canon = canonical_stream(stream)
        assert '"wall_us":0' in canon
        assert '"wall_us":123' not in canon
        assert '"offset":64' in canon  # other args untouched
        # Canonicalisation is idempotent.
        assert canonical_stream(canon) == canon

    def test_render_remarks(self):
        text = render_remarks(self._sample_remarks(), title="t")
        assert text.startswith("t\n")
        assert "PrefetchRejected" in text
        assert render_remarks([]) == "(no remarks)"


class TestPassManagerInstrumentation:
    def test_pass_executed_remarks_with_deltas(self):
        emitter = RemarkEmitter()
        pm = PassManager(emitter=emitter)
        pm.add(ConstantFoldingPass()).add(DeadCodeEliminationPass())
        pm.run(build_indirect_kernel())
        executed = emitter.by_name("PassExecuted")
        assert [r.pass_name for r in executed] == ["constfold", "dce"]
        for remark in executed:
            assert remark.kind == "analysis"
            assert remark.arg("wall_us") >= 0
            assert remark.arg("insts_before") >= remark.arg("insts_after")
            assert remark.arg("blocks_before") > 0

    def test_ambient_emitter_is_used(self):
        emitter = RemarkEmitter()
        with collecting(emitter):
            PassManager().add(DeadCodeEliminationPass()).run(
                build_indirect_kernel())
        assert emitter.by_name("PassExecuted")

    def test_no_emitter_no_remarks_same_result(self):
        with_, without = build_indirect_kernel(), build_indirect_kernel()
        emitter = RemarkEmitter()
        pm = PassManager(emitter=emitter)
        pm.add(ConstantFoldingPass()).add(DeadCodeEliminationPass())
        pm.run(with_)
        pm2 = PassManager()
        pm2.add(ConstantFoldingPass()).add(DeadCodeEliminationPass())
        pm2.run(without)
        assert print_module(with_) == print_module(without)


class TestCleanupPassRemarks:
    """Each generic pass reports its transformations when collecting."""

    def _collect(self, pass_, module):
        emitter = RemarkEmitter()
        with collecting(emitter):
            pass_.run(module)
        return emitter

    def test_dce_remark(self):
        m = build_indirect_kernel()
        func = m.function("kernel")
        b = IRBuilder()
        b.set_insert_point(func.entry, before=func.entry.terminator)
        b.add(b.const(1), b.const(2), "dead")
        emitter = self._collect(DeadCodeEliminationPass(), m)
        (remark,) = emitter.by_name("DeadInstructionRemoved")
        assert remark.arg("instruction") == "%dead"
        assert remark.arg("opcode") == "add"

    def test_constfold_remark(self):
        m = build_indirect_kernel()
        func = m.function("kernel")
        b = IRBuilder()
        b.set_insert_point(func.entry, before=func.entry.terminator)
        folded = b.add(b.const(20), b.const(22), "folded")
        b.add(folded, func.arg("n"), "keep")  # keeps %folded live
        emitter = self._collect(ConstantFoldingPass(), m)
        (remark,) = emitter.by_name("ConstantFolded")
        assert remark.arg("instruction") == "%folded"
        assert remark.arg("replaced_by") == "42"

    def test_cse_remark(self):
        m = build_indirect_kernel()
        func = m.function("kernel")
        loop = func.block("loop")
        b = IRBuilder()
        b.set_insert_point(loop, before=loop.terminator)
        (i,) = loop.phis
        dup = b.add(i, Constant(INT64, 1), "dup")  # same as %i.next
        b.add(dup, func.arg("n"), "keep")
        emitter = self._collect(CommonSubexpressionEliminationPass(), m)
        remarks = emitter.by_name("RedundantExpressionEliminated")
        assert any(r.arg("instruction") == "%dup" and
                   r.arg("replaced_by") == "%i.next" for r in remarks)

    def test_licm_remark(self):
        m = build_indirect_kernel()
        func = m.function("kernel")
        loop = func.block("loop")
        b = IRBuilder()
        b.set_insert_point(loop, before=loop.terminator)
        b.add(func.arg("n"), Constant(INT64, 1), "inv")
        emitter = self._collect(LoopInvariantCodeMotionPass(), m)
        remarks = emitter.by_name("LoopInvariantHoisted")
        assert any(r.arg("instruction") == "%inv" for r in remarks)

    def test_mem2reg_remark(self):
        m = Module("m")
        f = m.create_function("f", INT64, [("x", INT64)])
        b = IRBuilder()
        b.set_insert_point(f.add_block("entry"))
        slot = b.alloc(INT64, 1, "slot")
        b.store(f.arg("x"), slot)
        b.ret(b.load(slot, "v"))
        verify_module(m)
        emitter = self._collect(Mem2RegPass(), m)
        (remark,) = emitter.by_name("SlotPromoted")
        assert remark.arg("slot") == "%slot"
        assert remark.arg("loads") == 1
        assert remark.arg("stores") == 1

    def test_simplifycfg_remarks(self):
        m = Module("m")
        f = m.create_function("f", INT64, [("x", INT64)])
        b = IRBuilder()
        entry = f.add_block("entry")
        fwd = f.add_block("fwd")
        tail = f.add_block("tail")
        dead = f.add_block("dead")
        b.set_insert_point(entry)
        b.jmp(fwd)
        b.set_insert_point(fwd)
        b.jmp(tail)
        b.set_insert_point(tail)
        b.ret(f.arg("x"))
        b.set_insert_point(dead)
        b.ret(b.const(0))
        verify_module(m)
        emitter = self._collect(SimplifyCFGPass(), m)
        names = {r.name for r in emitter}
        assert "UnreachableBlockRemoved" in names
        # The jmp-chain collapses via a merge or a forwarding bypass.
        assert names & {"BlockMerged", "ForwardingBlockRemoved"}


class TestPrefetchPassRemarks:
    def _run(self, module, **options):
        emitter = RemarkEmitter()
        with collecting(emitter):
            report = IndirectPrefetchPass(
                PrefetchOptions(**options)).run(module)
        return report, emitter

    def test_chain_accepted_records_eq1_inputs(self, indirect_module):
        report, emitter = self._run(indirect_module)
        (accepted,) = emitter.by_name("PrefetchChainAccepted")
        assert accepted.arg("load") == "%bv"
        assert accepted.arg("iv") == "%i"
        assert accepted.arg("t") == 2
        assert accepted.arg("c") == 64
        (acc,) = report.accepted
        assert accepted.arg("clamp_source") == acc.clamp.source
        assert accepted.arg("chain") == ["%p", "%k", "%bp", "%bv"]

    def test_inserted_remarks_match_prefetch_ids(self, indirect_module):
        report, emitter = self._run(indirect_module)
        inserted = emitter.by_name("PrefetchInserted")
        func = indirect_module.function("kernel")
        prefetches = [i for i in func.instructions()
                      if isinstance(i, Prefetch)]
        assert [r.prefetch_id for r in inserted] == \
            [p.remark_id for p in prefetches] == \
            ["pf:kernel:0", "pf:kernel:1"]
        by_position = {r.arg("position"): r for r in inserted}
        # eq. (1): offset = max(1, c*(t-l)/t) with t=2, c=64.
        assert by_position[0].arg("offset") == 64
        assert by_position[1].arg("offset") == 32
        assert by_position[0].arg("clamp_source") == "none"  # stride leg
        assert by_position[1].arg("clamp_source") != "none"

    def test_ids_assigned_even_without_emitter(self, indirect_module):
        IndirectPrefetchPass().run(indirect_module)
        func = indirect_module.function("kernel")
        ids = [i.remark_id for i in func.instructions()
               if isinstance(i, Prefetch)]
        assert ids == ["pf:kernel:0", "pf:kernel:1"]

    def test_collecting_does_not_change_the_module(self):
        plain, observed = build_indirect_kernel(), build_indirect_kernel()
        IndirectPrefetchPass().run(plain)
        with collecting(RemarkEmitter()):
            IndirectPrefetchPass().run(observed)
        assert print_module(plain) == print_module(observed)

    def test_subsumed_remark(self):
        # Two chains over the same IV where one covers the other: the
        # kernel's stride load is not subsumed (it is NOT_INDIRECT), so
        # build a 3-deep chain and check the middle load's subsumption.
        m = Module("m")
        f = m.create_function(
            "kernel", VOID, [("a", pointer(INT64)), ("b", pointer(INT64)),
                             ("c", pointer(INT64)), ("n", INT64)])
        f.arg("a").array_size = f.arg("n")
        for name, size in (("b", 4096), ("c", 4096)):
            f.arg(name).array_size = Constant(INT64, size)
        for name in ("a", "b", "c"):
            f.arg(name).noalias = True
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        av = b.load(b.gep(f.arg("a"), i), "av")
        bv = b.load(b.gep(f.arg("b"), av), "bv")   # 2-chain target
        b.load(b.gep(f.arg("c"), bv), "cv")        # 3-chain target
        i_next = b.add(i, b.const(1), "i.next")
        cond = b.cmp("slt", i_next, f.arg("n"))
        b.br(cond, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)
        report, emitter = self._run(m)
        subsumed = emitter.by_name("PrefetchSubsumed")
        assert [r.arg("load") for r in subsumed] == ["%bv"]
        assert report.num_prefetches == 3  # one chain, t=3


class TestBaselinePassRemarks:
    def test_inserted_and_skipped(self):
        m = build_indirect_kernel(num_buckets=1024)
        m.function("kernel").arg("keys").array_size = \
            Constant(INT64, 5000)
        emitter = RemarkEmitter()
        with collecting(emitter):
            StrideIndirectBaselinePass().run(m)
        inserted = emitter.by_name("BaselinePrefetchInserted")
        # One remark per emitted instruction: indirect + stride leg.
        assert [r.prefetch_id for r in inserted] == \
            ["pf:kernel:0", "pf:kernel:1"]
        assert all(r.arg("load") == "%bv" for r in inserted)
        assert all(r.arg("c") == 64 for r in inserted)
        prefetch_ids = sorted(i.remark_id for i in
                              m.function("kernel").instructions()
                              if isinstance(i, Prefetch))
        assert prefetch_ids == ["pf:kernel:0", "pf:kernel:1"]

    def test_skip_reason_reported(self):
        m = build_indirect_kernel()  # argument-valued size: pass bails
        emitter = RemarkEmitter()
        with collecting(emitter):
            StrideIndirectBaselinePass().run(m)
        skipped = emitter.by_name("BaselineSkipped")
        assert skipped
        assert any("statically" in r.arg("reason") for r in skipped)


class TestSummaryNaming:
    def test_anonymous_loads_use_printer_numbering(self):
        # Satellite fix: summary() must print an anonymous load as the
        # %<n> of the printed IR, not an ambiguous "%load".
        m = Module("m")
        f = m.create_function("kernel", VOID,
                              [("keys", pointer(INT64)),
                               ("buckets", pointer(INT64)),
                               ("n", INT64)])
        f.arg("keys").array_size = f.arg("n")
        f.arg("buckets").array_size = Constant(INT64, 1024)
        f.arg("keys").noalias = True
        f.arg("buckets").noalias = True
        b = IRBuilder()
        entry, loop, exit_ = (f.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        g = b.cmp("sgt", f.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(f.arg("keys"), i))       # anonymous
        bv = b.load(b.gep(f.arg("buckets"), k))   # anonymous
        b.store(b.add(bv, b.const(1)), bv.ptr)
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, f.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()
        verify_module(m)

        emitter = RemarkEmitter()
        with collecting(emitter):
            report = IndirectPrefetchPass().run(m)
        namer = Namer(f)
        summary = report.summary()
        assert f"rejected {namer.ref(k)}:" in summary
        assert f"prefetched {namer.ref(bv)} " in summary
        assert "%load" not in summary
        # The same numbers appear in the printed IR and in remarks.
        printed = print_module(m)
        assert f"{namer.ref(k)} = load" in printed
        (rejected,) = emitter.by_name("PrefetchRejected")
        assert rejected.arg("load") == namer.ref(k)


class TestPrefetchPCs:
    @staticmethod
    def _add_indirect_loop(func, b, prelude=None):
        entry, loop, exit_ = (func.add_block(x) for x in
                              ("entry", "loop", "exit"))
        b.set_insert_point(entry)
        if prelude is not None:
            prelude(b)
        g = b.cmp("sgt", func.arg("n"), b.const(0))
        b.br(g, loop, exit_)
        b.set_insert_point(loop)
        i = b.phi(INT64, "i")
        k = b.load(b.gep(func.arg("keys"), i), "k")
        bp = b.gep(func.arg("buckets"), k, "bp")
        bv = b.load(bp, "bv")
        b.store(b.add(bv, b.const(1)), bp)
        i_next = b.add(i, b.const(1), "i.next")
        c = b.cmp("slt", i_next, func.arg("n"))
        b.br(c, loop, exit_)
        i.add_incoming(b.const(0), entry)
        i.add_incoming(i_next, loop)
        b.set_insert_point(exit_)
        b.ret()

    def _two_function_module(self) -> Module:
        m = Module("two")
        args = [("keys", pointer(INT64)), ("buckets", pointer(INT64)),
                ("n", INT64)]
        helper = m.create_function("helper", VOID, args)
        kernel = m.create_function("kernel", VOID, args)
        for f in (helper, kernel):
            f.arg("keys").array_size = f.arg("n")
            f.arg("buckets").array_size = Constant(INT64, 256)
            f.arg("keys").noalias = True
            f.arg("buckets").noalias = True
        b = IRBuilder()
        self._add_indirect_loop(helper, b)
        self._add_indirect_loop(
            kernel, b,
            prelude=lambda bb: bb.call(
                helper, [kernel.arg("keys"), kernel.arg("buckets"),
                         kernel.arg("n")]))
        verify_module(m)
        return m

    def test_static_map_matches_interpreter(self):
        # The module lists helper before kernel, but lazy compilation
        # starts at the entry: static_prefetch_pcs must emulate that.
        m = self._two_function_module()
        report = IndirectPrefetchPass().run(m)
        assert report.num_prefetches == 4
        static = static_prefetch_pcs(m, "kernel")
        assert set(static) == {"pf:kernel:0", "pf:kernel:1",
                               "pf:helper:0", "pf:helper:1"}

        rng = np.random.default_rng(0)
        mem = Memory()
        keys = mem.allocate(8, 64, "keys")
        keys.fill(rng.integers(0, 256, 64))
        buckets = mem.allocate(8, 256, "buckets")
        interp = Interpreter(m, mem)
        interp.run("kernel", [keys.base, buckets.base, 64])
        assert interp.prefetch_pc_map() == static

    def test_unknown_entry_yields_empty_map(self):
        m = self._two_function_module()
        IndirectPrefetchPass().run(m)
        assert static_prefetch_pcs(m, "nonesuch") == {}
