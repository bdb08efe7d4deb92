"""An ICC-like stride-indirect prefetching baseline (§2, §6.1, Fig. 4d).

The Intel compiler for the Xeon Phi can generate software prefetches for
the very simplest indirect patterns.  The paper characterises it as:

* matching only direct ``B[A[i]]`` accesses — a load of ``A[i]`` with the
  canonical induction variable as the index, optionally widened, used
  immediately as the index into ``B`` (no hashing, no other arithmetic);
* requiring statically known array sizes to guarantee safety (it "misses
  out on any performance improvement for G500 ... likely because it is
  unable to determine the size of arrays");
* therefore missing RA, HJ-2, HJ-8 (hash computations) and G500 (dynamic
  sizes / control flow).

This pass reproduces exactly those limits so Fig. 4d's "ICC-generated"
series has a faithful comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.allocsize import known_array_bound
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import Cast, GEP, Load, Prefetch
from ..ir.module import Module
from ..ir.printer import Namer
from ..ir.types import IntType
from ..ir.values import Constant
from ..ir.verifier import verify_function
from ..remarks import active_emitter, emit
from .analysis_bundle import FunctionAnalyses
from .prefetch.scheduling import DEFAULT_LOOKAHEAD, offset_for


@dataclass
class BaselineReport:
    """What the baseline pass found and emitted."""

    prefetched: list[Load] = field(default_factory=list)
    skipped: list[tuple[Load, str]] = field(default_factory=list)

    @property
    def num_prefetches(self) -> int:
        """Number of target loads prefetched (two prefetches each)."""
        return len(self.prefetched)


class StrideIndirectBaselinePass:
    """The deliberately limited ICC-style stride-indirect pass."""

    name = "stride-indirect-baseline"

    def __init__(self, lookahead: int = DEFAULT_LOOKAHEAD):
        self.lookahead = lookahead

    def run(self, module: Module) -> BaselineReport:
        """Run on every function of ``module``."""
        report = BaselineReport()
        for func in module.functions:
            self.run_on_function(func, report)
        return report

    def run_on_function(self, func: Function,
                        report: BaselineReport | None = None
                        ) -> BaselineReport:
        """Run on one function."""
        report = report if report is not None else BaselineReport()
        analyses = FunctionAnalyses(func)
        loads = [i for i in func.instructions() if isinstance(i, Load)
                 and analyses.loop_info.loop_of(i) is not None]
        skipped: list[tuple[Load, str]] = []
        inserted: list[tuple[Load, list[Prefetch]]] = []
        sequence = 0
        for load in loads:
            match = self._match(load, analyses)
            if isinstance(match, str):
                report.skipped.append((load, match))
                skipped.append((load, match))
                continue
            base_load, iv = match
            prefetches = self._emit(load, base_load, iv)
            for prefetch in prefetches:
                prefetch.remark_id = f"pf:{func.name}:{sequence}"
                sequence += 1
            report.prefetched.append(load)
            inserted.append((load, prefetches))
        if active_emitter() is not None:
            namer = Namer(func)
            for load, reason in skipped:
                emit("missed", self.name, "BaselineSkipped",
                     function=func.name, load=namer.ref(load),
                     reason=reason)
            for load, prefetches in inserted:
                for prefetch in prefetches:
                    emit("passed", self.name, "BaselinePrefetchInserted",
                         function=func.name,
                         prefetch_id=prefetch.remark_id,
                         load=namer.ref(load), c=self.lookahead)
        verify_function(func)
        return report

    def _match(self, load: Load, analyses: FunctionAnalyses):
        """Match ``B[A[i]]``; returns (inner load, IV) or a skip reason."""
        gep = load.ptr
        if not isinstance(gep, GEP):
            return "address is not a gep"
        index = gep.index
        if isinstance(index, Cast) and index.opcode in ("sext", "zext"):
            index = index.value
        if not isinstance(index, Load):
            return "index is not a direct load (pattern too complex)"
        inner = index
        inner_gep = inner.ptr
        if not isinstance(inner_gep, GEP):
            return "inner address is not a gep"
        iv = analyses.induction.iv_for(inner_gep.index)
        if iv is None or not iv.loop.contains(load):
            return "inner index is not a loop induction variable"
        if iv.step != 1:
            return "induction variable is not unit-stride"
        # Static size of the look-ahead array is mandatory for safety.
        bound = known_array_bound(inner_gep.base)
        if bound is None or not isinstance(bound.count, Constant):
            return "look-ahead array size not statically known"
        if known_array_bound(gep.base) is None:
            return "target array size unknown"
        return inner, iv

    def _emit(self, load: Load, base_load: Load, iv) -> list[Prefetch]:
        """Emit the two staggered prefetches for a matched pattern."""
        builder = IRBuilder()
        builder.set_insert_point(load.parent, before=load)
        iv_type = iv.phi.type
        assert isinstance(iv_type, IntType)
        base_gep = base_load.ptr
        assert isinstance(base_gep, GEP)
        target_gep = load.ptr
        assert isinstance(target_gep, GEP)
        bound = known_array_bound(base_gep.base)
        limit = builder.const(bound.count.value - 1, iv_type)

        # Indirect prefetch at c/2 with a clamped intermediate load.
        off1 = offset_for(1, 2, self.lookahead)
        iv_off = builder.add(iv.phi, builder.const(off1, iv_type), "icc.iv")
        lt = builder.cmp("slt", iv_off, limit, "icc.cl")
        clamped = builder.select(lt, iv_off, limit, "icc.iv.c")
        a_ptr = builder.gep(base_gep.base, clamped, "icc.ap")
        a_val = builder.load(a_ptr, "icc.av")
        index_value = a_val
        outer_index = target_gep.index
        if isinstance(outer_index, Cast):
            index_value = builder.cast(outer_index.opcode, a_val,
                                       outer_index.type, "icc.ix")
        b_ptr = builder.gep(target_gep.base, index_value, "icc.bp")
        indirect = builder.prefetch(b_ptr)

        # Stride prefetch of the look-ahead array at c.
        off0 = offset_for(0, 2, self.lookahead)
        iv_off0 = builder.add(iv.phi, builder.const(off0, iv_type),
                              "icc.iv0")
        a_ptr0 = builder.gep(base_gep.base, iv_off0, "icc.ap0")
        stride = builder.prefetch(a_ptr0)
        return [indirect, stride]
