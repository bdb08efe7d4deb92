"""Driver for the automatic indirect-prefetch pass (the paper's Algorithm 1).

Usage::

    from repro.passes.prefetch import IndirectPrefetchPass, PrefetchOptions

    pass_ = IndirectPrefetchPass(PrefetchOptions(lookahead=64))
    report = pass_.run(module)          # or pass_.run_on_function(func)
    print(report.summary())

The pass finds loads inside loops whose addresses are (transitively)
computed from an induction variable, rejects those that cannot be made
fault-free (§4.2), schedules staggered look-ahead offsets (§4.4, eq. 1),
and inserts the prefetch code just before each original load (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...analysis.sideeffects import SideEffectAnalysis
from ...ir.function import Function
from ...ir.instructions import Load
from ...ir.module import Module
from ...ir.printer import Namer
from ...ir.verifier import verify_function
from ...remarks import active_emitter, emit
from ..analysis_bundle import FunctionAnalyses
from .dfs import ChainSearchResult, chain_loads, find_chain
from .legality import (ClampBound, LegalityResult, RejectReason, check_chain)
from .codegen import EmittedPrefetch, emit_prefetches
from .scheduling import (DEFAULT_LOOKAHEAD, ScheduledPrefetch,
                         schedule_chain)


@dataclass
class PrefetchOptions:
    """Tuning knobs of the prefetch pass.

    :ivar lookahead: the constant ``c`` of eq. (1); the paper uses 64.
    :ivar emit_stride_prefetch: emit the staggered stride prefetch for the
        look-ahead array itself (Fig. 5's "Indirect + Stride"; on by
        default, as in the paper's pass).
    :ivar allow_pure_calls: permit side-effect-free calls in prefetch
        address code (the extension sketched in §4.1).
    :ivar enable_hoisting: enable prefetch loop hoisting (§4.6).
    :ivar require_canonical_iv: restrict to canonical induction variables
        (the prototype restriction mentioned in §4.2).

    The pass runs the IR verifier on every function it transforms.
    """

    lookahead: int = DEFAULT_LOOKAHEAD
    emit_stride_prefetch: bool = True
    allow_pure_calls: bool = False
    enable_hoisting: bool = False
    require_canonical_iv: bool = False


@dataclass
class AcceptedChain:
    """A chain the pass prefetched."""

    load: Load
    chain: ChainSearchResult
    clamp: ClampBound
    schedules: list[ScheduledPrefetch]
    emitted: list[EmittedPrefetch]

    @property
    def num_loads(self) -> int:
        """``t`` of eq. (1) for this chain."""
        return len(chain_loads(self.chain))


@dataclass
class RejectedLoad:
    """A load the pass considered but did not prefetch."""

    load: Load
    reason: RejectReason
    detail: str = ""


@dataclass
class FunctionReport:
    """Per-function outcome of the pass."""

    function: Function
    accepted: list[AcceptedChain] = field(default_factory=list)
    rejected: list[RejectedLoad] = field(default_factory=list)
    subsumed: list[Load] = field(default_factory=list)
    hoisted: list = field(default_factory=list)

    @property
    def num_prefetches(self) -> int:
        """Total prefetch instructions inserted in this function."""
        return (sum(len(a.emitted) for a in self.accepted)
                + len(self.hoisted))


@dataclass
class PrefetchReport:
    """Whole-module outcome of the pass."""

    functions: list[FunctionReport] = field(default_factory=list)

    @property
    def num_prefetches(self) -> int:
        """Total prefetch instructions inserted."""
        return sum(f.num_prefetches for f in self.functions)

    @property
    def accepted(self) -> list[AcceptedChain]:
        """All accepted chains across functions."""
        return [a for f in self.functions for a in f.accepted]

    @property
    def rejected(self) -> list[RejectedLoad]:
        """All rejected loads across functions."""
        return [r for f in self.functions for r in f.rejected]

    def summary(self) -> str:
        """Human-readable description of what the pass did.

        Loads are named with the IR printer's stable numbering, so an
        anonymous load prints as the ``%<n>`` the printed IR shows
        rather than an ambiguous ``%load``.
        """
        lines = []
        for freport in self.functions:
            namer = Namer(freport.function)
            lines.append(f"function @{freport.function.name}:")
            for acc in freport.accepted:
                offsets = ", ".join(
                    f"l={s.position}@+{s.offset}" for s in acc.schedules)
                lines.append(
                    f"  prefetched {namer.ref(acc.load)} "
                    f"(t={acc.num_loads}, clamp={acc.clamp.source}, "
                    f"{offsets})")
            for rej in freport.rejected:
                detail = f" ({rej.detail})" if rej.detail else ""
                lines.append(
                    f"  rejected {namer.ref(rej.load)}: "
                    f"{rej.reason.value}{detail}")
            for load in freport.subsumed:
                lines.append(
                    f"  {namer.ref(load)} covered by a longer chain")
        return "\n".join(lines) if lines else "(nothing to do)"


class IndirectPrefetchPass:
    """The automatic software-prefetch generation pass for indirect
    memory accesses (Algorithm 1)."""

    name = "indirect-prefetch"

    def __init__(self, options: PrefetchOptions | None = None):
        self.options = options or PrefetchOptions()

    def run(self, module: Module) -> PrefetchReport:
        """Run on every function of ``module``."""
        side_effects = SideEffectAnalysis(module)
        report = PrefetchReport()
        for func in module.functions:
            report.functions.append(
                self.run_on_function(func, side_effects))
        return report

    def run_on_function(self, func: Function,
                        side_effects: SideEffectAnalysis | None = None
                        ) -> FunctionReport:
        """Run on a single function and return its report."""
        analyses = FunctionAnalyses(func, side_effects)
        report = FunctionReport(function=func)

        # Collect candidate loads *before* mutating (Algorithm 1 line 30).
        loads = [inst for inst in func.instructions()
                 if isinstance(inst, Load) and analyses.loop_info.loop_of(
                     inst) is not None]

        # Phase 1: DFS + legality for every load.  Chains of rejected
        # loads are kept so their DFS paths can be reported in remarks.
        chains: list[tuple[Load, ChainSearchResult, LegalityResult]] = []
        rejected_chains: dict[int, ChainSearchResult] = {}
        for load in loads:
            chain = find_chain(load, analyses)
            if chain is None:
                report.rejected.append(RejectedLoad(
                    load, RejectReason.NO_INDUCTION_VARIABLE))
                continue
            legality = check_chain(
                chain, load, analyses,
                allow_pure_calls=self.options.allow_pure_calls,
                require_canonical_iv=self.options.require_canonical_iv)
            if not legality.ok:
                report.rejected.append(RejectedLoad(
                    load, legality.reason, legality.detail))
                rejected_chains[id(load)] = chain
                continue
            chains.append((load, chain, legality))

        # Phase 2: drop chains subsumed by a longer chain over the same
        # induction variable (their loads are covered by the longer
        # chain's staggered prefetches).
        maximal = self._select_maximal(chains, report)

        # Phase 3: schedule and emit, deduplicating identical prefetches
        # (same covered load at the same offset) across chains.
        emitted_keys: set[tuple[int, int]] = set()
        for load, chain, legality in maximal:
            loads_in_chain = chain_loads(chain)
            schedules = schedule_chain(
                len(loads_in_chain), self.options.lookahead,
                include_stride=self.options.emit_stride_prefetch)
            schedules = [
                s for s in schedules
                if (id(loads_in_chain[s.position]), s.offset)
                not in emitted_keys]
            if not schedules:
                continue
            for s in schedules:
                emitted_keys.add((id(loads_in_chain[s.position]), s.offset))
            emitted = emit_prefetches(chain, legality.clamp, schedules)
            report.accepted.append(AcceptedChain(
                load=load, chain=chain, clamp=legality.clamp,
                schedules=schedules, emitted=emitted))

        if self.options.enable_hoisting:
            from .hoisting import hoist_inner_loop_prefetches
            report.hoisted = hoist_inner_loop_prefetches(
                func, report, self.options)

        # Stable per-prefetch IDs, assigned in emission order.  The
        # join layer (repro explain) maps them to runtime PCs, so they
        # are attached whether or not remarks are being collected.
        sequence = 0
        for acc in report.accepted:
            for emitted in acc.emitted:
                emitted.prefetch.remark_id = f"pf:{func.name}:{sequence}"
                sequence += 1
        for hoist in report.hoisted:
            hoist.prefetch.remark_id = f"pf:{func.name}:{sequence}"
            sequence += 1

        if active_emitter() is not None:
            self._emit_remarks(func, report, rejected_chains)

        verify_function(func)
        return report

    def _emit_remarks(self, func: Function, report: FunctionReport,
                      rejected_chains: dict[int, ChainSearchResult]
                      ) -> None:
        """Emit one remark per decision this run of the pass made.

        Names use the IR printer's stable numbering of the *transformed*
        function, matching ``report.summary()`` and ``--print-ir``.
        """
        namer = Namer(func)
        c = self.options.lookahead
        for rej in report.rejected:
            chain = rejected_chains.get(id(rej.load))
            emit("missed", self.name, "PrefetchRejected",
                 function=func.name, load=namer.ref(rej.load),
                 reason=rej.reason.name, detail=rej.detail,
                 path=[namer.ref(i) for i in chain.instructions]
                 if chain else [])
        for load in report.subsumed:
            emit("analysis", self.name, "PrefetchSubsumed",
                 function=func.name, load=namer.ref(load))
        for acc in report.accepted:
            loads_in_chain = chain_loads(acc.chain)
            emit("passed", self.name, "PrefetchChainAccepted",
                 function=func.name, load=namer.ref(acc.load),
                 iv=namer.ref(acc.chain.iv.phi), t=acc.num_loads, c=c,
                 clamp_source=acc.clamp.source,
                 clamp_bound=namer.ref(acc.clamp.value),
                 chain=[namer.ref(i) for i in acc.chain.instructions])
            for emitted in acc.emitted:
                # offset = max(1, c*(t-l)//t), eq. (1); the inputs are
                # recorded so the join layer can tell the whole story.
                emit("passed", self.name, "PrefetchInserted",
                     function=func.name,
                     prefetch_id=emitted.prefetch.remark_id,
                     covered_load=namer.ref(
                         loads_in_chain[emitted.position]),
                     position=emitted.position, offset=emitted.offset,
                     t=acc.num_loads, c=c,
                     clamp_source=(acc.clamp.source
                                   if emitted.position >= 1 else "none"),
                     new_instructions=len(emitted.new_instructions))
        for hoist in report.hoisted:
            emit("passed", self.name, "PrefetchHoisted",
                 function=func.name,
                 prefetch_id=hoist.prefetch.remark_id,
                 load=namer.ref(hoist.load),
                 block=(hoist.prefetch.parent.name
                        if hoist.prefetch.parent else ""),
                 new_instructions=len(hoist.new_instructions))
        if self.options.enable_hoisting:
            hoisted = {id(h.load) for h in report.hoisted}
            for rej in report.rejected:
                if rej.reason is RejectReason.NON_INDUCTION_PHI and \
                        id(rej.load) not in hoisted:
                    emit("missed", self.name, "PrefetchHoistRejected",
                         function=func.name, load=namer.ref(rej.load))

    @staticmethod
    def _select_maximal(chains, report: FunctionReport):
        """Keep only chains not subsumed by a longer chain on the same IV."""
        maximal = []
        load_sets = [
            (set(map(id, chain_loads(chain))), load, chain, legality)
            for load, chain, legality in chains]
        for ids, load, chain, legality in load_sets:
            subsumed = False
            for other_ids, other_load, other_chain, _ in load_sets:
                if other_load is load:
                    continue
                if ids < other_ids and other_chain.iv is chain.iv:
                    subsumed = True
                    break
            if subsumed:
                report.subsumed.append(load)
            else:
                maximal.append((load, chain, legality))
        return maximal
