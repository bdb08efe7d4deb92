"""The remark model: one structured record per optimization decision.

A :class:`Remark` is the repro analogue of LLVM's ``-Rpass`` /
``--save-opt-record`` YAML remarks: a pass states *what* it did (or
declined to do) to *which* IR entity and *why*, in a machine-readable
form.  Remarks are append-only observations — emitting them never
changes what a pass does.

Four kinds, mirroring LLVM's taxonomy plus a warning channel:

* ``passed`` — a transformation was applied;
* ``missed`` — a candidate was considered and rejected;
* ``analysis`` — neutral bookkeeping (pass timing, IR-size deltas);
* ``warning`` — a configuration or environment problem was tolerated.

Every remark ``name`` must be registered in :data:`KNOWN_REMARKS`; the
serializer's validator rejects unknown names so a schema drift between
emitters and consumers fails loudly (the CI contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Remark kinds (LLVM's passed/missed/analysis, plus warnings).
PASSED = "passed"
MISSED = "missed"
ANALYSIS = "analysis"
WARNING = "warning"
KINDS = (PASSED, MISSED, ANALYSIS, WARNING)

#: Registry of every remark name any pass may emit, with a one-line
#: meaning.  The serializer validates against this set.
KNOWN_REMARKS: dict[str, str] = {
    # Pass-manager instrumentation.
    "PassExecuted": "one pass ran: wall time and IR-size deltas",
    # The indirect-prefetch pass (Algorithm 1).
    "PrefetchChainAccepted":
        "a load chain passed DFS + legality and will be prefetched",
    "PrefetchInserted":
        "one prefetch instruction emitted, with its eq. (1) inputs",
    "PrefetchRejected":
        "a candidate load was rejected, with the RejectReason",
    "PrefetchSubsumed":
        "a chain was dropped because a longer chain covers its loads",
    "PrefetchHoisted":
        "a rejected load's prefetch was hoisted to the inner-loop "
        "preheader (§4.6)",
    "PrefetchHoistRejected":
        "§4.6 hoisting was attempted for a rejected load and declined",
    # The ICC-like comparator pass.
    "BaselinePrefetchInserted":
        "the stride-indirect baseline matched B[A[i]] and prefetched",
    "BaselineSkipped":
        "the stride-indirect baseline declined a load, with the reason",
    # Cleanup passes.
    "LoopInvariantHoisted": "LICM moved an instruction to a preheader",
    "RedundantExpressionEliminated":
        "CSE replaced an instruction with a dominating equivalent",
    "DeadInstructionRemoved": "DCE deleted an unused instruction",
    "ConstantFolded": "constant folding replaced an instruction",
    "SlotPromoted": "mem2reg promoted a stack slot to SSA registers",
    "BlockMerged": "simplifycfg absorbed a single-predecessor block",
    "ForwardingBlockRemoved": "simplifycfg bypassed an empty jmp block",
    "UnreachableBlockRemoved": "simplifycfg deleted a dead block",
    # The trace JIT (repro.machine.tracejit).
    "TraceCompiled":
        "a hot loop path was compiled to a specialized trace closure",
    "TraceDeopt":
        "a trace recording was abandoned or a compiled trace was "
        "invalidated, with the reason",
    # Runtime configuration warnings.
    "EnvVarClamped":
        "a REPRO_* environment variable was invalid and a fallback "
        "was used (see repro.envcfg)",
}

#: Arg keys whose values are wall-clock measurements and therefore vary
#: run to run; determinism checks canonicalise them to 0.
VOLATILE_ARG_KEYS = ("wall_us",)

#: JSON scalar types allowed as remark argument values.
_SCALARS = (str, int, float, bool, type(None))


def _norm_value(value):
    """Normalise an arg value to the JSON-stable subset.

    Scalars pass through; tuples/lists become lists of scalars; enums
    and IR values must be stringified by the caller (remarks never hold
    live IR references — they outlive the module they describe).
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_norm_value(v) for v in value]
    raise TypeError(
        f"remark arg values must be JSON scalars or lists, got "
        f"{type(value).__name__}: {value!r}")


@dataclass(frozen=True)
class Remark:
    """One optimization remark.

    :ivar kind: one of :data:`KINDS`.
    :ivar pass_name: the emitting pass's ``name`` attribute.
    :ivar name: registered remark name (see :data:`KNOWN_REMARKS`).
    :ivar function: enclosing IR function name ("" for module scope).
    :ivar args: ordered (key, value) pairs of JSON scalars/lists; the
        order is part of the serialised form.
    :ivar prefetch_id: stable ID of the prefetch instruction this remark
        describes (``pf:<function>:<n>``), when it describes one.  The
        join layer maps these to runtime PCs.
    """

    kind: str
    pass_name: str
    name: str
    function: str = ""
    args: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    prefetch_id: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown remark kind {self.kind!r}")
        if self.name not in KNOWN_REMARKS:
            raise ValueError(f"unregistered remark name {self.name!r}")
        object.__setattr__(
            self, "args",
            tuple((str(k), _norm_value(v)) for k, v in self.args))

    def arg(self, key: str, default=None):
        """The value of the first arg named ``key``."""
        for k, v in self.args:
            if k == key:
                return v
        return default

    @property
    def message(self) -> str:
        """Compact human-readable one-liner."""
        where = f" @{self.function}" if self.function else ""
        pid = f" [{self.prefetch_id}]" if self.prefetch_id else ""
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.args)
        body = f" {{{rendered}}}" if rendered else ""
        return (f"{self.kind}: {self.pass_name}: {self.name}"
                f"{where}{pid}{body}")
