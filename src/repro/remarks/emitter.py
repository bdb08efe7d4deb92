"""The remark sink and the calls that reach it.

Passes do not take an emitter parameter — they call the module-level
:func:`emit`, which is a no-op unless a :class:`RemarkEmitter` is
installed with :func:`repro.obs.sinks.collecting`.  This keeps every
pass's hot path free of remark plumbing when remarks are off: the only
cost is one context-variable read per candidate event.  Scopes nest,
and each thread and asyncio task sees only the emitter its own context
installed.

Usage::

    from repro.obs.sinks import collecting
    from repro.remarks import RemarkEmitter

    emitter = RemarkEmitter()
    with collecting(emitter):
        IndirectPrefetchPass(options).run(module)
    for remark in emitter:
        print(remark.message)
"""

from __future__ import annotations

from typing import Iterator

# The no-op paths below read the sinks variable inline: one lookup.
from ..obs.sinks import _SINKS
from .remark import Remark


class RemarkEmitter:
    """An append-only sink of :class:`Remark` records."""

    def __init__(self):
        self.records: list[Remark] = []

    def add(self, remark: Remark) -> Remark:
        """Record one remark."""
        self.records.append(remark)
        return remark

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Remark]:
        return iter(self.records)

    # -- filtering helpers ---------------------------------------------

    def by_name(self, name: str) -> list[Remark]:
        """All remarks with the given registered name."""
        return [r for r in self.records if r.name == name]

    def by_pass(self, pass_name: str) -> list[Remark]:
        """All remarks emitted by one pass."""
        return [r for r in self.records if r.pass_name == pass_name]

    def by_kind(self, kind: str) -> list[Remark]:
        """All remarks of one kind (passed/missed/analysis/warning)."""
        return [r for r in self.records if r.kind == kind]

    def for_prefetch(self, prefetch_id: str) -> list[Remark]:
        """All remarks attached to one stable prefetch ID."""
        return [r for r in self.records if r.prefetch_id == prefetch_id]


def active_emitter() -> RemarkEmitter | None:
    """The innermost emitter this context installed, or ``None``."""
    return _SINKS.get().get(RemarkEmitter)


def emit(kind: str, pass_name: str, name: str, *, function: str = "",
         prefetch_id: str | None = None, **args) -> Remark | None:
    """Emit one remark to the active emitter, if any.

    Keyword-argument order becomes the serialised arg order.  Returns
    the :class:`Remark` when one was recorded, else ``None`` (remarks
    disabled) — callers must not branch on the return value for
    anything but tests, so behaviour is identical either way.
    """
    sink = _SINKS.get().get(RemarkEmitter)
    if sink is None:
        return None
    return sink.add(Remark(kind=kind, pass_name=pass_name, name=name,
                           function=function, args=tuple(args.items()),
                           prefetch_id=prefetch_id))
