"""Remark collection: the emitter object and the active-emitter scope.

Passes do not take an emitter parameter — they call the module-level
:func:`emit`, which is a no-op unless an emitter has been installed
with :func:`collecting` (or by an instrumented
:class:`~repro.passes.pass_manager.PassManager`).  This keeps every
pass's hot path free of remark plumbing when remarks are off: the only
cost is one context-variable read per candidate event.  Scopes nest,
and each thread and asyncio task sees only the emitter its own context
installed.

Usage::

    from repro.remarks import RemarkEmitter, collecting

    emitter = RemarkEmitter()
    with collecting(emitter):
        IndirectPrefetchPass(options).run(module)
    for remark in emitter:
        print(remark.message)
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from .remark import Remark

#: The innermost installed emitter of this context; it receives remarks.
_EMITTER: ContextVar["RemarkEmitter | None"] = ContextVar(
    "repro_remark_emitter", default=None)


class RemarkEmitter:
    """An append-only sink of :class:`Remark` records."""

    def __init__(self):
        self.remarks: list[Remark] = []

    def add(self, remark: Remark) -> Remark:
        """Record one remark."""
        self.remarks.append(remark)
        return remark

    def __len__(self) -> int:
        return len(self.remarks)

    def __iter__(self) -> Iterator[Remark]:
        return iter(self.remarks)

    # -- filtering helpers ---------------------------------------------

    def by_name(self, name: str) -> list[Remark]:
        """All remarks with the given registered name."""
        return [r for r in self.remarks if r.name == name]

    def by_pass(self, pass_name: str) -> list[Remark]:
        """All remarks emitted by one pass."""
        return [r for r in self.remarks if r.pass_name == pass_name]

    def by_kind(self, kind: str) -> list[Remark]:
        """All remarks of one kind (passed/missed/analysis/warning)."""
        return [r for r in self.remarks if r.kind == kind]

    def for_prefetch(self, prefetch_id: str) -> list[Remark]:
        """All remarks attached to one stable prefetch ID."""
        return [r for r in self.remarks if r.prefetch_id == prefetch_id]


def active_emitter() -> RemarkEmitter | None:
    """The innermost emitter this context installed, or ``None``."""
    return _EMITTER.get()


@contextmanager
def collecting(emitter: RemarkEmitter):
    """Install ``emitter`` as the remark sink for the dynamic extent."""
    token = _EMITTER.set(emitter)
    try:
        yield emitter
    finally:
        _EMITTER.reset(token)


def emit(kind: str, pass_name: str, name: str, *, function: str = "",
         prefetch_id: str | None = None, **args) -> Remark | None:
    """Emit one remark to the active emitter, if any.

    Keyword-argument order becomes the serialised arg order.  Returns
    the :class:`Remark` when one was recorded, else ``None`` (remarks
    disabled) — callers must not branch on the return value for
    anything but tests, so behaviour is identical either way.
    """
    sink = active_emitter()
    if sink is None:
        return None
    return sink.add(Remark(kind=kind, pass_name=pass_name, name=name,
                           function=function, args=tuple(args.items()),
                           prefetch_id=prefetch_id))
