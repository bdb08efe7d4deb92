"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions at each layer boundary of
``repro`` (a monkeypatch installed for the traced phase only, removed
after it) and records one span per call -- layer, name, start, end,
parent and track -- in memory, plus the counts that are cheapest to
take at the same boundary (prefetches inserted, cache hits, frontend
rejections, simulated instructions).  :func:`layer_table` turns spans
into calls, busy and self time per layer; :func:`chrome_trace` writes
them as Chrome trace-event JSON.  :func:`machine_shares` splits the
simulator's own time by source module from a separate cProfile pass.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

#: Layers in report order; ``harness`` is the benchmark's own loop.
LAYERS = ("bench", "workloads", "passes", "ir", "frontend", "cache",
          "machine", "serve", "harness")

#: Errors the frontend raises on bad source.
FRONTEND_ERRORS = ("LexError", "SyntaxErrorC", "LoweringError")


class Span(NamedTuple):
    """One finished span.  A tuple of plain values, so the garbage
    collector stops tracking it: tens of thousands of spans must not
    slow the collections of the program being traced."""

    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    track: int = 0


class Tracer:
    """In-memory span recorder with the layer patches of ``repro``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        #: Open spans: (index, layer, name, start); the slot at
        #: ``index`` is filled when the span closes.
        self._stack: list[tuple] = []
        self._undo: list = []
        #: When off, wrapped functions run untraced: the untraced and the
        #: traced run of one operation can follow each other directly.
        self.enabled = True

    # -- recording ----------------------------------------------------

    def _open(self, layer: str, name: str) -> None:
        self._stack.append((len(self.spans), layer, name,
                            time.perf_counter()))
        self.spans.append(None)

    def _close(self) -> None:
        index, layer, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans[index] = Span(layer, name, start, time.perf_counter(),
                                 parent)

    @contextmanager
    def span(self, layer: str, name: str):
        """Record a span around the block (the benchmark's own root
        spans: one per traced operation, or the whole closed loop)."""
        self._open(layer, name)
        try:
            yield
        finally:
            self._close()

    def add(self, layer: str, name: str, start: float, end: float,
            track: int) -> None:
        """Record a finished span under the open one (concurrent client
        requests, one track per connection)."""
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(layer, name, start, end, parent, track))

    def wrap(self, layer: str, name: str, fn, after=None, failed=None):
        """``fn`` recording a span per call; ``after(result)`` and
        ``failed(exc)`` count outcomes once the span is closed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close()
                if failed is not None:
                    failed(exc)
                raise
            self._close()
            if after is not None:
                after(result)
            return result
        return traced

    # -- patching -----------------------------------------------------

    def _patch_method(self, cls, attr: str, layer: str, after=None,
                      failed=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(layer, f"{cls.__name__}.{attr}",
                                     original, after, failed))
        self._undo.append((cls, attr, original))

    def _patch_function(self, fn, layer: str, after=None,
                        failed=None) -> None:
        """Replace ``fn`` in every loaded module that holds it (callers
        that imported it by name included)."""
        traced = self.wrap(layer, fn.__name__, fn, after, failed)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._undo.append((module, attr, fn))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.bench import cache, runner
        from repro.frontend import compile_source
        from repro.ir import parse_module, print_module, verify_module
        from repro.machine.interpreter import Interpreter
        from repro.passes import (IndirectPrefetchPass, PassManager,
                                  StrideIndirectBaselinePass)
        from repro.serve.cas import ContentStore
        from repro.workloads.base import Workload

        count = self.counts

        def prefetched(report) -> None:
            count["passes.prefetches_inserted"] += report.num_prefetches
            count["passes.accepted"] += len(report.accepted)
            count["passes.considered"] += (len(report.accepted)
                                           + len(report.rejected))

        def baseline(report) -> None:
            count["passes.prefetches_inserted"] += 2 * len(
                report.prefetched)
            count["passes.accepted"] += len(report.prefetched)
            count["passes.considered"] += (len(report.prefetched)
                                           + len(report.skipped))

        def rejected(exc) -> None:
            if type(exc).__name__ in FRONTEND_ERRORS:
                count["frontend.rejected"] += 1

        def probed(hit) -> None:
            count["cache.probes"] += 1
            count["cache.hits"] += hit is not None

        def simulated(result) -> None:
            count["machine.sim_insts"] += result.stats.instructions

        def prepared(run) -> None:
            run.validate = self.wrap("workloads", "validate",
                                     run.validate)

        for fn in (runner.run_variant, runner.run_specs):
            self._patch_function(fn, "bench")
        for cls in _subclasses(Workload):
            for attr in ("build", "build_manual"):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, "workloads")
            if "prepare" in cls.__dict__:
                self._patch_method(cls, "prepare", "workloads",
                                   after=prepared)
        self._patch_method(IndirectPrefetchPass, "run", "passes",
                           after=prefetched)
        self._patch_method(StrideIndirectBaselinePass, "run", "passes",
                           after=baseline)
        self._patch_method(PassManager, "run", "passes")
        for fn in (print_module, verify_module, parse_module):
            self._patch_function(fn, "ir")
        self._patch_function(compile_source, "frontend", failed=rejected)
        self._patch_function(cache.run_key, "cache")
        self._patch_method(cache.RunCache, "get", "cache", after=probed)
        self._patch_method(cache.RunCache, "put", "cache")
        self._patch_method(ContentStore, "get", "cache")
        self._patch_method(ContentStore, "put", "cache")
        self._patch_method(Interpreter, "__init__", "machine")
        self._patch_method(Interpreter, "run", "machine", after=simulated)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- analysis ------------------------------------------------------------------


def _merge(intervals: list[tuple[float, float]]) -> list[list[float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _subtract(start: float, end: float, cover: list[list[float]]):
    """``[start, end]`` minus the merged intervals ``cover``."""
    out = []
    at = start
    for c_start, c_end in cover:
        if c_end <= at or c_start >= end:
            continue
        if c_start > at:
            out.append((at, c_start))
        at = max(at, c_end)
    if at < end:
        out.append((at, end))
    return out


def covered(intervals) -> float:
    return sum(end - start for start, end in _merge(list(intervals)))


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per layer: ``calls`` (outermost spans of the layer), ``busy_s``
    (time any span of the layer is open), ``self_s`` (time the layer is
    the innermost open span: a span minus the cover of its children) and
    ``share`` (self over the root span's wall time)."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    own: dict[str, list] = {layer: [] for layer in LAYERS}
    busy: dict[str, list] = {layer: [] for layer in LAYERS}
    calls: Counter = Counter()
    for index, span in enumerate(spans):
        cover = _merge([(spans[c].start, spans[c].end)
                        for c in children.get(index, ())])
        own[span.layer].extend(_subtract(span.start, span.end, cover))
        busy[span.layer].append((span.start, span.end))
        parent = span.parent
        while parent is not None and spans[parent].layer != span.layer:
            parent = spans[parent].parent
        if parent is None:
            calls[span.layer] += 1
    roots = [s for s in spans if s.parent is None]
    wall = sum(s.end - s.start for s in roots)
    table = {}
    for layer in LAYERS:
        self_s = covered(own[layer])
        table[layer] = {"calls": calls[layer],
                        "busy_s": covered(busy[layer]),
                        "self_s": self_s,
                        "share": self_s / wall if wall else 0.0}
    table["wall_s"] = wall
    return table


def chrome_trace(spans: list[Span]) -> dict:
    """Spans as Chrome trace-event JSON (``ph: X``, microseconds)."""
    epoch = min((s.start for s in spans), default=0.0)
    events = [{"name": f"{s.layer}.{s.name}", "cat": s.layer, "ph": "X",
               "ts": (s.start - epoch) * 1e6,
               "dur": (s.end - s.start) * 1e6, "pid": 1, "tid": s.track,
               "args": {"id": i, "parent": s.parent}}
              for i, s in enumerate(spans)]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- simulator profile -----------------------------------------------------------

#: Source modules of ``repro/machine`` by simulator part.
MACHINE_PARTS = {
    "interpreter.py": "interp", "fastexec.py": "interp",
    "tracejit.py": "interp", "vectorsim.py": "interp",
    "system.py": "memsys", "cache.py": "memsys", "tlb.py": "memsys",
    "dram.py": "memsys", "memory.py": "memsys",
    "hwprefetch.py": "hwprefetch",
    "core.py": "core", "multicore.py": "core", "configs.py": "core",
}
PARTS = ("interp", "memsys", "hwprefetch", "core")


def _part(filename: str) -> str | None:
    path = filename.replace("\\", "/")
    if "/repro/machine/" not in path:
        return None
    return MACHINE_PARTS.get(path.rsplit("/", 1)[-1], "core")


#: The profiled pass profiles one ``Interpreter.run`` call in this many
#: (cProfile triples the simulator's time; the run order mixes every
#: benchmark, system and variant, so a regular sample keeps the mix).
PROFILE_EVERY = 3


@contextmanager
def profiling_machine():
    """Profile inside every :data:`PROFILE_EVERY`-th ``Interpreter.run``
    call and nowhere else; yields the profiler."""
    from repro.machine.interpreter import Interpreter

    profiler = cProfile.Profile()
    original = Interpreter.__dict__["run"]
    calls = iter(range(sys.maxsize))

    @functools.wraps(original)
    def run(*args, **kwargs):
        if next(calls) % PROFILE_EVERY:
            return original(*args, **kwargs)
        profiler.enable()
        try:
            return original(*args, **kwargs)
        finally:
            profiler.disable()

    Interpreter.run = run
    try:
        yield profiler
    finally:
        Interpreter.run = original


def machine_shares(profiler: cProfile.Profile) -> dict[str, float]:
    """Share of the simulator's self time per part.  Time in builtins
    and in other packages goes to the part of the machine function that
    called it, split by that caller's share of the calls."""
    stats = pstats.Stats(profiler).stats
    parts: Counter = Counter()
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        part = _part(filename)
        if part is not None:
            parts[part] += tottime
            continue
        for (caller_file, _, _), caller_stats in callers.items():
            caller_part = _part(caller_file)
            if caller_part is not None:
                parts[caller_part] += caller_stats[2]
    total = sum(parts.values())
    return {part: parts[part] / total if total else 0.0 for part in PARTS}
