"""Disk cache of simulation results keyed by run content.

A run is identified by everything that determines its outcome: the
built IR text (which already folds in the variant, look-ahead and pass
options), the machine configuration, the *workload state* at build time
(constructor parameters, input arrays, and the RNG state — ``prepare``
draws from the shared generator, so the same parameters at a different
point in a figure's run sequence hash differently, preserving the
figures' data-generation sequencing), and a hash of the simulator's own
source code so any engine change invalidates everything.

An entry is ``{"row": ..., "rng": ...}``: the JSON-serialised
:class:`~repro.bench.runner.VariantResult` and the workload RNG's
``bit_generator.state`` after ``prepare``.  A hit restores that state
instead of running ``prepare``, which is exact because ``prepare``
changes its workload only by drawing from the RNG (the
:meth:`~repro.workloads.base.Workload.prepare` contract), so the
instance — and every later run key — ends where an uncached run leaves
it.

Cache layout: ``<root>/<key[:2]>/<key>.json``, one entry per file.  The
store is :class:`repro.serve.cas.ContentStore` — the content-addressed
store shared with ``repro serve`` — so writes are atomic
(same-directory temp file + rename), corrupt or truncated entries read
as misses, concurrent runner/server processes can share a root, and
each instance remembers recent entries in a bounded per-process memory;
``repro cache gc`` garbage-collects it.  :class:`RunCache` adds the
``cache`` spans.  Which cache a run uses is the caller's choice (see
:func:`repro.bench.runner.run_defaults`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..obs.sinks import span
from ..serve.cas import ContentStore

#: Bump when cached-result semantics change without a source change
#: of :data:`_SIM_SOURCES` (``bench/`` and ``serve/``, which write the
#: entries, are not hashed).
ENGINE_VERSION = "2"

_CODE_HASH: str | None = None

#: Package subtrees whose source determines a stored result — a run
#: cache entry, or a served answer keyed by request and this hash.
#: ``analysis`` feeds the prefetch pass, so it shapes the built IR;
#: ``remarks`` shapes a served result's remark list; ``telemetry``
#: snapshots ride inside cached results, so a classification change
#: must invalidate them.  ``obs`` holds wall-clock code only (spans,
#: metrics), so editing it keeps every stored result.
_SIM_SOURCES = ("ir", "frontend", "analysis", "passes", "machine",
                "workloads", "telemetry", "remarks")


def simulator_code_hash() -> str:
    """Hash of every source file that can affect a run's numbers."""
    global _CODE_HASH
    if _CODE_HASH is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(ENGINE_VERSION.encode())
        for sub in _SIM_SOURCES:
            for path in sorted((root / sub).rglob("*.py")):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        _CODE_HASH = digest.hexdigest()
    return _CODE_HASH


def canonical_token(value) -> str:
    """Stable textual form of a (possibly nested) run parameter.

    Arrays hash by content, RNGs by bit-generator state, and arbitrary
    objects (workloads, CSR graphs) by class name + canonicalised
    ``__dict__`` — so two workload instances with equal parameters and
    equal RNG state produce equal tokens.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, np.ndarray):
        body = hashlib.sha256(
            np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray({value.dtype},{value.shape},{body})"
    if isinstance(value, np.generic):
        return repr(value.item())
    if isinstance(value, np.random.Generator):
        state = json.dumps(value.bit_generator.state, sort_keys=True,
                           default=repr)
        return f"rng({state})"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(
            f"{canonical_token(k)}:{canonical_token(v)}"
            for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_token(v) for v in value) + "]"
    if hasattr(value, "__dict__"):
        return (f"{type(value).__qualname__}"
                f"({canonical_token(vars(value))})")
    return repr(value)


def run_key(ir_text: str, machine, workload, validate: bool,
            sim) -> str:
    """Content hash identifying one simulation run.

    ``ir_text`` is the printed module *after* variant construction, so
    variant / lookahead / pass options / manual knobs are all folded in
    already; ``workload`` is tokenised at its pre-``prepare`` state.
    ``sim`` (a :class:`~repro.envcfg.SimOptions`) is tokenised whole:
    telemetry and timeline snapshots ride the cached row, so an entry
    made with other engine options must never satisfy the request, and
    hashing every field means none can be left out.
    """
    token = "\n".join((
        simulator_code_hash(),
        canonical_token(machine),
        canonical_token(workload),
        repr(validate),
        canonical_token(sim),
        ir_text,
    ))
    return hashlib.sha256(token.encode()).hexdigest()


class RunCache(ContentStore):
    """Content-addressed store of run results, probed and stored under
    ``cache`` spans.

    Atomic writes, corrupt-entry tolerance under concurrent writers and
    the bounded memory of recent entries are inherited from
    :class:`ContentStore`.
    """

    def get(self, key: str) -> dict | None:
        """The entry stored under ``key``, or ``None`` (corrupt = miss).
        The dict is the store's memory's own: read it, never change it."""
        with span("cache", "probe", key=key[:12]) as s:
            data = super().get(key)
            s["hit"] = data is not None
            return data

    def put(self, key: str, data: dict) -> None:
        """Store a result, atomically (safe under concurrent writers)."""
        with span("cache", "store", key=key[:12]):
            super().put(key, data)
