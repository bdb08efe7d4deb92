"""Disk cache of simulation results keyed by run content.

A run is identified by everything that determines its outcome: the
built IR text (which already folds in the variant, look-ahead and pass
options), the machine configuration, the *workload state* at build time
(constructor parameters, input arrays, and the RNG state — ``prepare``
draws from the shared generator, so the same parameters at a different
point in a figure's run sequence hash differently, preserving the
figures' data-generation sequencing), and a hash of the simulator's own
source code so any engine change invalidates everything.

Cache layout: ``<root>/<key[:2]>/<key>.json``, one JSON-serialised
:class:`~repro.bench.runner.VariantResult` per file.  The disk layer is
:class:`repro.serve.cas.ContentStore` — the content-addressed store
shared with ``repro serve`` — so writes are atomic (same-directory temp
file + rename), corrupt or truncated entries read as misses, and
concurrent runner/server processes can share a root; ``repro cache gc``
garbage-collects it.  :class:`RunCache` adds a per-process in-memory
layer on top.

Environment:

* ``REPRO_SIM_CACHE=1`` enables the cache by default for
  :func:`~repro.bench.runner.run_variant` (default: disabled);
* ``REPRO_SIM_CACHE_DIR`` overrides the cache root (default
  ``.sim-cache`` in the working directory).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ..serve.cas import ContentStore
from ..telemetry.spans import span

#: Bump when cached-result semantics change without a source change.
ENGINE_VERSION = "1"

_CODE_HASH: str | None = None

#: Package subtrees whose source determines simulation results.
#: ``telemetry`` is included because telemetry snapshots ride inside
#: cached results: a classification change must invalidate them.
_SIM_SOURCES = ("ir", "frontend", "passes", "machine", "workloads",
                "telemetry")


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
            telemetry: bool = False, timeline: bool = False) -> str:
    """Content hash identifying one simulation run.

    ``ir_text`` is the printed module *after* variant construction, so
    variant / lookahead / pass options / manual knobs are all folded in
    already; ``workload`` is tokenised at its pre-``prepare`` state.
    ``telemetry`` participates because a telemetry-on run carries its
    snapshot inside the cached result — a telemetry-off entry must not
    satisfy a telemetry-on request (it would be silently snapshot-free),
    nor vice versa.  ``timeline`` participates for the same reason (the
    windowed snapshot rides the cached row).
    """
    token = "\n".join((
        simulator_code_hash(),
        canonical_token(machine),
        canonical_token(workload),
        repr(validate),
        f"telemetry={telemetry}",
        f"timeline={timeline}",
        ir_text,
    ))
    return hashlib.sha256(token.encode()).hexdigest()


class RunCache(ContentStore):
    """Content-addressed store of run results with an in-memory layer.

    The disk behaviour — atomic writes, corrupt-entry tolerance under
    concurrent writers — is inherited from :class:`ContentStore`; this
    class adds the per-process memo and span instrumentation.
    """

    def __init__(self, root: str | os.PathLike):
        super().__init__(root)
        self._mem: dict[str, dict] = {}

    def get(self, key: str) -> dict | None:
        """Cached result dict for ``key``, or ``None`` (corrupt = miss)."""
        with span("cache", "probe", key=key[:12]) as s:
            data = self._mem.get(key)
            if data is None:
                data = super().get(key)  # counts the hit or miss
                if data is None:
                    s["hit"] = False
                    return None
                self._mem[key] = data
            else:
                self.hits += 1
            s["hit"] = True
            return data

    def put(self, key: str, data: dict) -> None:
        """Store a result, atomically (safe under concurrent writers)."""
        with span("cache", "store", key=key[:12]):
            self._mem[key] = data
            super().put(key, data)


def default_cache_dir() -> str:
    """Cache root honouring ``REPRO_SIM_CACHE_DIR``."""
    return os.environ.get("REPRO_SIM_CACHE_DIR") or ".sim-cache"


_SHARED: dict[str, RunCache] = {}


def resolve_run_cache(cache) -> RunCache | None:
    """Normalise a caller's ``cache`` argument.

    ``RunCache`` → itself; ``False`` → disabled; ``None`` → enabled iff
    ``REPRO_SIM_CACHE=1``, rooted at :func:`default_cache_dir` (one
    shared instance per root, so the in-memory layer persists across
    calls); ``True`` → enabled regardless of the environment.
    """
    if isinstance(cache, RunCache):
        return cache
    if cache is False or cache is None and \
            os.environ.get("REPRO_SIM_CACHE") != "1":
        return None
    root = default_cache_dir()
    shared = _SHARED.get(root)
    if shared is None:
        shared = _SHARED[root] = RunCache(root)
    return shared
