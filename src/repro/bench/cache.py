"""Disk cache of simulation results keyed by run content.

A run is identified by everything that determines its outcome: the
build recipe (variant, look-ahead, pass options and manual knobs,
exactly the arguments :meth:`~repro.workloads.base.Workload.build_variant`
receives), the machine configuration, the *workload state* at build time
(constructor parameters, input arrays, and the RNG state — ``prepare``
draws from the shared generator, so the same parameters at a different
point in a figure's run sequence hash differently, preserving the
figures' data-generation sequencing), and a hash of the simulator's own
source code so any engine change invalidates everything.  The recipe
stands in for the built IR: the build is a deterministic function of
the recipe, the workload's state and the hashed source, so a key is
made, and a hit answered, without building anything.

Every part of the key is a :func:`canonical_token`.  The machine and
the engine options are frozen dataclasses that one run after another
shares, so each such object is tokenised once and its token kept by
identity (never by ``==``: equal values may tokenise differently); the
workload, whose RNG moves with every run, is tokenised afresh each
time.  A warm hit is then one hash over tokens that mostly exist
already, plus one file read (:meth:`ContentStore.get
<repro.serve.cas.ContentStore.get>`).

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
import threading
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
#: Neither key holds the built IR, so every file a build runs must be
#: here: ``ir``, ``frontend``, ``passes``, ``workloads`` and
#: ``analysis``, which feeds the prefetch pass;
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


#: Tokens of frozen dataclass instances that can never change, by
#: ``id``: ``id -> (instance, token)``.  An entry holds its instance,
#: so no other object can take that id while the entry stands; the map
#: empties whenever it reaches :data:`TOKEN_MEMORY` entries.  Readers
#: take no lock; writers hold :data:`_TOKENS_LOCK`.
_TOKENS: dict[int, tuple[object, str]] = {}
_TOKENS_LOCK = threading.Lock()

#: Most instances :data:`_TOKENS` holds at once.
TOKEN_MEMORY = 256

#: Exact types that are immutable leaves.
_ATOMS = frozenset((type(None), bool, int, float, str))


def _frozen(value) -> bool:
    """Whether ``value`` is an instance of a frozen dataclass."""
    params = getattr(type(value), "__dataclass_params__", None)
    return params is not None and params.frozen


def _immutable(value) -> bool:
    """Whether ``value`` can never change: an atom, a tuple of such
    values, or a frozen dataclass instance whose attributes all are."""
    kind = type(value)
    if kind in _ATOMS:
        return True
    if kind is tuple:
        return all(map(_immutable, value))
    return _frozen(value) and all(map(_immutable, vars(value).values()))


def canonical_token(value) -> str:
    """Stable textual form of a (possibly nested) run parameter.

    An atom is its ``repr``; an array hashes by content; a dict is its
    sorted ``key:value`` token pairs; an RNG is ``rng(...)`` over the
    token of its bit-generator state, read once (int and str leaves by
    ``repr``, an array leaf by content, never printed: numpy abbreviates
    a long printed array); any other object (configs, workloads, CSR
    graphs) is its class name + the token of its ``__dict__`` — so two
    workload instances with equal parameters and equal RNG state
    produce equal tokens.

    A frozen dataclass instance whose attributes are all atoms, tuples
    or such instances (``MachineConfig`` with its ``CacheConfig``s,
    ``SimOptions``) is tokenised once: :data:`_TOKENS` keeps its token
    by identity, never by ``==`` — ``CacheConfig(32768, 8, 4)`` equals
    ``CacheConfig(32768, 8, 4.0)``, but their tokens differ.  An
    instance that holds a list or dict is tokenised on every call.
    """
    if type(value) in _ATOMS or isinstance(value, (bool, int, float, str)):
        return repr(value)
    known = _TOKENS.get(id(value))
    if known is not None and known[0] is value:
        return known[1]
    if isinstance(value, np.ndarray):
        body = hashlib.sha256(
            np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray({value.dtype},{value.shape},{body})"
    if isinstance(value, np.generic):
        return repr(value.item())
    if isinstance(value, np.random.Generator):
        return f"rng({canonical_token(value.bit_generator.state)})"
    if isinstance(value, dict):
        return "{" + ",".join(sorted([
            f"{canonical_token(k)}:{canonical_token(v)}"
            for k, v in value.items()])) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_token(v) for v in value) + "]"
    if hasattr(value, "__dict__"):
        token = (f"{type(value).__qualname__}"
                 f"({canonical_token(vars(value))})")
        if _frozen(value) and _immutable(value):
            with _TOKENS_LOCK:
                if len(_TOKENS) >= TOKEN_MEMORY:
                    _TOKENS.clear()
                _TOKENS[id(value)] = (value, token)
        return token
    return repr(value)


def run_key(variant: str, lookahead: int, options, manual_knobs: dict,
            machine, workload, validate: bool, sim) -> str:
    """Content hash identifying one simulation run: the SHA-256 of
    the simulator code hash and the :func:`canonical_token` of every
    argument, one per line.

    ``variant``, ``lookahead``, ``options`` and ``manual_knobs`` are the
    build recipe, the arguments
    :meth:`~repro.workloads.base.Workload.build_variant` receives.  They
    are hashed as given, not normalised: two recipes that build the
    same IR (``plain`` at two look-aheads, ``options=None`` next to
    ``PrefetchOptions(lookahead=c)``) keep two entries — a duplicate,
    never a wrong row.  ``workload`` is tokenised at its pre-build,
    pre-``prepare`` state; the build reads it and the hashed source
    only, so the recipe pins the module down.  ``sim`` (a
    :class:`~repro.envcfg.SimOptions`) is tokenised whole: telemetry
    and timeline snapshots ride the cached row, so an entry made with
    other engine options must never satisfy the request, and hashing
    every field means none can be left out.  ``machine`` and ``sim``
    are tokenised once per object (see :func:`canonical_token`), so
    keying many runs with one object costs a lookup each after the
    first; an equal object made anew (``with_huge_pages()`` per call)
    is tokenised anew, to the same token.
    """
    token = "\n".join((
        simulator_code_hash(),
        canonical_token(machine),
        canonical_token(workload),
        repr(validate),
        canonical_token(sim),
        canonical_token([variant, lookahead, options, manual_knobs]),
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
