"""The serve wire protocol: versioned requests, content keys, executor.

Request schema (``repro-serve-request-v1``)
-------------------------------------------

A request is a JSON object.  Three kinds:

``simulate`` — run one workload variant on one machine::

    {"schema": "repro-serve-request-v1", "kind": "simulate",
     "workload": "is", "small": true, "variant": "auto",
     "machine": "Haswell", "lookahead": 64,
     "options": {"stride": true, "hoist": false},
     "validate": true, "tier": "auto",
     "include": ["telemetry", "remarks", "timeline", "spans"]}

``compile`` — compile inline kernel source (the C-like frontend),
optionally running the prefetch pass and the -O cleanup pipeline::

    {"kind": "compile", "source": "...", "prefetch": true,
     "optimize": true, "lookahead": 64,
     "options": {"stride": true, "hoist": false},
     "include": ["remarks", "spans"]}

``sleep`` — debug-only (rejected unless the server runs with
``debug=True``); used by fault-injection tests and nothing else.

:func:`normalize_request` validates a raw dict and fills defaults,
producing the *canonical* form; :func:`request_key` hashes that form
together with the simulator code hash into the CAS/coalescing key, so
identical requests — regardless of field order or omitted defaults —
share one simulation and one stored result.  Everything that can alter
the stored payload participates in the key, including ``include`` (a
telemetry-free result must never satisfy a telemetry-requesting
client), mirroring :func:`repro.bench.cache.run_key`.

:func:`execute_request` is the worker-process side: it performs the
actual compile/simulate with the requested observability attached and
returns the JSON-safe ``repro-serve-result-v1`` payload.
"""

from __future__ import annotations

import dataclasses
import time

from ..workloads import VARIANTS
from .cas import store_key

SCHEMA_REQUEST = "repro-serve-request-v1"
SCHEMA_RESULT = "repro-serve-result-v1"

KINDS = ("simulate", "compile", "sleep")
TIERS = ("auto", "reference")
INCLUDES = ("telemetry", "remarks", "timeline", "spans")
WORKLOADS = ("is", "cg", "ra", "hj2", "hj8", "g500s16", "g500s21")
MACHINES = ("Haswell", "A57", "A53", "Xeon Phi")

#: Guard rails on numeric request fields.
MAX_LOOKAHEAD = 1 << 16
MAX_SLEEP_S = 60.0

class RequestError(ValueError):
    """A request failed schema validation (HTTP 400)."""


def _field(raw: dict, name: str, kind, default):
    """One typed optional field; ``bool`` is not an ``int`` here."""
    value = raw.get(name, default)
    if kind is int and isinstance(value, bool) or \
            not isinstance(value, kind):
        raise RequestError(
            f"field {name!r} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    return value


def _choice(raw: dict, name: str, choices, default):
    value = raw.get(name, default)
    if not isinstance(value, str) or value not in choices:
        raise RequestError(
            f"field {name!r} must be one of {list(choices)}, "
            f"got {value!r}")
    return value


def _canon_workload(name) -> str:
    from ..workloads import canonical_name
    if not isinstance(name, str):
        raise RequestError("field 'workload' must be str")
    canon = canonical_name(name)
    if canon not in WORKLOADS:
        raise RequestError(
            f"unknown workload {name!r}; expected one of "
            f"{list(WORKLOADS)}")
    return canon


def _canon_machine(name) -> str:
    if not isinstance(name, str):
        raise RequestError("field 'machine' must be str")
    for known in MACHINES:
        if known.lower() == name.lower():
            return known
    raise RequestError(
        f"unknown machine {name!r}; expected one of {list(MACHINES)}")


def _canon_include(raw) -> list[str]:
    include = raw.get("include", [])
    if isinstance(include, str):  # "telemetry,remarks" query form
        include = [part for part in include.split(",") if part]
    if not isinstance(include, list) or \
            not all(isinstance(i, str) for i in include):
        raise RequestError("field 'include' must be a list of strings")
    unknown = [i for i in include if i not in INCLUDES]
    if unknown:
        raise RequestError(
            f"unknown include item(s) {unknown}; expected subset of "
            f"{list(INCLUDES)}")
    return sorted(set(include))


def _canon_options(raw) -> dict:
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise RequestError("field 'options' must be an object")
    unknown = [k for k in options if k not in ("stride", "hoist")]
    if unknown:
        raise RequestError(
            f"unknown options key(s) {unknown}; expected subset of "
            f"['stride', 'hoist']")
    return {"stride": _field(options, "stride", bool, True),
            "hoist": _field(options, "hoist", bool, False)}


def normalize_request(raw: dict, debug: bool = False) -> dict:
    """Validate ``raw`` and return its canonical form.

    Raises :class:`RequestError` on any schema violation.  ``debug``
    admits the ``sleep`` kind (test servers only).
    """
    if not isinstance(raw, dict):
        raise RequestError("request body must be a JSON object")
    schema = raw.get("schema", SCHEMA_REQUEST)
    if schema != SCHEMA_REQUEST:
        raise RequestError(
            f"unsupported schema {schema!r}; this server speaks "
            f"{SCHEMA_REQUEST}")
    kind = _choice(raw, "kind", KINDS, "simulate")
    norm: dict = {"schema": SCHEMA_REQUEST, "kind": kind}
    lookahead = _field(raw, "lookahead", int, 64)
    if not 1 <= lookahead <= MAX_LOOKAHEAD:
        raise RequestError(
            f"field 'lookahead' must be in [1, {MAX_LOOKAHEAD}], "
            f"got {lookahead}")
    if kind == "simulate":
        norm["workload"] = _canon_workload(raw.get("workload"))
        norm["small"] = _field(raw, "small", bool, False)
        norm["variant"] = _choice(raw, "variant", VARIANTS, "auto")
        norm["machine"] = _canon_machine(raw.get("machine", "Haswell"))
        norm["lookahead"] = lookahead
        norm["options"] = _canon_options(raw)
        norm["validate"] = _field(raw, "validate", bool, True)
        norm["tier"] = _choice(raw, "tier", TIERS, "auto")
        norm["include"] = _canon_include(raw)
    elif kind == "compile":
        source = raw.get("source")
        if not isinstance(source, str) or not source.strip():
            raise RequestError(
                "field 'source' must be non-empty kernel source")
        norm["source"] = source
        norm["prefetch"] = _field(raw, "prefetch", bool, True)
        norm["optimize"] = _field(raw, "optimize", bool, False)
        norm["lookahead"] = lookahead
        norm["options"] = _canon_options(raw)
        norm["include"] = _canon_include(raw)
    else:  # sleep
        if not debug:
            raise RequestError(
                "kind 'sleep' is only accepted by debug servers")
        seconds = raw.get("seconds", 0.1)
        if isinstance(seconds, bool) or \
                not isinstance(seconds, (int, float)) or \
                not 0 <= seconds <= MAX_SLEEP_S:
            raise RequestError(
                f"field 'seconds' must be a number in "
                f"[0, {MAX_SLEEP_S}], got {seconds!r}")
        norm["seconds"] = float(seconds)
        norm["include"] = _canon_include(raw)
    return norm


def request_key(norm: dict) -> str:
    """CAS / coalescing key of a canonical request.

    Folds in the simulator code hash, so — exactly like the bench
    run-cache — any engine change invalidates every stored result.
    """
    from ..bench.cache import simulator_code_hash
    return store_key({"code": simulator_code_hash(), "request": norm})


# ---------------------------------------------------------------------------
# Worker-side execution.


def _execute_simulate(norm: dict, include: list[str]) -> dict:
    from ..bench.runner import run_variant
    from ..envcfg import SimOptions
    from ..machine.configs import system_by_name
    from ..passes.prefetch import PrefetchOptions
    from ..telemetry.timeline import DEFAULT_WINDOW_CYCLES
    from ..workloads import workload_by_name

    workload = workload_by_name(norm["workload"], small=norm["small"])
    machine = system_by_name(norm["machine"])
    options = PrefetchOptions(
        lookahead=norm["lookahead"],
        emit_stride_prefetch=norm["options"]["stride"],
        enable_hoisting=norm["options"]["hoist"])
    sim = SimOptions(
        fastpath=norm["tier"] != "reference",
        telemetry="telemetry" in include,
        timeline_window=(DEFAULT_WINDOW_CYCLES if "timeline" in include
                         else None))
    result = run_variant(
        workload, norm["variant"], machine,
        lookahead=norm["lookahead"], options=options,
        validate=norm["validate"], cache=False, sim=sim)
    return dataclasses.asdict(result)


def _execute_compile(norm: dict) -> dict:
    from ..frontend import compile_source
    from ..ir import print_module
    from ..passes import compile_pipeline

    module = compile_source(norm["source"], name="<request>")
    report = compile_pipeline(
        module, prefetch=norm["prefetch"], optimize=norm["optimize"],
        lookahead=norm["lookahead"], stride=norm["options"]["stride"],
        hoist=norm["options"]["hoist"])
    out = {} if report is None else {"prefetch_report": report.summary()}
    out["ir"] = print_module(module)
    return out


def execute_request(norm: dict) -> dict:
    """Run one canonical request to completion (worker process).

    Returns the ``repro-serve-result-v1`` payload.  Lexer, parser and
    lowering errors in client-supplied source are reported as
    ``status: "error"`` with ``code: 400`` (the client's fault); any
    other exception, a compiler bug included, is the caller's job to
    catch (the pool answers it with a 500).

    Spans go to the installed :class:`~repro.obs.sinks.SpanRecorder`
    (the pool worker installs one per job) under a top-level
    ``execute`` span.  Only ``include: ["spans"]`` puts them in the
    payload, recording into a fresh recorder when none is installed, so
    the client-visible result is the same with and without tracing.
    """
    from ..frontend import SOURCE_ERRORS
    from ..obs.sinks import SpanRecorder, active, collecting, span
    from ..remarks import RemarkEmitter
    from ..remarks.serialize import remark_to_dict

    include = norm.get("include", [])
    want_spans = "spans" in include
    start = time.perf_counter()
    payload: dict = {"schema": SCHEMA_RESULT, "status": "ok",
                     "kind": norm["kind"]}
    emitter = RemarkEmitter() if "remarks" in include else None
    recorder = active(SpanRecorder)
    if recorder is None and want_spans:
        recorder = SpanRecorder()

    def body():
        if norm["kind"] == "sleep":
            time.sleep(norm["seconds"])
            return {"slept_s": norm["seconds"]}
        if norm["kind"] == "compile":
            return _execute_compile(norm)
        return _execute_simulate(norm, include)

    try:
        # The top-level span guarantees every traced job shows at
        # least one worker-side record (sleep jobs have no
        # instrumented interior).
        with collecting(*(sink for sink in (emitter, recorder)
                          if sink is not None)), \
                span("serve", "execute", kind=norm["kind"]):
            payload["result"] = body()
    except SOURCE_ERRORS as exc:
        # Lexer/parser/lowering errors are the client's source; any
        # other exception is ours and reaches the caller (a 500).
        return {"schema": SCHEMA_RESULT, "status": "error",
                "code": 400, "kind": norm["kind"],
                "error": f"{type(exc).__name__}: {exc}"}
    if emitter is not None:
        payload["remarks"] = [remark_to_dict(r) for r in emitter]
    if want_spans:
        payload["spans"] = recorder.snapshot()
    payload["wall_ms"] = round(
        (time.perf_counter() - start) * 1e3, 3)
    return payload
