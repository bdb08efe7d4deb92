"""The compile-and-simulate service: coalescing, CAS, back-pressure.

Request lifecycle (``POST /v1/jobs``):

1. **Parse + validate** — malformed JSON or schema violations answer
   400 without touching a worker.
2. **CAS probe** — the canonical request hashes to a content key
   (:func:`repro.serve.protocol.request_key`); a stored result answers
   immediately (``cached: true``), from the store's memory on the event
   loop, or else from disk on the I/O threads.
3. **Coalesce** — if an identical request is already in flight, the
   handler awaits the *same* future (``coalesced: true``): N clients
   asking for one simulation cost one simulation.  The job is owned by
   a detached task, so a client that disconnects mid-wait never cancels
   the work the others are waiting on.
4. **Admit or shed** — at most ``queue_limit`` distinct jobs may be in
   flight; beyond that the server sheds load with 429 + ``Retry-After``
   instead of queueing unboundedly.
5. **Execute** — a pool worker runs the job under a per-request
   deadline; a blown deadline kills the worker (slot reclaimed) and
   answers 504.  Successful results are stored to the CAS before the
   waiters are woken.

Observability (docs/OBSERVABILITY.md):

* ``GET /metrics`` — the JSON snapshot (``repro-serve-metrics-v1``);
  ``GET /metrics?format=prometheus`` — the same registry in Prometheus
  text exposition.  Both are views over one labeled
  :class:`~repro.obs.metrics.Registry` (per-{workload, tier, status}
  request counters, per-stage latency histograms).
* Every HTTP exchange gets a request id (``X-Request-Id``); job
  submissions additionally record a cross-process span tree —
  server-side stage spans merged with the pool worker's spans —
  served as a Perfetto-loadable document by
  ``GET /v1/trace/<request_id>``.
* One structured access-log line per exchange plus lifecycle events
  (``--log-format json|text|off``), on stderr.

``GET /healthz`` is a liveness probe; ``GET /v1/store/<key>`` reads a
stored result back by key.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..envcfg import env_int
from ..obs.logs import AccessLogger
from ..obs.metrics import LATENCY_BUCKETS_MS, Registry, nearest_rank
from ..obs.sinks import SpanRecorder, collecting, span
from ..obs.trace import (DEFAULT_CAPACITY, TraceBuffer, make_record,
                         new_request_id)
from .cas import ContentStore, valid_key
from .http import (ProtocolError, error_body, read_request,
                   render_response, wants_close)
from .pool import JobTimeout, WorkerCrash, WorkerPool
from .protocol import RequestError, normalize_request, request_key

#: Default store root for the service (distinct from the bench cache's
#: ``.sim-cache`` default; ``repro serve`` overrides it with
#: ``--cache-dir`` or the same cache-root variable the bench honours).
DEFAULT_STORE_DIR = ".serve-cas"


def default_workers() -> int:
    """Pool size: ``REPRO_SERVE_WORKERS`` (validated) or the CPUs."""
    workers = env_int("REPRO_SERVE_WORKERS", 0, minimum=0, maximum=256)
    if workers:
        return workers
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class ServeConfig:
    """Operator-facing service configuration (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int | None = None
    #: Max distinct jobs in flight before load shedding (429).
    queue_limit: int = 64
    #: Per-request execution deadline, seconds.
    timeout_s: float = 300.0
    cache_dir: str | None = None
    #: CAS byte budget; GC runs opportunistically after stores.
    cas_max_bytes: int | None = None
    #: Accept debug 'sleep' jobs (tests only).
    debug: bool = False
    #: Access/event log format: ``text`` | ``json`` | ``off``.
    log_format: str = "text"
    #: Request-trace buffer capacity (``GET /v1/trace/<id>``).
    trace_capacity: int = DEFAULT_CAPACITY

    def resolved_store_dir(self) -> str:
        return self.cache_dir or DEFAULT_STORE_DIR


#: Which span feeds which stage histogram, for the waiter's, the job's
#: and the worker's records alike.  Keyed on the category too, so a
#: worker-side ``("cache", "probe")`` never counts as the server's
#: ``probe``; ``job_wait`` overlaps the job's stages and feeds none.
STAGE_OF = {
    ("serve", "admission"): "admission",
    ("serve", "probe"): "probe",
    ("serve", "queue"): "queue",
    ("serve", "worker"): "worker",
    ("bench", "build"): "compile",
    ("frontend", "compile_source"): "compile",
    ("bench", "simulate"): "simulate",
    ("serve", "store"): "store",
}

#: Pipeline stages with their own latency histogram series.
STAGES = tuple(dict.fromkeys(STAGE_OF.values()))

#: Most recent observations per latency series that the JSON
#: snapshot's p50 and p99 are read from, exactly (nearest rank); the
#: histograms keep every observation, in buckets, for Prometheus.
QUANTILE_SAMPLES = 1024


def stage_ms(records: list[dict]) -> dict[str, float]:
    """Milliseconds per stage: the summed durations of the span
    records :data:`STAGE_OF` maps to it (stages with no span absent)."""
    out: dict[str, float] = {}
    for record in records:
        stage = STAGE_OF.get((record["category"], record["name"]))
        if stage is not None and record["type"] == "span":
            out[stage] = out.get(stage, 0.0) + record["dur_us"] / 1e3
    return out


#: Path → bounded ``route`` label (raw paths would be unbounded
#: cardinality — every bad URL a new series).
_ROUTES = {"/healthz": "/healthz", "/metrics": "/metrics",
           "/v1/jobs": "/v1/jobs"}


def route_label(path: str) -> str:
    if path in _ROUTES:
        return _ROUTES[path]
    if path.startswith("/v1/store/"):
        return "/v1/store/:key"
    if path.startswith("/v1/trace/"):
        return "/v1/trace/:id"
    return "other"


class ServeMetrics:
    """The service's labeled metrics registry plus snapshot assembly.

    Replaces the old bounded-reservoir ``Metrics``: histograms are
    fixed bucket vectors with an **all-time running max** (the
    reservoir forgot its max once 8192 newer samples displaced it),
    nothing is sorted at scrape time, and ``uptime_s`` counts on the
    monotonic clock (wall-clock steps used to show up as uptime
    jumps).  The legacy integer attributes (``cas_hits``,
    ``coalesce_hits``, …) remain readable as plain ints.
    """

    def __init__(self):
        self.started = time.time()          # wall, informational only
        self._started_monotonic = time.monotonic()
        r = self.registry = Registry()
        self.uptime_gauge = r.gauge(
            "repro_serve_uptime_seconds",
            "Seconds since server start (monotonic clock).",
            unit="seconds")
        self.http_requests = r.counter(
            "repro_serve_http_requests_total",
            "HTTP exchanges by method, route, and status.",
            labels=("method", "route", "status"))
        self.job_requests = r.counter(
            "repro_serve_requests_total",
            "Job submissions by workload, execution tier, and status.",
            labels=("workload", "tier", "status"))
        self.latency = r.histogram(
            "repro_serve_request_latency_ms",
            "End-to-end HTTP request latency.",
            unit="milliseconds", buckets=LATENCY_BUCKETS_MS)
        self.stage_latency = r.histogram(
            "repro_serve_stage_latency_ms",
            "Per-stage request latency (admission, probe, queue, "
            "worker, compile, simulate, store).",
            labels=("stage",), unit="milliseconds",
            buckets=LATENCY_BUCKETS_MS)
        self._coalesce = r.counter(
            "repro_serve_coalesce_hits_total",
            "Requests answered by joining an identical in-flight job.")
        self._cas_hits = r.counter(
            "repro_serve_cas_hits_total",
            "Requests answered from the content-addressed store.")
        self._cas_misses = r.counter(
            "repro_serve_cas_misses_total",
            "Job probes that found nothing in the store.")
        self._cas_stores = r.counter(
            "repro_serve_cas_stores_total",
            "Results written to the content-addressed store.")
        self._executed = r.counter(
            "repro_serve_jobs_executed_total",
            "Jobs run to completion on a pool worker.")
        self._job_errors = r.counter(
            "repro_serve_job_errors_total",
            "Jobs that failed (worker crash or error payload).")
        self._timeouts = r.counter(
            "repro_serve_job_timeouts_total",
            "Jobs killed for exceeding the per-request deadline.")
        self._shed = r.counter(
            "repro_serve_jobs_shed_total",
            "Submissions rejected with 429 at the queue limit.")
        self._restarts = r.counter(
            "repro_serve_worker_restarts_total",
            "Pool workers killed and respawned.")
        self.queue_depth = r.gauge(
            "repro_serve_queue_depth", "Distinct jobs in flight.")
        self.queue_limit = r.gauge(
            "repro_serve_queue_limit",
            "Max distinct jobs in flight before load shedding.")
        self.workers_gauge = r.gauge(
            "repro_serve_workers", "Pool worker processes.")
        self.traces_gauge = r.gauge(
            "repro_serve_traces_buffered",
            "Request traces currently held in the trace buffer.")
        for stage in STAGES:  # pre-create: catalogue check sees all
            self.stage_latency.labels(stage=stage)
        # The last QUANTILE_SAMPLES observations of each series.
        self._recent = {name: deque(maxlen=QUANTILE_SAMPLES)
                        for name in ("latency", *STAGES)}

    # -- observation hooks --------------------------------------------

    def observe(self, status: int, latency_ms: float,
                method: str = "-", route: str = "-") -> None:
        self.http_requests.labels(method=method, route=route,
                                  status=str(status)).inc()
        self.latency.labels().observe(latency_ms)
        self._recent["latency"].append(latency_ms)

    def observe_job(self, norm: dict, status: int) -> None:
        self.job_requests.labels(
            workload=norm.get("workload", "-"),
            tier=norm.get("tier", "-"), status=str(status)).inc()

    def observe_stages(self, records: list[dict]) -> None:
        """One sample per stage the span records cover."""
        for stage, ms in stage_ms(records).items():
            self.stage_latency.labels(stage=stage).observe(ms)
            self._recent[stage].append(ms)

    def coalesce_hit(self) -> None:
        self._coalesce.inc()

    def cas_hit(self) -> None:
        self._cas_hits.inc()

    def cas_miss(self) -> None:
        self._cas_misses.inc()

    def job_executed(self) -> None:
        self._executed.inc()

    def job_error(self) -> None:
        self._job_errors.inc()

    def timeout(self) -> None:
        self._timeouts.inc()

    def shed_one(self) -> None:
        self._shed.inc()

    # -- integer views (read in-process by the tests) ----------------

    @property
    def requests_total(self) -> int:
        return int(self.http_requests.value)

    @property
    def by_status(self) -> dict:
        out: dict[str, int] = {}
        for child in self.http_requests.children():
            status = child.labelvalues[2]
            out[status] = out.get(status, 0) + child.value
        return out

    @property
    def coalesce_hits(self) -> int:
        return int(self._coalesce.value)

    @property
    def cas_hits(self) -> int:
        return int(self._cas_hits.value)

    @property
    def cas_misses(self) -> int:
        return int(self._cas_misses.value)

    @property
    def jobs_executed(self) -> int:
        return int(self._executed.value)

    @property
    def job_errors(self) -> int:
        return int(self._job_errors.value)

    @property
    def timeouts(self) -> int:
        return int(self._timeouts.value)

    @property
    def shed(self) -> int:
        return int(self._shed.value)

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    # -- exposition ---------------------------------------------------

    def sync(self, server: "Server") -> None:
        """Refresh scrape-time values: gauges, plus counters whose
        source of truth lives elsewhere (store, pool)."""
        self.uptime_gauge.set(round(self.uptime_s(), 3))
        self.queue_depth.set(len(server._inflight))
        self.queue_limit.set(server.config.queue_limit)
        self.workers_gauge.set(server.pool.size if server.pool else 0)
        self.traces_gauge.set(len(server.traces))
        self._cas_stores.labels().set_from(server.store.stores)
        if server.pool is not None:
            self._restarts.labels().set_from(server.pool.restarts)

    def _histogram_row(self, child, series: str) -> dict:
        """One series' all-time ``count`` and ``max``, and its p50 and
        p99 by nearest rank over its last ``samples`` observations."""
        recent = sorted(self._recent[series])
        return {"count": child.count,
                "samples": len(recent),
                "p50": round(nearest_rank(recent, 50), 3),
                "p99": round(nearest_rank(recent, 99), 3),
                "max": round(child.max, 3)}

    def snapshot(self, server: "Server") -> dict:
        self.sync(server)
        by_label = [
            {"workload": c.labelvalues[0], "tier": c.labelvalues[1],
             "status": c.labelvalues[2], "count": c.value}
            for c in self.job_requests.children()]
        latency = self.latency.labels()
        stages = {
            child.labelvalues[0]: self._histogram_row(
                child, child.labelvalues[0])
            for child in self.stage_latency.children()
            if child.count}
        return {
            "schema": "repro-serve-metrics-v1",
            "uptime_s": round(self.uptime_s(), 3),
            "requests": {"total": self.requests_total,
                         "by_status": dict(sorted(
                             self.by_status.items())),
                         "by_label": by_label},
            "coalesce_hits": self.coalesce_hits,
            "cas": {"hits": self.cas_hits,
                    "misses": self.cas_misses,
                    "stores": server.store.stores},
            "jobs": {"executed": self.jobs_executed,
                     "errors": self.job_errors,
                     "timeouts": self.timeouts,
                     "shed": self.shed},
            "queue": {"depth": len(server._inflight),
                      "limit": server.config.queue_limit},
            "workers": {"count": server.pool.size if server.pool else 0,
                        "restarts": (server.pool.restarts
                                     if server.pool else 0)},
            "latency_ms": self._histogram_row(latency, "latency"),
            "stages": stages,
            "traces": {"buffered": len(server.traces),
                       "capacity": server.traces.capacity},
        }

    def render_prometheus(self, server: "Server") -> str:
        self.sync(server)
        return self.registry.render_prometheus()


@dataclass
class _Inflight:
    """One admitted job: the future every coalesced waiter awaits."""

    future: asyncio.Future
    #: Request id of the admitting waiter (names the shared job).
    request_id: str = ""
    #: The job's spans; its epoch (job creation) places the job
    #: section on each coalesced waiter's timeline.
    recorder: SpanRecorder = field(default_factory=SpanRecorder,
                                   compare=False)
    waiters: int = 1
    task: asyncio.Task | None = field(default=None, compare=False)
    #: Filled by the job task on completion: the shared trace section
    #: (server-side job spans + worker spans) every waiter merges.
    job_info: dict | None = field(default=None, compare=False)


class Server:
    """The asyncio service.  Use :meth:`start` / :meth:`close`, or
    :func:`serve_forever` from the CLI."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.store = ContentStore(self.config.resolved_store_dir())
        self.metrics = ServeMetrics()
        self.traces = TraceBuffer(self.config.trace_capacity)
        self.log = AccessLogger(self.config.log_format)
        self.pool: WorkerPool | None = None
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._inflight: dict[str, _Inflight] = {}
        # CAS disk I/O runs on these threads, never on the event loop:
        # a slow disk or a full-store GC scan must not stall /healthz.
        # Only a probe the store's memory cannot answer comes here.
        self._io = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serve-cas")

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        workers = self.config.workers or default_workers()
        self.pool = WorkerPool(workers, on_event=self.log.emit)
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.log.emit("server_start", host=self.config.host,
                      port=self.port, workers=self.pool.size)

    async def close(self) -> None:
        self.log.emit("server_stop", uptime_s=round(
            self.metrics.uptime_s(), 3))
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for entry in list(self._inflight.values()):
            if entry.task is not None:
                entry.task.cancel()
        if self.pool is not None:
            self.pool.close()
        self._io.shutdown(wait=False)

    async def _store_io(self, fn, *args):
        """Run one blocking ContentStore call off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            self._io, fn, *args)

    async def _lookup(self, key: str) -> dict | None:
        """The stored result for ``key``: from the store's memory on the
        loop, or else from disk on an I/O thread.  Read only."""
        data = self.store.recall(key)
        if data is None:
            data = await self._store_io(self.store.get, key)
        return data

    # -- connection handling ------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    self.metrics.observe(exc.status, 0.0)
                    writer.write(render_response(
                        exc.status, error_body(exc.status, exc.message),
                        close=True))
                    await writer.drain()
                    break
                if request is None:
                    break
                close = wants_close(request)
                status, body, headers = await self._route(request)
                writer.write(render_response(status, body,
                                             headers=headers,
                                             close=close))
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError here means the loop is tearing down
                # mid-cleanup; the handler is finished either way.
                pass

    async def _route(self, request: dict):
        """Dispatch one parsed request → (status, body, headers)."""
        method, path = request["method"], request["path"]
        request_id = new_request_id()
        start = time.perf_counter()
        headers: dict = {}
        log_ctx: dict = {}
        try:
            if path == "/healthz" and method == "GET":
                status, body = 200, {"status": "ok"}
            elif path == "/metrics" and method == "GET":
                if request["query"].get("format") == "prometheus":
                    status = 200
                    body = self.metrics.render_prometheus(self)
                else:
                    status, body = 200, self.metrics.snapshot(self)
            elif path.startswith("/v1/trace/") and method == "GET":
                status, body = self._get_trace(
                    path[len("/v1/trace/"):])
            elif path.startswith("/v1/store/") and method == "GET":
                status, body = await self._get_store(
                    path[len("/v1/store/"):])
            elif path == "/v1/jobs" and method == "POST":
                # Each connection is its own task, so each waiter's
                # recorder receives its own spans only.
                with collecting(SpanRecorder()) as spans:
                    status, body, headers = await self._submit(
                        request, request_id, spans, log_ctx)
            elif path in ("/healthz", "/metrics", "/v1/jobs") or \
                    path.startswith(("/v1/store/", "/v1/trace/")):
                status = 405
                body = error_body(405, f"{method} not allowed on {path}")
            else:
                status = 404
                body = error_body(404, f"no route for {path}")
        except Exception as exc:  # never drop a connection unanswered
            status = 500
            body = error_body(500, f"{type(exc).__name__}: {exc}")
        latency_ms = (time.perf_counter() - start) * 1e3
        self.metrics.observe(status, latency_ms, method=method,
                             route=route_label(path))
        if isinstance(body, dict) and body.get("status") == "ok":
            body["latency_ms"] = round(latency_ms, 3)
            body["request_id"] = request_id
        headers = dict(headers, **{"X-Request-Id": request_id})
        self.log.request(request_id=request_id, method=method,
                         path=path, status=status,
                         latency_ms=round(latency_ms, 3), **log_ctx)
        return status, body, headers

    def _get_trace(self, request_id: str):
        from ..telemetry.perfetto import build_request_trace

        record = self.traces.get(request_id)
        if record is None:
            return 404, error_body(
                404, f"no trace for request {request_id[:32]!r} "
                     f"(buffer holds {len(self.traces)})")
        return 200, build_request_trace(record)

    async def _get_store(self, key: str):
        # The key arrives verbatim from the URL (it may contain ``/``
        # and ``..``); only a well-formed content hash may ever reach
        # the filesystem, else ``GET /v1/store/../../etc/x`` would
        # read arbitrary .json files outside the store root.
        if not valid_key(key):
            return 404, error_body(
                404, f"not a content key: {key[:32]!r}")
        data = await self._lookup(key)
        if data is None:
            return 404, error_body(404, f"no stored result {key[:16]}…")
        # A copy: _route adds latency_ms and request_id to the body.
        return 200, dict(data)

    # -- job submission -----------------------------------------------

    def _finish_submit(self, request_id: str, spans: SpanRecorder,
                       norm: dict, key: str | None, status: int,
                       outcome: str, log_ctx: dict,
                       entry: _Inflight | None = None) -> None:
        """Register the waiter's trace record and per-stage samples.

        Called once per submission, on every outcome.  Coalesced
        waiters each get their own record (distinct request ids) that
        embeds the *shared* job section, offset onto this waiter's
        timeline (clamped at 0 for waiters that joined after the job
        started)."""
        job = None
        if entry is not None and entry.job_info is not None:
            offset = max(0, int((entry.recorder.epoch - spans.epoch)
                                * 1e6))
            job = dict(entry.job_info, start_offset_us=offset)
        self.metrics.observe_job(norm, status)
        self.metrics.observe_stages(spans.records)
        self.traces.put(make_record(
            request_id, key=key, kind=norm["kind"],
            workload=norm.get("workload", "-"),
            tier=norm.get("tier", "-"), status=status,
            outcome=outcome, server_spans=spans.records, job=job))
        log_ctx.update(outcome=outcome, key=key,
                       workload=norm.get("workload"),
                       tier=norm.get("tier"))

    async def _submit(self, request: dict, request_id: str,
                      spans: SpanRecorder, log_ctx: dict):
        with span("serve", "admission") as admission:
            try:
                raw = json.loads(request["body"] or b"")
            except ValueError:
                return 400, error_body(400, "request body is not valid "
                                            "JSON"), {}
            if isinstance(raw, dict) and "include" in request["query"]:
                # ?include=telemetry,remarks overrides the body field.
                raw = dict(raw, include=request["query"]["include"])
            try:
                norm = normalize_request(raw, debug=self.config.debug)
            except RequestError as exc:
                return 400, error_body(400, str(exc)), {}
            admission["kind"] = norm["kind"]
            key = request_key(norm)

        storable = norm["kind"] != "sleep"
        if storable:
            with span("serve", "probe") as probe:
                hit = await self._lookup(key)
                probe["hit"] = hit is not None
            if hit is None:
                self.metrics.cas_miss()
            else:
                self.metrics.cas_hit()
                self._finish_submit(request_id, spans, norm, key,
                                    200, "cached", log_ctx)
                return 200, dict(hit, cached=True, coalesced=False,
                                 key=key), {}

        entry = self._inflight.get(key)
        if entry is not None:
            self.metrics.coalesce_hit()
            entry.waiters += 1
            coalesced = True
        else:
            if len(self._inflight) >= self.config.queue_limit:
                self.metrics.shed_one()
                self._finish_submit(request_id, spans, norm, key,
                                    429, "shed", log_ctx)
                return 429, error_body(
                    429, f"server saturated ({self.config.queue_limit} "
                         f"jobs in flight); retry shortly"), \
                    {"Retry-After": "1"}
            loop = asyncio.get_running_loop()
            entry = _Inflight(future=loop.create_future(),
                              request_id=request_id)
            self._inflight[key] = entry
            # The job task is detached from every client connection:
            # a disconnecting waiter can never cancel the simulation
            # for the others (or for the CAS).
            entry.task = loop.create_task(
                self._run_job(key, norm, storable, entry))
            coalesced = False

        def finish(status: int, outcome: str) -> None:
            self._finish_submit(request_id, spans, norm, key, status,
                                outcome, log_ctx, entry=entry)

        try:
            with span("serve", "job_wait", coalesced=coalesced,
                      job_request_id=entry.request_id):
                payload = await asyncio.shield(entry.future)
        except JobTimeout as exc:
            finish(504, "timeout")
            return 504, error_body(504, str(exc)), {}
        except WorkerCrash as exc:
            finish(500, "crash")
            return 500, error_body(500, str(exc)), {}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            finish(500, "error")
            return 500, error_body(500, f"{type(exc).__name__}: "
                                        f"{exc}"), {}
        if payload.get("status") != "ok":
            code = int(payload.get("code", 500))
            finish(code, "error")
            return code, dict(payload, key=key), {}
        finish(200, "coalesced" if coalesced else "fresh")
        return 200, dict(payload, cached=False, coalesced=coalesced,
                         key=key), {}

    async def _run_job(self, key: str, norm: dict, storable: bool,
                       entry: _Inflight) -> None:
        # Whatever happens — timeout, crash, a store/GC failure, even
        # cancellation — the finally block always reclaims the inflight
        # slot and completes the future.  An entry that outlived its job
        # would poison the key (new requests attach to a dead future so
        # every waiter hangs) and permanently burn a queue_limit slot.
        future = entry.future
        payload: dict | None = None
        error: BaseException | None = None
        worker_trace: dict = {}
        queue_end = 0
        # The task inherited the admitting waiter's context; the job
        # records into its own recorder (zero = job creation).
        with collecting(entry.recorder) as spans:
            try:
                queue_start = spans.now_us()
                try:
                    payload = await self.pool.run(
                        norm, timeout=self.config.timeout_s)
                except JobTimeout as exc:
                    self.metrics.timeout()
                    error = exc
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    self.metrics.job_error()
                    error = exc
                if payload is not None:
                    # The worker's span records ride out-of-band and are
                    # stripped here: neither the CAS nor any client may
                    # see them (results stay byte-identical with tracing
                    # on or off).
                    worker_trace = payload.pop("_trace")
                    queue_s = worker_trace["queue_s"]
                else:
                    queue_s = getattr(error, "queue_s", 0.0)
                queue_end = queue_start + int(queue_s * 1e6)
                spans.add_span("serve", "queue", queue_start,
                               queue_end - queue_start)
                spans.add_span("serve", "worker", queue_end,
                               spans.now_us() - queue_end,
                               {"ok": error is None,
                                "request_id": entry.request_id})
                if error is None:
                    self.metrics.job_executed()
                    if payload.get("status") != "ok":
                        self.metrics.job_error()
                    elif storable:
                        try:
                            with span("serve", "store", key=key):
                                await self._store_io(self.store.put, key,
                                                     payload)
                            await self._maybe_gc()
                        except asyncio.CancelledError:
                            raise
                        except Exception:
                            # A full disk (or an unserialisable payload
                            # field) degrades to cache-miss behaviour; it
                            # must never fail the finished simulation.
                            pass
            finally:
                worker_spans = worker_trace.get("worker_spans", [])
                entry.job_info = {"request_id": entry.request_id,
                                  "spans": spans.records,
                                  "worker_anchor_us": queue_end}
                if worker_trace:
                    entry.job_info.update(worker_spans=worker_spans,
                                          worker=worker_trace["worker"],
                                          pid=worker_trace["pid"])
                self.metrics.observe_stages(spans.records + worker_spans)
                self._inflight.pop(key, None)
                if not future.done():
                    if error is not None:
                        future.set_exception(error)
                    elif payload is not None:
                        future.set_result(payload)
                    else:  # the job task itself was cancelled (shutdown)
                        future.cancel()

    async def _maybe_gc(self) -> None:
        """Opportunistic CAS GC: every 32 stores, trim to budget."""
        budget = self.config.cas_max_bytes
        if budget and self.store.stores % 32 == 0:
            await self._store_io(self.store.gc, budget)
            self.log.emit("cas_gc", budget_bytes=budget)


async def serve_forever(config: ServeConfig) -> None:
    """CLI entry: start, announce, and run until signalled.

    SIGTERM/SIGINT trigger a graceful shutdown — crucially including
    :meth:`WorkerPool.close`: the forked workers inherit each other's
    pipe ends, so without an explicit stop a plain ``terminate()`` of
    the server process would orphan the whole pool.
    """
    import signal

    server = Server(config)
    await server.start()
    print(f"repro serve listening on {config.host}:{server.port} "
          f"(workers={server.pool.size}, "
          f"queue={config.queue_limit}, "
          f"timeout={config.timeout_s:g}s, "
          f"store={server.store.root})", flush=True)
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    hooked = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stopping.set)
            hooked.append(sig)
        except (NotImplementedError, RuntimeError):
            pass  # pragma: no cover - non-Unix event loops
    try:
        # start_server is already accepting connections; just wait.
        await stopping.wait()
    finally:
        for sig in hooked:
            loop.remove_signal_handler(sig)
        await server.close()
