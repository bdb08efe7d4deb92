"""Tests for the observability layer (src/repro/obs/).

Covers the metrics registry (nearest-rank percentile boundary cases,
histogram bucket bookkeeping, Prometheus exposition golden with label
ordering and escaping), structured log schema round-trips, request-id
semantics (uniqueness, propagation through coalesced waiters sharing
one job span tree), the ``/v1/trace/<id>`` endpoint's Perfetto
document, the ``repro top`` renderer, and the guarantee that tracing
never changes a result payload (byte-identity with observability on
and off).
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.obs.logs import (LogFormatError, AccessLogger, format_json,
                            format_text, make_record, parse_json_line)
from repro.obs.metrics import (Counter, Gauge, Histogram, Registry,
                               escape_label_value, nearest_rank)
from repro.obs.sinks import SpanRecorder, collecting
from repro.obs.trace import TraceBuffer, new_request_id
from repro.obs.top import render as render_top
from repro.serve.client import AsyncClient
from repro.serve.protocol import execute_request, normalize_request
from repro.serve.server import Server, ServeConfig, stage_ms
from repro.telemetry.perfetto import build_request_trace


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# nearest-rank percentile: the boundary cases the round()-based form
# got wrong.


class TestNearestRank:
    def test_empty(self):
        assert nearest_rank([], 50) == 0.0

    @pytest.mark.parametrize("pct", [0, 1, 50, 99, 100])
    def test_n1_always_answers_the_only_sample(self, pct):
        # The old form: round(0.5)-1 = -1 clamped to 0 worked for p50
        # but round(0.99)-1 = 0 vs round(1.0)-1 = 0 only by clamping.
        assert nearest_rank([7.0], pct) == 7.0

    def test_n2_boundaries(self):
        assert nearest_rank([1.0, 2.0], 50) == 1.0   # ceil(1.0) = 1st
        assert nearest_rank([1.0, 2.0], 51) == 2.0   # ceil(1.02) = 2nd
        assert nearest_rank([1.0, 2.0], 99) == 2.0
        assert nearest_rank([1.0, 2.0], 100) == 2.0

    def test_p50_of_5_is_the_median(self):
        # The bug this replaces: round(2.5) banker's-rounds to 2, so
        # the old form answered the 2nd sample, not the 3rd (median).
        assert nearest_rank([1, 2, 3, 4, 5], 50) == 3

    def test_p99_needs_100_samples_to_leave_the_max_bucket(self):
        ordered = list(range(1, 101))
        assert nearest_rank(ordered, 99) == 99
        assert nearest_rank(ordered, 100) == 100


# ---------------------------------------------------------------------------
# Metrics registry and Prometheus exposition.


class TestRegistry:
    def test_counter_labels_and_values(self):
        registry = Registry()
        counter = registry.counter("t_total", "help",
                                   labels=("a", "b"))
        counter.labels(a="x", b="y").inc()
        counter.labels(a="x", b="y").inc(2)
        counter.labels(b="z", a="x").inc()
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.labels(a="x")           # missing label
        with pytest.raises(ValueError):
            counter.labels(a="x", b="y", c="z")  # extra label
        with pytest.raises(ValueError):
            counter.labels(a="x", b="y").inc(-1)

    def test_duplicate_family_rejected(self):
        registry = Registry()
        registry.counter("dup_total", "h")
        with pytest.raises(ValueError):
            registry.counter("dup_total", "h")

    def test_histogram_running_max_outlives_any_window(self):
        hist = Histogram("h_ms", "h", buckets=(1.0, 10.0))
        hist.labels().observe(500.0)
        for _ in range(100):
            hist.labels().observe(0.5)
        child = hist.labels()
        assert child.max == 500.0
        assert child.count == 101

    def test_exposition_golden(self):
        """Byte-stable golden: label names sorted, children sorted,
        HELP escaping, histogram series shape."""
        registry = Registry()
        counter = registry.counter(
            "g_requests_total", 'help with "quotes" and \\slash',
            labels=("zeta", "alpha"))
        counter.labels(zeta="b", alpha="2").inc(3)
        counter.labels(zeta="a", alpha="1").inc()
        gauge = registry.gauge("g_depth", "queue depth")
        gauge.set(4)
        hist = registry.histogram("g_latency_ms", "latency",
                                  buckets=(1.0, 5.0))
        hist.labels().observe(0.5)
        hist.labels().observe(3.0)
        hist.labels().observe(99.0)
        # HELP escapes only backslash and newline (exposition spec);
        # quotes are escaped in label values, not help text.
        assert registry.render_prometheus() == (
            '# HELP g_requests_total help with "quotes" and '
            "\\\\slash\n"
            "# TYPE g_requests_total counter\n"
            'g_requests_total{alpha="1",zeta="a"} 1\n'
            'g_requests_total{alpha="2",zeta="b"} 3\n'
            "# HELP g_depth queue depth\n"
            "# TYPE g_depth gauge\n"
            "g_depth 4\n"
            "# HELP g_latency_ms latency\n"
            "# TYPE g_latency_ms histogram\n"
            'g_latency_ms_bucket{le="1"} 1\n'
            'g_latency_ms_bucket{le="5"} 2\n'
            'g_latency_ms_bucket{le="+Inf"} 3\n'
            "g_latency_ms_sum 102.5\n"
            "g_latency_ms_count 3\n")

    def test_label_value_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        registry = Registry()
        counter = registry.counter("e_total", "h", labels=("path",))
        counter.labels(path='we"ird\\pa\nth').inc()
        line = registry.render_prometheus().splitlines()[2]
        assert line == 'e_total{path="we\\"ird\\\\pa\\nth"} 1'

    def test_registered_families_render_before_first_sample(self):
        registry = Registry()
        registry.counter("empty_total", "h", labels=("x",))
        text = registry.render_prometheus()
        assert "# TYPE empty_total counter" in text


# ---------------------------------------------------------------------------
# Structured logs.


class TestLogs:
    def test_json_round_trip(self):
        record = make_record(
            "request", clock=lambda: 1700000000.123456,
            request_id="ab" * 8, method="POST", path="/v1/jobs",
            status=200, latency_ms=12.5, outcome="fresh",
            workload="is", tier="auto")
        line = format_json(record)
        assert parse_json_line(line) == record
        # Byte-stable: sorted keys, compact separators.
        assert format_json(parse_json_line(line)) == line

    def test_request_record_requires_core_fields(self):
        with pytest.raises(LogFormatError):
            make_record("request", request_id="x", method="GET")
        with pytest.raises(LogFormatError):
            make_record("not_an_event")

    @pytest.mark.parametrize("line", [
        "not json",
        '{"schema": "other-v1", "event": "request", "ts": 1}',
        '{"schema": "repro-serve-log-v1", "event": "nope", "ts": 1}',
        '{"schema": "repro-serve-log-v1", "event": "request", '
        '"ts": 1, "request_id": "x", "method": "GET", '
        '"path": "/", "status": "200", "latency_ms": 1.0}',
    ])
    def test_parse_rejects(self, line):
        with pytest.raises(LogFormatError):
            parse_json_line(line)

    def test_text_format_one_line(self):
        record = make_record(
            "request", clock=lambda: 1700000000.5,
            request_id="cafe", method="GET", path="/metrics",
            status=200, latency_ms=0.25)
        text = format_text(record)
        assert "\n" not in text
        assert "rid=cafe" in text and '"GET /metrics"' in text

    def test_logger_off_swallows_and_dead_stream_never_raises(self):
        stream = io.StringIO()
        logger = AccessLogger("off", stream=stream)
        logger.emit("server_start", port=1)
        assert stream.getvalue() == ""
        closed = io.StringIO()
        closed.close()
        logger = AccessLogger("json", stream=closed)
        logger.emit("server_start", port=1)  # must not raise

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            AccessLogger("xml")


# ---------------------------------------------------------------------------
# Request ids, spans, trace records.


class TestTracePieces:
    def test_request_ids_unique_and_well_formed(self):
        ids = {new_request_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(len(i) == 16 and
                   set(i) <= set("0123456789abcdef") for i in ids)

    def test_request_spans_stage_ms_sums_same_name(self):
        spans = SpanRecorder()
        spans.add_span("serve", "probe", 0, 1000)
        spans.add_span("serve", "probe", 2000, 500)
        spans.add_span("serve", "queue", 0, 100)
        stages = stage_ms(spans.records)
        assert stages["probe"] == pytest.approx(1.5)
        assert stages["queue"] == pytest.approx(0.1)

    def test_worker_stage_ms_maps_compile_and_simulate(self):
        records = [
            {"type": "span", "category": "bench", "name": "build",
             "dur_us": 1000},
            {"type": "span", "category": "frontend",
             "name": "compile_source", "dur_us": 500},
            {"type": "span", "category": "bench", "name": "simulate",
             "dur_us": 2000},
            {"type": "span", "category": "bench", "name": "prepare",
             "dur_us": 9000},
            {"type": "instant", "category": "bench", "name": "simulate",
             "ts_us": 1},
            # The stage table keys on the category: a worker-side cache
            # probe is not the server's probe stage.
            {"type": "span", "category": "cache", "name": "probe",
             "dur_us": 700},
        ]
        stages = stage_ms(records)
        assert stages == {"compile": pytest.approx(1.5),
                          "simulate": pytest.approx(2.0)}

    def test_trace_buffer_is_bounded_lru(self):
        buffer = TraceBuffer(capacity=2)
        for i in range(4):
            buffer.put({"request_id": f"r{i}"})
        assert len(buffer) == 2
        assert buffer.get("r0") is None and buffer.get("r1") is None
        assert buffer.get("r3")["request_id"] == "r3"

    def test_build_request_trace_document_shape(self):
        record = {
            "schema": "repro-request-trace-v1", "request_id": "w1",
            "key": "k" * 64, "kind": "simulate", "workload": "is",
            "tier": "auto", "status": 200, "outcome": "coalesced",
            "server_spans": [
                {"type": "span", "category": "serve",
                 "name": "admission", "start_us": 0, "dur_us": 10,
                 "args": {}}],
            "job": {"request_id": "owner", "start_offset_us": 500,
                    "worker_anchor_us": 40,
                    "spans": [{"type": "span", "category": "serve",
                               "name": "worker", "start_us": 40,
                               "dur_us": 100, "args": {}}],
                    "worker_spans": [
                        {"type": "span", "category": "serve",
                         "name": "execute", "start_us": 0,
                         "dur_us": 90, "args": {}}],
                    "worker": 1, "pid": 4242},
        }
        trace = build_request_trace(record)
        events = trace["traceEvents"]
        other = trace["otherData"]
        assert other["schema"] == "repro-request-trace-v1"
        assert other["request_id"] == "w1"
        assert other["job_request_id"] == "owner"
        pids = {e["pid"] for e in events}
        assert pids == {1, 2}          # server process + worker process
        job_span = next(e for e in events
                        if e.get("name") == "worker" and e["pid"] == 1)
        assert job_span["ts"] == 500 + 40   # offset onto waiter time
        worker_span = next(e for e in events if e["pid"] == 2
                           and e.get("ph") == "X")
        assert worker_span["ts"] == 500 + 40  # anchored at queue exit
        # Loadable: every event has a phase; X events have durations.
        assert all("ph" in e for e in events)
        assert all("dur" in e for e in events if e["ph"] == "X")


# ---------------------------------------------------------------------------
# repro top renderer.


class TestTopRender:
    SNAPSHOT = {
        "schema": "repro-serve-metrics-v1", "uptime_s": 12.0,
        "requests": {"total": 20, "by_status": {"200": 18, "429": 2},
                     "by_label": [
                         {"workload": "is", "tier": "auto",
                          "status": "200", "count": 18}]},
        "coalesce_hits": 5, "cas": {"hits": 4, "misses": 6,
                                    "stores": 6},
        "jobs": {"executed": 9, "errors": 0, "timeouts": 0, "shed": 2},
        "queue": {"depth": 1, "limit": 8},
        "workers": {"count": 2, "restarts": 0},
        "latency_ms": {"count": 20, "p50": 5.0, "p99": 20.0,
                       "max": 30.0},
        "stages": {"worker": {"count": 9, "p50": 4.0, "p99": 18.0,
                              "max": 25.0}},
        "traces": {"buffered": 20, "capacity": 256},
    }

    def test_renders_key_numbers(self):
        frame = render_top(self.SNAPSHOT, address="h:1")
        assert "20 total" in frame
        assert "coalesce  25.0%" in frame
        assert "worker" in frame and "p50" in frame
        assert "200:18" in frame and "429:2" in frame

    def test_rate_from_delta(self):
        prev = dict(self.SNAPSHOT,
                    requests=dict(self.SNAPSHOT["requests"], total=10))
        frame = render_top(self.SNAPSHOT, prev, interval_s=2.0,
                           address="h:1")
        assert "5.0 req/s" in frame


# ---------------------------------------------------------------------------
# Byte-identity: observability must never change a result payload.


class TestObservabilityEquivalence:
    def test_execute_request_payload_identical_with_recorder(self):
        norm = normalize_request({"workload": "is", "small": True,
                                  "variant": "plain"})
        plain = execute_request(dict(norm))
        with collecting(SpanRecorder()) as recorder:
            traced = execute_request(dict(norm))
        assert recorder.spans("bench")       # the run was traced…
        # wall_ms is a measurement; everything else must be identical,
        # and the recorder must not leak spans into the payload.
        plain.pop("wall_ms"), traced.pop("wall_ms")
        assert "spans" not in traced
        assert canonical(traced) == canonical(plain)

    def test_include_spans_still_works_with_external_recorder(self):
        norm = normalize_request({"workload": "is", "small": True,
                                  "variant": "plain",
                                  "include": ["spans"]})
        with collecting(SpanRecorder()) as recorder:
            payload = execute_request(dict(norm))
        assert payload["spans"]["schema"] == "repro-spans-v1"
        names = {r["name"] for r in payload["spans"]["records"]}
        assert "execute" in names            # the top-level span
        assert payload["spans"]["records"] == \
            recorder.snapshot()["records"]


# ---------------------------------------------------------------------------
# Server integration: request ids, coalesced trace sharing, the trace
# endpoint, Prometheus over HTTP, access-log schema.


def serve_scenario(scenario, **config_kwargs):
    config_kwargs.setdefault("workers", 1)
    config_kwargs.setdefault("queue_limit", 8)
    config_kwargs.setdefault("timeout_s", 60.0)
    config_kwargs.setdefault("debug", True)
    config_kwargs.setdefault("log_format", "json")

    async def body(tmp):
        server = Server(ServeConfig(port=0, cache_dir=tmp,
                                    **config_kwargs))
        server.log.stream = io.StringIO()
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.close()

    def run(tmp_path):
        return asyncio.run(body(str(tmp_path)))
    return run


def covered_us(intervals) -> int:
    """Length of the union of non-negative ``(start, end)`` intervals."""
    total = reach = 0
    for start, end in sorted(intervals):
        total += max(0, end - max(start, reach))
        reach = max(reach, end)
    return total


async def roundtrip(server, request, method="POST", path="/v1/jobs"):
    client = AsyncClient("127.0.0.1", server.port)
    try:
        return await client.request(method, path, request)
    finally:
        await client.close()


class TestServerObservability:
    def test_request_ids_unique_across_coalesced_waiters(self,
                                                         tmp_path):
        async def scenario(server):
            request = {"kind": "sleep", "seconds": 0.3}
            clients = [AsyncClient("127.0.0.1", server.port)
                       for _ in range(3)]
            try:
                answers = await asyncio.gather(
                    *(c.submit(request) for c in clients))
            finally:
                for c in clients:
                    await c.close()
            assert all(status == 200 for status, _ in answers)
            rids = [body["request_id"] for _, body in answers]
            assert len(set(rids)) == 3          # distinct request ids
            assert sorted(b["coalesced"] for _, b in answers) == \
                [False, True, True]

            # Each waiter's trace embeds the SAME shared job section
            # (owner request id + worker spans), offset per waiter.
            job_rids, owner_events = set(), []
            for rid in rids:
                status, trace = await roundtrip(
                    server, None, "GET", f"/v1/trace/{rid}")
                assert status == 200
                other = trace["otherData"]
                assert other["schema"] == "repro-request-trace-v1"
                assert other["request_id"] == rid
                job_rids.add(other["job_request_id"])
                worker = [e for e in trace["traceEvents"]
                          if e["pid"] == 2 and e.get("ph") == "X"]
                assert worker, "worker-side spans must cross the pipe"
                owner_events.append(
                    sorted(e["name"] for e in worker))
            assert len(job_rids) == 1           # one shared job
            assert job_rids <= set(rids)        # owned by a waiter
            assert owner_events[0] == owner_events[1] == \
                owner_events[2]
            # The job task starts in its admitting waiter's context but
            # records into its own recorder: no span crosses over.
            for rid in rids:
                record = server.traces.get(rid)
                waiter = {r["name"] for r in record["server_spans"]}
                job = {r["name"] for r in record["job"]["spans"]}
                assert not waiter & {"queue", "worker", "store"}
                assert not job & {"admission", "probe", "job_wait"}
        serve_scenario(scenario)(tmp_path)

    def test_queue_stage_covers_the_wait_for_an_io_thread(self,
                                                          tmp_path):
        """One worker, three distinct jobs at once: the job that ends
        last waits behind the other two for the pool's one I/O thread,
        and that wait is queue time, not worker time."""
        async def scenario(server):
            clients = [AsyncClient("127.0.0.1", server.port)
                       for _ in range(3)]
            try:
                answers = await asyncio.gather(
                    *(c.submit({"kind": "sleep", "seconds": seconds})
                      for c, seconds in zip(clients,
                                            (0.30, 0.31, 0.32))))
            finally:
                for c in clients:
                    await c.close()
            assert all(status == 200 for status, _ in answers)
            last = max((body for _, body in answers),
                       key=lambda body: body["latency_ms"])
            status, trace = await roundtrip(
                server, None, "GET", f"/v1/trace/{last['request_id']}")
            assert status == 200
            job = {e["name"]: e["dur"] for e in trace["traceEvents"]
                   if e["pid"] == 1 and e["tid"] == 2
                   and e["ph"] == "X"}
            assert job["queue"] >= 500_000
            assert job["worker"] < 500_000
        serve_scenario(scenario)(tmp_path)

    def test_admission_span_covers_the_content_key(self, tmp_path,
                                                   monkeypatch):
        """Hashing the request into its content key is admission work:
        with a slow key, the waiter's spans still cover its latency."""
        import time

        from repro.serve import server as server_module

        real_key = server_module.request_key

        def slow_key(norm):
            time.sleep(0.05)
            return real_key(norm)

        monkeypatch.setattr(server_module, "request_key", slow_key)

        async def scenario(server):
            status, body = await roundtrip(
                server, {"kind": "sleep", "seconds": 0.01})
            assert status == 200
            status, trace = await roundtrip(
                server, None, "GET", f"/v1/trace/{body['request_id']}")
            assert status == 200
            waiter = [(e["ts"], e["ts"] + e["dur"])
                      for e in trace["traceEvents"]
                      if e["pid"] == 1 and e["tid"] == 1
                      and e["ph"] == "X"]
            assert covered_us(waiter) >= 0.9 * body["latency_ms"] * 1e3
        serve_scenario(scenario)(tmp_path)

    def test_trace_endpoint_full_document(self, tmp_path):
        async def scenario(server):
            status, body = await roundtrip(
                server, {"workload": "is", "small": True,
                         "variant": "plain"})
            assert status == 200
            rid = body["request_id"]
            status, trace = await roundtrip(
                server, None, "GET", f"/v1/trace/{rid}")
            assert status == 200
            names = {e.get("name") for e in trace["traceEvents"]}
            # Server stages + worker execution cross one document.
            assert {"admission", "probe", "job_wait", "queue",
                    "worker", "store"} <= names
            pids = {e["pid"] for e in trace["traceEvents"]}
            assert pids == {1, 2}
            # Unknown id → 404; stray path shapes → 404 not 500.
            status, _ = await roundtrip(server, None, "GET",
                                        "/v1/trace/ffffffffffffffff")
            assert status == 404
            status, _ = await roundtrip(server, None, "GET",
                                        "/v1/trace/")
            assert status == 404
        serve_scenario(scenario)(tmp_path)

    def test_prometheus_exposition_over_http(self, tmp_path):
        async def scenario(server):
            status, _ = await roundtrip(
                server, {"kind": "sleep", "seconds": 0.01})
            assert status == 200
            status, body = await roundtrip(
                server, None, "GET", "/metrics?format=prometheus")
            assert status == 200
            text = body["raw"]       # text/plain → client's raw form
            assert "# TYPE repro_serve_http_requests_total counter" \
                in text
            assert 'repro_serve_requests_total{status="200",' \
                   'tier="-",workload="-"} 1' in text
            assert "repro_serve_request_latency_ms_bucket" in text
            # The JSON snapshot still answers without the param.
            status, snapshot = await roundtrip(server, None, "GET",
                                               "/metrics")
            assert snapshot["schema"] == "repro-serve-metrics-v1"
            assert "queue" in snapshot["stages"]
            assert snapshot["requests"]["by_label"] == [
                {"workload": "-", "tier": "-", "status": "200",
                 "count": 1}]
        serve_scenario(scenario)(tmp_path)

    def test_metrics_uptime_and_max_semantics(self, tmp_path):
        async def scenario(server):
            status, first = await roundtrip(server, None, "GET",
                                            "/metrics")
            await asyncio.sleep(0.05)
            status, second = await roundtrip(server, None, "GET",
                                             "/metrics")
            assert second["uptime_s"] > first["uptime_s"] >= 0
            row = second["latency_ms"]
            assert row["max"] >= row["p99"] >= row["p50"] >= 0
        serve_scenario(scenario)(tmp_path)

    def test_access_log_lines_validate_and_carry_outcomes(self,
                                                          tmp_path):
        async def scenario(server):
            await roundtrip(server, {"kind": "sleep", "seconds": 0.01})
            await roundtrip(server, None, "GET", "/healthz")
            return server.log.stream
        # The stream is read after close so the shutdown events
        # (server_stop, pool_close) are present too.
        stream = serve_scenario(scenario)(tmp_path)
        records = [parse_json_line(line)
                   for line in stream.getvalue().splitlines()]
        events = [r["event"] for r in records]
        assert "server_start" in events and "worker_start" in events
        assert "server_stop" in events and "pool_close" in events
        requests = [r for r in records if r["event"] == "request"]
        assert len(requests) == 2
        job = next(r for r in requests if r["path"] == "/v1/jobs")
        assert job["status"] == 200 and job["outcome"] == "fresh"
        assert job["latency_ms"] > 0
        rids = {r["request_id"] for r in requests}
        assert len(rids) == 2

    def test_response_carries_request_id_header(self, tmp_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"GET /healthz HTTP/1.1\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head = raw.split(b"\r\n\r\n", 1)[0].decode()
            assert "X-Request-Id: " in head
            rid = [line.split(": ", 1)[1]
                   for line in head.splitlines()
                   if line.startswith("X-Request-Id")][0]
            assert len(rid) == 16
        serve_scenario(scenario)(tmp_path)

    def test_served_result_identical_with_log_off_and_json(
            self, tmp_path):
        """The observability configuration must never leak into the
        stored/served result payload."""
        request = {"workload": "is", "small": True, "variant": "plain"}
        results = {}
        for fmt in ("off", "json"):
            async def scenario(server):
                status, body = await roundtrip(server, request)
                assert status == 200
                return body["result"]
            results[fmt] = serve_scenario(scenario, log_format=fmt)(
                tmp_path / fmt)
        assert canonical(results["off"]) == canonical(results["json"])
