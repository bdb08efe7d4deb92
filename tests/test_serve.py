"""Tests for the serve subsystem (src/repro/serve/).

Covers the protocol layer (validation, canonicalisation, content
keys), the HTTP layer, and the server's behaviour under fault — the
PR's acceptance checklist: worker timeout → 504 with the slot
reclaimed, malformed JSON → 400, saturation → 429 + Retry-After, and a
coalesced request surviving one client's disconnect.

Server tests run a real :class:`repro.serve.server.Server` on a
loopback port inside ``asyncio.run`` with one or two worker processes;
the debug ``sleep`` job kind provides controllable job durations.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.serve.client import AsyncClient
from repro.serve.pool import JobTimeout, WorkerPool
from repro.serve.protocol import (RequestError, execute_request,
                                  normalize_request, request_key)
from repro.serve.server import Server, ServeConfig


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _alive(pid: int) -> bool:
    import os
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    # The pid exists but may be a zombie awaiting reap by init.
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


VALID_KERNEL = """
void kernel(long* restrict dst, long* restrict idx, long n) {
    for (long i = 0; i < n; i++)
        dst[idx[i]] += 1;
}
"""


# ---------------------------------------------------------------------------
# Protocol layer.


class TestNormalizeRequest:
    def test_defaults_filled(self):
        norm = normalize_request({"workload": "is"})
        assert norm["kind"] == "simulate"
        assert norm["variant"] == "auto"
        assert norm["machine"] == "Haswell"
        assert norm["lookahead"] == 64
        assert norm["small"] is False
        assert norm["validate"] is True
        assert norm["tier"] == "auto"
        assert norm["include"] == []
        assert norm["options"] == {"stride": True, "hoist": False}

    def test_workload_spelling_canonicalised(self):
        a = normalize_request({"workload": "HJ-2"})
        b = normalize_request({"workload": "hj2"})
        assert a == b
        assert request_key(a) == request_key(b)

    def test_include_sorted_and_key_sensitive(self):
        a = normalize_request({"workload": "is",
                               "include": ["remarks", "telemetry"]})
        b = normalize_request({"workload": "is",
                               "include": ["telemetry", "remarks"]})
        plain = normalize_request({"workload": "is"})
        assert a == b
        assert request_key(a) == request_key(b)
        # include participates in the key: a telemetry-free stored
        # result must never satisfy a telemetry-requesting client.
        assert request_key(a) != request_key(plain)

    def test_include_comma_string_form(self):
        norm = normalize_request({"workload": "is",
                                  "include": "telemetry,spans"})
        assert norm["include"] == ["spans", "telemetry"]

    @pytest.mark.parametrize("raw", [
        "not a dict",
        {"schema": "repro-serve-request-v9", "workload": "is"},
        {"kind": "simulate"},                      # missing workload
        {"workload": "nope"},
        {"workload": "is", "machine": "Cray"},
        {"workload": "is", "variant": "best"},
        {"workload": "is", "lookahead": 0},
        {"workload": "is", "lookahead": "64"},
        {"workload": "is", "small": 1},
        {"workload": "is", "include": ["cycles"]},
        {"workload": "is", "options": {"unroll": True}},
        {"workload": "is", "tier": "gpu"},
        {"workload": "is", "tier": "tracejit"},    # retired tiers
        {"workload": "is", "tier": "vector"},
        {"workload": "is", "tier": "fastpath"},
        {"kind": "compile"},                       # missing source
        {"kind": "compile", "source": "   "},
        {"kind": "sleep", "seconds": 1},           # debug only
    ])
    def test_rejects(self, raw):
        with pytest.raises(RequestError):
            normalize_request(raw)

    def test_sleep_needs_debug(self):
        norm = normalize_request({"kind": "sleep", "seconds": 0.01},
                                 debug=True)
        assert norm["seconds"] == 0.01
        with pytest.raises(RequestError):
            normalize_request({"kind": "sleep", "seconds": 999},
                              debug=True)


class TestExecuteRequest:
    def test_simulate_matches_direct_run_variant(self):
        from repro.bench.runner import run_variant
        from repro.machine import HASWELL
        from repro.passes import PrefetchOptions
        from repro.workloads import workload_by_name

        norm = normalize_request({"workload": "is", "small": True,
                                  "variant": "auto"})
        payload = execute_request(norm)
        assert payload["status"] == "ok"
        direct = run_variant(workload_by_name("is", small=True),
                             "auto", HASWELL,
                             options=PrefetchOptions(lookahead=64),
                             cache=False)
        assert canonical(payload["result"]) == \
            canonical(dataclasses.asdict(direct))

    def test_simulate_with_includes(self):
        norm = normalize_request(
            {"workload": "is", "small": True,
             "include": ["telemetry", "remarks", "timeline", "spans"]})
        payload = execute_request(norm)
        assert payload["result"]["telemetry"] is not None
        assert payload["result"]["timeline"] is not None
        assert any(r["name"] == "PrefetchInserted"
                   for r in payload["remarks"])
        assert payload["spans"]["schema"] == "repro-spans-v1"
        assert any(s["name"] == "simulate"
                   for s in payload["spans"]["records"])

    def test_compile_kind(self):
        source = """
void kernel(long* restrict dst, long* restrict idx,
            long* restrict src, long n) {
    for (long i = 0; i < n; i++)
        dst[idx[i]] += src[i];
}
"""
        norm = normalize_request({"kind": "compile", "source": source})
        payload = execute_request(norm)
        assert payload["status"] == "ok"
        assert "prefetch" in payload["result"]["ir"]

    def test_compile_error_is_client_fault(self):
        norm = normalize_request({"kind": "compile",
                                  "source": "void kernel( {{{"})
        payload = execute_request(norm)
        assert payload["status"] == "error"
        assert payload["code"] == 400

    @pytest.mark.usefixtures("broken_prefetch_pass")
    def test_compiler_bug_is_not_client_fault(self):
        """Only lexer, parser and lowering errors are the client's: any
        other exception from a compile job reaches the caller."""
        norm = normalize_request({"kind": "compile",
                                  "source": VALID_KERNEL})
        with pytest.raises(RuntimeError, match="injected"):
            execute_request(norm)


# ---------------------------------------------------------------------------
# Server behaviour.  Each scenario runs a fresh server inside one
# asyncio.run so loop, server, and clients share a lifetime.


def serve_scenario(scenario, **config_kwargs):
    """Run ``await scenario(server)`` against a started test server."""
    config_kwargs.setdefault("workers", 1)
    config_kwargs.setdefault("queue_limit", 8)
    config_kwargs.setdefault("timeout_s", 60.0)
    config_kwargs.setdefault("debug", True)

    async def body(tmp):
        server = Server(ServeConfig(port=0, cache_dir=tmp,
                                    **config_kwargs))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.close()

    def run(tmp_path):
        return asyncio.run(body(str(tmp_path)))
    return run


async def roundtrip(server, request, method="POST", path="/v1/jobs"):
    client = AsyncClient("127.0.0.1", server.port)
    try:
        return await client.request(method, path, request)
    finally:
        await client.close()


class TestServerBasics:
    def test_health_metrics_and_404(self, tmp_path):
        async def scenario(server):
            status, body = await roundtrip(server, None, "GET",
                                           "/healthz")
            assert (status, body["status"]) == (200, "ok")
            status, body = await roundtrip(server, None, "GET",
                                           "/metrics")
            assert status == 200
            assert body["schema"] == "repro-serve-metrics-v1"
            status, body = await roundtrip(server, None, "GET",
                                           "/nowhere")
            assert status == 404
            status, body = await roundtrip(server, None, "GET",
                                           "/v1/jobs")
            assert status == 405
        serve_scenario(scenario)(tmp_path)

    def test_malformed_json_is_400(self, tmp_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            payload = b"{not json"
            writer.write(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: " + str(len(payload)).encode() +
                b"\r\n\r\n" + payload)
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()
        serve_scenario(scenario)(tmp_path)

    def test_truncated_body_is_400(self, tmp_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b"POST /v1/jobs HTTP/1.1\r\n"
                         b"Content-Length: 100\r\n\r\n{\"a\":")
            writer.write_eof()
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()
        serve_scenario(scenario)(tmp_path)

    def test_schema_violation_is_400(self, tmp_path):
        async def scenario(server):
            status, body = await roundtrip(
                server, {"workload": "not-a-workload"})
            assert status == 400
            assert "unknown workload" in body["error"]
        serve_scenario(scenario)(tmp_path)

    def test_simulate_then_cas_hit(self, tmp_path):
        async def scenario(server):
            request = {"workload": "is", "small": True,
                       "variant": "plain"}
            status, first = await roundtrip(server, request)
            assert status == 200
            assert first["cached"] is False
            assert first["result"]["cycles"] > 0
            status, second = await roundtrip(server, request)
            assert status == 200
            assert second["cached"] is True
            assert canonical(second["result"]) == \
                canonical(first["result"])
            assert server.metrics.cas_hits == 1
            # The stored payload is readable back by key.
            status, stored = await roundtrip(
                server, None, "GET", f"/v1/store/{first['key']}")
            assert status == 200
            assert canonical(stored["result"]) == \
                canonical(first["result"])
        serve_scenario(scenario)(tmp_path)

    def test_store_rejects_non_content_keys(self, tmp_path):
        """GET /v1/store/<key> takes the key verbatim from the URL —
        anything but a full sha256 hexdigest (traversal attempts
        included) must 404 without touching the filesystem."""
        # A .json file just outside the store root that a traversal
        # key used to be able to address.
        sentinel = tmp_path.parent / "serve-escape-sentinel.json"
        sentinel.write_text(json.dumps({"leak": True}))

        async def scenario(server):
            for key in ("aa/../../../serve-escape-sentinel",
                        "../../../../etc/passwd",
                        "..%2f..%2fetc%2fpasswd",
                        "abc", "A" * 64, "f" * 63, "f" * 65):
                status, body = await roundtrip(
                    server, None, "GET", f"/v1/store/{key}")
                assert status == 404, key
                assert "leak" not in canonical(body)
            # A well-formed but absent key is still a plain 404.
            status, body = await roundtrip(
                server, None, "GET", f"/v1/store/{'0' * 64}")
            assert status == 404
        try:
            serve_scenario(scenario)(tmp_path)
        finally:
            sentinel.unlink()


class TestServerFaults:
    def test_coalesced_identical_requests_share_one_job(self, tmp_path):
        async def scenario(server):
            request = {"kind": "sleep", "seconds": 0.4}
            results = await asyncio.gather(
                *(roundtrip(server, request) for _ in range(4)))
            assert [status for status, _ in results] == [200] * 4
            assert server.metrics.jobs_executed == 1
            assert server.metrics.coalesce_hits == 3
        serve_scenario(scenario)(tmp_path)

    def test_worker_timeout_504_and_slot_reclaimed(self, tmp_path):
        async def scenario(server):
            status, body = await roundtrip(
                server, {"kind": "sleep", "seconds": 30})
            assert status == 504
            assert server.metrics.timeouts == 1
            assert server.pool.restarts == 1
            # The slot is usable again: a quick job succeeds.
            status, body = await roundtrip(
                server, {"kind": "sleep", "seconds": 0.01})
            assert status == 200
            assert server.metrics.jobs_executed == 1
        serve_scenario(scenario, timeout_s=1.0)(tmp_path)

    def test_saturation_sheds_with_429(self, tmp_path):
        async def scenario(server):
            blocker = asyncio.create_task(roundtrip(
                server, {"kind": "sleep", "seconds": 1.0}))
            await asyncio.sleep(0.2)  # let it occupy the queue
            status, body = await roundtrip(
                server, {"kind": "sleep", "seconds": 0.9})
            assert status == 429
            assert body["error"].startswith("server saturated")
            assert server.metrics.shed == 1
            status, _ = await blocker
            assert status == 200
        serve_scenario(scenario, queue_limit=1)(tmp_path)

    def test_disconnected_client_does_not_cancel_coalesced_job(
            self, tmp_path):
        async def scenario(server):
            request = {"kind": "sleep", "seconds": 0.6}
            # Client A submits then vanishes mid-flight.
            first = AsyncClient("127.0.0.1", server.port)
            payload = json.dumps(request).encode()
            await first.connect()
            first._writer.write(
                b"POST /v1/jobs HTTP/1.1\r\n"
                b"Content-Length: " + str(len(payload)).encode() +
                b"\r\n\r\n" + payload)
            await first._writer.drain()
            await asyncio.sleep(0.2)  # job admitted and running
            await first.close()       # A is gone
            # Client B coalesces onto the same job and still wins.
            status, body = await roundtrip(server, request)
            assert status == 200
            assert body["coalesced"] is True
            assert server.metrics.jobs_executed == 1
        serve_scenario(scenario)(tmp_path)

    def test_compile_error_served_as_400(self, tmp_path):
        async def scenario(server):
            status, body = await roundtrip(
                server, {"kind": "compile", "source": "void ((("})
            assert status == 400
            assert body["status"] == "error"
        serve_scenario(scenario)(tmp_path)

    def test_deeply_nested_source_served_as_400(self, tmp_path):
        """Source nested past the parser's limit is the client's error,
        not a ``RecursionError`` reaching the pool's 500."""
        source = "long f() { return " + "(" * 2000 + "1" + ")" * 2000 \
            + "; }"

        async def scenario(server):
            status, body = await roundtrip(
                server, {"kind": "compile", "source": source})
            assert status == 400
            assert "nesting deeper than" in body["error"]
        serve_scenario(scenario)(tmp_path)

    def test_long_flat_sum_served_as_200(self, tmp_path):
        """Lowering walks the parser's left-deep chain of a 1,000-term
        sum instead of recursing down it, where a ``RecursionError``
        reached the pool's 500."""
        source = "long f(long a) { return " + " + ".join(["a"] * 1000) \
            + "; }"

        async def scenario(server):
            status, body = await roundtrip(
                server, {"kind": "compile", "source": source})
            assert status == 200
            assert body["status"] == "ok"
        serve_scenario(scenario)(tmp_path)

    @pytest.mark.usefixtures("broken_prefetch_pass")
    def test_compiler_bug_served_as_500(self, tmp_path):
        """A compile job that fails inside the compiler is the server's
        fault: the pool's 500, not a 400.  The forked worker inherits
        the broken pass."""
        async def scenario(server):
            status, body = await roundtrip(
                server, {"kind": "compile", "source": VALID_KERNEL})
            assert status == 500
            assert "RuntimeError: injected pass failure" in body["error"]
        serve_scenario(scenario)(tmp_path)

    def test_store_failure_never_wedges_the_key(self, tmp_path):
        """A store.put that raises (full disk, unserialisable payload
        field) must not leak the inflight entry: the waiters still get
        their answer and the key stays usable — a leaked entry would
        make every identical request hang on a dead future and burn a
        queue_limit slot forever."""
        async def scenario(server):
            def broken_put(key, data):
                raise TypeError("payload not JSON-serialisable")
            server.store.put = broken_put
            request = {"workload": "is", "small": True,
                       "variant": "plain"}
            status, body = await roundtrip(server, request)
            assert status == 200        # the simulation itself worked
            assert server._inflight == {}
            # The key is not poisoned: a retry re-runs (no CAS entry
            # was ever written) and answers again.
            status, body = await roundtrip(server, request)
            assert status == 200
            assert body["cached"] is False
            assert server.metrics.jobs_executed == 2
        serve_scenario(scenario)(tmp_path)

    def test_slow_store_does_not_block_event_loop(self, tmp_path):
        """CAS disk I/O runs off-loop: /healthz answers while another
        request's store probe is stuck in a slow read."""
        import time

        async def scenario(server):
            orig_get = server.store.get

            def slow_get(key):
                time.sleep(1.5)
                return orig_get(key)
            server.store.get = slow_get
            probing = asyncio.ensure_future(roundtrip(
                server, {"workload": "is", "small": True,
                         "variant": "plain"}))
            await asyncio.sleep(0.2)  # probe now sleeping in a thread
            t0 = time.monotonic()
            status, _ = await roundtrip(server, None, "GET", "/healthz")
            assert status == 200
            assert time.monotonic() - t0 < 1.0
            status, _ = await probing
            assert status == 200
        serve_scenario(scenario)(tmp_path)


class TestStoreMemory:
    """Repeated requests answered from the store's memory, on the event
    loop, and the probe counters behind ``/metrics``."""

    COMPILE = {"kind": "compile", "source": VALID_KERNEL}

    def test_remembered_hit_skips_the_io_pool(self, tmp_path):
        """A sibling of test_slow_store_does_not_block_event_loop: once
        a result is remembered, a repeat answers at once without a
        thread-pool call, however slow a disk read would be."""
        import time

        async def scenario(server):
            status, first = await roundtrip(server, self.COMPILE)
            assert (status, first["cached"]) == (200, False)
            calls = []
            store_io = server._store_io

            async def counting_io(fn, *args):
                calls.append(fn)
                return await store_io(fn, *args)

            def slow_get(key):
                time.sleep(1.5)
                return None
            server._store_io = counting_io
            server.store.get = slow_get
            t0 = time.monotonic()
            status, second = await roundtrip(server, self.COMPILE)
            assert (status, second["cached"]) == (200, True)
            assert time.monotonic() - t0 < 1.0
            assert calls == []
            assert canonical(second["result"]) == \
                canonical(first["result"])
        serve_scenario(scenario)(tmp_path)

    def test_snapshot_quantiles_are_exact(self, tmp_path):
        """After one fresh compile job and 50 repeats, the snapshot's
        p50 and p99 of ``probe``, ``admission`` and ``latency_ms`` are
        the nearest-rank quantiles of the 51 times the requests
        recorded — remembered probes take microseconds, which a
        quantile interpolated inside the first 0.5 ms bucket hid."""
        from repro.obs.metrics import nearest_rank
        from repro.serve.server import stage_ms

        async def scenario(server):
            bodies = []
            for _ in range(51):
                status, body = await roundtrip(server, self.COMPILE)
                assert status == 200
                bodies.append(body)
            assert [b["cached"] for b in bodies] == [False] + [True] * 50
            status, snapshot = await roundtrip(server, None, "GET",
                                               "/metrics")
            rows = {"latency_ms": (snapshot["latency_ms"],
                                   [b["latency_ms"] for b in bodies])}
            for stage in ("probe", "admission"):
                rows[stage] = (snapshot["stages"][stage], [
                    stage_ms(server.traces.get(
                        b["request_id"])["server_spans"])[stage]
                    for b in bodies])
            for name, (row, times) in rows.items():
                times.sort()
                assert row["p50"] == round(nearest_rank(times, 50), 3), \
                    (name, row, times)
                assert row["p99"] == round(nearest_rank(times, 99), 3), \
                    (name, row, times)
                assert row["p50"] <= row["p99"] <= row["max"], name
                assert row["count"] == row["samples"] == 51, name
        serve_scenario(scenario)(tmp_path)

    def test_memory_hit_body_matches_disk_hit_body(self, tmp_path):
        """The same stored result answers alike from memory and, on a
        second server over the same root, from disk."""
        request = {"workload": "is", "small": True, "variant": "plain",
                   "include": ["telemetry"]}
        bodies = []

        async def first_server(server):
            await roundtrip(server, request)             # fresh
            status, body = await roundtrip(server, request)
            assert server.store.misses == 1              # only the fresh
            bodies.append((status, body))

        async def second_server(server):
            key = bodies[0][1]["key"]
            assert server.store.recall(key) is None      # empty memory
            status, body = await roundtrip(server, request)
            assert server.store.misses == 0              # read the disk
            bodies.append((status, body))

        serve_scenario(first_server)(tmp_path)
        serve_scenario(second_server)(tmp_path)
        for status, body in bodies:
            assert (status, body["cached"]) == (200, True)
            del body["latency_ms"], body["request_id"]
        # Unsorted: key order is part of the bytes.
        assert json.dumps(bodies[0][1]) == json.dumps(bodies[1][1])

    def test_read_back_leaves_the_memory_alone(self, tmp_path):
        """The server writes latency_ms and request_id into every ok
        body; a read-back body must be a copy of the remembered one."""
        async def scenario(server):
            status, first = await roundtrip(server, self.COMPILE)
            for _ in range(2):
                status, stored = await roundtrip(
                    server, None, "GET", f"/v1/store/{first['key']}")
                assert status == 200
                assert "latency_ms" in stored and "request_id" in stored
            remembered = server.store.recall(first["key"])
            assert "latency_ms" not in remembered
            assert "request_id" not in remembered
        serve_scenario(scenario)(tmp_path)

    def test_cas_misses_count_job_probes_only(self, tmp_path):
        """A read-back of an unknown key is not a job probe: /metrics
        cas.misses moves only when a job finds nothing stored."""
        async def scenario(server):
            async def cas():
                status, body = await roundtrip(server, None, "GET",
                                               "/metrics")
                return body["cas"]

            status, _ = await roundtrip(server, None, "GET",
                                        f"/v1/store/{'0' * 64}")
            assert status == 404
            assert await cas() == {"hits": 0, "misses": 0, "stores": 0}
            for _ in range(2):
                status, _ = await roundtrip(server, self.COMPILE)
                assert status == 200
            assert await cas() == {"hits": 1, "misses": 1, "stores": 1}
            status, text = await roundtrip(
                server, None, "GET", "/metrics?format=prometheus")
            assert "repro_serve_cas_misses_total 1\n" in text["raw"]
        serve_scenario(scenario)(tmp_path)


class TestWorkerPoolUnit:
    def test_sigterm_takes_workers_down(self, tmp_path):
        """Terminating `repro serve` must not orphan the pool: forked
        workers inherit each other's pipe ends, so they only exit via
        the graceful SIGTERM path (or their parent-death watchdog)."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parent.parent / "src")
            + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(tmp_path)],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert "listening on" in proc.stdout.readline()

            def worker_pids():
                out = subprocess.run(
                    ["ps", "-o", "pid=", "--ppid", str(proc.pid)],
                    capture_output=True, text=True)
                return [int(p) for p in out.stdout.split()]

            pids = worker_pids()
            assert len(pids) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) is not None
            deadline = time.time() + 10
            while time.time() < deadline:
                if all(not _alive(pid) for pid in pids):
                    break
                time.sleep(0.1)
            survivors = [pid for pid in pids if _alive(pid)]
            for pid in survivors:  # never leak across tests
                os.kill(pid, signal.SIGKILL)
            assert survivors == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_timeout_kills_and_pool_survives(self, tmp_path):
        pool = WorkerPool(1)
        try:
            async def body():
                with pytest.raises(JobTimeout):
                    await pool.run({"schema": "repro-serve-request-v1",
                                    "kind": "sleep", "seconds": 30,
                                    "include": []}, timeout=0.5)
                out = await pool.run(
                    {"schema": "repro-serve-request-v1",
                     "kind": "sleep", "seconds": 0.0, "include": []},
                    timeout=30)
                assert out["status"] == "ok"
            asyncio.run(body())
            assert pool.restarts == 1
        finally:
            pool.close()

    def test_close_does_not_respawn_midjob_worker(self):
        """close() while a job is in flight must not restart the
        worker: the pipe death *is* shutdown, and a respawn would leak
        a fresh child process past close()."""
        from repro.serve.pool import WorkerCrash

        pool = WorkerPool(1)
        pids = [w.process.pid for w in pool._workers]

        async def body():
            job = asyncio.ensure_future(pool.run(
                {"schema": "repro-serve-request-v1", "kind": "sleep",
                 "seconds": 30, "include": []}))
            await asyncio.sleep(0.3)  # worker is mid-job
            pool.close()
            with pytest.raises(WorkerCrash):
                await job
        asyncio.run(body())
        # Same (now dead) children — nothing was respawned.
        assert [w.process.pid for w in pool._workers] == pids
        assert all(not _alive(pid) for pid in pids)

    def test_deadline_counts_queue_wait(self):
        """The deadline clock starts at admission: a job whose budget
        burns down queued behind other work times out there, rather
        than getting a full fresh deadline once a thread frees up."""
        import time

        pool = WorkerPool(1)
        try:
            async def body():
                slow = asyncio.ensure_future(pool.run(
                    {"schema": "repro-serve-request-v1",
                     "kind": "sleep", "seconds": 1.0, "include": []},
                    timeout=30))
                await asyncio.sleep(0.1)  # slow job holds the slot
                with pytest.raises(JobTimeout) as err:
                    await pool.run(
                        {"schema": "repro-serve-request-v1",
                         "kind": "sleep", "seconds": 30,
                         "include": []}, timeout=0.5)
                assert "queued" in str(err.value)
                out = await slow
                assert out["status"] == "ok"
            t0 = time.monotonic()
            asyncio.run(body())
            # The queued job answered as soon as the slot freed
            # (~1s), not after serving a fresh 0.5s deadline on a 30s
            # sleep — and the worker was never touched, so no restart.
            assert time.monotonic() - t0 < 10
            assert pool.restarts == 0
        finally:
            pool.close()
