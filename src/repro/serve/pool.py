"""Sharded process worker pool with per-request timeouts.

The service executes every job in a separate *worker process* (one per
pool slot, sharded across cores via CPU affinity where the platform
allows), because a simulation is seconds of pure Python — running it on
the event loop would stall every other client, and a thread would share
the GIL.  The pool differs from a stock ``ProcessPoolExecutor`` in the
one property serving needs: **a request that exceeds its deadline gets
its worker killed and respawned**, so a hung or runaway simulation can
never permanently occupy a slot.  (Stock executors cannot cancel a
running task; killing the process is the only reliable reclaim.)

Mechanics: each :class:`_Worker` is a child process on the other end of
a duplex pipe, looping ``recv → execute → send``.  The async side
submits through a thread pool sized to the worker count — each thread
does the blocking ``send``/``poll(timeout)``/``recv`` for exactly one
worker at a time, so ``await pool.run(...)`` composes with the event
loop while the pipe I/O stays simple and portable.

The multiprocessing start method defaults to ``fork`` where available
(workers inherit the loaded interpreter — startup and respawn are
milliseconds); ``REPRO_SERVE_MP_CONTEXT=spawn`` switches to clean
re-imported children.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import queue
import time
import traceback
from concurrent.futures import ThreadPoolExecutor


class JobTimeout(Exception):
    """The job exceeded its deadline; its worker was killed (HTTP 504)."""


class WorkerCrash(Exception):
    """The worker died mid-job; it was respawned (HTTP 500)."""


def _worker_main(conn, index: int) -> None:
    """Child process body: pin to a core shard, then serve jobs."""
    try:
        cpus = os.cpu_count() or 1
        os.sched_setaffinity(0, {index % cpus})
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass
    # Import here, not at module top: under the spawn start method the
    # child imports this module before repro's heavyweight packages.
    from ..telemetry.spans import SpanRecorder, recording
    from .protocol import execute_request
    parent = os.getppid()
    while True:
        try:
            # Poll with a deadline rather than blocking in recv():
            # under fork, sibling workers inherit this pipe's parent
            # end, so EOF never arrives if the server dies — the ppid
            # check is what lets an orphaned worker notice and exit.
            if not conn.poll(1.0):
                if os.getppid() != parent:
                    break
                continue
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if job is None:
            break
        # Every job runs under its own SpanRecorder; the records travel
        # back in the out-of-band ``_trace`` section, which the server
        # strips before the payload reaches the CAS or any client.
        recorder = SpanRecorder()
        try:
            with recording(recorder):
                out = execute_request(job)
        except BaseException as exc:
            out = {"schema": "repro-serve-result-v1", "status": "error",
                   "code": 500,
                   "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()}
        out["_trace"] = {"worker_spans": recorder.snapshot()["records"],
                         "worker": index, "pid": os.getpid()}
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _default_context() -> multiprocessing.context.BaseContext:
    name = os.environ.get("REPRO_SERVE_MP_CONTEXT") or None
    if name is None:
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            return multiprocessing.get_context("spawn")
    return multiprocessing.get_context(name)


class _Worker:
    """One pool slot: a child process plus its pipe."""

    def __init__(self, ctx, index: int):
        self._ctx = ctx
        self.index = index
        self.conn = None
        self.process = None
        self.start()

    def start(self) -> None:
        self.conn, child = self._ctx.Pipe(duplex=True)
        self.process = self._ctx.Process(
            target=_worker_main, args=(child, self.index),
            name=f"repro-serve-worker-{self.index}", daemon=True)
        self.process.start()
        child.close()

    def restart(self) -> None:
        """Kill the child (it may be wedged mid-job) and respawn."""
        self.stop()
        self.start()

    def stop(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stubborn
                self.process.kill()
                self.process.join(timeout=2.0)


class WorkerPool:
    """Fixed-size pool of simulation workers with deadline enforcement."""

    def __init__(self, workers: int, context: str | None = None,
                 on_event=None):
        ctx = (multiprocessing.get_context(context) if context
               else _default_context())
        self.size = max(1, workers)
        #: Optional lifecycle callback ``on_event(event, **fields)``
        #: (worker_start / worker_restart / pool_close).  Called from
        #: whatever thread hits the event; implementations must be
        #: thread-safe and must never raise.
        self.on_event = on_event
        self._workers = [_Worker(ctx, i) for i in range(self.size)]
        self._idle: queue.Queue[_Worker] = queue.Queue()
        for worker in self._workers:
            self._idle.put(worker)
            self._event("worker_start", worker=worker.index,
                        pid=worker.process.pid)
        self._threads = ThreadPoolExecutor(
            max_workers=self.size, thread_name_prefix="repro-serve-io")
        #: Workers killed for blowing their deadline (metrics).
        self.restarts = 0
        self._closing = False

    def _event(self, event: str, **fields) -> None:
        if self.on_event is not None:
            try:
                self.on_event(event, **fields)
            except Exception:  # pragma: no cover - observer bug
                pass

    def _recycle(self, worker: _Worker) -> None:
        """Respawn a dead or wedged worker — unless the pool is
        closing, when the pipe error *is* shutdown itself and a
        respawn would leak a fresh child past :meth:`close`."""
        if self._closing:
            raise WorkerCrash(f"pool is closing; worker "
                              f"{worker.index} not restarted")
        worker.restart()
        self.restarts += 1
        self._event("worker_restart", worker=worker.index,
                    pid=worker.process.pid)

    def _submit_sync(self, payload: dict, admitted: float,
                     timeout: float | None) -> dict:
        """Blocking submit, run on a pool I/O thread.

        ``admitted`` is the ``time.monotonic()`` of the :meth:`run`
        call, and the deadline counts from it: time a job spends queued
        for one of these threads or for an idle worker counts against
        its budget, so client-visible latency really is bounded by the
        advertised per-request deadline.  The same wait, up to the
        ``send`` to a worker, is the job's queue stage: it comes back
        as ``_trace["queue_s"]``, or as the ``queue_s`` attribute of
        the :class:`JobTimeout` / :class:`WorkerCrash` raised.
        """
        deadline = None if timeout is None else admitted + timeout
        worker = self._idle.get()
        sent = None
        try:
            if deadline is not None and time.monotonic() >= deadline:
                # The budget burned down in the queue; the worker was
                # never touched, so there is nothing to recycle.
                raise JobTimeout(
                    f"job spent its {timeout:.1f}s deadline queued "
                    f"behind other work; retry when load drops")
            try:
                worker.conn.send(payload)
            except (BrokenPipeError, OSError):
                # The worker died idle (OOM-killed, operator signal):
                # one respawn-and-retry before giving up.
                self._recycle(worker)
                worker.conn.send(payload)
            sent = time.monotonic()
            try:
                if deadline is not None and \
                        not worker.conn.poll(max(0.0, deadline - sent)):
                    self._recycle(worker)
                    raise JobTimeout(
                        f"job exceeded {timeout:.1f}s; worker "
                        f"{worker.index} was recycled")
                out = worker.conn.recv()
            except (EOFError, OSError) as exc:
                self._recycle(worker)
                raise WorkerCrash(
                    f"worker {worker.index} died mid-job") from exc
        except (JobTimeout, WorkerCrash) as exc:
            exc.queue_s = (time.monotonic() if sent is None
                           else sent) - admitted
            raise
        finally:
            self._idle.put(worker)
        out["_trace"]["queue_s"] = sent - admitted
        return out

    async def run(self, payload: dict,
                  timeout: float | None = None) -> dict:
        """Execute ``payload`` on a worker; raises :class:`JobTimeout`
        or :class:`WorkerCrash` on reclaim.  The deadline clock starts
        *now* (admission), not when an I/O thread picks the job up.

        The answer carries an out-of-band ``_trace`` section — the
        worker's span records, its index and pid, and the queue wait
        ``queue_s`` — which callers pop before using the payload."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._threads, self._submit_sync, payload, time.monotonic(),
            timeout)

    def close(self) -> None:
        """Stop every worker and the I/O threads.

        The closing flag goes up first: an I/O thread still blocked in
        ``poll``/``recv`` for an in-flight job sees its pipe die, and
        must report :class:`WorkerCrash` to its waiter rather than
        respawn a child after shutdown.
        """
        self._closing = True
        self._event("pool_close", workers=self.size)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.stop()
        self._threads.shutdown(wait=False, cancel_futures=True)
