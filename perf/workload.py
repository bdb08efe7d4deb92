"""The four workloads: inputs, the timed loop, and its correctness checks.

Each workload's ``measure`` runs the workload's operations -- for
``seconds`` of wall time and at least ``repeats`` passes over them, or
exactly ``work`` units -- and returns a :class:`Phase` holding every run
of every operation, each with the reference time measured next to it
(see :mod:`hostspeed`).  ``measure_paired`` runs every operation both
untraced and traced, close together in time, for a traced run.  A wrong
output is recorded as a failure string, never raised, so a run always
reports every metric.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import inputs

ROOT = Path(__file__).resolve().parent.parent

#: Kernels of the compile corpus; a run compiles it at least
#: ``repeats`` times.
CORPUS_SIZE = 1000
#: Outputs folded into a workload's digest.
DIGEST_KERNELS = 200
DIGEST_JOBS = 24
#: Closed-loop clients of the serve workload, and its schedule length
#: (a run stops early if it gets through all of it).
CONNECTIONS = 2
SERVE_REQUESTS = 20_000
#: Seconds between two reference-loop probes of the serve loop.
EPOCH_S = 0.25


def canonical(value) -> str:
    """Canonical JSON used for every byte-identity check."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(texts) -> str:
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass
class Phase:
    """One timed phase: ``(seconds, reference loop seconds)`` per run of
    each operation (keyed by spec, kernel or request), wall time, the work
    done (passes, kernels or requests) and failures."""

    runs: dict = field(default_factory=dict)
    wall_s: float = 0.0
    work: int = 0
    failures: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def record(self, key, seconds: float, reference: float) -> None:
        self.runs.setdefault(key, []).append((seconds, reference))

    @property
    def attempted(self) -> int:
        return sum(len(runs) for runs in self.runs.values())

    def latencies(self) -> dict:
        """Each operation's latency: the median of its runs, each
        corrected for the host's speed around it (the correction errs
        either way, so the median, not the fastest run)."""
        return {key: statistics.median(hostspeed.corrected(*run)
                                       for run in runs)
                for key, runs in self.runs.items()}

    def merge(self, other: "Phase") -> None:
        """Add another round of the same operations to this phase."""
        for key, runs in other.runs.items():
            self.runs.setdefault(key, []).extend(runs)
        self.wall_s += other.wall_s
        self.work += other.work
        self.failures += other.failures
        for key, values in other.extras.items():
            self.extras.setdefault(key, []).extend(values)


def _record(times: list) -> None:
    """Record operations timed as ``(phase, key, start, end)`` on
    :func:`hostspeed.clock`, with the reference loop time around each;
    a final sample closes the last one."""
    hostspeed.sample()
    for phase, key, start, end in times:
        phase.record(key, end - start, hostspeed.reference(start, end))


def _order(lanes: int, index: int) -> list[int]:
    """Lane order for operation ``index``: reversed for every other
    operation, because the second of two back-to-back runs of one
    operation runs warmer than the first."""
    order = list(range(lanes))
    return order[::-1] if index % 2 else order


def _lane(tracer, traced: bool, name: str):
    """Run one operation untraced, or traced under a root span.  The
    tracer stays installed for both, so an untraced run and the traced
    run of the same operation can follow each other back to back."""
    if tracer is None:
        return nullcontext()
    tracer.enabled = traced
    return tracer.span("harness", name) if traced else nullcontext()


class _Clock:
    """Stop rule: exactly ``work`` units, else at least ``minimum`` and
    then while another unit of ``unit_s`` seconds fits in ``seconds``."""

    def __init__(self, seconds: float | None, work: int | None,
                 minimum: int):
        self.seconds = seconds
        self.work = work
        self.minimum = minimum
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def more(self, done: int, unit_s: float = 0.0) -> bool:
        if self.work is not None:
            return done < self.work
        if done < self.minimum:
            return True
        return self.elapsed() + unit_s <= self.seconds


# -- figure grid -----------------------------------------------------------------


class Figs:
    """The quick figure grid, cold (every pass into an empty run cache)
    or warm (every pass through a fresh ``RunCache`` over a store that
    one untimed cold pass populated).  An operation is one spec."""

    concurrent = False
    connections = 1

    def __init__(self, seed: int, smoke: bool, workdir: str, warm: bool):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.warm = warm
        self.reference: list[str] | None = None
        self.rows: list | None = None
        self.runs: list | None = None
        self.store = None

    def inputs(self) -> list:
        return inputs.figs_grid(self.seed, self.smoke)

    def warm_up(self) -> None:
        """Build the grid and run its first spec cold into a scratch
        store, so lazy one-time work is done before timing."""
        from repro.bench import runner
        from repro.bench.cache import RunCache

        store = tempfile.mkdtemp(dir=self.workdir, prefix="warm-up-")
        try:
            runner.run_specs([self.inputs()[0].spec], jobs=1,
                             cache=RunCache(store))
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def prepare(self) -> dict:
        """Warm up; for the warm grid, also populate its store with one
        cold pass (untimed: ``figs-cold`` times that work)."""
        self.warm_up()
        if not self.warm:
            return {}
        self.store = tempfile.mkdtemp(dir=self.workdir, prefix="store-")
        start = time.perf_counter()
        phase = Phase()
        self._pass([(phase, self.store)], populate=True)
        if phase.failures:
            raise RuntimeError(f"populating the warm store failed: "
                               f"{phase.failures[0]}")
        return {"populate_s": time.perf_counter() - start}

    def _pass(self, lanes: list, tracer=None, populate=False) -> None:
        """One pass over the grid.  A lane is ``(phase, store)``: its own
        copy of the grid run into its own cache.  Lanes take turns spec by
        spec (see :func:`_order`); with a ``tracer``, the last lane runs
        traced."""
        from repro.bench import runner
        from repro.bench.cache import RunCache

        grids = [self.inputs() for _ in lanes]
        caches = [RunCache(store) for _, store in lanes]
        rows: list[list] = [[] for _ in lanes]
        simulated = runner.TELEMETRY["simulated_runs"]
        # Every pass starts from a collected heap, so the collections
        # inside it recur at the same points pass after pass.
        gc.collect()
        hostspeed.sample()
        times: list = []
        for index in range(len(grids[0])):
            for lane in _order(len(lanes), index):
                phase = lanes[lane][0]
                run = grids[lane][index]
                start = hostspeed.clock()
                with _lane(tracer, lane == len(lanes) - 1, "spec"):
                    try:
                        row, = runner.run_specs([run.spec], jobs=1,
                                                cache=caches[lane])
                    except Exception as exc:
                        row = None
                        phase.failures.append(f"{run.label}: "
                                              f"{type(exc).__name__}: {exc}")
                end = hostspeed.clock()
                times.append((phase, index, start, end))
                phase.wall_s += end - start
                rows[lane].append(row)
        _record(times)
        for (phase, _), runs, lane_rows in zip(lanes, grids, rows):
            self._check(phase, runs, lane_rows)
            phase.work += 1
        misses = runner.TELEMETRY["simulated_runs"] - simulated
        if self.warm and not populate and misses:
            lanes[0][0].failures.append(
                f"warm pass simulated {misses} of {len(grids[0])} runs")

    def _check(self, phase: Phase, runs: list, rows: list) -> None:
        """Every pass must repeat the rows of the first (cold) or of the
        populate pass (warm) exactly."""
        texts = [canonical(dataclasses.asdict(r)) if r is not None
                 else None for r in rows]
        if self.reference is None:
            self.reference, self.rows, self.runs = texts, rows, runs
            return
        for run, got, want in zip(runs, texts, self.reference):
            if got is not None and got != want:
                phase.failures.append(
                    f"{run.label}: row differs from the "
                    f"{'populate' if self.warm else 'first'} pass")

    def _store(self) -> str:
        return self.store if self.warm else tempfile.mkdtemp(
            dir=self.workdir, prefix="cold-")

    def _drop(self, stores) -> None:
        if not self.warm:
            for store in stores:
                shutil.rmtree(store, ignore_errors=True)

    def measure(self, seconds=None, work=None, repeats=1) -> Phase:
        phase = Phase()
        clock = _Clock(seconds, work, repeats)
        while clock.more(phase.work, phase.wall_s / max(phase.work, 1)):
            store = self._store()
            self._pass([(phase, store)])
            self._drop([store])
        return phase

    def measure_paired(self, seconds: float, tracer) -> tuple:
        """Whole passes in which each spec runs untraced and, from a
        second copy of the grid, traced, back to back: both runs see the
        same host."""
        untraced, traced = Phase(), Phase()
        clock = _Clock(seconds, None, 1)
        while clock.more(traced.work, clock.elapsed() / max(traced.work,
                                                            1)):
            stores = [self._store(), self._store()]
            self._pass([(untraced, stores[0]), (traced, stores[1])],
                       tracer)
            self._drop(stores)
        tracer.enabled = True
        return untraced, traced

    def summary(self) -> dict:
        """Modelled results of one pass: they repeat exactly per seed.
        ``auto_speedup_gmean`` is the geometric mean of plain over auto
        cycles across the cells' auto runs."""
        from repro.bench.runner import geometric_mean

        done = [(run, row) for run, row in zip(self.runs or (),
                                               self.rows or ())
                if row is not None]
        rows = [row for _, row in done]
        plain = {run.cell: row.cycles for run, row in done
                 if run.option == "plain"}
        speedups = [plain[run.cell] / row.cycles for run, row in done
                    if row.variant == "auto" and run.cell in plain]
        return {
            "sim_digest": digest(t for t in self.reference or ()
                                 if t is not None),
            "auto_speedup_gmean": (geometric_mean(speedups)
                                   if speedups else 0.0),
            "sim_insts": sum(r.instructions for r in rows),
            "l1_hit_rate": (sum(r.l1_hit_rate for r in rows) / len(rows)
                            if rows else 0.0),
            "dram_accesses": sum(r.dram_accesses for r in rows),
            "tlb_walks": sum(r.tlb_walks for r in rows),
            "sw_prefetches": sum(r.prefetches for r in rows),
        }

    def close(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)


# -- compile corpus ----------------------------------------------------------------


class Compile:
    """Generated kernels through frontend → prefetch pass → ``-O``
    pipeline → verifier → print/parse round trip.  An operation is one
    kernel."""

    concurrent = False
    connections = 1

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.size = 100 if smoke else CORPUS_SIZE
        self.corpus: list = []

    def inputs(self) -> list:
        return inputs.compile_corpus(self.seed, self.size)

    def warm_up(self) -> None:
        """Build the corpus (if needed) and compile its first valid
        kernel, so lazy one-time work is done before timing."""
        corpus = self.corpus or self.inputs()
        self._pipeline()(next(k for k in corpus if k.error is None))

    def prepare(self) -> dict:
        self.corpus = self.inputs()
        self.warm_up()
        return {}

    @staticmethod
    def _pipeline():
        """One kernel's pipeline → a failure string or ``None``, bound
        to the ``repro`` functions as they are now (traced or not)."""
        from repro import frontend
        from repro.ir import parse_module, print_module, verify_module
        from repro.passes import (CommonSubexpressionEliminationPass,
                                  DeadCodeEliminationPass,
                                  IndirectPrefetchPass,
                                  LoopInvariantCodeMotionPass,
                                  PassManager, PrefetchOptions,
                                  SimplifyCFGPass)

        errors = (frontend.LexError, frontend.SyntaxErrorC,
                  frontend.LoweringError)
        compile_source = frontend.compile_source

        def one(kernel) -> str | None:
            try:
                module = compile_source(kernel.source)
            except errors as exc:
                got = type(exc).__name__
                if got != kernel.error:
                    return f"expected {kernel.error}, raised {got}"
                return None
            if kernel.error is not None:
                return f"expected {kernel.error}, compiled"
            IndirectPrefetchPass(PrefetchOptions()).run(module)
            pipeline = PassManager()
            for pass_ in (SimplifyCFGPass(), LoopInvariantCodeMotionPass(),
                          CommonSubexpressionEliminationPass(),
                          DeadCodeEliminationPass()):
                pipeline.add(pass_)
            pipeline.run(module)
            verify_module(module)
            text = print_module(module)
            if print_module(parse_module(text)) != text:
                return "print/parse round trip differs"
            return None

        return one

    def _loop(self, lanes: list, clock, tracer=None) -> None:
        """Kernels in corpus order, cycling; each kernel runs once per
        lane (phase), back to back (see :func:`_order`); with a
        ``tracer`` the last lane runs traced."""
        one = self._pipeline()
        done = 0
        times: list = []
        while clock.more(done):
            index = done % len(self.corpus)
            kernel = self.corpus[index]
            if index == 0:
                gc.collect()   # as at the start of a figs pass
                hostspeed.sample()
            for lane in _order(len(lanes), done):
                phase = lanes[lane]
                start = hostspeed.clock()
                with _lane(tracer, lane == len(lanes) - 1, "kernel"):
                    try:
                        failure = one(kernel)
                    except Exception as exc:
                        failure = f"{type(exc).__name__}: {exc}"
                times.append((phase, index, start, hostspeed.clock()))
                if failure is not None:
                    phase.failures.append(
                        f"kernel {index} ({kernel.family}, {kernel.loops} "
                        f"loops): {failure}")
                phase.work += 1
            done += 1
        _record(times)
        for phase in lanes:
            phase.wall_s = clock.elapsed()

    def measure(self, seconds=None, work=None, repeats=1) -> Phase:
        phase = Phase()
        self._loop([phase], _Clock(seconds, work,
                                   repeats * len(self.corpus)))
        return phase

    def measure_paired(self, seconds: float, tracer) -> tuple:
        """Each kernel untraced and traced, back to back."""
        untraced, traced = Phase(), Phase()
        self._loop([untraced, traced], _Clock(seconds, None, 1), tracer)
        tracer.enabled = True
        return untraced, traced

    def summary(self) -> dict:
        """Digest of the IR right after the prefetch pass for the first
        :data:`DIGEST_KERNELS` valid kernels (untimed).  The ``-O``
        output is left out: LICM hoists in set-iteration order, so it
        differs between processes."""
        from repro.frontend import compile_source
        from repro.ir import print_module
        from repro.passes import IndirectPrefetchPass

        texts = []
        for kernel in self.corpus:
            if len(texts) == DIGEST_KERNELS:
                break
            if kernel.error is None:
                module = compile_source(kernel.source)
                IndirectPrefetchPass().run(module)
                texts.append(print_module(module))
        return {"ir_digest": digest(texts)}

    def close(self) -> None:
        pass


# -- serve ---------------------------------------------------------------------


class Serve:
    """``repro serve`` with one worker and a fresh store, driven by a
    closed loop of :data:`CONNECTIONS` persistent connections.  An
    operation is one request."""

    concurrent = True
    connections = CONNECTIONS

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.mix = None
        self.proc = None
        self.store = None
        self.address = None
        self.first: dict[int, object] = {}
        self.reference: dict[int, str] = {}

    def inputs(self):
        return inputs.serve_mix(self.seed, 2000 if self.smoke
                                else SERVE_REQUESTS)

    def prepare(self) -> dict:
        self.mix = self.inputs()
        return {}

    def setup(self) -> float:
        """Start a fresh server on an empty store (stopping the last
        one) and warm it up; returns the seconds."""
        from repro.serve.client import submit

        self.stop()
        start = time.perf_counter()
        self.store = tempfile.mkdtemp(dir=self.workdir, prefix="cas-")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   TMPDIR=self.workdir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--log-format", "off",
             "--cache-dir", self.store],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        try:
            address = line.split("listening on ")[1].split()[0]
            name, port = address.rsplit(":", 1)
            self.address = (name, int(port))
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        for job in self.mix.warmup:
            submit(*self.address, job, timeout=60.0)
        return time.perf_counter() - start

    def clear_store(self) -> None:
        """Empty the running server's store, so a repeated phase finds
        the state the last one started from, in the same process."""
        shutil.rmtree(self.store)
        os.mkdir(self.store)

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.proc.stdout.close()
            self.proc = None
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None

    def measure(self, seconds=None, work=None, tracer=None,
                minimum=0) -> Phase:
        """A round of ``seconds`` and at least ``minimum`` requests, or
        of exactly the first ``work`` requests of the schedule."""
        from repro.serve.client import get_metrics

        before = get_metrics(*self.address)
        phase = Phase()
        records: list = []
        clock = _Clock(seconds, work, minimum)
        limit = len(self.mix.schedule) if work is None else work
        with tracer.span("harness", "closed_loop") if tracer \
                else nullcontext():
            asyncio.run(self._loop(clock, limit, tracer, records, phase))
        phase.wall_s = clock.elapsed()
        after = get_metrics(*self.address)
        phase.work = len(records)
        phase.extras.update(records=records, metrics=[(before, after)])
        return phase

    def measure_paired(self, seconds: float, tracer) -> tuple:
        """Rounds of the same requests on the same server, untraced and
        traced (the store is emptied between rounds): tracing is
        client-side, so its cost is the tracer's own."""
        untraced, traced = Phase(), Phase()
        work = None
        # ABBA, so that neither side always runs on the warmer server.
        for phase, recording in ((untraced, None), (traced, tracer),
                                 (traced, tracer), (untraced, None)):
            if work is not None:
                self.clear_store()
            round_ = self.measure(seconds=seconds / 4, work=work,
                                  tracer=recording)
            work = round_.work
            phase.merge(round_)
        return untraced, traced

    async def _loop(self, clock, limit, tracer, records, phase) -> None:
        """The closed loop, in epochs of :data:`EPOCH_S`: at the end of an
        epoch both connections finish their request and the reference
        loop runs with nothing in flight: the reference times before and
        after a request's epoch are those of the request."""
        from repro.serve.client import AsyncClient
        from repro.serve.http import ProtocolError

        address = self.address
        mix = self.mix
        state = {"next": 0}
        clients = [AsyncClient(*address) for _ in range(CONNECTIONS)]
        done: list = []

        def stopped() -> bool:
            # A timed round ends on a block boundary, so every round runs
            # the same mix of fresh jobs: the worker's memory and the
            # slow tail depend on which simulations it ran.
            return state["next"] >= limit or (
                clock.work is None and state["next"] >= clock.minimum
                and state["next"] % inputs.SERVE_BLOCK == 0
                and clock.elapsed() >= clock.seconds)

        async def connection(track: int, epoch: int, until: float) -> None:
            while not stopped() and time.perf_counter() < until:
                i = state["next"]
                state["next"] = i + 1
                job_index = mix.schedule[i]
                job = mix.jobs[job_index]
                start = time.perf_counter()
                try:
                    status, body = await clients[track].submit(job)
                except (OSError, EOFError, ProtocolError,
                        asyncio.IncompleteReadError) as exc:
                    done.append((i, time.perf_counter() - start, epoch))
                    phase.failures.append(
                        f"request {i}: {type(exc).__name__}: {exc}")
                    await clients[track].close()
                    clients[track] = AsyncClient(*address)
                    continue
                end = time.perf_counter()
                done.append((i, end - start, epoch))
                if tracer is not None:
                    tracer.add("serve", job["kind"], start, end, track + 1)
                records.append((end - start, job["kind"],
                                bool(body.get("cached")),
                                bool(body.get("coalesced")),
                                float(body.get("wall_ms", 0.0))))
                if status != 200:
                    phase.failures.append(
                        f"request {i}: HTTP {status}: "
                        f"{body.get('error', '')}")
                    continue
                result = body.get("result")
                if job_index not in self.first:
                    self.first[job_index] = result
                elif result != self.first[job_index]:
                    phase.failures.append(
                        f"request {i}: answer differs from the first "
                        f"answer for job {job_index}")

        references = [hostspeed.sample()]
        try:
            while not stopped():
                until = time.perf_counter() + EPOCH_S
                epoch = len(references) - 1
                await asyncio.gather(*(connection(t, epoch, until)
                                       for t in range(CONNECTIONS)))
                references.append(hostspeed.sample())
        finally:
            for client in clients:
                await client.close()
        for i, seconds, epoch in done:
            phase.record(i, seconds,
                         statistics.fmean(references[epoch:epoch + 2]))

    def _reference(self, job_index: int) -> str:
        from repro.serve.protocol import execute_request, normalize_request

        if job_index not in self.reference:
            payload = execute_request(
                normalize_request(self.mix.jobs[job_index]))
            self.reference[job_index] = canonical(payload.get("result"))
        return self.reference[job_index]

    def verify(self) -> list[str]:
        """Every answered job against an in-process ``execute_request``
        run (untimed, after the closed loops)."""
        return [f"job {job_index}: served result differs from the "
                f"in-process execute_request run"
                for job_index, result in sorted(self.first.items())
                if canonical(result) != self._reference(job_index)]

    def summary(self) -> dict:
        jobs = list(dict.fromkeys(self.mix.schedule))[:DIGEST_JOBS]
        return {"result_digest": digest(self._reference(j) for j in jobs)}

    def close(self) -> None:
        self.stop()


def make(name: str, seed: int, smoke: bool, workdir: str):
    if name == "figs-cold":
        return Figs(seed, smoke, workdir, warm=False)
    if name == "figs-warm":
        return Figs(seed, smoke, workdir, warm=True)
    if name == "compile":
        return Compile(seed, smoke, workdir)
    if name == "serve":
        return Serve(seed, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")
