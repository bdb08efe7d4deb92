"""Seeded inputs of the four benchmark workloads.

Everything the benchmark hands the program is generated here from the
workload seed: the same seed gives byte-identical inputs, another seed
gives other inputs.  Mixes are drawn in balanced blocks -- every block
holds the same kinds of item, in a seeded order and with seeded names,
constants and sizes -- so the work per block, and with it every timing,
moves little between seeds while the concrete inputs change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# -- figure grid -------------------------------------------------------------

@dataclass(frozen=True)
class GridRun:
    """One run of the figure grid: ``spec`` is the ``RunSpec``; the runs
    of one ``cell`` share a workload instance, and its ``plain`` run is
    the baseline of the others."""

    figure: str
    cell: int
    option: str
    spec: object

    @property
    def label(self) -> str:
        return (f"{self.figure}/{self.spec.workload.name}/"
                f"{self.spec.machine.name}/{self.option}")


def _grid_cells() -> list:
    """The strata of the quick figure grid (Figs. 2, 4a-d, 5-8 and 10 of
    ``bench.experiments`` at ``small`` sizes): per cell its figure, a
    factory of its workload, its system and its option axis, each option
    a list of ``(label, variant, RunSpec keywords)`` runs after the plain
    one (``machine`` in the keywords moves the whole cell, plain run
    included, to that configuration)."""
    from repro.bench.experiments import LOOKAHEAD_SWEEP, manual_knobs_for
    from repro.machine.configs import ALL_SYSTEMS
    from repro.passes.prefetch import PrefetchOptions
    from repro.workloads import (ConjugateGradient, IntegerSort,
                                 RandomAccess, hj2, hj8, paper_benchmarks)

    haswell, a57 = ALL_SYSTEMS[0], ALL_SYSTEMS[1]

    def quick(b: int):
        return lambda: paper_benchmarks(small=True)[b]

    cells = [("fig2", lambda: IntegerSort(num_keys=6000), haswell, [
        [("intuitive", "manual", dict(
            lookahead=64, manual_knobs={"include_stride": False}))],
        [("too-small", "manual", dict(lookahead=4))],
        [("too-big", "manual", dict(lookahead=512))],
        [("optimal", "manual", dict(lookahead=64))]])]
    # Fig. 4: every benchmark on one of the four systems, every system
    # used; the variant axis is auto, manual (and icc on the Xeon Phi).
    for b in range(7):
        machine = ALL_SYSTEMS[b % 4]
        workload = quick(b)
        options = [[("auto", "auto", {})],
                   [("manual", "manual", dict(
                       manual_knobs=manual_knobs_for(workload(), machine)))]]
        if machine.name == "Xeon Phi":
            options.append([("icc", "icc", {})])
        cells.append(("fig4", workload, machine, options))
    cells.append(("fig5", quick(3), haswell, [
        [("indirect", "auto", dict(
            options=PrefetchOptions(emit_stride_prefetch=False)))],
        [("indirect+stride", "auto", {})]]))
    # Fig. 6: each swept benchmark on its own system.
    sweep = [IntegerSort, ConjugateGradient, RandomAccess, hj2]
    sizes = [dict(num_keys=4000, num_buckets=1 << 16),
             dict(nrows=300, row_nnz=10, x_size=1 << 13),
             dict(nblocks=30, table_size=1 << 16),
             dict(num_probes=4000, num_buckets=1 << 14)]
    for k, (make, size) in enumerate(zip(sweep, sizes)):
        cells.append(("fig6", lambda make=make, size=size: make(**size),
                      ALL_SYSTEMS[k], [[(f"c={c}", "auto",
                                         dict(lookahead=c))]
                                       for c in LOOKAHEAD_SWEEP]))
    cells.append(("fig7", lambda: hj8(num_probes=2000,
                                      num_buckets=1 << 12), a57, [
        [(f"depth={d}", "manual",
          dict(manual_knobs={"stagger_depth": d}))] for d in (1, 2, 3, 4)]))
    # Fig. 8 takes the faster of auto and manual: both run.
    cells.append(("fig8", quick(2), haswell, [[
        ("auto", "auto", {}),
        ("manual", "manual", dict(
            manual_knobs=manual_knobs_for(quick(2)(), haswell)))]]))
    cells.append(("fig10", lambda: IntegerSort(num_keys=6000), haswell, [
        [(f"{pages}-pages", "auto", dict(machine=config))]
        for pages, config in (("small", haswell.with_small_pages()),
                              ("huge", haswell.with_huge_pages()))]))
    return cells


def figs_grid(seed: int, smoke: bool = False) -> list[GridRun]:
    """A seeded stratified sample of the quick figure grid, in run order.

    Every cell of :func:`_grid_cells` -- all four systems, and each
    figure's option axis -- is in every sample, so a pass costs about
    the same for every seed; the seed picks each cell's option and
    re-seeds its workload instance, whose inputs come from the order of
    its runs.  ``smoke`` keeps the first two cells.
    """
    from repro.bench.runner import RunSpec
    from repro.workloads.base import Workload

    rng = random.Random(f"figs/{seed}")
    cells = _grid_cells()
    runs = []
    for index, (figure, make, machine, options) in enumerate(cells):
        chosen = rng.choice(options)
        if smoke and index >= 2:
            continue
        workload = make()
        Workload.__init__(workload, seed * 1000 + index)
        cell_machine = next((kw["machine"] for _, _, kw in chosen
                             if "machine" in kw), machine)
        runs.append(GridRun(figure, index, "plain",
                            RunSpec(workload, "plain", cell_machine)))
        for label, variant, keywords in chosen:
            keywords = dict(keywords, machine=cell_machine)
            runs.append(GridRun(figure, index, label,
                                RunSpec(workload, variant, **keywords)))
    return runs


# -- compile corpus ----------------------------------------------------------

#: Loop families of the generated kernels.
FAMILIES = ("gather", "scatter", "chain2", "hashed", "csr")
#: Loops per kernel.
LOOP_COUNTS = (1, 2, 3, 4)
#: Share of kernels whose pointer parameters are all ``restrict``.
RESTRICT_SHARE = 0.8
#: How an invalid kernel is broken, and the frontend error it must raise.
BREAKS = {"syntax": "SyntaxErrorC", "undeclared": "LoweringError",
          "scalar-index": "LoweringError", "bad-char": "LexError"}


@dataclass(frozen=True)
class Kernel:
    """One generated source: ``error`` names the frontend exception an
    invalid kernel must raise (``None`` for a valid kernel)."""

    source: str
    family: str
    loops: int
    error: str | None = None


class _Params:
    """Pointer parameters of one kernel, named as they are first used."""

    def __init__(self):
        self.names: list[str] = []

    def __call__(self, role: str, loop: int) -> str:
        name = f"{role}{loop}"
        if name not in self.names:
            self.names.append(name)
        return name


def _loop(rng: random.Random, family: str, k: int, p: _Params) -> str:
    i = f"i{k}"
    if family == "gather":
        op = rng.choice(("", f" + {rng.randrange(1, 99)}",
                         f" * {rng.randrange(2, 9)}",
                         f" ^ {rng.randrange(1, 1 << 16)}"))
        return (f"    for (long {i} = 0; {i} < n; {i}++)\n"
                f"        {p('out', k)}[{i}] = "
                f"{p('data', k)}[{p('idx', k)}[{i}]]{op};\n")
    if family == "scatter":
        return (f"    for (long {i} = 0; {i} < n; {i}++)\n"
                f"        {p('dst', k)}[{p('idx', k)}[{i}]] += "
                f"{p('src', k)}[{i}];\n")
    if family == "chain2":
        return (f"    for (long {i} = 0; {i} < n; {i}++)\n"
                f"        {p('out', k)}[{i}] = "
                f"{p('a', k)}[{p('b', k)}[{p('c', k)}[{i}]]];\n")
    if family == "hashed":
        mult = rng.randrange(1 << 20, 1 << 32) | 1
        mask = (1 << rng.randrange(8, 17)) - 1
        return (f"    for (long {i} = 0; {i} < n; {i}++)\n"
                f"        {p('table', k)}[({p('keys', k)}[{i}] * {mult})"
                f" & {mask}] += 1;\n")
    j = f"j{k}"
    row, y = p("row", k), p("y", k)
    return (f"    for (long {i} = 0; {i} < n; {i}++)\n"
            f"        for (long {j} = {row}[{i}]; {j} < {row}[{i} + 1]; "
            f"{j}++)\n"
            f"            {y}[{i}] += {p('val', k)}[{j}] * "
            f"{p('x', k)}[{p('col', k)}[{j}]];\n")


def _kernel(rng: random.Random, lead: str, loops: int, restrict: bool,
            index: int) -> str:
    params = _Params()
    # The lead family, then the next ones in FAMILIES order: the family
    # multiset of a block is the same for every seed.
    first = FAMILIES.index(lead)
    families = [FAMILIES[(first + k) % len(FAMILIES)]
                for k in range(loops)]
    body = "".join(_loop(rng, family, k, params)
                   for k, family in enumerate(families))
    qual = " restrict" if restrict else ""
    signature = ", ".join(f"long*{qual} {name}" for name in params.names)
    return f"void kernel{index}({signature}, long n) {{\n{body}}}\n"


def _broken(rng: random.Random, source: str, how: str) -> str:
    if how == "syntax":
        cuts = [at for at, ch in enumerate(source) if ch == ";"]
        at = rng.choice(cuts)
        return source[:at] + source[at + 1:]
    if how == "undeclared":
        return source.replace("< n;", "< m;", 1)
    if how == "scalar-index":
        return source[:source.rindex("}")] + "    n[0] = 1;\n}\n"
    at = rng.randrange(source.index("{") + 1, len(source) - 1)
    return source[:at] + "@" + source[at:]


def compile_corpus(seed: int, size: int) -> list[Kernel]:
    """``size`` kernels in blocks of 20: each (lead family, loop count)
    pair once per block, 80% of them ``restrict``, one (5%) broken."""
    rng = random.Random(f"compile/{seed}")
    kernels: list[Kernel] = []
    while len(kernels) < size:
        block = [(f, n) for f in FAMILIES for n in LOOP_COUNTS]
        rng.shuffle(block)
        plain = set(rng.sample(range(len(block)),
                               round(len(block) * (1 - RESTRICT_SHARE))))
        bad = rng.randrange(len(block))
        for b, (family, loops) in enumerate(block):
            source = _kernel(rng, family, loops, b not in plain,
                             len(kernels))
            error = None
            if b == bad:
                how = rng.choice(sorted(BREAKS))
                source, error = _broken(rng, source, how), BREAKS[how]
            kernels.append(Kernel(source, family, loops, error))
    return kernels[:size]


# -- serve mix ---------------------------------------------------------------

#: Simulate jobs cycle through every (workload, machine) pair per block.
#: The three cheapest quick-size benchmarks on the two in-order cores
#: run in 30-80 ms, so fresh runs form one dense latency population
#: and p99 falls inside it rather than on the edge of a rare slow kind.
SERVE_WORKLOADS = ("is", "ra", "hj2")
SERVE_MACHINES = ("A53", "Xeon Phi")
#: One request in this many runs a job for the first time (4%).
FRESH_EVERY = 25
#: Requests from the start of a schedule that hold every (workload,
#: machine) pair's fresh simulation once, and as many fresh compiles.
SERVE_BLOCK = FRESH_EVERY * 2 * len(SERVE_WORKLOADS) * len(SERVE_MACHINES)


@dataclass(frozen=True)
class ServeMix:
    """A request schedule: ``schedule[i]`` indexes ``jobs``; a job's
    first request is its fresh run, every later one a store hit."""

    jobs: list
    schedule: list
    warmup: list


def _simulate_job(workload: str, machine: str, lookahead: int) -> dict:
    return {"kind": "simulate", "workload": workload, "small": True,
            "variant": "auto", "machine": machine,
            "lookahead": lookahead}


def _compile_job(source: str, lookahead: int) -> dict:
    # No -O pipeline: LICM hoists in set-iteration order, so its output
    # differs between processes and could never match the reference.
    return {"kind": "compile", "source": source, "prefetch": True,
            "optimize": False, "lookahead": lookahead}


def serve_mix(seed: int, requests: int) -> ServeMix:
    """``requests`` requests: every :data:`FRESH_EVERY`-th introduces a
    new job, alternately a simulation and a compile, and every other
    request repeats a job introduced earlier (half simulate, half
    compile)."""
    rng = random.Random(f"serve/{seed}")
    fresh_jobs = requests // FRESH_EVERY + 1
    lookaheads = iter(rng.sample(range(2, 1 << 16), fresh_jobs + 1))
    # Corpus kernels under another seed, so serve compiles are not the
    # compile workload's; 19 of 20 are valid, +20 covers the warm-up.
    sources = iter(k.source for k in compile_corpus(
        seed + 7919, fresh_jobs * 20 // 19 + 20) if k.error is None)
    pairs: list = []
    jobs: list = []
    by_kind: dict[str, list[int]] = {"simulate": [], "compile": []}
    schedule = []
    for i in range(requests):
        if i % FRESH_EVERY:
            kinds = [k for k in ("simulate", "compile") if by_kind[k]]
            schedule.append(rng.choice(by_kind[rng.choice(kinds)]))
            continue
        if len(jobs) % 2 == 0:
            if not pairs:
                pairs = [(w, m) for w in SERVE_WORKLOADS
                         for m in SERVE_MACHINES]
                rng.shuffle(pairs)
            job = _simulate_job(*pairs.pop(), next(lookaheads))
        else:
            job = _compile_job(next(sources), next(lookaheads))
        by_kind[job["kind"]].append(len(jobs))
        schedule.append(len(jobs))
        jobs.append(job)
    warmup = [_simulate_job("is", "A53", 1), _compile_job(
        next(sources), 1)]
    return ServeMix(jobs, schedule, warmup)
