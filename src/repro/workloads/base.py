"""Workload protocol shared by all seven benchmarks.

A workload knows how to

* build its kernel as IR (``build()``), including a hand-optimised
  variant with the paper's best manual prefetches (``build_manual()``);
* allocate and initialise its inputs in a :class:`Memory`
  (``prepare()``), mirroring the paper's untimed "data generation and
  initialisation";
* validate the kernel's architectural results against a host-side
  reference (``PreparedRun.validate``).

Variants (plain / auto / manual / icc) are materialised by
:func:`build_variant`, which re-builds the module fresh and applies the
corresponding pass, so pass-inserted code never leaks between variants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..ir.module import Module
from ..machine.memory import Memory
from ..passes.prefetch import IndirectPrefetchPass, PrefetchOptions
from ..passes.stride_indirect_baseline import StrideIndirectBaselinePass

#: The pass variants every experiment can request.
VARIANTS = ("plain", "auto", "manual", "icc")


@dataclass
class PreparedRun:
    """Inputs of one run: entry arguments plus a result validator."""

    args: list
    validate: Callable[[], None]
    iterations: int = 0
    metadata: dict = field(default_factory=dict)


class Workload(ABC):
    """Base class for the paper's benchmarks.

    :param seed: RNG seed for input generation (runs are deterministic).
    """

    #: Short name used in reports ("IS", "CG", ...).
    name: str = "?"
    #: Entry function interpreted by the machine.
    entry: str = "kernel"

    def __init__(self, seed: int = 42):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @abstractmethod
    def build(self) -> Module:
        """Build the plain (no software prefetch) kernel module."""

    @abstractmethod
    def build_manual(self, lookahead: int = 64, **knobs) -> Module:
        """Build the kernel with the paper's best *manual* prefetches.

        Manual variants may exploit runtime knowledge the compiler pass
        cannot see (e.g. HJ-8's fixed bucket-chain length, RA's repeated
        128-iteration inner loop).
        """

    @abstractmethod
    def prepare(self, memory: Memory) -> PreparedRun:
        """Allocate and initialise inputs; returns args + validator.

        Contract: ``prepare`` changes its instance only by drawing from
        ``self.rng`` — every other attribute keeps its value (and its
        :func:`~repro.bench.cache.canonical_token`).  A run-cache hit
        relies on it: it restores the RNG state a real run left and
        skips ``prepare``, which leaves the instance, and so every later
        run's inputs and key, exactly as an uncached run would.
        """

    # -- variant construction (shared) ---------------------------------------

    def build_variant(self, variant: str, lookahead: int = 64,
                      options: PrefetchOptions | None = None,
                      **manual_knobs) -> Module:
        """Materialise one of ``plain``/``auto``/``manual``/``icc``."""
        if variant == "plain":
            return self.build()
        if variant == "manual":
            return self.build_manual(lookahead=lookahead, **manual_knobs)
        if variant == "auto":
            module = self.build()
            opts = options or PrefetchOptions(lookahead=lookahead)
            IndirectPrefetchPass(opts).run(module)
            return module
        if variant == "icc":
            module = self.build()
            StrideIndirectBaselinePass(lookahead=lookahead).run(module)
            return module
        raise ValueError(
            f"unknown variant {variant!r}; choose from {VARIANTS}")
