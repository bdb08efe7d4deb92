"""Static analyses over the repro IR.

Provides CFG orderings and dominators, natural-loop detection, induction
variable discovery, allocation-size discovery, loop memory-dependence
checks, and call-graph purity — everything the prefetch pass of
:mod:`repro.passes.prefetch` consumes.
"""

from .allocsize import ArrayBound, known_array_bound, underlying_object
from .cfg import (dominance_frontiers, dominates, dominators,
                  predecessor_map, reverse_postorder)
from .induction import (InductionAnalysis, InductionVariable, IVBound)
from .loops import Loop, LoopInfo
from .memdep import may_alias, stores_in_loop
from .sideeffects import SideEffectAnalysis

__all__ = [
    "ArrayBound", "known_array_bound", "underlying_object",
    "dominance_frontiers", "dominates", "dominators",
    "predecessor_map", "reverse_postorder",
    "InductionAnalysis", "InductionVariable", "IVBound",
    "Loop", "LoopInfo",
    "may_alias", "stores_in_loop",
    "SideEffectAnalysis",
]
