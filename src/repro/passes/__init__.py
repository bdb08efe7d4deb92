"""Transformation passes over the repro IR.

The star of the package is :class:`repro.passes.prefetch.IndirectPrefetchPass`
— the paper's automatic software-prefetch generation pass.  Alongside it:

* :class:`StrideIndirectBaselinePass` — the ICC-like comparator;
* :class:`DeadCodeEliminationPass`, :class:`ConstantFoldingPass`,
  :class:`CommonSubexpressionEliminationPass`,
  :class:`LoopInvariantCodeMotionPass`, :class:`SimplifyCFGPass` — generic
  cleanups;
* :class:`Mem2RegPass` — promotes frontend scalar slots to SSA registers;
* :class:`PassManager` — runs passes in sequence, and
  :func:`compile_pipeline` — the prefetch pass plus the ``-O`` cleanup
  pipeline, as ``repro compile`` and ``repro serve`` run them.
"""

from .analysis_bundle import FunctionAnalyses
from .constfold import ConstantFoldingPass
from .cse import CommonSubexpressionEliminationPass
from .dce import DeadCodeEliminationPass
from .licm import LoopInvariantCodeMotionPass
from .mem2reg import Mem2RegPass
from .pass_manager import PassManager, compile_pipeline
from .simplifycfg import SimplifyCFGPass
from .prefetch import (IndirectPrefetchPass, PrefetchOptions, PrefetchReport,
                       RejectReason)
from .stride_indirect_baseline import (BaselineReport,
                                       StrideIndirectBaselinePass)

__all__ = [
    "FunctionAnalyses",
    "ConstantFoldingPass",
    "CommonSubexpressionEliminationPass",
    "DeadCodeEliminationPass",
    "LoopInvariantCodeMotionPass",
    "Mem2RegPass",
    "PassManager", "compile_pipeline",
    "SimplifyCFGPass",
    "IndirectPrefetchPass", "PrefetchOptions", "PrefetchReport",
    "RejectReason",
    "BaselineReport", "StrideIndirectBaselinePass",
]
