"""Optimization remarks: the compile-time decision log.

In the spirit of LLVM's ``-Rpass`` / YAML opt-remarks, every pass under
:mod:`repro.passes` emits structured :class:`Remark` records — accepted
prefetch chains with their eq. (1) scheduling inputs, every
``RejectReason`` with the offending instruction and DFS path, clamp
provenance, hoisting decisions, cleanup-pass transformations, and
per-pass wall-time / IR-size instrumentation from the pass manager.

Remarks are purely observational: passes behave identically whether or
not an emitter is installed, and no emitter is installed by default.
An emitter is one of the observation sinks of :mod:`repro.obs.sinks`,
installed with :func:`repro.obs.sinks.collecting` like the others.

Layout:

* :mod:`repro.remarks.remark` — the :class:`Remark` model and the
  registry of known remark names;
* :mod:`repro.remarks.emitter` — the :class:`RemarkEmitter` sink and
  :func:`emit`, which appends to the installed one;
* :mod:`repro.remarks.serialize` — the ``repro-remarks-v1`` JSON-lines
  stream (byte-identical round-trip), validator, human renderer;
* :mod:`repro.remarks.join` — the compile-time ⋈ runtime join behind
  ``repro explain`` (imported on demand; it pulls in the bench
  harness).
"""

from .emitter import RemarkEmitter, active_emitter, emit
from .remark import (ANALYSIS, KINDS, KNOWN_REMARKS, MISSED, PASSED,
                     Remark, WARNING)
from .serialize import (SCHEMA, canonical_stream, dumps_stream,
                        parse_stream, remark_from_dict, remark_to_dict,
                        render_remarks, validate_remark_dict)

__all__ = [
    "Remark", "RemarkEmitter", "active_emitter", "emit",
    "PASSED", "MISSED", "ANALYSIS", "WARNING", "KINDS", "KNOWN_REMARKS",
    "SCHEMA", "canonical_stream", "dumps_stream", "parse_stream",
    "remark_from_dict", "remark_to_dict", "render_remarks",
    "validate_remark_dict",
]
