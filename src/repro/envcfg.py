"""Validated integer environment variables: warn, never crash.

Runtime knobs (worker counts, queue bounds, ring sizes) arrive through
``REPRO_*`` environment variables, frequently set by CI scripts and
shell one-liners where a typo is easy.  A bad value must never abort a
run: like :func:`repro.telemetry.collector.ring_capacity`, an
out-of-range or non-integer value produces a Python warning plus (when
remarks are being collected) an ``EnvVarClamped`` warning remark, and a
documented fallback is used.

:func:`env_int` is the one shared implementation; callers state their
fallback and bounds, so every knob degrades the same way.
"""

from __future__ import annotations

import os
import warnings

from .remarks import emit


def _fallback(name: str, raw: str, used: int, reason: str) -> int:
    """Report an unusable value for ``name`` and carry on with ``used``."""
    warnings.warn(f"{name}={raw!r} is {reason}; using {used}",
                  RuntimeWarning, stacklevel=4)
    emit("warning", "env", "EnvVarClamped",
         var=name, value=raw, used=used, reason=reason)
    return used


def env_int(name: str, fallback: int, *, minimum: int | None = None,
            maximum: int | None = None) -> int:
    """Integer value of environment variable ``name``, validated.

    Unset (or empty) returns ``fallback`` silently.  A value that is
    not an integer falls back to ``fallback``; one below ``minimum``
    clamps to ``minimum``; one above ``maximum`` clamps to ``maximum``
    — each with a ``RuntimeWarning`` and an ``EnvVarClamped`` remark
    instead of an exception.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return fallback
    try:
        value = int(raw)
    except ValueError:
        return _fallback(name, raw, fallback, "not an integer")
    if minimum is not None and value < minimum:
        return _fallback(name, raw, minimum,
                         f"below the minimum {minimum}")
    if maximum is not None and value > maximum:
        return _fallback(name, raw, maximum,
                         f"above the maximum {maximum}")
    return value
