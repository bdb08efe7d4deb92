"""Environment variables, read and validated in one place.

Runtime knobs arrive through ``REPRO_*`` environment variables,
frequently set by CI scripts and shell one-liners where a typo is easy.
A bad value must never abort a run: it produces a Python warning plus
(when remarks are being collected) an ``EnvVarClamped`` warning remark,
and a documented fallback is used.  :func:`env_int` and :func:`env_bool`
are the shared implementations; callers state their fallback (and
bounds), so every knob degrades the same way.

The engine choices a run depends on travel as one frozen
:class:`SimOptions` value.  Only entry points (the ``repro`` commands
and the benchmark conftest) read it from the environment, through
:meth:`SimOptions.from_env` and :func:`cache_from_env`; library code
takes it as an argument:

* ``REPRO_SIM_FASTPATH`` — ``0`` selects the reference engine (default
  ``1``, the fast engine);
* ``REPRO_SIM_TELEMETRY`` — ``1`` attaches prefetch telemetry (default
  ``0``);
* ``REPRO_SIM_CACHE`` — ``0``/``1`` turns the run-result disk cache
  off/on (the default depends on the command);
* ``REPRO_SIM_CACHE_DIR`` — the cache root (default ``.sim-cache``).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

from .remarks import emit


def _fallback(name: str, raw: str, used, reason: str):
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


def env_bool(name: str, fallback: bool) -> bool:
    """Boolean value of environment variable ``name``: ``0`` or ``1``.

    Unset (or empty) returns ``fallback`` silently.  Any other value —
    ``false``, ``yes``, ``2`` — falls back to ``fallback`` with a
    ``RuntimeWarning`` and an ``EnvVarClamped`` remark.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return fallback
    if raw in ("0", "1"):
        return raw == "1"
    return _fallback(name, raw, fallback, "not 0 or 1")


@dataclass(frozen=True)
class SimOptions:
    """The engine choices that change what a run stores.

    :func:`repro.bench.cache.run_key` hashes the whole value, so every
    field is part of the run-cache key.

    :ivar fastpath: the fast engine (the reference dispatch loop plus
        the trace JIT); ``False`` selects the reference engine.  Both
        produce bit-identical numbers.
    :ivar telemetry: attach a prefetch-telemetry collector; its
        snapshot rides the result.
    :ivar timeline_window: record a windowed timeline with windows this
        many simulated cycles wide; ``None`` records none.
    """

    fastpath: bool = True
    telemetry: bool = False
    timeline_window: int | None = None

    @classmethod
    def from_env(cls) -> "SimOptions":
        """The options ``REPRO_SIM_FASTPATH`` and
        ``REPRO_SIM_TELEMETRY`` select (no timeline)."""
        return cls(fastpath=env_bool("REPRO_SIM_FASTPATH", True),
                   telemetry=env_bool("REPRO_SIM_TELEMETRY", False))


def cache_dir_from_env(fallback: str = ".sim-cache") -> str:
    """Result-store root: ``REPRO_SIM_CACHE_DIR``, else ``fallback``."""
    return os.environ.get("REPRO_SIM_CACHE_DIR") or fallback


def cache_from_env(default: bool,
                   fallback: str = ".sim-cache") -> str | None:
    """Run-cache root the environment selects, or ``None`` for no cache.

    ``REPRO_SIM_CACHE`` turns the cache on or off (``default`` when
    unset); the root is :func:`cache_dir_from_env`.
    """
    if not env_bool("REPRO_SIM_CACHE", default):
        return None
    return cache_dir_from_env(fallback)
