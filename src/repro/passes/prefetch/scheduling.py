"""Look-ahead scheduling (§4.4, equation 1).

For a chain of ``t`` dependent loads, the load at position ``l`` (counting
from the one nearest the induction variable) is prefetched at offset::

    offset(l) = c * (t - l) / t

so the look-ahead is spaced evenly: each prefetched value is ready
``c / t`` iterations before the next prefetch in the sequence (or the
original load) needs it.  ``c`` is a microarchitecture-influenced constant;
the paper sets ``c = 64`` everywhere and shows (Fig. 6) that this is close
to optimal on all four machines.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's default look-ahead constant.
DEFAULT_LOOKAHEAD = 64


@dataclass
class ScheduledPrefetch:
    """One prefetch to emit for a chain.

    :ivar position: index ``l`` of the covered load within the chain
        (0 = the stride load on the look-ahead array itself).
    :ivar offset: iterations of look-ahead for this prefetch.
    """

    position: int
    offset: int


def schedule_chain(num_loads: int, lookahead: int = DEFAULT_LOOKAHEAD,
                   *, include_stride: bool = True) -> list[ScheduledPrefetch]:
    """Compute the prefetches for a chain of ``num_loads`` dependent loads.

    :param num_loads: ``t`` in eq. (1); must be >= 1.
    :param lookahead: the constant ``c``.
    :param include_stride: also emit the position-0 prefetch covering the
        sequentially accessed look-ahead array (Fig. 5 compares this
        against indirect-only prefetching).
    :returns: schedules sorted by position.
    """
    if num_loads < 1:
        raise ValueError("a chain must contain at least one load")
    if lookahead < 1:
        raise ValueError("look-ahead constant must be positive")
    schedules = []
    for position in range(num_loads):
        if position == 0 and not include_stride:
            continue
        offset = offset_for(position, num_loads, lookahead)
        schedules.append(ScheduledPrefetch(position=position, offset=offset))
    return schedules


def offset_for(position: int, num_loads: int,
               lookahead: int = DEFAULT_LOOKAHEAD) -> int:
    """Equation (1): ``offset = c * (t - l) / t``, at least 1."""
    if not 0 <= position < num_loads:
        raise ValueError(
            f"position {position} out of range for {num_loads} loads")
    return max(1, (lookahead * (num_loads - position)) // num_loads)
