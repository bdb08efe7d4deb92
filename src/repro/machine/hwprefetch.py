"""Hardware stride prefetcher (region-based stream detector).

Models an L2-streamer-style prefetcher: streams are tracked per 4 KiB
*region* (as Intel's L2 streamer does), not per instruction.  Each region
tracks its last accessed line and stride; after ``train_threshold``
consistent strides the prefetcher issues fills ``distance`` lines ahead
(``degree`` lines per trigger).

Region tracking is load-bearing for the paper's Fig. 2/Fig. 5 story:
when prefetch code adds a *look-ahead* load stream through the same
array (``base[i + c/2]`` interleaved with ``base[i]``), both streams
land in the same regions and compete for the region's limited stream
entries (two per region, like recent Intel streamers), degrading
coverage.  That is precisely why the pass must emit its own staggered
stride prefetch even on machines with hardware prefetchers.
"""

from __future__ import annotations

#: log2(lines per tracked region): 64 lines = 4 KiB regions.
REGION_BITS = 6

# Stream entries are plain ``[last_line, stride, confidence]`` lists:
# ``observe`` runs once per demand access on the simulator's hottest
# path, and list indexing beats attribute access on a record type.
_LAST, _STRIDE, _CONF = range(3)


class StridePrefetcher:
    """Per-region stride detector issuing line fills.

    :param distance: how many strides ahead to prefetch.
    :param degree: fills issued per triggering access.
    :param train_threshold: consistent strides needed before issuing.
    :param table_size: tracked regions (LRU replacement).
    """

    #: Streams tracked per region; interleaved access points beyond
    #: this degrade coverage (the Fig. 2 "intuitive scheme" effect).
    STREAMS_PER_REGION = 2

    def __init__(self, distance: int = 4, degree: int = 2,
                 train_threshold: int = 2, table_size: int = 32):
        self.distance = distance
        self.degree = degree
        self.train_threshold = train_threshold
        self.table_size = table_size
        self._table: dict[int, list[list]] = {}
        self._last_line: int | None = None
        #: Strides ahead of each issued fill.
        self._ahead = tuple(range(distance, distance + degree))

    def observe(self, pc: int, line_addr: int) -> list[int]:
        """Train on a demand access; returns line addresses to prefetch.

        ``pc`` is accepted for interface stability but streams are keyed
        by memory region (see module docstring).
        """
        if line_addr == self._last_line:
            # Repeat of the immediately preceding access: the region is
            # already MRU and the matched stream sees stride 0, so the
            # full path would mutate nothing and return no fills.
            return []
        self._last_line = line_addr
        region = line_addr >> REGION_BITS
        table = self._table
        streams = table.pop(region, None)
        if streams is None:
            if len(table) >= self.table_size:
                del table[next(iter(table))]
            table[region] = [[line_addr, 0, 0]]
            return []
        table[region] = streams  # LRU touch

        # Match the stream whose last access is closest to this line
        # (first wins ties, matching min() over the insertion order).
        entry = streams[0]
        stride = line_addr - entry[_LAST]
        if len(streams) > 1:
            other = streams[1]
            other_stride = line_addr - other[_LAST]
            if (other_stride if other_stride >= 0 else -other_stride) < (
                    stride if stride >= 0 else -stride):
                entry = other
                stride = other_stride
        if stride == 0:
            return []  # same line: no information
        if ((stride > 8 or stride < -8)
                and len(streams) < self.STREAMS_PER_REGION):
            # Too far from any tracked stream: open a second one.
            streams.append([line_addr, 0, 0])
            return []
        if stride == entry[_STRIDE]:
            conf = entry[_CONF] + 1
            if conf > 8:
                conf = 8
            entry[_CONF] = conf
        else:
            entry[_STRIDE] = stride
            entry[_CONF] = conf = 1
        entry[_LAST] = line_addr
        if conf < self.train_threshold:
            return []
        return [line_addr + stride * k for k in self._ahead]

    def reset(self) -> None:
        """Forget all streams."""
        self._table.clear()
        self._last_line = None
