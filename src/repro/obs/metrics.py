"""Labeled metrics: counters, gauges, fixed-bucket histograms.

A :class:`Registry` holds metric *families*; a family with label names
hands out one *child* per label-value combination (``family.labels(
workload="is", tier="auto")``).  Children are cheap (a few ints under
a lock — safe to touch from the worker pool's I/O threads as well as
the event loop), and observation never allocates per sample: a
histogram is a fixed vector of bucket counts plus ``sum``/``count``
and an explicit **running max** — unlike the bounded reservoir it
replaced, the max is all-time, not whatever happens to still be in a
deque, and nothing is sorted at scrape time.

Exposition is dual:

* :meth:`Registry.render_prometheus` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series, escaped label values, **sorted label names and
  sorted children** so the output is byte-stable for goldens);
* callers assemble their own JSON snapshots from the child values
  (``repro serve`` keeps its ``repro-serve-metrics-v1`` shape).

Percentiles come in two flavours, both here so every consumer agrees:

* :func:`nearest_rank` — the standard ceil-based nearest-rank
  percentile of an exact sorted sample (``perf/run.py``).  This
  replaces the old ``round()``-based form whose banker's rounding
  under-reported (e.g. p50 of 5 samples picked the 2nd, not the 3rd).
* :meth:`Histogram.quantile` on a child — an estimate from the bucket
  counts (linear interpolation inside the winning bucket; the +Inf
  bucket answers the running max).
"""

from __future__ import annotations

import math
import threading

#: Default latency buckets, milliseconds.  Upper bounds are inclusive
#: (Prometheus ``le`` semantics); the overflow bucket is +Inf.  The top
#: finite bound comfortably exceeds the default 300 s serve deadline.
LATENCY_BUCKETS_MS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0, 60000.0, 120000.0,
    300000.0, 600000.0)

#: Buckets for second-scale stage timings (bench runner).
SECONDS_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
                   120.0, 300.0)


def nearest_rank(ordered, pct: float) -> float:
    """Ceil-based nearest-rank percentile of a **sorted** sample.

    The standard definition: the smallest value such that at least
    ``pct`` percent of the sample is ≤ it, i.e. element number
    ``ceil(pct/100 * n)`` (1-based).  Boundary behaviour the old
    ``round()`` form got wrong: n=1 answers the only sample for every
    pct; p50 of n=2 answers the first element; p100 always answers the
    max.  An empty sample answers 0.0.
    """
    n = len(ordered)
    if n == 0:
        return 0.0
    rank = max(1, min(n, math.ceil(pct / 100.0 * n)))
    return ordered[rank - 1]


def format_number(value) -> str:
    """Prometheus sample value formatting: integral floats lose the
    trailing ``.0`` so counters read as integers."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15 and not math.isinf(value):
        return str(int(value))
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value for the text format: backslash, double
    quote, and newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def escape_help(text: str) -> str:
    """Escape a HELP line: backslash and newline."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labelnames, labelvalues, extra=()) -> str:
    """``{a="x",b="y"}`` with label names sorted for byte-stable
    output; empty string when there are no labels."""
    pairs = sorted(zip(labelnames, labelvalues))
    pairs += list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{escape_label_value(value)}"'
                    for name, value in pairs)
    return "{" + body + "}"


class _Child:
    """Shared child plumbing: one label-value combination's samples."""

    def __init__(self, labelvalues: tuple):
        self.labelvalues = labelvalues
        self._lock = threading.Lock()


class _CounterChild(_Child):
    def __init__(self, labelvalues):
        super().__init__(labelvalues)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def set_from(self, value) -> None:
        """Sync from an externally-tracked monotonic source (e.g. the
        pool's restart count) at scrape time."""
        with self._lock:
            self.value = max(self.value, value)


class _GaugeChild(_Child):
    def __init__(self, labelvalues):
        super().__init__(labelvalues)
        self.value = 0.0

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self.value += amount


class _HistogramChild(_Child):
    def __init__(self, labelvalues, bounds: tuple):
        super().__init__(labelvalues)
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; index len(bounds) is the
        #: +Inf overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        #: All-time running max — explicitly tracked, never inferred
        #: from whatever a bounded reservoir still holds.
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        i = 0
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            i = len(self.bounds)
        with self._lock:
            self.counts[i] += 1
            self.sum += value
            self.count += 1
            if value > self.max:
                self.max = value

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (``le`` semantics), +Inf last."""
        out, running = [], 0
        with self._lock:
            for c in self.counts:
                running += c
                out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) from the bucket counts.

        Nearest-rank over buckets, linearly interpolated inside the
        winning bucket; a rank landing in the +Inf bucket answers the
        running max (the only honest bound we have there).
        """
        with self._lock:
            total = self.count
            counts = list(self.counts)
            observed_max = self.max
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        cum = 0
        lower = 0.0
        for bound, c in zip(self.bounds, counts):
            if cum + c >= rank:
                if c == 0:
                    return min(bound, observed_max)
                frac = (rank - cum) / c
                return min(lower + (bound - lower) * frac, observed_max)
            cum += c
            lower = bound
        return observed_max


class MetricFamily:
    """Base family: a name, help text, and labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: tuple = (),
                 unit: str = ""):
        self.name = name
        self.help = help
        self.labelnames = tuple(labels)
        self.unit = unit
        self._children: dict[tuple, _Child] = {}
        self._lock = threading.Lock()

    def _make_child(self, labelvalues: tuple):
        raise NotImplementedError

    def labels(self, **labelvalues):
        """The child for one label-value combination (created lazily).

        Every declared label must be supplied, and nothing else — a
        typo'd label name is a bug, not a new series.
        """
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: labels {sorted(labelvalues)} != "
                f"declared {sorted(self.labelnames)}")
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child(key)
                self._children[key] = child
        return child

    def children(self) -> list:
        """Children sorted by label values (stable exposition order)."""
        with self._lock:
            return [child for _, child in sorted(self._children.items())]

    def describe(self) -> dict:
        """Catalogue row for this family (``tools/check_metrics.py``)."""
        row = {"name": self.name, "type": self.kind, "help": self.help,
               "labels": list(self.labelnames), "unit": self.unit}
        if isinstance(self, Histogram):
            row["buckets"] = list(self.buckets)
        return row

    def _header(self) -> list[str]:
        return [f"# HELP {self.name} {escape_help(self.help)}",
                f"# TYPE {self.name} {self.kind}"]

    def render(self) -> list[str]:
        raise NotImplementedError


class Counter(MetricFamily):
    """Monotonically-increasing count."""

    kind = "counter"

    def _make_child(self, labelvalues):
        return _CounterChild(labelvalues)

    def inc(self, amount=1):
        """Unlabeled convenience: ``labels()`` then ``inc``."""
        self.labels().inc(amount)

    @property
    def value(self):
        """Sum across children (unlabeled families: the value)."""
        return sum(c.value for c in self.children())

    def render(self) -> list[str]:
        lines = self._header()
        for child in self.children():
            lines.append(
                f"{self.name}"
                f"{_render_labels(self.labelnames, child.labelvalues)}"
                f" {format_number(child.value)}")
        return lines


class Gauge(MetricFamily):
    """A value that can go up and down (set at scrape time is fine)."""

    kind = "gauge"

    def _make_child(self, labelvalues):
        return _GaugeChild(labelvalues)

    def set(self, value):
        self.labels().set(value)

    @property
    def value(self):
        return sum(c.value for c in self.children())

    def render(self) -> list[str]:
        lines = self._header()
        for child in self.children():
            lines.append(
                f"{self.name}"
                f"{_render_labels(self.labelnames, child.labelvalues)}"
                f" {format_number(child.value)}")
        return lines


class Histogram(MetricFamily):
    """Fixed-bucket histogram (bounds shared by every child)."""

    kind = "histogram"

    def __init__(self, name, help, labels=(), unit="",
                 buckets=LATENCY_BUCKETS_MS):
        super().__init__(name, help, labels, unit)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"{name}: bucket bounds must be strictly "
                             f"increasing")
        self.buckets = bounds

    def _make_child(self, labelvalues):
        return _HistogramChild(labelvalues, self.buckets)

    def observe(self, value):
        self.labels().observe(value)

    def render(self) -> list[str]:
        lines = self._header()
        for child in self.children():
            cumulative = child.cumulative()
            for bound, count in zip(self.buckets, cumulative):
                labels = _render_labels(
                    self.labelnames, child.labelvalues,
                    extra=[("le", format_number(bound))])
                lines.append(f"{self.name}_bucket{labels} {count}")
            labels = _render_labels(self.labelnames, child.labelvalues,
                                    extra=[("le", "+Inf")])
            lines.append(f"{self.name}_bucket{labels} "
                         f"{cumulative[-1]}")
            plain = _render_labels(self.labelnames, child.labelvalues)
            lines.append(f"{self.name}_sum{plain} "
                         f"{format_number(child.sum)}")
            lines.append(f"{self.name}_count{plain} {child.count}")
        return lines


class Registry:
    """An ordered collection of metric families.

    Families are exposed in registration order; every registered
    family appears in the exposition (HELP/TYPE headers) even before
    its first sample, so the catalogue check can assert presence.
    """

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    def register(self, family: MetricFamily) -> MetricFamily:
        if family.name in self._families:
            raise ValueError(f"duplicate metric {family.name}")
        self._families[family.name] = family
        return family

    def counter(self, name, help, labels=(), unit="") -> Counter:
        return self.register(Counter(name, help, labels, unit))

    def gauge(self, name, help, labels=(), unit="") -> Gauge:
        return self.register(Gauge(name, help, labels, unit))

    def histogram(self, name, help, labels=(), unit="",
                  buckets=LATENCY_BUCKETS_MS) -> Histogram:
        return self.register(Histogram(name, help, labels, unit,
                                       buckets))

    def family(self, name: str) -> MetricFamily:
        return self._families[name]

    def families(self) -> list[MetricFamily]:
        return list(self._families.values())

    def describe(self) -> list[dict]:
        """The metrics catalogue: one row per family."""
        return [family.describe() for family in self.families()]

    def render_prometheus(self) -> str:
        """The Prometheus text exposition (trailing newline included)."""
        lines: list[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"
