"""Metrics primitives: counters, mergeable fixed-bucket histograms, and
the registry that also serves the legacy ``stats`` view.

Histograms are keyed on virtual nanoseconds and use a fixed log-spaced
bucket layout (three buckets per decade from 100 ns to 10 s), so two
histograms from different runs — or different shards of the same run —
merge by plain bucket-count addition. Percentiles are read from the
bucket upper bounds, clamped into ``[min, max]`` of the observed values,
which keeps them monotone in ``p``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import ceil
from typing import Dict, Iterable, List, Optional, Tuple

#: Log-spaced bucket upper bounds, 3/decade: 100 ns ... 10 s.
DEFAULT_BOUNDS: Tuple[int, ...] = tuple(
    int(round(10 ** (2 + i / 3))) for i in range(25)
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram over virtual nanoseconds.

    ``counts`` has ``len(bounds) + 1`` slots; the last one is the
    overflow bucket for observations above the largest bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Optional[Iterable[int]] = None):
        self.name = name
        self.bounds: Tuple[int, ...] = tuple(bounds) if bounds else DEFAULT_BOUNDS
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, p: float) -> Optional[int]:
        """The ``p``-th percentile (``0 < p <= 100``), as the upper bound
        of the bucket containing that rank, clamped to [min, max]."""
        if self.count == 0:
            return None
        rank = max(1, ceil(self.count * p / 100.0))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.bounds):
                    return self.max
                return max(self.min, min(self.bounds[index], self.max))
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram in place."""
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket layouts"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def merged(self, other: "Histogram") -> "Histogram":
        """A new histogram holding ``self + other``."""
        out = Histogram(self.name, self.bounds)
        out.merge(self)
        out.merge(other)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts == other.counts
            and self.count == other.count
            and self.sum == other.sum
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self):
        return "Histogram(%s, n=%d, p50=%r, p99=%r)" % (
            self.name, self.count, self.percentile(50), self.percentile(99),
        )


def _prom_name(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


class MetricsRegistry:
    """Names -> metric instances, plus the legacy-stats compatibility
    adapter.

    Components keep their plain ``stats`` dicts; :meth:`ingest` registers
    a *live reference* to each one under a prefix, and :meth:`stats_view`
    rebuilds the flat merged mapping on demand — byte-identical to the
    old hand-prefixed assembly in ``ReMon.finalize``. Derived scalars
    that never lived in a component dict go in via :meth:`expose`.
    Native metrics (counters/histograms) are *not* part of the
    stats view; they surface through :meth:`to_prometheus`.
    """

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}
        # (prefix, source-key) -> live stats mapping, insertion-ordered.
        self._ingested: Dict[Tuple[str, object], Dict] = {}
        self._exposed: Dict[str, object] = {}

    # -- native metrics -------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def histogram(self, name: str,
                  bounds: Optional[Iterable[int]] = None) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name, bounds)
        return metric

    # -- legacy stats adapter -------------------------------------------
    def ingest(self, prefix: str, mapping: Dict, source=None) -> None:
        """Register a live component ``stats`` dict under ``prefix``.

        Idempotent for the same ``(prefix, source)`` pair, so finalize
        may run more than once without duplicating anything.
        """
        self._ingested[(prefix, source if source is not None else id(mapping))] \
            = mapping

    def expose(self, key: str, value) -> None:
        """Publish one derived scalar into the stats view (overwrites)."""
        self._exposed[key] = value

    def stats_view(self) -> Dict:
        """The flat merged stats mapping, rebuilt from live sources."""
        out: Dict = {}
        for (prefix, _source), mapping in self._ingested.items():
            for key, value in mapping.items():
                out[prefix + key] = value
        out.update(self._exposed)
        return out

    # -- export ---------------------------------------------------------
    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Render every metric (and the stats view, as gauges) in the
        Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self.counters):
            metric = self.counters[name]
            full = _prom_name(prefix + name)
            lines.append("# TYPE %s counter" % full)
            lines.append("%s %d" % (full, metric.value))
        for name in sorted(self.histograms):
            metric = self.histograms[name]
            full = _prom_name(prefix + name)
            lines.append("# TYPE %s histogram" % full)
            cumulative = 0
            for bound, bucket_count in zip(metric.bounds, metric.counts):
                cumulative += bucket_count
                lines.append('%s_bucket{le="%d"} %d' % (full, bound, cumulative))
            cumulative += metric.counts[-1]
            lines.append('%s_bucket{le="+Inf"} %d' % (full, cumulative))
            lines.append("%s_sum %d" % (full, metric.sum))
            lines.append("%s_count %d" % (full, metric.count))
        stats = self.stats_view()
        for key in sorted(stats):
            value = stats[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            full = _prom_name(prefix + "stat_" + key)
            lines.append("# TYPE %s gauge" % full)
            lines.append("%s %s" % (full, value))
        return "\n".join(lines) + "\n"
