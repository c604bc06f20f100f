"""Cross-run metric diffing over Prometheus text exports.

:meth:`MetricsRegistry.to_prometheus` is the registry's durable
serialization: everything the live registry knows — counters,
histogram buckets, the legacy stats view (as gauges) — survives the
round trip through the text exposition format. This module parses such exports
back into mergeable snapshots so two runs can be compared *after the
fact*, without replaying either one:

``python -m repro.obs.diff a.prom b.prom``
    Diff run B against run A. Scalars are reported by relative change;
    histograms are de-cumulated back into bucket counts so the report
    can say not just *that* a choke-point histogram moved but *where*
    (count, mean, p50/p99 shift), ranked by how far the mean moved.
    Exits 1 when anything differs (diff-like, so CI can gate on it).

``python -m repro.obs.diff --merge a.prom b.prom [...]``
    Fold any number of exports into one (scalars add, histogram buckets
    add — the same layout-checked addition as :meth:`Histogram.merge`)
    and print the merged exposition to stdout. This is how per-shard or
    per-node exports become one cluster-wide view.

The parser accepts exactly what ``to_prometheus`` emits (TYPE comments,
``name value`` samples, ``name_bucket{le="..."}`` series); unknown
comment lines are ignored so hand-annotated exports still load.
"""

from __future__ import annotations

import argparse
import re
import sys
from math import ceil
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

_TYPE_RE = re.compile(r"^# TYPE (\S+) (\S+)$")
_BUCKET_RE = re.compile(r'^(\S+)_bucket\{le="([^"]+)"\} (\S+)$')
_SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*) (\S+)$")


class MetricsDiffError(ReproError):
    """A Prometheus export could not be parsed or merged."""


def _num(text: str) -> float:
    value = float(text)
    return int(value) if value.is_integer() else value


class ParsedHistogram:
    """One histogram reconstructed from ``_bucket``/``_sum``/``_count``
    series: bounds, *per-bucket* (de-cumulated) counts incl. overflow."""

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str):
        self.name = name
        self.bounds: List[int] = []
        self.counts: List[float] = []
        self.sum: float = 0
        self.count: float = 0

    def merge(self, other: "ParsedHistogram") -> None:
        if other.bounds != self.bounds:
            raise MetricsDiffError(
                "cannot merge %r: bucket layouts differ" % self.name
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.sum += other.sum
        self.count += other.count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> Optional[float]:
        """Bucket-upper-bound percentile, like :meth:`Histogram.percentile`
        but without min/max clamping (the export does not carry them)."""
        if self.count == 0:
            return None
        rank = max(1, ceil(self.count * p / 100.0))
        cumulative = 0.0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.bounds):
                    return float("inf")
                return self.bounds[index]
        return float("inf")


class Snapshot:
    """One parsed export: scalar samples plus reconstructed histograms."""

    def __init__(self):
        self.types: Dict[str, str] = {}
        self.scalars: Dict[str, float] = {}
        self.histograms: Dict[str, ParsedHistogram] = {}

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, source: str = "<export>") -> "Snapshot":
        snap = cls()
        cumulative: Dict[str, List[Tuple[float, float]]] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                match = _TYPE_RE.match(line)
                if match:
                    snap.types[match.group(1)] = match.group(2)
                continue
            match = _BUCKET_RE.match(line)
            if match and snap.types.get(match.group(1)) == "histogram":
                bound = (
                    float("inf") if match.group(2) == "+Inf"
                    else float(match.group(2))
                )
                cumulative.setdefault(match.group(1), []).append(
                    (bound, _num(match.group(3)))
                )
                continue
            match = _SAMPLE_RE.match(line)
            if match is None:
                raise MetricsDiffError(
                    "%s:%d: unparseable sample %r" % (source, lineno, line)
                )
            snap.scalars[match.group(1)] = _num(match.group(2))
        for name, series in cumulative.items():
            snap.histograms[name] = snap._build_histogram(name, series)
        return snap

    def _build_histogram(self, name: str,
                         series: List[Tuple[float, float]]) -> ParsedHistogram:
        hist = ParsedHistogram(name)
        previous = 0.0
        for bound, running in series:
            if bound != float("inf"):
                hist.bounds.append(int(bound))
            hist.counts.append(running - previous)
            previous = running
        hist.count = self.scalars.pop(name + "_count", previous)
        hist.sum = self.scalars.pop(name + "_sum", 0)
        return hist

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.parse(handle.read(), source=path)

    # ------------------------------------------------------------------
    def merge(self, other: "Snapshot") -> None:
        """Fold ``other`` into this snapshot (scalars and buckets add)."""
        for name, value in other.scalars.items():
            self.scalars[name] = self.scalars.get(name, 0) + value
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                copy = ParsedHistogram(name)
                copy.bounds = list(hist.bounds)
                copy.counts = list(hist.counts)
                copy.sum = hist.sum
                copy.count = hist.count
                self.histograms[name] = copy
            else:
                mine.merge(hist)
        for name, kind in other.types.items():
            self.types.setdefault(name, kind)

    def to_prometheus(self) -> str:
        """Re-emit the snapshot in the exposition format it came from."""
        lines: List[str] = []
        for name in sorted(self.scalars):
            lines.append("# TYPE %s %s" % (name, self.types.get(name, "gauge")))
            lines.append("%s %s" % (name, self.scalars[name]))
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            lines.append("# TYPE %s histogram" % name)
            running = 0.0
            for bound, bucket_count in zip(hist.bounds, hist.counts):
                running += bucket_count
                lines.append('%s_bucket{le="%d"} %s' % (name, bound, int(running)))
            running += hist.counts[-1]
            lines.append('%s_bucket{le="+Inf"} %s' % (name, int(running)))
            lines.append("%s_sum %s" % (name, hist.sum))
            lines.append("%s_count %s" % (name, hist.count))
        return "\n".join(lines) + "\n"


#: Series families the repo's own exporters emit, for ``--only``
#: discoverability (any free-form prefix still works). One entry per
#: subsystem: ``dist`` is the cluster adapter's whole namespace while
#: ``dist_canonical`` narrows to the §13 canonicalization pipeline
#: (``dist_canonical_wait_ns``, ``dist_canonical_calls``,
#: ``dist_canonical_cost_ns``).
KNOWN_PREFIXES = (
    "dist",
    "dist_canonical",
    "lifecycle",
    "net",
    "wall_time",
    "replicas_quarantined",
    "master_promotions",
    "faults_injected",
)


def _matches_prefix(name: str, prefix: str) -> bool:
    """True when ``name`` carries ``prefix``, ignoring the ``repro_`` /
    ``repro_stat_`` namespaces ``to_prometheus`` prepends — so
    ``--only lifecycle`` selects ``repro_stat_lifecycle_rejoin_ns``."""
    for spelling in (prefix, "repro_" + prefix, "repro_stat_" + prefix):
        if name.startswith(spelling):
            return True
    return False


def restrict(snapshot: Snapshot, prefix: str) -> Snapshot:
    """A view of ``snapshot`` keeping only series matching ``prefix``."""
    kept = Snapshot()
    kept.scalars = {
        name: value for name, value in snapshot.scalars.items()
        if _matches_prefix(name, prefix)
    }
    kept.histograms = {
        name: hist for name, hist in snapshot.histograms.items()
        if _matches_prefix(name, prefix)
    }
    kept.types = {
        name: kind for name, kind in snapshot.types.items()
        if _matches_prefix(name, prefix)
    }
    return kept


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------
def _relative(before: float, after: float) -> float:
    if before == after:
        return 0.0
    if before == 0:
        return float("inf")
    return (after - before) / abs(before)


def _fmt_pct(rel: float) -> str:
    if rel == float("inf"):
        return "new"
    return "%+.1f%%" % (rel * 100.0)


def diff_report(a: Snapshot, b: Snapshot, top: int = 10) -> Tuple[List[str], int]:
    """Human-readable diff of ``b`` against ``a``.

    Returns ``(lines, differences)`` where ``differences`` counts every
    scalar/histogram that moved (including appearing or disappearing).
    """
    lines: List[str] = []
    differences = 0

    scalar_moves = []
    for name in sorted(set(a.scalars) | set(b.scalars)):
        before = a.scalars.get(name, 0)
        after = b.scalars.get(name, 0)
        if before == after:
            continue
        differences += 1
        scalar_moves.append((abs(_relative(before, after)), name, before, after))
    scalar_moves.sort(key=lambda move: (-move[0], move[1]))

    hist_moves = []
    for name in sorted(set(a.histograms) | set(b.histograms)):
        ha = a.histograms.get(name, ParsedHistogram(name))
        hb = b.histograms.get(name, ParsedHistogram(name))
        if ha.counts == hb.counts and ha.sum == hb.sum and ha.count == hb.count:
            continue
        differences += 1
        hist_moves.append((abs(_relative(ha.mean, hb.mean)), name, ha, hb))
    hist_moves.sort(key=lambda move: (-move[0], move[1]))

    if hist_moves:
        rel, name, ha, hb = hist_moves[0]
        lines.append(
            "largest histogram mover: %s (mean %s: %.0f -> %.0f)"
            % (name, _fmt_pct(_relative(ha.mean, hb.mean)), ha.mean, hb.mean)
        )
        lines.append("")
        lines.append("histograms (%d moved):" % len(hist_moves))
        for rel, name, ha, hb in hist_moves[:top]:
            lines.append(
                "  %-44s count %s -> %s  mean %.0f -> %.0f (%s)"
                % (name, int(ha.count), int(hb.count), ha.mean, hb.mean,
                   _fmt_pct(_relative(ha.mean, hb.mean)))
            )
            lines.append(
                "  %-44s p50 %s -> %s  p99 %s -> %s"
                % ("", ha.percentile(50), hb.percentile(50),
                   ha.percentile(99), hb.percentile(99))
            )
        if len(hist_moves) > top:
            lines.append("  ... %d more" % (len(hist_moves) - top))
        lines.append("")

    if scalar_moves:
        lines.append("scalars (%d moved):" % len(scalar_moves))
        for rel, name, before, after in scalar_moves[:top]:
            lines.append(
                "  %-44s %s -> %s (%s)"
                % (name, before, after, _fmt_pct(_relative(before, after)))
            )
        if len(scalar_moves) > top:
            lines.append("  ... %d more" % (len(scalar_moves) - top))

    if not differences:
        lines.append("exports are identical")
    return lines, differences


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description="Diff or merge Prometheus exports from repro runs.",
    )
    parser.add_argument("files", nargs="+", metavar="EXPORT.prom")
    parser.add_argument(
        "--merge", action="store_true",
        help="fold all exports into one and print the merged exposition",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="how many movers to list per section (default 10)",
    )
    parser.add_argument(
        "--only", metavar="PREFIX", default=None,
        help="restrict to series whose name starts with PREFIX "
             "(namespace-insensitive: 'lifecycle' matches "
             "repro_stat_lifecycle_*) — e.g. --only lifecycle names "
             "cross-run rejoin-latency drift, --only dist_canonical "
             "isolates the canonicalization pipeline; known families: "
             + ", ".join(KNOWN_PREFIXES),
    )
    options = parser.parse_args(argv)
    try:
        snapshots = [Snapshot.load(path) for path in options.files]
        if options.only:
            snapshots = [restrict(snap, options.only) for snap in snapshots]
        if options.merge:
            merged = snapshots[0]
            for snap in snapshots[1:]:
                merged.merge(snap)
            sys.stdout.write(merged.to_prometheus())
            return 0
        if len(options.files) != 2:
            parser.error("diff mode takes exactly two exports")
        lines, differences = diff_report(
            snapshots[0], snapshots[1], top=options.top
        )
    except (MetricsDiffError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    sys.stdout.write("--- %s\n+++ %s\n" % (options.files[0], options.files[1]))
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
