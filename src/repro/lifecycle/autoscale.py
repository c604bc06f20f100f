"""Drift watchdog + auto-scaler over the always-on wait histograms.

The thesis: an MVEE's wait histograms move *before* its verdicts do. A
node that is about to stall shows up first as p99 drift in
``dist_rendezvous_wait_ns`` / ``dist_monitor_wait_ns`` /
``fleet_accept_wait_ns`` — long before the (400 ms-scale) rendezvous
stall watchdog declares anyone faulted. The watchdog samples those
signals every ``WATCH_INTERVAL_NS`` (``repro.lifecycle.manager``) of
virtual time: sustained p99 drift across ``drift_windows`` consecutive
windows raises the rendezvous shard count by one (HRW makes the
owner-set change minimal-disruption and clean changes need no epoch
bump); sustained quiet lowers it back toward one shard.

Windowed p99 is computed from bucket-count deltas between samples, so a
long healthy history cannot mask a fresh drift. Everything is driven by
virtual time and histogram state — no RNG — so runs stay bit-identical.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional

#: The always-on wait histograms the watchdog samples.
WATCHED = ("dist_rendezvous_wait_ns", "dist_monitor_wait_ns",
           "fleet_accept_wait_ns")
#: Windowed p99 must exceed baseline p99 by this factor to count as a
#: drifting window.
DRIFT_FACTOR = 4.0


def _delta_p99(bounds, prev_counts, counts, hist_max) -> Optional[int]:
    """p99 of only the observations added since the previous sample."""
    deltas = [counts[i] - prev_counts[i] for i in range(len(counts))]
    total = sum(deltas)
    if total == 0:
        return None
    rank = max(1, ceil(total * 0.99))
    cumulative = 0
    for index, bucket_count in enumerate(deltas):
        cumulative += bucket_count
        if cumulative >= rank:
            if index >= len(bounds):
                return hist_max
            return bounds[index]
    return hist_max


class _Signal:
    """Per-histogram drift state: baseline + sample-to-sample deltas."""

    __slots__ = ("prev_counts", "baseline_p99")

    def __init__(self):
        self.prev_counts: Optional[List[int]] = None
        self.baseline_p99: Optional[int] = None

    def sample(self, hist) -> Optional[int]:
        counts = list(hist.counts)
        prev = self.prev_counts
        self.prev_counts = counts
        if prev is None:
            prev = [0] * len(counts)
        p99 = _delta_p99(hist.bounds, prev, counts, hist.max)
        if p99 is not None and self.baseline_p99 is None:
            self.baseline_p99 = p99
        return p99


class DriftWatchdog:
    """Pure decision logic; the LifecycleManager owns the timer and the
    shard-count actuator it recommends to."""

    def __init__(self, config):
        self.config = config
        self._signals: Dict[str, _Signal] = {name: _Signal() for name in WATCHED}
        self._drift_streak = 0
        self._quiet_streak = 0
        self.stats = {
            "ticks": 0,
            "drift_windows": 0,
            "scale_up_votes": 0,
            "scale_down_votes": 0,
        }

    def observe_histograms(self, histograms: Dict[str, object]) -> int:
        """Sample the watched histograms; returns +1 (scale up), -1
        (scale down) or 0 (hold) for this window."""
        self.stats["ticks"] += 1
        drifting = quiet = sampled = 0
        for name in WATCHED:
            hist = histograms.get(name)
            if hist is None:
                continue
            signal = self._signals[name]
            p99 = signal.sample(hist)
            if p99 is None or signal.baseline_p99 is None:
                continue
            sampled += 1
            if p99 >= signal.baseline_p99 * DRIFT_FACTOR:
                drifting += 1
            elif p99 <= signal.baseline_p99:
                quiet += 1
        if drifting:
            self.stats["drift_windows"] += 1
            self._drift_streak += 1
            self._quiet_streak = 0
        elif sampled and quiet == sampled:
            self._quiet_streak += 1
            self._drift_streak = 0
        else:
            self._drift_streak = 0
            self._quiet_streak = 0
        if self._drift_streak >= self.config.drift_windows:
            self._drift_streak = 0
            self.stats["scale_up_votes"] += 1
            return 1
        if self._quiet_streak >= self.config.drift_windows:
            self._quiet_streak = 0
            self.stats["scale_down_votes"] += 1
            return -1
        return 0
