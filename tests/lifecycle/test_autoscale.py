"""Drift watchdog + auto-scaler decision logic (DESIGN.md §12).

The watchdog is pure decision logic over histogram *deltas*: windowed
p99 against the first window's baseline for scaling. These tests drive
it with real ``repro.obs`` histograms so the bucketing math is the
production math, then one end-to-end smoke run proves the armed
watchdog stays deterministic and invisible to a healthy cluster.
"""

from __future__ import annotations

from repro.lifecycle import LifecycleConfig
from repro.lifecycle.autoscale import DriftWatchdog, _delta_p99
from repro.obs.metrics import Histogram

from .test_rejoin import run_lifecycle


def _config(**overrides):
    overrides.setdefault("autoscale", True)
    overrides.setdefault("drift_windows", 3)
    return LifecycleConfig(**overrides)


def _feed(hist, value, times):
    for _ in range(times):
        hist.observe(value)


class TestDeltaP99:
    def test_empty_window_is_none(self):
        hist = Histogram("w")
        _feed(hist, 1_000, 100)
        counts = list(hist.counts)
        assert _delta_p99(hist.bounds, counts, counts, hist.max) is None

    def test_window_ignores_history(self):
        """A long healthy history cannot mask a fresh drift: only the
        observations added since the previous sample count."""
        hist = Histogram("w")
        _feed(hist, 1_000, 10_000)
        prev = list(hist.counts)
        whole = _delta_p99(hist.bounds, [0] * len(prev), prev, hist.max)
        _feed(hist, 50_000_000, 10)
        fresh = _delta_p99(hist.bounds, prev, list(hist.counts), hist.max)
        assert whole <= 1_000 * 2
        assert fresh >= 50_000_000


class TestScaling:
    def test_sustained_drift_votes_scale_up(self):
        watchdog = DriftWatchdog(_config())
        hist = Histogram("dist_rendezvous_wait_ns")
        hists = {"dist_rendezvous_wait_ns": hist}
        _feed(hist, 1_000, 100)
        assert watchdog.observe_histograms(hists) == 0  # baseline window
        votes = []
        for _ in range(3):
            _feed(hist, 50_000_000, 100)
            votes.append(watchdog.observe_histograms(hists))
        assert votes == [0, 0, 1]
        assert watchdog.stats["scale_up_votes"] == 1
        assert watchdog.stats["drift_windows"] == 3

    def test_quiet_recovery_votes_scale_down(self):
        watchdog = DriftWatchdog(_config())
        hist = Histogram("dist_monitor_wait_ns")
        hists = {"dist_monitor_wait_ns": hist}
        _feed(hist, 10_000, 100)
        # The baseline window is trivially quiet (p99 <= itself), so it
        # already opens the quiet streak; two more close it out.
        watchdog.observe_histograms(hists)
        votes = []
        for _ in range(2):
            _feed(hist, 1_000, 100)
            votes.append(watchdog.observe_histograms(hists))
        assert votes == [0, -1]
        assert watchdog.stats["scale_down_votes"] == 1

    def test_interrupted_drift_resets_the_streak(self):
        watchdog = DriftWatchdog(_config())
        hist = Histogram("dist_rendezvous_wait_ns")
        hists = {"dist_rendezvous_wait_ns": hist}
        _feed(hist, 1_000, 100)
        watchdog.observe_histograms(hists)  # baseline
        for value in (50_000_000, 50_000_000, 1_000,
                      50_000_000, 50_000_000):
            _feed(hist, value, 100)
            assert watchdog.observe_histograms(hists) == 0
        _feed(hist, 50_000_000, 100)
        assert watchdog.observe_histograms(hists) == 1

    def test_idle_windows_hold(self):
        watchdog = DriftWatchdog(_config())
        hist = Histogram("dist_rendezvous_wait_ns")
        hists = {"dist_rendezvous_wait_ns": hist}
        _feed(hist, 1_000, 10)
        watchdog.observe_histograms(hists)
        for _ in range(6):  # no new observations at all
            assert watchdog.observe_histograms(hists) == 0
        assert watchdog.stats["scale_up_votes"] == 0
        assert watchdog.stats["scale_down_votes"] == 0


class TestEndToEnd:
    def test_armed_watchdog_is_quiet_on_a_healthy_cluster(self):
        mvee, result = run_lifecycle(
            plan=None, lifecycle=LifecycleConfig(autoscale=True, seed=7)
        )
        assert not result.diverged, result.divergence
        assert result.stats["lifecycle_watch_ticks"] > 0
        assert result.stats["lifecycle_scale_ups"] == 0
        assert [node.process.exit_code for node in mvee.nodes] == [0] * 4

    def test_armed_watchdog_runs_stay_bit_identical(self):
        runs = [
            run_lifecycle(
                plan=None, lifecycle=LifecycleConfig(autoscale=True, seed=7)
            )
            for _ in range(2)
        ]
        (_, a), (_, b) = runs
        assert a.stats == b.stats
        assert a.wall_time_ns == b.wall_time_ns
