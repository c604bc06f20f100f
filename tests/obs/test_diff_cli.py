"""Cross-run metric diffing (``python -m repro.obs.diff``): the
Prometheus exposition written by :meth:`MetricsRegistry.to_prometheus`
round-trips through the parser, merges like :meth:`Histogram.merge`,
and the diff report names the choke-point histogram that moved."""

from __future__ import annotations

import pytest

from repro.obs.diff import (
    KNOWN_PREFIXES,
    MetricsDiffError,
    Snapshot,
    diff_report,
    main,
    restrict,
)
from repro.obs.metrics import MetricsRegistry


def _registry(wait_values, wall_ns, rounds, canonical_values=()):
    registry = MetricsRegistry()
    registry.counter("faults_injected_total").inc(2)
    # The stats view is the gauge family: exported as repro_stat_* gauges.
    registry.expose("replicas_live", 3)
    hist = registry.histogram("dist_monitor_wait_ns")
    for value in wait_values:
        hist.observe(value)
    canonical = registry.histogram("dist_canonical_wait_ns")
    for value in canonical_values:
        canonical.observe(value)
    registry.histogram("syscall_latency_ns").observe(700)
    registry.expose("wall_time_ns", wall_ns)
    registry.expose("dist_round_trips", rounds)
    return registry


class TestRoundTrip:
    def test_parse_recovers_every_sample(self):
        registry = _registry([500, 900, 3000], 123_456, 10)
        snap = Snapshot.parse(registry.to_prometheus())
        assert snap.scalars["repro_faults_injected_total"] == 2
        assert snap.scalars["repro_stat_replicas_live"] == 3
        assert snap.scalars["repro_stat_wall_time_ns"] == 123_456
        hist = snap.histograms["repro_dist_monitor_wait_ns"]
        assert hist.count == 3
        assert hist.sum == 4400
        assert sum(hist.counts) == 3

    def test_reemitted_exposition_parses_identically(self):
        registry = _registry([500, 900, 3000], 123_456, 10)
        snap = Snapshot.parse(registry.to_prometheus())
        again = Snapshot.parse(snap.to_prometheus())
        assert again.scalars == snap.scalars
        for name, hist in snap.histograms.items():
            other = again.histograms[name]
            assert other.bounds == hist.bounds
            assert other.counts == hist.counts
            assert (other.sum, other.count) == (hist.sum, hist.count)

    def test_garbage_is_rejected_with_location(self):
        with pytest.raises(MetricsDiffError, match=":2"):
            Snapshot.parse("# a comment\nnot a sample at all\n", source="x")


class TestMergeAndDiff:
    def test_merge_adds_scalars_and_buckets(self):
        a = Snapshot.parse(_registry([500, 900], 100, 4).to_prometheus())
        b = Snapshot.parse(_registry([3000], 200, 6).to_prometheus())
        a.merge(b)
        assert a.scalars["repro_stat_wall_time_ns"] == 300
        assert a.scalars["repro_stat_dist_round_trips"] == 10
        hist = a.histograms["repro_dist_monitor_wait_ns"]
        assert hist.count == 3
        assert hist.sum == 4400

    def test_diff_names_the_histogram_that_moved(self):
        a = Snapshot.parse(_registry([500, 900], 100, 4).to_prometheus())
        b = Snapshot.parse(
            _registry([500, 900, 90_000, 220_000], 150, 4).to_prometheus()
        )
        lines, differences = diff_report(a, b)
        assert differences > 0
        # The report leads with the mover, and it is the wait histogram
        # (syscall_latency_ns did not move and must not be blamed).
        assert "largest histogram mover: repro_dist_monitor_wait_ns" in lines[0]
        assert not any("syscall_latency" in line for line in lines)

    def test_identical_snapshots_diff_clean(self):
        a = Snapshot.parse(_registry([500], 100, 4).to_prometheus())
        b = Snapshot.parse(_registry([500], 100, 4).to_prometheus())
        lines, differences = diff_report(a, b)
        assert differences == 0
        assert lines == ["exports are identical"]


class TestCli:
    def _write(self, tmp_path, name, registry):
        path = tmp_path / name
        path.write_text(registry.to_prometheus())
        return str(path)

    def test_diff_exit_codes_are_diff_like(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.prom", _registry([500], 100, 4))
        b = self._write(tmp_path, "b.prom", _registry([500, 9000], 180, 9))
        assert main([a, a]) == 0
        assert main([a, b]) == 1
        out = capsys.readouterr().out
        assert "largest histogram mover" in out
        assert "repro_stat_wall_time_ns" in out

    def test_merge_mode_prints_merged_exposition(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.prom", _registry([500], 100, 4))
        b = self._write(tmp_path, "b.prom", _registry([900], 200, 6))
        assert main(["--merge", a, b]) == 0
        merged = Snapshot.parse(capsys.readouterr().out)
        assert merged.scalars["repro_stat_wall_time_ns"] == 300
        assert merged.histograms["repro_dist_monitor_wait_ns"].count == 2

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.prom"), str(tmp_path / "x.prom")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_only_dist_canonical_isolates_the_pipeline(self, tmp_path, capsys):
        """``--only dist_canonical`` (a registered known prefix) diffs
        just the §13 canonicalization series: monitor-wait and
        wall-time drift in the same exports must not leak through."""
        assert "dist_canonical" in KNOWN_PREFIXES
        a = self._write(
            tmp_path, "a.prom",
            _registry([500], 100, 4, canonical_values=[200, 300]),
        )
        b = self._write(
            tmp_path, "b.prom",
            _registry([9000], 900, 9, canonical_values=[200, 300, 4000]),
        )
        assert main(["--only", "dist_canonical", a, b]) == 1
        out = capsys.readouterr().out
        assert "repro_dist_canonical_wait_ns" in out
        assert "dist_monitor_wait_ns" not in out
        assert "wall_time_ns" not in out
        # Identical canonicalization bills diff clean even when every
        # other series moved.
        assert main(["--only", "dist_canonical", a,
                     self._write(tmp_path, "c.prom",
                                 _registry([1], 999, 99,
                                           canonical_values=[200, 300]))]) == 0

    def test_restrict_keeps_only_matching_series(self):
        snap = Snapshot.parse(
            _registry([500], 100, 4, canonical_values=[250]).to_prometheus()
        )
        kept = restrict(snap, "dist_canonical")
        assert list(kept.histograms) == ["repro_dist_canonical_wait_ns"]
        assert kept.scalars == {}

    def test_module_is_runnable(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.diff", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Prometheus" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
