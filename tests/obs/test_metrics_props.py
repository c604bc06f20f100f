"""Property tests for the metrics primitives (hypothesis): histogram
merge algebra, percentile invariants, and the registry stats adapter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import DEFAULT_BOUNDS, Histogram, MetricsRegistry

# Virtual-ns observations spanning below, inside, and above the bucket
# range (DEFAULT_BOUNDS covers 100 ns .. 10 s).
observations = st.lists(
    st.integers(min_value=0, max_value=50_000_000_000), max_size=200
)


def _hist(values, name="h"):
    hist = Histogram(name)
    for value in values:
        hist.observe(value)
    return hist


class TestHistogramMerge:
    @given(observations, observations)
    @settings(max_examples=100)
    def test_merge_is_commutative(self, a_values, b_values):
        a, b = _hist(a_values), _hist(b_values)
        assert a.merged(b) == b.merged(a)

    @given(observations, observations)
    @settings(max_examples=100)
    def test_merge_equals_concatenated_observation(self, a_values, b_values):
        merged = _hist(a_values).merged(_hist(b_values))
        assert merged == _hist(a_values + b_values)

    @given(observations, observations)
    @settings(max_examples=100)
    def test_bucket_count_conservation(self, a_values, b_values):
        a, b = _hist(a_values), _hist(b_values)
        merged = a.merged(b)
        assert sum(a.counts) == a.count == len(a_values)
        assert sum(merged.counts) == merged.count == len(a_values) + len(b_values)
        assert merged.sum == a.sum + b.sum

    def test_merge_rejects_mismatched_bounds(self):
        import pytest

        with pytest.raises(ValueError):
            Histogram("a", bounds=(10, 20)).merge(Histogram("b"))


class TestPercentiles:
    @given(observations.filter(bool))
    @settings(max_examples=100)
    def test_percentiles_are_monotone_and_clamped(self, values):
        hist = _hist(values)
        p50, p90, p99 = (hist.percentile(p) for p in (50, 90, 99))
        assert hist.min <= p50 <= p90 <= p99 <= hist.max
        assert hist.percentile(100) == hist.max

    def test_empty_histogram_has_no_percentiles(self):
        hist = Histogram("empty")
        assert hist.percentile(50) is None
        assert hist.mean == 0.0

    @given(st.integers(min_value=0, max_value=50_000_000_000))
    def test_single_observation_percentile_is_exact(self, value):
        hist = _hist([value])
        assert hist.percentile(50) == value
        assert hist.percentile(99) == value


class TestRegistryAdapter:
    def test_ingest_prefixes_and_stays_live(self):
        registry = MetricsRegistry()
        stats = {"calls": 1}
        registry.ingest("ghumvee_", stats, source="ghumvee")
        stats["calls"] = 7
        assert registry.stats_view() == {"ghumvee_calls": 7}

    def test_ingest_is_idempotent_per_source(self):
        registry = MetricsRegistry()
        registry.ingest("", {"a": 1}, source="x")
        registry.ingest("", {"a": 2}, source="x")
        registry.expose("derived", 3)
        registry.expose("derived", 4)
        assert registry.stats_view() == {"a": 2, "derived": 4}

    def test_exposed_scalars_override_ingested_keys(self):
        registry = MetricsRegistry()
        registry.ingest("", {"shared": 1}, source="x")
        registry.expose("shared", 9)
        assert registry.stats_view()["shared"] == 9

    def test_metric_instances_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h") is registry.histogram("h")


class TestPrometheusExport:
    def test_export_renders_all_metric_kinds(self):
        registry = MetricsRegistry()
        registry.counter("calls_total").inc(3)
        registry.expose("depth", 2)
        hist = registry.histogram("wait_ns")
        hist.observe(150)
        hist.observe(10**12)  # overflow bucket
        registry.ingest("dist_", {"nodes": 3, "name": "notnumeric"}, source="m")
        text = registry.to_prometheus()
        assert "# TYPE repro_calls_total counter\nrepro_calls_total 3" in text
        assert "# TYPE repro_stat_depth gauge\nrepro_stat_depth 2" in text
        assert "# TYPE repro_wait_ns histogram" in text
        assert 'repro_wait_ns_bucket{le="+Inf"} 2' in text
        assert "repro_wait_ns_count 2" in text
        assert "repro_stat_dist_nodes 3" in text
        # Non-numeric stats entries are skipped, not mangled.
        assert "notnumeric" not in text

    def test_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(10, 100))
        for value in (5, 50, 500):
            hist.observe(value)
        text = registry.to_prometheus()
        assert 'repro_h_bucket{le="10"} 1' in text
        assert 'repro_h_bucket{le="100"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text

    def test_default_bounds_are_log_spaced_and_sorted(self):
        assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)
        assert DEFAULT_BOUNDS[0] == 100
        assert DEFAULT_BOUNDS[-1] == 10_000_000_000
