"""Registry-level behaviour of the one metrics registry: get-or-create
accessors, fixed histogram bounds, the series count, the snapshot/merge
cycle the tracer, sweep executor and serve workers share, and the
disabled ``NULL_METRICS`` registry the null tracer carries."""

import json

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA,
    NULL_METRICS,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.tracer import NULL_TRACER

EDGES = (1.0, 10.0, 100.0)


class TestMetrics:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits_total").inc()
        registry.counter("repro_hits_total").inc(2)
        assert registry.counter("repro_hits_total").value == 3
        assert len(registry.families()) == 1

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        hits = registry.counter("repro_hits_total", labels=("arm",))
        with pytest.raises(ValueError, match=">= 0"):
            hits.labels(arm=0).inc(-1)
        assert hits.labels(arm=0).value == 0.0

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("repro_progress").set(0.25)
        registry.gauge("repro_progress").set(0.75)
        assert registry.gauge("repro_progress").value == 0.75

    def test_histogram_needs_edges_on_first_use(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("repro_lat_ms", buckets=())
        assert registry.families() == []
        registry.histogram("repro_lat_ms", buckets=EDGES).observe(5.0)
        # The first declaration fixes the edges; later ones must agree.
        with pytest.raises(ValueError, match="other buckets"):
            registry.histogram("repro_lat_ms")
        hist = registry.histogram("repro_lat_ms", buckets=EDGES).labels()
        assert hist.bounds == EDGES
        assert hist.count == 1

    def test_len_counts_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc()
        registry.gauge("repro_b").set(1.0)
        registry.summary("repro_c_ms").observe(2.0)
        registry.histogram("repro_d_ms", buckets=(1.0,)).observe(0.5)
        assert registry.sample_count() == 4
        assert [family.kind for family in registry.families()] == [
            "counter", "gauge", "summary", "histogram"
        ]


class TestSnapshotMerge:
    def filled(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total").inc(10)
        registry.gauge("repro_progress").set(0.5)
        for value in (1.0, 3.0, 5.0):
            registry.summary("repro_lat_ms").observe(value)
        registry.histogram("repro_lat_h_ms", buckets=(1.0, 10.0)).observe(2.0)
        return registry

    def test_snapshot_is_json_compatible(self):
        snapshot = self.filled().snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_counters_add(self):
        left, right = self.filled(), self.filled()
        left.merge_snapshot(right.snapshot())
        assert left.counter("repro_events_total").value == 20

    def test_merge_gauges_last_write(self):
        left = self.filled()
        right = MetricsRegistry()
        right.gauge("repro_progress").set(1.0)
        left.merge_snapshot(right.snapshot())
        assert left.gauge("repro_progress").value == 1.0

    def test_merge_histograms_add(self):
        left, right = self.filled(), self.filled()
        left.merge_snapshot(right.snapshot())
        hist = left.histogram("repro_lat_h_ms", buckets=(1.0, 10.0)).labels()
        assert hist.count == 2
        assert hist.bucket_counts == [0, 2, 0]

    def test_merge_incompatible_histogram_edges_rejected(self):
        left = self.filled()
        before = left.snapshot()
        snapshot = self.filled().snapshot()
        snapshot["families"]["repro_lat_h_ms"]["buckets"] = [5.0, 50.0]
        with pytest.raises(ValueError, match="buckets"):
            left.merge_snapshot(snapshot)
        assert left.snapshot() == before


class TestNullRegistry:
    def test_accepts_everything_stores_nothing(self):
        assert NULL_TRACER.telemetry is NULL_METRICS
        NULL_METRICS.counter("repro_x_total").inc()
        NULL_METRICS.gauge("repro_y").set(1.0)
        NULL_METRICS.summary("repro_z_ms").observe(2.0)
        NULL_METRICS.histogram("repro_h_ms", buckets=(1.0,)).observe(0.5)
        NULL_METRICS.merge_snapshot(TestSnapshotMerge().filled().snapshot())
        assert NULL_METRICS.sample_count() == 0
        assert NULL_METRICS.snapshot() == {
            "schema": METRICS_SCHEMA, "families": {}
        }
        assert render_prometheus(NULL_METRICS.snapshot()) == ""
