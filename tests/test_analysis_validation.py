"""Tests for statistical validation and temporal analyses."""

import random

import pytest

from repro.analysis.timeseries import (
    coverage_gaps,
    temporal_stability,
    weekly_medians,
    weekly_volumes,
)
from repro.analysis.validation import (
    compare_stores,
    ks_distance,
    median_ratio,
    seed_stability,
)
from repro.core.records import (
    MeasurementKind,
    MeasurementRecord,
    MeasurementStore,
)


def make_store(n, rtt_fn, t_fn=lambda i: i * 3600_000.0,
               kind=MeasurementKind.TCP):
    store = MeasurementStore()
    for i in range(n):
        store.add(MeasurementRecord(
            kind=kind, rtt_ms=rtt_fn(i), timestamp_ms=t_fn(i),
            app_package="com.a" if kind == MeasurementKind.TCP
            else None, dst_ip="1.2.3.4"))
    return store


class TestKsDistance:
    def test_identical_samples_zero(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert ks_distance(values, values) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_distance([1, 2, 3], [10, 11, 12]) == 1.0

    def test_similar_distributions_small(self):
        rng = random.Random(1)
        a = [rng.lognormvariate(3.5, 0.5) for _ in range(3000)]
        b = [rng.lognormvariate(3.5, 0.5) for _ in range(3000)]
        assert ks_distance(a, b) < 0.05

    def test_shifted_distributions_large(self):
        rng = random.Random(2)
        a = [rng.gauss(50, 5) for _ in range(1000)]
        b = [rng.gauss(80, 5) for _ in range(1000)]
        assert ks_distance(a, b) > 0.8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])


class TestCompareStores:
    def test_same_store_agrees(self):
        store = make_store(200, lambda i: 40 + (i % 30))
        result = compare_stores(store, store)
        assert result["TCP"]["ks"] == 0.0
        assert result["TCP"]["median_ratio"] == 1.0

    def test_median_ratio(self):
        assert median_ratio([10, 20, 30], [5, 10, 15]) == 2.0

    def test_fleet_vs_campaign_agreement(self, campaign_store):
        """The mechanical fleet tracks the statistical campaign for the
        matching slice (WiFi DNS, USA)."""
        from repro.crowd.isps import wifi_profile_for
        from tests.conftest import fleet_store
        fleet = fleet_store(wifi_profile_for("USA"), devices=3,
                            connects=20, seed=7)
        campaign_slice = campaign_store.dns().for_network_type("WIFI")
        result = compare_stores(fleet.dns(), campaign_slice,
                                kinds=("DNS",))
        # Same calibrated median (within 40 %); distributions overlap
        # substantially (KS below 0.45 -- shapes differ in the tails).
        assert 0.6 < result["DNS"]["median_ratio"] < 1.4
        assert result["DNS"]["ks"] < 0.45


class TestSeedStability:
    def test_campaign_median_stable_across_seeds(self):
        from repro.analysis.stats import median
        from repro.crowd import Campaign, CampaignConfig

        def build(seed):
            return Campaign(config=CampaignConfig(
                scale=0.004, seed=seed)).run()

        mean, max_dev, values = seed_stability(
            build, seeds=[1, 2, 3],
            metric=lambda store: median(store.tcp().rtts()))
        assert 50 < mean < 90
        assert max_dev < 0.15  # medians within 15 % across seeds

    def test_degenerate_metric_rejected(self):
        with pytest.raises(ValueError):
            seed_stability(lambda seed: 0, [1, 2],
                           metric=lambda x: 0.0)


class TestTimeseries:
    def test_weekly_volumes_partition_all_records(self):
        store = make_store(500, lambda i: 50.0,
                           t_fn=lambda i: i * 3_600_000.0)
        volumes = weekly_volumes(store)
        assert sum(count for _week, count in volumes) == 500

    def test_weekly_medians_filter_thin_weeks(self):
        store = make_store(10, lambda i: 50.0)
        assert weekly_medians(store, min_count=30) == []

    def test_coverage_gaps_detected(self):
        store = MeasurementStore()
        week = 7 * 24 * 3600 * 1000.0
        for w in (0, 1, 3):  # week 2 missing
            store.add(MeasurementRecord(
                kind=MeasurementKind.TCP, rtt_ms=10.0,
                timestamp_ms=w * week + 1.0))
        assert coverage_gaps(store) == [2]

    def test_campaign_covers_ten_months_without_gaps(self,
                                                     campaign_store):
        volumes = weekly_volumes(campaign_store)
        assert len(volumes) >= 32   # ~33 weeks in the window
        assert coverage_gaps(campaign_store) == []

    def test_campaign_rtt_temporally_stable(self, campaign_store):
        stats = temporal_stability(campaign_store.tcp(),
                                   min_count=100)
        # The synthetic campaign has no temporal drift by construction;
        # weekly medians stay near the overall median.
        assert stats["max_weekly_deviation"] < 0.25
        assert stats["weeks"] >= 30
