"""Tests for the analysis pipeline over the synthetic dataset."""

import pytest

from repro.analysis import (
    app_rtt_cdfs,
    bucket_counts,
    cdf,
    country_distribution,
    dns_cdfs_by_network,
    dns_cdfs_by_technology,
    format_table,
    fraction_below,
    isp_dns_cdfs,
    isp_dns_table,
    location_scatter,
    measurements_per_app,
    measurements_per_user,
    median,
    per_app_median_cdf,
    percentile,
    representative_app_table,
)
from repro.analysis import rules
from repro.analysis.coverage import dataset_statistics
from repro.analysis.dnsperf import dns_medians, isp_dns_profile
from repro.analysis.perapp import (
    raw_rtt_medians,
    representative_packages_table_spec,
)
from repro.backend.detector import ChatDomainDegradationRule, isp_summary
from repro.backend.rollups import BIN_WIDTH_MS, RollupStore
from tests.conftest import CAMPAIGN_SCALE


class TestStats:
    def test_median(self):
        assert median([3, 1, 2]) == 2

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_percentile(self):
        assert percentile(list(range(101)), 90) == 90

    def test_cdf_monotonic(self):
        xs, fractions = cdf([5, 1, 3, 2, 4])
        assert xs == sorted(xs)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_cdf_clipping(self):
        xs, fractions = cdf([1, 2, 500], max_x=400)
        assert max(xs) <= 400
        assert fractions[-1] == pytest.approx(2 / 3)

    def test_fraction_below(self):
        assert fraction_below([1, 2, 3, 4], 3) == 0.5


class TestCoverage:
    def test_bucket_counts(self):
        counts = {"a": 20000, "b": 7000, "c": 3000, "d": 500, "e": 50}
        out = bucket_counts(counts)
        assert out == {"> 10K": 1, "5K - 10K": 1, "1K - 5K": 1,
                       "100 - 1K": 1}

    def test_bucket_counts_scale_correction(self):
        counts = {"a": 200}  # at scale 0.01 -> 20000 full-scale
        out = bucket_counts(counts, scale=0.01)
        assert out["> 10K"] == 1

    def test_fig6a_shape(self, campaign_store):
        buckets = measurements_per_user(campaign_store,
                                        scale=CAMPAIGN_SCALE)
        # Paper: 104 / 70 / 288 / 575 -- monotone increasing by bucket.
        assert buckets["100 - 1K"] > buckets["1K - 5K"] \
            > buckets["> 10K"] > 0

    def test_fig6b_shape(self, campaign_store):
        buckets = measurements_per_app(campaign_store,
                                       scale=CAMPAIGN_SCALE)
        assert buckets["100 - 1K"] > buckets["1K - 5K"] > 0
        assert buckets["> 10K"] > 0

    def test_fig7_usa_first(self, campaign_store):
        top = country_distribution(campaign_store, top=20)
        assert top[0][0] == "USA"
        assert top[0][1] > 500
        countries = [c for c, _n in top]
        assert "UK" in countries and "India" in countries

    def test_fig8_locations(self, campaign_store):
        locations = location_scatter(campaign_store)
        assert len(locations) > 1000
        for lat, lon in locations[:50]:
            assert -90 <= lat <= 90
            assert -180 <= lon <= 180

    def test_dataset_statistics(self, campaign_store):
        stats = dataset_statistics(campaign_store)
        assert stats["total"] == len(campaign_store)
        assert stats["tcp"] + stats["dns"] == stats["total"]
        assert stats["devices"] > 1000
        assert stats["apps"] > 500
        assert stats["countries"] > 90


class TestPerApp:
    def test_fig9a_orderings(self, campaign_store):
        medians = raw_rtt_medians(campaign_store)
        # WiFi < LTE < Cellular-overall (the paper's ordering).
        assert medians["WiFi"] < medians["LTE"] <= medians["Cellular"]
        assert 40 < medians["All"] < 100

    def test_fig9a_cdfs_structure(self, campaign_store):
        cdfs = app_rtt_cdfs(campaign_store)
        assert set(cdfs) == {"All", "WiFi", "Cellular"}
        xs, fractions = cdfs["All"]
        assert xs and fractions

    def test_fig9b_per_app_median_cdf(self, campaign_store):
        xs, fractions, n_apps = per_app_median_cdf(
            campaign_store, min_count=1000, scale=CAMPAIGN_SCALE)
        assert n_apps > 100
        below_100 = max((f for x, f in zip(xs, fractions) if x <= 100),
                        default=0)
        assert below_100 > 0.5  # paper: >70 % of apps below 100 ms

    def test_table5_rows(self, campaign_store):
        spec = representative_packages_table_spec()
        rows = representative_app_table(campaign_store, spec)
        assert len(rows) == 16
        by_name = {row["app"]: row for row in rows}
        assert by_name["YouTube"]["median_ms"] < \
            by_name["Whatsapp"]["median_ms"]
        assert by_name["Whatsapp"]["median_ms"] > 100
        for row in rows:
            assert row["count"] > 0


class TestDns:
    def test_fig10_medians(self, campaign_store):
        medians = dns_medians(campaign_store)
        assert medians["WiFi"] < medians["Cellular"]
        assert medians["4G"] < medians["3G"] < medians["2G"]
        assert 500 < medians["2G"] < 1100

    def test_fig10_cdf_structure(self, campaign_store):
        by_network = dns_cdfs_by_network(campaign_store)
        by_tech = dns_cdfs_by_technology(campaign_store)
        assert set(by_network) == {"All", "WiFi", "Cellular"}
        assert len(by_tech) == 3

    def test_table6_rows(self, campaign_store):
        rows = isp_dns_table(campaign_store)
        # At small test scale a couple of tiny ISPs may draw no
        # samples; the big ones must all be present.
        assert len(rows) >= 12
        names = [row["isp"] for row in rows]
        assert "Verizon" in names and "Jio 4G" in names
        # Verizon has the most DNS samples (Table 6 rank 1); allow
        # small-sample rank noise at test scale.
        assert "Verizon" in [row["isp"] for row in rows[:3]]
        by_name = {row["isp"]: row for row in rows}
        if "Cricket" in by_name:
            assert by_name["Singtel"]["median_ms"] < \
                by_name["Cricket"]["median_ms"]
        assert by_name["Singtel"]["median_ms"] < \
            by_name["Verizon"]["median_ms"]

    def test_fig11_profiles(self, campaign_store):
        singtel = isp_dns_profile(campaign_store, "Singtel")
        assert singtel["below_10ms"] > 0.05
        try:
            cricket = isp_dns_profile(campaign_store, "Cricket")
        except ValueError:
            pytest.skip("no Cricket samples at this test scale")
        assert cricket["below_10ms"] < 0.05
        assert cricket["min_ms"] > 30
        assert cricket["non_lte_share"] > 0.3

    def test_fig11_cdfs(self, campaign_store):
        cdfs = isp_dns_cdfs(campaign_store, ["Verizon", "Singtel"])
        assert len(cdfs) == 2
        for xs, fractions in cdfs.values():
            assert xs


class TestCaseStudies:
    def test_whatsapp_case(self, campaign_rollups):
        result = ChatDomainDegradationRule().summarise(
            campaign_rollups, rules.WHATSAPP_SUFFIX, CAMPAIGN_SCALE)
        assert result["total_domains"] > 100
        assert result["chat_median_ms"] > 200
        assert result["cdn_median_ms"] < 100
        assert result["app_median_ms"] > 100
        most = result["chat_domain_count_with_median"]
        # Paper: all but three chat domains have medians over 200 ms.
        # At test scale each domain has only a handful of samples, so
        # noisy per-domain medians dip below more often.
        assert result["chat_domains_over_200ms"] / most > 0.6

    def test_jio_case(self, campaign_rollups):
        result = isp_summary(campaign_rollups, "Jio 4G", CAMPAIGN_SCALE,
                             min_domain_count=50)
        assert result["app_median_ms"] > 200
        assert result["dns_median_ms"] < 100
        assert result["domains_faster_elsewhere"] > 0
        assert result["mean_gap_ms"] > 50

    def test_whatsapp_requires_data(self):
        assert ChatDomainDegradationRule().summarise(
            RollupStore(), rules.WHATSAPP_SUFFIX, 1.0) is None

    def test_chat_domain_medians_are_lower_medians(self, campaign_store,
                                                   campaign_rollups):
        """A rollup median is the lower median -- the ceil(n/2)-th
        value, read inside its bin -- not numpy's mean of the two
        middle values, which a 3-sample chat domain can put tens of
        ms away.  Every Case 1 chat-domain median is within one bin
        of its records' exact lower median."""
        rtts = {}
        for r in campaign_store.tcp():
            if rules.domain_matches_suffix(r.domain,
                                           rules.WHATSAPP_SUFFIX) \
                    and rules.whatsapp_domain_class(r.domain) == rules.CHAT:
                rtts.setdefault(r.domain, []).append(r.rtt_ms)
        hists = campaign_rollups.fold(
            "watch_domain", by=("domain",), suffix=rules.WHATSAPP_SUFFIX,
            domain_class=rules.CHAT)
        assert sorted(domain for (domain,) in hists) == sorted(rtts)
        over_200 = 0
        for domain, values in rtts.items():
            values.sort()
            lower = values[(len(values) - 1) // 2]
            assert abs(hists[(domain,)].median() - lower) <= BIN_WIDTH_MS
            over_200 += lower > rules.CHAT_DEGRADED_MEDIAN_MS
        result = ChatDomainDegradationRule().summarise(
            campaign_rollups, rules.WHATSAPP_SUFFIX, CAMPAIGN_SCALE)
        assert result["chat_domains_over_200ms"] == over_200


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["ISP", "Median"],
                            [["Verizon", 46.0], ["Singtel", 27.12]],
                            title="Table 6")
        lines = text.splitlines()
        assert lines[0] == "Table 6"
        assert "Verizon" in text and "27.12" in text

    def test_format_table_none_rendered_as_dash(self):
        text = format_table(["a"], [[None]])
        assert "-" in text.splitlines()[-1]
