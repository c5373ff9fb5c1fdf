"""One pass over a record stream agrees with the exact (materialized)
pipeline: the statistics exactly, and every median ``crowd`` prints to
within one bin of the rollups' histogram."""

from repro.analysis.coverage import dataset_statistics, measurements_per_user
from repro.analysis.dnsperf import dns_medians, folded_dns_medians
from repro.analysis.perapp import (
    fold_rtts,
    folded_rtt_medians,
    raw_rtt_medians,
)
from repro.backend.rollups import BIN_WIDTH_MS
from repro.core.records import MeasurementKind, MeasurementRecord
from tests.conftest import CAMPAIGN_SCALE


def _one_pass(records):
    """What ``crowd`` runs: the statistics, with the RTTs folded on
    the way."""
    hists = {}
    return dataset_statistics(fold_rtts(records, hists)), hists


class TestStreamingAnalyses:
    """The differential: the one pass vs the exact store pipeline."""

    def test_raw_rtt_medians_stream(self, campaign_store):
        exact = raw_rtt_medians(campaign_store)
        folded = folded_rtt_medians(_one_pass(iter(campaign_store))[1])
        assert list(folded) == list(exact)
        for label, value in exact.items():
            assert abs(folded[label] - value) <= BIN_WIDTH_MS, label

    def test_dns_medians_stream(self, campaign_store):
        exact = dns_medians(campaign_store)
        folded = folded_dns_medians(_one_pass(iter(campaign_store))[1])
        assert list(folded) == list(exact)
        for label, value in exact.items():
            assert abs(folded[label] - value) <= BIN_WIDTH_MS, label

    def test_dataset_statistics_stream_identical(self, campaign_store):
        tcp, dns = campaign_store.tcp(), campaign_store.dns()
        assert _one_pass(iter(campaign_store))[0] == {
            "total": len(campaign_store),
            "tcp": len(tcp),
            "dns": len(dns),
            "devices": len(campaign_store.unique(lambda r: r.device_id)),
            "apps": len(tcp.unique(lambda r: r.app_package) - {None}),
            "countries": len(campaign_store.unique(lambda r: r.country)),
            "dst_ips": len(tcp.unique(lambda r: r.dst_ip)),
            "domains": len(tcp.unique(lambda r: r.domain) - {None}),
            "dns_servers": len(dns.unique(lambda r: r.dst_ip)),
        }

    def test_measurements_per_user_stream_identical(self,
                                                    campaign_store):
        assert measurements_per_user(
            iter(campaign_store), scale=CAMPAIGN_SCALE) == \
            measurements_per_user(campaign_store,
                                  scale=CAMPAIGN_SCALE)

    def test_failures_and_other_kinds_are_not_tcp_or_dns(self):
        def record(kind, rtt_ms, failure=None):      # all on WiFi
            return MeasurementRecord(kind, rtt_ms, 0.0, dst_ip="192.0.2.1",
                                     failure=failure)

        stats, hists = _one_pass([
            record(MeasurementKind.TCP, 40.0),
            record(MeasurementKind.TCP, 3000.0, failure="timeout"),
            record(MeasurementKind.APP_RTT, 90.0),
            record(MeasurementKind.TPUT_UP, 512.0),
            record(MeasurementKind.DNS, 20.0),
        ])
        assert (stats["total"], stats["tcp"], stats["dns"]) == (5, 1, 1)
        assert stats["dns_servers"] == 1
        medians = folded_rtt_medians(hists)
        assert set(medians) == {"All", "WiFi"}
        assert 40.0 <= medians["All"] <= 40.0 + BIN_WIDTH_MS
        assert folded_dns_medians(hists)["All"] == \
            20.0 + BIN_WIDTH_MS / 2
