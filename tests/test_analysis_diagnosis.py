"""Tests for the per-subject diagnosis over rollups
(``repro.backend.detector``'s ``diagnose_*``)."""

from repro.analysis.rules import Verdict
from repro.backend.detector import (
    diagnose_all,
    diagnose_app,
    diagnose_operator,
)
from repro.backend.rollups import RollupStore
from repro.core.records import MeasurementKind, MeasurementRecord


def record(kind=MeasurementKind.TCP, rtt=50.0, app="com.app",
           operator="OpA", tech="LTE", domain=None, device="d1"):
    return MeasurementRecord(
        kind=kind, rtt_ms=rtt, timestamp_ms=0.0,
        app_package=app if kind == MeasurementKind.TCP else None,
        dst_ip="1.2.3.4", dst_port=443, domain=domain,
        network_type=tech, operator=operator, device_id=device)


def bulk(store, n, **kwargs):
    store.add_all(record(**kwargs) for _ in range(n))


class TestDiagnoseApp:
    def test_healthy_app(self):
        store = RollupStore()
        bulk(store, 50, app="com.fast", rtt=50.0)
        bulk(store, 50, app="com.other", rtt=55.0)
        finding = diagnose_app(store, "com.fast", min_samples=30)
        assert finding.verdict == Verdict.HEALTHY

    def test_server_side_whatsapp_pattern(self):
        store = RollupStore()
        bulk(store, 60, app="com.whatsapp", rtt=260.0,
             domain="e5.whatsapp.net")
        bulk(store, 200, app="com.other", rtt=55.0)
        finding = diagnose_app(store, "com.whatsapp", min_samples=30)
        assert finding.verdict == Verdict.SERVER_SIDE
        assert finding.slowdown > 3
        assert any("for other apps" in line for line in finding.evidence)

    def test_insufficient_data(self):
        store = RollupStore()
        bulk(store, 5, app="com.rare")
        finding = diagnose_app(store, "com.rare", min_samples=30)
        assert finding.verdict == Verdict.INSUFFICIENT_DATA

    def test_campaign_flags_whatsapp(self, campaign_rollups):
        finding = diagnose_app(campaign_rollups, "com.whatsapp",
                               min_samples=100)
        assert finding.verdict == Verdict.SERVER_SIDE


class TestDiagnoseOperator:
    def _base_store(self):
        store = RollupStore()
        # Healthy peer operator on LTE.
        bulk(store, 200, app="com.x", operator="PeerOp", rtt=60.0)
        bulk(store, 80, kind=MeasurementKind.DNS, operator="PeerOp",
             rtt=45.0, app=None)
        return store

    def test_core_network_jio_pattern(self):
        store = self._base_store()
        bulk(store, 200, app="com.x", operator="SlowCore", rtt=280.0)
        bulk(store, 80, kind=MeasurementKind.DNS,
             operator="SlowCore", rtt=50.0, app=None)
        finding = diagnose_operator(store, "SlowCore",
                                    min_samples=50)
        assert finding.verdict == Verdict.CORE_NETWORK

    def test_access_network_pattern(self):
        store = self._base_store()
        bulk(store, 200, app="com.x", operator="BadRadio", rtt=300.0)
        bulk(store, 80, kind=MeasurementKind.DNS,
             operator="BadRadio", rtt=200.0, app=None)
        finding = diagnose_operator(store, "BadRadio", min_samples=50)
        assert finding.verdict == Verdict.ACCESS_NETWORK

    def test_healthy_operator(self):
        store = self._base_store()
        bulk(store, 200, app="com.x", operator="FineOp", rtt=62.0)
        bulk(store, 80, kind=MeasurementKind.DNS, operator="FineOp",
             rtt=44.0, app=None)
        finding = diagnose_operator(store, "FineOp", min_samples=50)
        assert finding.verdict == Verdict.HEALTHY

    def test_campaign_flags_jio_core(self, campaign_rollups):
        finding = diagnose_operator(campaign_rollups, "Jio 4G",
                                    min_samples=100)
        assert finding.verdict == Verdict.CORE_NETWORK
        assert any("Jio pattern" in line for line in finding.evidence)


class TestDiagnoseAll:
    def test_sweep_finds_planted_problems(self):
        store = RollupStore()
        bulk(store, 300, app="com.normal", operator="GoodOp", rtt=55.0)
        bulk(store, 120, kind=MeasurementKind.DNS, operator="GoodOp",
             rtt=40.0, app=None)
        bulk(store, 250, app="com.slowapp", operator="GoodOp",
             rtt=250.0, domain="api.slow.test")
        bulk(store, 250, app="com.normal", operator="BadCore",
             rtt=300.0)
        bulk(store, 100, kind=MeasurementKind.DNS, operator="BadCore",
             rtt=42.0, app=None)
        findings = diagnose_all(store, min_samples=100)
        verdicts = {(f.subject, f.verdict) for f in findings}
        assert ("com.slowapp", Verdict.SERVER_SIDE) in verdicts
        assert ("BadCore", Verdict.CORE_NETWORK) in verdicts

    def test_sweep_on_campaign_ranks_jio_and_whatsapp(self,
                                                      campaign_rollups):
        findings = diagnose_all(campaign_rollups, min_samples=300,
                                top=30)
        subjects = {f.subject for f in findings}
        assert "Jio 4G" in subjects
        assert "com.whatsapp" in subjects

    def test_findings_ranked_by_slowdown(self):
        store = RollupStore()
        bulk(store, 300, app="com.base", operator="Op", rtt=50.0)
        bulk(store, 120, kind=MeasurementKind.DNS, operator="Op",
             rtt=40.0, app=None)
        bulk(store, 200, app="com.meh", operator="Op", rtt=120.0)
        bulk(store, 200, app="com.awful", operator="Op", rtt=400.0)
        findings = diagnose_all(store, min_samples=100)
        app_rank = [f.subject for f in findings if f.kind == "app"]
        assert app_rank.index("com.awful") < app_rank.index("com.meh")
