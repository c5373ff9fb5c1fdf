"""docs/MIDDLEBOX.md must document exactly the middlebox surface --
the ``mbox.*``/``imperfect.*`` metrics and the ``APP_RTT`` kind in
both directions -- and every name it cites must still exist in code
with the documented value."""

from repro.analysis import rules
from repro.backend.detector import ProxyDivergenceRule
from repro.core.records import MeasurementKind
from repro.faults.plan import FaultKind
from repro.faults.scenarios import SCENARIOS
from repro.middlebox import (
    install_imperfect_clock,
    run_imperfection_ablation,
)
from repro.middlebox.ablation import VARIANTS
from repro.middlebox.proxy import DEFAULT_INTERCEPT_PORTS
from repro.obs import CATALOG

from tests.test_docs import doc_text, first_column

DOC = "MIDDLEBOX.md"


def _doc_text():
    return doc_text(DOC)


def _documented(pattern):
    return set(first_column(DOC, pattern))


def _catalog_metrics():
    return {name for name in CATALOG
            if name.startswith(("mbox.", "imperfect."))}


class TestMetricInventory:
    def test_every_middlebox_metric_is_documented(self):
        documented = _documented(r"(?:mbox|imperfect)\.[a-z_]+")
        missing = _catalog_metrics() - documented
        assert not missing, \
            "undocumented metrics: %s" % sorted(missing)

    def test_every_documented_metric_exists(self):
        documented = _documented(r"(?:mbox|imperfect)\.[a-z_]+")
        stale = documented - _catalog_metrics()
        assert not stale, \
            "documented but gone from the catalog: %s" % sorted(stale)


class TestKindInventory:
    def test_app_rtt_kind_is_documented_and_exists(self):
        documented = _documented(r"[A-Z][A-Z_]+")
        assert documented == {MeasurementKind.APP_RTT}
        assert MeasurementKind.APP_RTT in MeasurementKind.ALL
        assert MeasurementKind.APP_RTT not in MeasurementKind.MODALITIES


class TestCitedNames:
    """Every constant, scenario, fault kind and rule this page cites
    must exist with the documented value."""

    def test_divergence_constants(self):
        text = _doc_text()
        assert ("`PROXY_DIVERGENCE_RATIO` = %g"
                % rules.PROXY_DIVERGENCE_RATIO) in text
        assert ("`PROXY_MIN_GAP_MS` = %g"
                % rules.PROXY_MIN_GAP_MS) in text
        assert ("`PROXY_MIN_APP_SAMPLES` = %d"
                % rules.PROXY_MIN_APP_SAMPLES) in text
        assert callable(rules.proxy_divergence_verdict)
        assert "proxy_divergence_verdict" in text

    def test_intercept_ports_default(self):
        text = _doc_text()
        assert ("`DEFAULT_INTERCEPT_PORTS` = (%s)"
                % ", ".join(str(p) for p in DEFAULT_INTERCEPT_PORTS)
                ) in text

    def test_scenarios_and_fault_kinds(self):
        text = _doc_text()
        for name in ("transparent_proxy", "noisy_clock"):
            assert "`%s`" % name in text
            assert name in SCENARIOS
            assert SCENARIOS[name].app_rtt
        assert FaultKind.TRANSPARENT_PROXY in FaultKind.ALL
        assert FaultKind.NOISY_CLOCK in FaultKind.ALL
        assert "`%s`" % FaultKind.TRANSPARENT_PROXY in text
        assert "`%s`" % FaultKind.NOISY_CLOCK in text

    def test_online_rule_name(self):
        text = _doc_text()
        assert ProxyDivergenceRule.name == "proxy_divergence"
        assert "`%s`" % ProxyDivergenceRule.name in text

    def test_ablation_names(self):
        text = _doc_text()
        assert callable(run_imperfection_ablation)
        assert callable(install_imperfect_clock)
        assert "run_imperfection_ablation" in text
        for variant in VARIANTS:
            assert "`%s`" % variant in text

    def test_dns_over_tcp_refusal_is_documented(self):
        """Satellite contract: intercepted-port DNS-over-TCP is
        refused with a failure record, never silently dropped."""
        text = _doc_text()
        assert "never silently dropped" in text
        assert "`mbox.dns_tcp_refused`" in text
