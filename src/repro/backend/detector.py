"""Online re-derivation of the section 4.2.2 case studies.

The offline analyses discovered two stories in the collected data:
WhatsApp's SoftLayer chat domains underperforming in most networks
(Case 1), and Jio's LTE serving apps slowly while its DNS stays fast
(Case 2).  The detector re-derives both from the backend's *live
rollups* -- no raw records -- using the same taxonomy and thresholds
(:mod:`repro.analysis.rules`) as the offline code, so the two paths
cannot disagree about what constitutes a finding.

Rules are generic, not hard-coded to the paper's subjects: the chat
rule fires for any configured watch suffix whose non-CDN domains
degrade, and the ISP rule scans *every* LTE operator for the
slow-app/fast-DNS signature corroborated by cross-ISP comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import rules
from repro.core.records import MeasurementKind
from repro.network.link import NetworkType
from repro.obs import Observability, get_default

from repro.backend.rollups import MergeHist, RollupStore


@dataclass
class Finding:
    """One case-study verdict raised by a rule."""
    rule: str                  # "chat_domain_degradation" | "isp_rtt_anomaly"
    subject: str               # e.g. "whatsapp.net" or "Jio 4G/LTE"
    detected_at_records: int   # rollup record count at first detection
    summary: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "subject": self.subject,
                "detected_at_records": self.detected_at_records,
                "summary": self.summary}


def _merged(hists: List[MergeHist]) -> MergeHist:
    out = MergeHist()
    for hist in hists:
        out.merge(hist)
    return out


class ChatDomainDegradationRule:
    """Case 1: a watch suffix's chat-class domains are slow in most
    networks while its CDN-class domains stay fast."""

    name = "chat_domain_degradation"

    def __init__(self, min_network_count: int = 100,
                 top_networks: int = 20) -> None:
        self.min_network_count = min_network_count
        self.top_networks = top_networks

    def evaluate(self, rollups: RollupStore, scale: float
                 ) -> List[Finding]:
        findings: List[Finding] = []
        for suffix in rollups.config.watch_suffixes:
            summary = self._summarise(rollups, suffix, scale)
            if summary is None:
                continue
            if summary["degraded"]:
                findings.append(Finding(
                    rule=self.name, subject=suffix,
                    detected_at_records=rollups.records,
                    summary=summary))
        return findings

    def _summarise(self, rollups: RollupStore, suffix: str,
                   scale: float) -> Optional[Dict[str, object]]:
        chat_hists = {
            domain: hist for (domain,), hist in rollups.fold(
                "watch_domain", by=("domain",), suffix=suffix,
                domain_class=rules.CHAT).items()}
        if not chat_hists:
            return None

        chat_all = _merged(list(chat_hists.values()))
        cdn_all = _merged([
            hist for (cls,), hist in rollups.fold(
                "watch_domain", by=("domain_class",),
                suffix=suffix).items()
            if cls != rules.CHAT])
        chat_median = chat_all.median()
        cdn_median = cdn_all.median() if cdn_all.count else None

        # Every observed chat domain counts, however few its samples:
        # the offline analysis does the same, and at full scale the
        # paper's 331-domain population dominates either way.
        domain_medians = {domain: hist.median()
                          for domain, hist in chat_hists.items()}
        over_200 = sum(1 for m in domain_medians.values()
                       if m > rules.CHAT_DEGRADED_MEDIAN_MS)
        over_200_share = (over_200 / len(domain_medians)
                          if domain_medians else 0.0)

        # Per-network medians over the chat class (the 20-network
        # table).
        per_network = rollups.fold(
            "watch_network", by=("operator", "network_type"),
            suffix=suffix, domain_class=rules.CHAT)
        min_network = self.min_network_count * scale
        ranked = sorted(
            ((hist.count, operator, tech, hist)
             for (operator, tech), hist in per_network.items()
             if hist.count >= min_network),
            key=lambda row: (-row[0], row[1], row[2]))
        bands: Dict[str, int] = {}
        for count, operator, tech, hist in ranked[:self.top_networks]:
            band = rules.network_band(hist.median())
            bands[band] = bands.get(band, 0) + 1

        return {
            "suffix": suffix,
            "chat_domains": len(chat_hists),
            "chat_median_ms": chat_median,
            "cdn_median_ms": cdn_median,
            "chat_domains_over_200ms": over_200,
            "chat_domain_count_with_median": len(domain_medians),
            "over_200_share": over_200_share,
            "network_bands": bands,
            "networks_ranked": len(ranked),
            "degraded": rules.chat_degradation_verdict(
                chat_median, cdn_median, over_200_share, bands),
        }


class IspRttAnomalyRule:
    """Case 2: an LTE operator whose app RTT median far exceeds its
    DNS median, with the same domains faster on other LTE networks."""

    name = "isp_rtt_anomaly"

    def __init__(self, min_domain_count: int = 100,
                 min_samples: int = 500) -> None:
        self.min_domain_count = min_domain_count
        self.min_samples = min_samples

    def evaluate(self, rollups: RollupStore, scale: float
                 ) -> List[Finding]:
        # LTE hists per operator, merged across windows.
        app = rollups.fold("network", by=("operator",),
                           network_type=NetworkType.LTE,
                           kind=MeasurementKind.TCP)
        dns = rollups.fold("network", by=("operator",),
                           network_type=NetworkType.LTE,
                           kind=MeasurementKind.DNS)
        lte_domains = rollups.table("lte_domain")
        min_count = self.min_domain_count * scale
        min_samples = self.min_samples * scale

        # Per-operator per-domain hists, one pass over the table.
        by_operator: Dict[str, Dict[str, MergeHist]] = {}
        for key in sorted(lte_domains):
            domain, operator = key
            by_operator.setdefault(operator, {})[domain] = \
                lte_domains[key]

        findings: List[Finding] = []
        for (operator,), app_hist in sorted(app.items()):
            dns_hist = dns.get((operator,))
            if dns_hist is None or app_hist.count < min_samples:
                continue
            app_median = app_hist.median()
            dns_median = dns_hist.median()

            domains = by_operator.get(operator, {})
            domain_medians = {
                domain: hist.median()
                for domain, hist in domains.items()
                if hist.count >= min_count}

            comparable = 0
            faster_elsewhere = 0
            gap_sum = 0.0
            for domain in sorted(domain_medians):
                other = MergeHist()
                for other_op, other_domains in by_operator.items():
                    if other_op == operator:
                        continue
                    hist = other_domains.get(domain)
                    if hist is not None:
                        other.merge(hist)
                if other.count < min_count:
                    continue
                comparable += 1
                gap = domain_medians[domain] - other.median()
                if gap > 0:
                    faster_elsewhere += 1
                    gap_sum += gap
            mean_gap = (gap_sum / faster_elsewhere
                        if faster_elsewhere else 0.0)

            if rules.isp_anomaly_verdict(app_median, dns_median,
                                         comparable, faster_elsewhere,
                                         mean_gap):
                findings.append(Finding(
                    rule=self.name,
                    subject="%s/%s" % (operator, NetworkType.LTE),
                    detected_at_records=rollups.records,
                    summary={
                        "operator": operator,
                        "app_median_ms": app_median,
                        "dns_median_ms": dns_median,
                        "app_rtt_count": app_hist.count,
                        "domains_analysed": len(domain_medians),
                        "domain_bands": rules.jio_domain_bands(
                            domain_medians.values()),
                        "comparable_domains": comparable,
                        "domains_faster_elsewhere": faster_elsewhere,
                        "mean_gap_ms": mean_gap,
                        "anomalous": True,
                    }))
        return findings


class CoexistenceRule:
    """Coexistence (docs/MODALITIES.md): a bulk-transfer app inflates
    a foreground app's RTT on one network.

    Pure rollup evidence: the ``app_throughput`` table shows the
    bulk-app package moving bytes, and the ``network`` table shows one
    operator's TCP median far above its peers' merged median.  The
    verdict is :func:`repro.analysis.rules.coexistence_verdict` -- the
    same function the offline ledger check applies to raw records, so
    the two paths cannot disagree.  Without modality records the bulk
    count is zero and the rule never fires.
    """

    name = "coexistence_bulk_contention"

    def evaluate(self, rollups: RollupStore, scale: float
                 ) -> List[Finding]:
        bulk = sum(hist.count for hist in rollups.fold(
            "app_throughput",
            app_package=rules.COEX_BULK_PACKAGE).values())
        if bulk < rules.COEX_MIN_BULK_SAMPLES:
            return []
        # Per-operator TCP hists over every technology, merged across
        # windows (the contention is on the access link, whatever the
        # radio).
        per_operator = rollups.fold("network", by=("operator",),
                                    kind=MeasurementKind.TCP)
        findings: List[Finding] = []
        for (operator,), hist in sorted(per_operator.items()):
            peers = _merged([other_hist for other, other_hist
                             in per_operator.items()
                             if other != (operator,)])
            if not peers.count:
                continue
            median = hist.median()
            peer_median = peers.median()
            if rules.coexistence_verdict(median, peer_median, bulk):
                findings.append(Finding(
                    rule=self.name, subject=operator,
                    detected_at_records=rollups.records,
                    summary={
                        "operator": operator,
                        "tcp_median_ms": median,
                        "peer_median_ms": peer_median,
                        "bulk_throughput_samples": bulk,
                        "bulk_package": rules.COEX_BULK_PACKAGE,
                    }))
        return findings


class ProxyDivergenceRule:
    """Middlebox detection (docs/MIDDLEBOX.md): an operator whose
    SYN-RTT and app-layer-RTT distributions have split.

    Pure rollup evidence: the ``network`` table holds both kinds per
    (window, operator, technology); merged across windows, an operator
    behind a split-connection proxy shows an APP_RTT median far above
    its TCP (SYN) median -- the SYN was answered by the middlebox, the
    response bytes crossed the full path.  The verdict is
    :func:`repro.analysis.rules.proxy_divergence_verdict`, shared
    verbatim with the offline ledger check.  Without APP_RTT records
    (every proxy-free preset) the sample gate keeps the rule inert.
    """

    name = "proxy_divergence"

    def evaluate(self, rollups: RollupStore, scale: float
                 ) -> List[Finding]:
        # Per operator over *every* technology, merged across windows
        # (a PEP sits in cellular and satellite paths alike).
        syn = rollups.fold("network", by=("operator",),
                           kind=MeasurementKind.TCP)
        app = rollups.fold("network", by=("operator",),
                           kind=MeasurementKind.APP_RTT)
        findings: List[Finding] = []
        for (operator,), app_hist in sorted(app.items()):
            syn_hist = syn.get((operator,))
            if syn_hist is None or not syn_hist.count:
                continue
            syn_median = syn_hist.median()
            app_median = app_hist.median()
            if rules.proxy_divergence_verdict(syn_median, app_median,
                                              app_hist.count):
                findings.append(Finding(
                    rule=self.name, subject=operator,
                    detected_at_records=rollups.records,
                    summary={
                        "operator": operator,
                        "syn_median_ms": syn_median,
                        "app_median_ms": app_median,
                        "app_rtt_samples": app_hist.count,
                        "divergence_ratio": (app_median / syn_median
                                             if syn_median else 0.0),
                    }))
        return findings


class OnlineDetector:
    """Periodically evaluates the rules against live rollups and keeps
    the earliest detection per (rule, subject)."""

    def __init__(self, rollups: RollupStore, scale: float = 1.0,
                 check_interval_records: int = 50_000,
                 obs: Optional[Observability] = None,
                 rules_: Optional[List[object]] = None) -> None:
        self.rollups = rollups
        self.scale = scale
        self.check_interval_records = check_interval_records
        self.obs = obs or get_default()
        self.rules = rules_ if rules_ is not None else [
            ChatDomainDegradationRule(), IspRttAnomalyRule(),
            CoexistenceRule(), ProxyDivergenceRule()]
        self.findings: Dict[Tuple[str, str], Finding] = {}
        self._next_check = check_interval_records

    def maybe_evaluate(self) -> List[Finding]:
        """Cheap gate for the streaming path: evaluate only every
        ``check_interval_records`` ingested records."""
        if self.rollups.records < self._next_check:
            return []
        while self._next_check <= self.rollups.records:
            self._next_check += self.check_interval_records
        return self.evaluate()

    def evaluate(self) -> List[Finding]:
        """Run every rule now; returns findings new to this run."""
        self.obs.inc("backend.detector_evaluations")
        new: List[Finding] = []
        for rule in self.rules:
            for finding in rule.evaluate(self.rollups, self.scale):
                key = (finding.rule, finding.subject)
                if key not in self.findings:
                    self.findings[key] = finding
                    self.obs.inc("backend.detector_findings")
                    if finding.rule == ProxyDivergenceRule.name:
                        self.obs.inc("mbox.divergence_findings")
                    new.append(finding)
        return new

    def report(self) -> List[Dict[str, object]]:
        return [self.findings[key].to_dict()
                for key in sorted(self.findings)]
