"""The one diagnosis: the section 4.2.2 recipe over a ``RollupStore``.

Everything here reads the rollups the backend serves, through
``fold``, ``table`` and ``iter_table`` -- never a side copy of the
records -- and judges them with :mod:`repro.analysis.rules`:

* the :class:`OnlineDetector`'s rules: Case 1
  (:meth:`ChatDomainDegradationRule.summarise`), Case 2
  (:func:`isp_summary`), coexistence and proxy divergence.  They are
  generic: the chat rule fires for any watch suffix whose non-CDN
  domains degrade, the ISP rule scans *every* LTE operator;
* :func:`diagnose_app`, :func:`diagnose_operator` and
  :func:`diagnose_all`: one subject against the merge of its peers,
  localised to the app's servers, the ISP's core or the access
  network.  The chaos oracles (``repro.faults``) judge these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis import rules
from repro.analysis.rules import Verdict
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


def _merged(hists: Iterable[MergeHist]) -> MergeHist:
    out = MergeHist()
    for hist in hists:
        out.merge(hist)
    return out


class ChatDomainDegradationRule:
    """Case 1: a watch suffix's chat-class domains are slow in most
    networks while its CDN-class domains stay fast."""

    name = "chat_domain_degradation"
    #: A network ranks with this many full-scale chat samples; the
    #: bands count the most-accessed of those.
    min_network_count = 100
    top_networks = 20

    def evaluate(self, rollups: RollupStore, scale: float
                 ) -> List[Finding]:
        findings: List[Finding] = []
        for suffix in rollups.config.watch_suffixes:
            summary = self.summarise(rollups, suffix, scale)
            if summary is None:
                continue
            if summary["degraded"]:
                findings.append(Finding(
                    rule=self.name, subject=suffix,
                    detected_at_records=rollups.records,
                    summary=summary))
        return findings

    def summarise(self, rollups: RollupStore, suffix: str,
                  scale: float) -> Optional[Dict[str, object]]:
        """Case 1's talking points for one watch suffix: the chat and
        CDN medians, how many chat domains have a median over 200 ms,
        and the per-network bands over the most-accessed networks.
        ``None`` when the suffix has no chat-class sample."""
        domains = rollups.fold("watch_domain", by=("domain_class", "domain"),
                               suffix=suffix)
        chat_hists = {domain: hist for (cls, domain), hist
                      in domains.items() if cls == rules.CHAT}
        if not chat_hists:
            return None

        chat_all = _merged(chat_hists.values())
        cdn_all = _merged(hist for (cls, _), hist in domains.items()
                          if cls != rules.CHAT)
        chat_median = chat_all.median()
        cdn_median = cdn_all.median() if cdn_all.count else None

        # Every observed chat domain counts, however few its samples:
        # at full scale the paper's 331-domain population dominates.
        over_200 = sum(1 for hist in chat_hists.values()
                       if hist.median() > rules.CHAT_DEGRADED_MEDIAN_MS)
        over_200_share = over_200 / len(chat_hists)

        # Per-network chat medians (the 20-network table).
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
            "total_domains": len(domains),
            "chat_domains": len(chat_hists),
            "chat_median_ms": chat_median,
            "cdn_median_ms": cdn_median,
            "app_median_ms": _merged((chat_all, cdn_all)).median(),
            "chat_domains_over_200ms": over_200,
            "chat_domain_count_with_median": len(chat_hists),
            "over_200_share": over_200_share,
            "network_bands": bands,
            "networks_ranked": len(ranked),
            "degraded": rules.chat_degradation_verdict(
                chat_median, cdn_median, over_200_share, bands),
        }


def _lte_rows(rollups: RollupStore):
    """LTE hists per (operator, kind), and per operator by domain."""
    networks = rollups.fold("network", by=("operator", "kind"),
                            network_type=NetworkType.LTE)
    domains: Dict[str, Dict[str, MergeHist]] = {}
    for (domain, operator), hist in rollups.iter_table("lte_domain"):
        domains.setdefault(operator, {})[domain] = hist
    return networks, domains


def isp_summary(rollups: RollupStore, operator: str, scale: float,
                min_domain_count: int = 100
                ) -> Optional[Dict[str, object]]:
    """Case 2 for one LTE operator: its app and DNS medians, the bands
    of its per-domain medians, and how many of those domains are
    faster on the other LTE operators (merged), by how much.  A domain
    counts with ``min_domain_count * scale`` samples on either side.
    ``None`` when the operator has no LTE app or DNS sample."""
    return _isp_summary(*_lte_rows(rollups), operator, scale,
                        min_domain_count)


def _isp_summary(networks, domains, operator: str, scale: float,
                 min_domain_count: int) -> Optional[Dict[str, object]]:
    app_hist = networks.get((operator, MeasurementKind.TCP))
    dns_hist = networks.get((operator, MeasurementKind.DNS))
    if app_hist is None or dns_hist is None:
        return None
    app_median, dns_median = app_hist.median(), dns_hist.median()
    min_count = min_domain_count * scale
    domain_medians = {domain: hist.median() for domain, hist
                      in domains.get(operator, {}).items()
                      if hist.count >= min_count}
    comparable = faster_elsewhere = 0
    gap_sum = 0.0
    for domain in sorted(domain_medians):
        other = _merged(rows[domain] for other_op, rows in domains.items()
                        if other_op != operator and domain in rows)
        if other.count < min_count:
            continue
        comparable += 1
        gap = domain_medians[domain] - other.median()
        if gap > 0:
            faster_elsewhere += 1
            gap_sum += gap
    mean_gap = gap_sum / faster_elsewhere if faster_elsewhere else 0.0
    return {
        "operator": operator,
        "app_median_ms": app_median,
        "dns_median_ms": dns_median,
        "app_rtt_count": app_hist.count,
        "domains_analysed": len(domain_medians),
        "domain_bands": rules.jio_domain_bands(domain_medians.values()),
        "comparable_domains": comparable,
        "domains_faster_elsewhere": faster_elsewhere,
        "mean_gap_ms": mean_gap,
        "anomalous": rules.isp_anomaly_verdict(
            app_median, dns_median, comparable, faster_elsewhere,
            mean_gap),
    }


class IspRttAnomalyRule:
    """Case 2: an LTE operator whose app RTT median far exceeds its
    DNS median, with the same domains faster on other LTE networks."""

    name = "isp_rtt_anomaly"
    #: Full-scale sample floors: a domain's, and an operator's LTE
    #: app RTTs'.
    min_domain_count = 100
    min_samples = 500

    def evaluate(self, rollups: RollupStore, scale: float
                 ) -> List[Finding]:
        networks, domains = _lte_rows(rollups)
        findings: List[Finding] = []
        for (operator, kind), app_hist in sorted(networks.items()):
            if kind != MeasurementKind.TCP \
                    or app_hist.count < self.min_samples * scale:
                continue
            summary = _isp_summary(networks, domains, operator, scale,
                                   self.min_domain_count)
            if summary is not None and summary["anomalous"]:
                findings.append(Finding(
                    rule=self.name,
                    subject="%s/%s" % (operator, NetworkType.LTE),
                    detected_at_records=rollups.records,
                    summary=summary))
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
    """Evaluates the rules against live rollups and keeps the earliest
    detection per (rule, subject)."""

    def __init__(self, rollups: RollupStore, scale: float = 1.0,
                 obs: Optional[Observability] = None) -> None:
        self.rollups = rollups
        self.scale = scale
        self.obs = obs or get_default()
        self.rules = [ChatDomainDegradationRule(), IspRttAnomalyRule(),
                      CoexistenceRule(), ProxyDivergenceRule()]
        self.findings: Dict[Tuple[str, str], Finding] = {}

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


# -- per-subject diagnosis ----------------------------------------------

@dataclass
class Diagnosis:
    """One app or operator judged against its peers."""
    subject: str                  # app package or operator name
    kind: str                     # "app" | "operator"
    verdict: str
    median_ms: Optional[float] = None
    baseline_ms: Optional[float] = None
    evidence: List[str] = field(default_factory=list)

    @property
    def slowdown(self) -> Optional[float]:
        if self.median_ms is None or not self.baseline_ms:
            return None
        return self.median_ms / self.baseline_ms


def _apps(rollups: RollupStore) -> Dict[Tuple[str, ...], MergeHist]:
    return rollups.fold("app", by=("app_package",),
                        kind=MeasurementKind.TCP)


def _networks(rollups: RollupStore) -> Dict[Tuple[str, ...], MergeHist]:
    return rollups.fold("network",
                        by=("operator", "network_type", "kind"))


def diagnose_app(rollups: RollupStore, package: str,
                 min_samples: int = 30) -> Diagnosis:
    """Localise an app's slowness: its median connect RTT against the
    merge of every other app's.  A slow app whose peers are fast has a
    server-side problem -- its servers are far from users (the
    Whatsapp/SoftLayer pattern)."""
    return _diagnose_app(_apps(rollups), package, min_samples)


def _diagnose_app(apps, package: str, min_samples: int) -> Diagnosis:
    app = apps.get((package,))
    peers = _merged(hist for key, hist in apps.items()
                    if key != (package,))
    if app is None or app.count < min_samples or not peers.count:
        return Diagnosis(package, "app", Verdict.INSUFFICIENT_DATA)
    median, peer_median = app.median(), peers.median()
    return Diagnosis(
        package, "app", rules.app_verdict(median, peer_median),
        median_ms=median, baseline_ms=peer_median,
        evidence=["median %.0f ms vs %.0f ms for other apps (%.1fx)"
                  % (median, peer_median, median / peer_median)])


def diagnose_operator(rollups: RollupStore, operator: str,
                      min_samples: int = 30) -> Diagnosis:
    """Localise an operator's slowness with the Case 2 recipe: its app
    and DNS medians against the merge of every other operator on the
    network types it was measured on
    (:func:`repro.analysis.rules.operator_verdict`)."""
    return _diagnose_operator(_networks(rollups), operator, min_samples)


_OPERATOR_EVIDENCE = {
    Verdict.HEALTHY: "in line with peers",
    Verdict.ACCESS_NETWORK: "both inflated: first hop / radio",
    Verdict.CORE_NETWORK: "local DNS is fast, the core path is not -- "
                          "the Jio pattern",
}


def _diagnose_operator(networks, operator: str,
                       min_samples: int) -> Diagnosis:
    tcp, dns = MeasurementKind.TCP, MeasurementKind.DNS
    types = {tech for op, tech, _ in networks if op == operator}
    own = {tcp: MergeHist(), dns: MergeHist()}
    peer = {tcp: MergeHist(), dns: MergeHist()}
    for (op, tech, kind), hist in networks.items():
        if kind in own and tech in types:
            (own if op == operator else peer)[kind].merge(hist)
    if own[tcp].count < min_samples or own[dns].count < min_samples // 3 \
            or not peer[tcp].count or not peer[dns].count:
        return Diagnosis(operator, "operator", Verdict.INSUFFICIENT_DATA)
    medians = (own[tcp].median(), peer[tcp].median(), own[dns].median(),
               peer[dns].median())
    verdict = rules.operator_verdict(*medians)
    return Diagnosis(
        operator, "operator", verdict, median_ms=medians[0],
        baseline_ms=medians[1],
        evidence=["app RTT %.0f ms (peers %.0f ms), DNS RTT %.0f ms "
                  "(peers %.0f ms): " % medians
                  + _OPERATOR_EVIDENCE[verdict]])


def diagnose_all(rollups: RollupStore, min_samples: int = 200,
                 top: int = 20) -> List[Diagnosis]:
    """Sweep apps and operators; return the non-healthy diagnoses
    ranked by slowdown factor."""
    apps, networks = _apps(rollups), _networks(rollups)
    # "unknown" is what the rollups key a record without a package by.
    subjects = [_diagnose_app(apps, package, min_samples)
                for (package,), hist in apps.items()
                if package != "unknown" and hist.count >= min_samples]
    subjects += [_diagnose_operator(networks, operator, min_samples)
                 for operator in sorted({op for op, _, _ in networks})]
    found = [d for d in subjects if d.verdict not in (
        Verdict.HEALTHY, Verdict.INSUFFICIENT_DATA)]
    found.sort(key=lambda d: -(d.slowdown or 0))
    return found[:top]
