"""Shared case-study rule logic (section 4.2.2).

The one diagnosis (:mod:`repro.backend.detector`: its rules, its case
summaries and ``diagnose_*``) reads a ``RollupStore``; what *counts* as
each finding is decided here: how WhatsApp domains split into chat vs
CDN, which latency bands the paper's tables use, and the thresholds
and verdict functions that turn summary numbers into a verdict.  The
faults package's ledger checks use the same functions.

Every median fed in is a rollup median, ``MergeHist.median()``: the
*lower* median -- the ceil(n/2)-th smallest value, interpolated inside
its 0.25 ms bin -- not the mean of the two middle values.

This module imports nothing above the standard library: it is safe to
use from any layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

# -- Case 1: WhatsApp domain taxonomy ----------------------------------------

#: Media domains on the Facebook CDN; everything else under
#: whatsapp.net is a SoftLayer-hosted chat domain (the slow majority).
WHATSAPP_CDN_PREFIXES = ("mme.", "mmg.", "pps.")

WHATSAPP_SUFFIX = "whatsapp.net"

CHAT = "chat"
CDN = "cdn"


def whatsapp_domain_class(domain: str) -> str:
    """``chat`` (SoftLayer) or ``cdn`` (Facebook CDN media)."""
    return CDN if domain.startswith(WHATSAPP_CDN_PREFIXES) else CHAT


def domain_matches_suffix(domain: Optional[str], suffix: str) -> bool:
    return domain is not None and (domain == suffix
                                   or domain.endswith("." + suffix))


#: Figure bands for the 20-most-accessed-networks table of Case 1.
NETWORK_BAND_EDGES = (100.0, 200.0, 300.0)
NETWORK_BAND_LABELS = ("<100ms", "100-200ms", "200-300ms", ">300ms")


def network_band(median_ms: float) -> str:
    """The Case 1 per-network band a chat-domain median falls in."""
    for edge, label in zip(NETWORK_BAND_EDGES, NETWORK_BAND_LABELS):
        if median_ms < edge:
            return label
    return NETWORK_BAND_LABELS[-1]


def jio_domain_bands(medians_ms: Iterable[float]) -> Dict[str, int]:
    """Case 2's cumulative per-domain bands (<100 / >200 / >300 /
    >400 ms)."""
    bands = {"<100ms": 0, ">200ms": 0, ">300ms": 0, ">400ms": 0}
    for med in medians_ms:
        if med < 100:
            bands["<100ms"] += 1
        if med > 200:
            bands[">200ms"] += 1
        if med > 300:
            bands[">300ms"] += 1
        if med > 400:
            bands[">400ms"] += 1
    return bands


# -- verdict thresholds -------------------------------------------------------

#: Case 1 fires when the chat-domain median exceeds this.
CHAT_DEGRADED_MEDIAN_MS = 200.0
#: ... and this share of chat domains has a median above 200 ms.
CHAT_DEGRADED_DOMAIN_SHARE = 0.75

#: Case 2 fires when an ISP's app median is this many times its DNS
#: median (slow core, fast local resolver -- Jio's signature) ...
ISP_ANOMALY_APP_DNS_RATIO = 3.0
#: ... and the app median is at least this high in absolute terms.
ISP_ANOMALY_MIN_APP_MEDIAN_MS = 180.0
#: ... corroborated by this share of comparable domains being faster
#: on other LTE networks,
ISP_ANOMALY_FASTER_ELSEWHERE_SHARE = 0.8
#: ... by at least this mean gap.
ISP_ANOMALY_MIN_GAP_MS = 80.0


def chat_degradation_verdict(chat_median_ms: float,
                             cdn_median_ms: Optional[float],
                             over_200_share: float,
                             network_bands: Mapping[str, int]) -> bool:
    """Case 1: the vast majority of chat domains perform poorly in most
    networks while the CDN media domains stay fast."""
    if chat_median_ms <= CHAT_DEGRADED_MEDIAN_MS:
        return False
    if over_200_share <= CHAT_DEGRADED_DOMAIN_SHARE:
        return False
    slow = (network_bands.get("200-300ms", 0)
            + network_bands.get(">300ms", 0))
    fast = network_bands.get("<100ms", 0)
    if slow <= fast:
        return False
    # The CDN contrast is evidence, not a hard requirement (a store
    # may contain no media samples).
    if cdn_median_ms is not None and cdn_median_ms >= chat_median_ms:
        return False
    return True


# -- coexistence: bulk transfer inflating foreground RTTs --------------------

#: The Android download-manager package -- the bulk transfers the
#: coexistence rule keys on run under this app (see
#: repro.phone.download_manager and docs/MODALITIES.md).
COEX_BULK_PACKAGE = "com.android.providers.downloads"
#: A network's TCP median must exceed its peers' merged median by this
#: factor for the contention verdict to fire.
COEX_RTT_INFLATION = 1.5
#: ... and the dataset must hold at least this many bulk-app
#: throughput samples (no bulk transfer, no coexistence story).
COEX_MIN_BULK_SAMPLES = 1


def coexistence_verdict(app_median_ms: float, peer_median_ms: float,
                        bulk_samples: int) -> bool:
    """Coexistence: a bulk transfer is active (throughput records from
    the download-manager package) *and* the affected network's TCP
    median is inflated well past its peers' -- self-inflicted
    contention, not a network fault."""
    if bulk_samples < COEX_MIN_BULK_SAMPLES:
        return False
    if peer_median_ms <= 0:
        return False
    return app_median_ms > COEX_RTT_INFLATION * peer_median_ms


# -- transparent proxy: SYN RTT diverging from app-layer RTT -----------------

#: A middlebox verdict needs the app-layer median to exceed the SYN
#: median by this factor.  Without a split-connection proxy both RTTs
#: span the same path and the ratio sits near 1 (server think time
#: only); behind one, the SYN terminates at the middlebox while the
#: response still crosses the full path.
PROXY_DIVERGENCE_RATIO = 2.0
#: ... and by at least this absolute gap, so sub-millisecond paths
#: with fixed processing delays cannot trip the ratio alone.
PROXY_MIN_GAP_MS = 25.0
#: ... over at least this many app-layer samples per operator.
PROXY_MIN_APP_SAMPLES = 6


def proxy_divergence_verdict(syn_median_ms: float,
                             app_median_ms: float,
                             app_samples: int) -> bool:
    """Transparent-proxy detection: the operator's SYN-RTT and
    app-layer-RTT distributions have split -- the SYN is answered by
    something much closer than whatever serves the response bytes."""
    if app_samples < PROXY_MIN_APP_SAMPLES:
        return False
    if syn_median_ms <= 0:
        return False
    if app_median_ms - syn_median_ms < PROXY_MIN_GAP_MS:
        return False
    return app_median_ms > PROXY_DIVERGENCE_RATIO * syn_median_ms


def isp_anomaly_verdict(app_median_ms: float, dns_median_ms: float,
                        comparable_domains: int,
                        domains_faster_elsewhere: int,
                        mean_gap_ms: float) -> bool:
    """Case 2: slow app path, fast local DNS, and the same domains are
    much faster on other LTE networks."""
    if dns_median_ms <= 0:
        return False
    if app_median_ms <= ISP_ANOMALY_APP_DNS_RATIO * dns_median_ms:
        return False
    if app_median_ms < ISP_ANOMALY_MIN_APP_MEDIAN_MS:
        return False
    if comparable_domains > 0:
        share = domains_faster_elsewhere / comparable_domains
        if share < ISP_ANOMALY_FASTER_ELSEWHERE_SHARE:
            return False
        if mean_gap_ms <= ISP_ANOMALY_MIN_GAP_MS:
            return False
    return True


# -- per-subject diagnosis: one app or operator against its peers -----------

#: A subject is slow when its median exceeds its peers' by this factor.
SLOW_FACTOR = 1.6


class Verdict:
    HEALTHY = "HEALTHY"
    SERVER_SIDE = "SERVER_SIDE"      # app's servers are far/slow
    CORE_NETWORK = "CORE_NETWORK"    # ISP core (Jio pattern)
    ACCESS_NETWORK = "ACCESS_NETWORK"  # radio/first hop (2G pattern)
    INSUFFICIENT_DATA = "INSUFFICIENT_DATA"


def app_verdict(app_median_ms: float, peer_median_ms: float) -> str:
    """An app slow beside its peers is slow at its servers (the
    Whatsapp/SoftLayer pattern)."""
    if app_median_ms <= SLOW_FACTOR * peer_median_ms:
        return Verdict.HEALTHY
    return Verdict.SERVER_SIDE


def operator_verdict(app_median_ms: float, peer_app_median_ms: float,
                     dns_median_ms: float,
                     peer_dns_median_ms: float) -> str:
    """Case 2's recipe against the other operators: app and DNS RTT
    both slow is the access network (the 2G pattern); app RTT slow,
    DNS normal is the core network (the Jio pattern)."""
    if app_median_ms <= SLOW_FACTOR * peer_app_median_ms:
        return Verdict.HEALTHY
    if dns_median_ms > SLOW_FACTOR * peer_dns_median_ms:
        return Verdict.ACCESS_NETWORK
    return Verdict.CORE_NETWORK


__all__ = [
    "CDN",
    "CHAT",
    "CHAT_DEGRADED_DOMAIN_SHARE",
    "CHAT_DEGRADED_MEDIAN_MS",
    "COEX_BULK_PACKAGE",
    "COEX_MIN_BULK_SAMPLES",
    "COEX_RTT_INFLATION",
    "ISP_ANOMALY_APP_DNS_RATIO",
    "ISP_ANOMALY_FASTER_ELSEWHERE_SHARE",
    "ISP_ANOMALY_MIN_APP_MEDIAN_MS",
    "ISP_ANOMALY_MIN_GAP_MS",
    "NETWORK_BAND_EDGES",
    "NETWORK_BAND_LABELS",
    "PROXY_DIVERGENCE_RATIO",
    "PROXY_MIN_APP_SAMPLES",
    "PROXY_MIN_GAP_MS",
    "SLOW_FACTOR",
    "Verdict",
    "WHATSAPP_CDN_PREFIXES",
    "WHATSAPP_SUFFIX",
    "app_verdict",
    "chat_degradation_verdict",
    "coexistence_verdict",
    "domain_matches_suffix",
    "isp_anomaly_verdict",
    "jio_domain_bands",
    "proxy_divergence_verdict",
    "network_band",
    "operator_verdict",
    "whatsapp_domain_class",
]
