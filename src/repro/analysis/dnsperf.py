"""DNS performance analyses: Figure 10, Table 6, Figure 11."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.perapp import RttFold, folded_medians
from repro.analysis.stats import cdf, fraction_below, median
from repro.core.records import MeasurementKind, MeasurementStore
from repro.network.link import NetworkType


def dns_cdfs_by_network(store: MeasurementStore, max_x: float = 400.0
                        ) -> Dict[str, Tuple[List[float], List[float]]]:
    """Figure 10(a): All / WiFi / Cellular DNS RTT CDFs."""
    dns = store.dns()
    return {
        "All": cdf(dns.rtts(), max_x),
        "WiFi": cdf(dns.for_network_type(NetworkType.WIFI).rtts(),
                    max_x),
        "Cellular": cdf(dns.for_network_type(*NetworkType.CELLULAR)
                        .rtts(), max_x),
    }


def dns_cdfs_by_technology(store: MeasurementStore, max_x: float = 400.0
                           ) -> Dict[str, Tuple[List[float],
                                                List[float]]]:
    """Figure 10(b): 4G LTE / 3G / 2G DNS RTT CDFs."""
    dns = store.dns()
    return {
        "4G LTE": cdf(dns.for_network_type(NetworkType.LTE).rtts(),
                      max_x),
        "3G UMTS/HSPA(P)": cdf(
            dns.for_network_type(NetworkType.UMTS).rtts(), max_x),
        "2G GPRS/EDGE": cdf(
            dns.for_network_type(NetworkType.GPRS).rtts(), max_x),
    }


def dns_medians(store: MeasurementStore) -> Dict[str, float]:
    """Headline DNS medians (All 42 / WiFi 33 / Cellular 61 / 4G 56 /
    3G 105 / 2G 755 in the paper)."""
    dns = store.dns()
    out = {
        "All": median(dns.rtts()),
        "WiFi": median(dns.for_network_type(NetworkType.WIFI).rtts()),
        "Cellular": median(
            dns.for_network_type(*NetworkType.CELLULAR).rtts()),
    }
    for label, tech in (("4G", NetworkType.LTE),
                        ("3G", NetworkType.UMTS),
                        ("2G", NetworkType.GPRS)):
        rtts = dns.for_network_type(tech).rtts()
        if rtts:
            out[label] = median(rtts)
    return out


def folded_dns_medians(hists: RttFold) -> Dict[str, float]:
    """:func:`dns_medians`, read from a
    :func:`~repro.analysis.perapp.fold_rtts` fold."""
    return folded_medians(hists, MeasurementKind.DNS, (
        ("All", None),
        ("WiFi", (NetworkType.WIFI,)),
        ("Cellular", NetworkType.CELLULAR),
        ("4G", (NetworkType.LTE,)),
        ("3G", (NetworkType.UMTS,)),
        ("2G", (NetworkType.GPRS,))))


def isp_dns_table(store: MeasurementStore,
                  top: int = 15) -> List[Dict[str, object]]:
    """Table 6: the LTE operators with the most DNS samples.

    Operators are ranked by DNS sample count; WiFi pseudo-operators and
    the generic tail are excluded the way the paper's table names only
    real cellular ISPs."""
    dns = store.dns()
    rows = []
    for operator, group in dns.by_operator().items():
        if operator.startswith("wifi") or operator.startswith("lte-"):
            continue
        country = _country_of(group)
        rtts = group.rtts()
        rows.append({
            "isp": operator,
            "country": country,
            "count": len(rtts),
            "median_ms": median(rtts),
        })
    rows.sort(key=lambda row: -row["count"])
    return rows[:top]


def _country_of(store: MeasurementStore) -> str:
    for record in store:
        return record.country
    return "unknown"


def isp_dns_cdfs(store: MeasurementStore, isps: List[str],
                 max_x: float = 400.0
                 ) -> Dict[str, Tuple[List[float], List[float]]]:
    """Figure 11: DNS RTT CDFs of selected ISPs."""
    dns = store.dns()
    return {isp: cdf(dns.for_operator(isp).rtts(), max_x)
            for isp in isps}


def isp_dns_profile(store: MeasurementStore,
                    isp: str) -> Dict[str, float]:
    """Figure 11's commentary numbers for one ISP: share below 10 ms,
    minimum RTT, share of samples on non-LTE technology."""
    group = store.dns().for_operator(isp)
    rtts = group.rtts()
    if not rtts:
        raise ValueError("no DNS samples for %r" % isp)
    non_lte = group.filter(
        lambda r: r.network_type != NetworkType.LTE)
    return {
        "below_10ms": fraction_below(rtts, 10.0),
        "min_ms": min(rtts),
        "median_ms": median(rtts),
        "non_lte_share": len(non_lte) / len(group),
    }
