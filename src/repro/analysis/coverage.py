"""Dataset coverage analyses: Figures 6, 7 and 8.

:func:`dataset_statistics` and :func:`measurements_per_user` take a
store or any record iterable, so the §4.2.1 summary runs straight off
the generator or JSONL shards; memory is bounded by the number of
distinct entities (devices, apps, IPs), never the record count."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

from repro.core.records import (
    MeasurementKind,
    MeasurementRecord,
    MeasurementStore,
)

# Figure 6's buckets (full-scale measurement counts).
BUCKETS: List[Tuple[str, float, float]] = [
    ("> 10K", 10000, float("inf")),
    ("5K - 10K", 5000, 10000),
    ("1K - 5K", 1000, 5000),
    ("100 - 1K", 100, 1000),
]


def bucket_counts(counts: Dict[str, int],
                  scale: float = 1.0) -> Dict[str, int]:
    """Histogram entity counts into Figure 6's buckets.  ``scale`` is
    the campaign scale; thresholds are applied to scale-corrected
    (full-scale-equivalent) counts."""
    out = {label: 0 for label, _lo, _hi in BUCKETS}
    for count in counts.values():
        full = count / scale
        for label, lo, hi in BUCKETS:
            if lo <= full < hi:
                out[label] += 1
                break
    return out


def measurements_per_user(records: Iterable[MeasurementRecord],
                          scale: float = 1.0) -> Dict[str, int]:
    """Figure 6(a): number of devices in each measurement-count bucket."""
    counts = Counter(r.device_id for r in records)
    return bucket_counts(counts, scale)


def measurements_per_app(store: MeasurementStore,
                         scale: float = 1.0) -> Dict[str, int]:
    """Figure 6(b): number of apps in each measurement-count bucket."""
    counts = Counter(r.app_package for r in store.tcp()
                     if r.app_package is not None)
    return bucket_counts(counts, scale)


def country_distribution(store: MeasurementStore,
                         top: int = 20) -> List[Tuple[str, int]]:
    """Figure 7: top user countries by number of distinct devices."""
    devices_by_country: Dict[str, set] = {}
    for record in store:
        devices_by_country.setdefault(record.country, set()).add(
            record.device_id)
    pairs = [(country, len(devices))
             for country, devices in devices_by_country.items()]
    pairs.sort(key=lambda item: (-item[1], item[0]))
    return pairs[:top]


def location_scatter(store: MeasurementStore
                     ) -> List[Tuple[float, float]]:
    """Figure 8: distinct measurement locations (lat, lon)."""
    seen = set()
    for record in store:
        if record.location is not None:
            seen.add(record.location)
    return sorted(seen)


def dataset_statistics(records: Iterable[MeasurementRecord]
                       ) -> Dict[str, int]:
    """The section 4.2.1 summary numbers, in one pass.  ``tcp`` and
    ``dns`` count the successful samples of their kind, as
    :meth:`MeasurementStore.tcp` / :meth:`~MeasurementStore.dns` pick
    them; ``total``, ``devices`` and ``countries`` count every
    record."""
    total = tcp = dns = 0
    devices: set = set()
    apps: set = set()
    countries: set = set()
    dst_ips: set = set()
    domains: set = set()
    dns_servers: set = set()
    for record in records:
        (kind, _, _, app_package, _, dst_ip, _, domain, _, _, country,
         device_id, failure, _) = record
        total += 1
        devices.add(device_id)
        countries.add(country)
        if failure is not None:
            continue
        if kind == MeasurementKind.TCP:
            tcp += 1
            dst_ips.add(dst_ip)
            apps.add(app_package)
            domains.add(domain)
        elif kind == MeasurementKind.DNS:
            dns += 1
            dns_servers.add(dst_ip)
    return {
        "total": total,
        "tcp": tcp,
        "dns": dns,
        "devices": len(devices),
        "apps": len(apps - {None}),
        "countries": len(countries),
        "dst_ips": len(dst_ips),
        "domains": len(domains - {None}),
        "dns_servers": len(dns_servers),
    }
