"""Read-side queries over a (possibly reloaded) rollup store.

Each function returns plain data (lists/dicts) so the CLI, tests and
notebooks share one implementation.  Everything iterates in sorted key
order: query output is as deterministic as the rollups themselves.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.backend.rollups import MergeHist, RollupStore
from repro.core.records import MeasurementKind


def summary(rollups: RollupStore) -> Dict[str, object]:
    return {
        "records": rollups.records,
        "groups": {table: len(rollups.table(table))
                   for table in rollups.TABLES},
        "windows": rollups.windows(),
        "window_ms": rollups.config.window_ms,
        "watch_suffixes": list(rollups.config.watch_suffixes),
        "digest": rollups.digest(),
        "meta": {k: rollups.meta[k] for k in sorted(rollups.meta)},
    }


def apps(rollups: RollupStore, top: Optional[int] = 20
         ) -> List[Dict[str, object]]:
    """Per-app RTT table, merged across windows, by volume."""
    merged = rollups.fold("app", by=("app_package",))
    rows = [{"app": app, "count": hist.count,
             "median_ms": round(hist.median(), 2),
             "p90_ms": round(hist.quantile(0.9), 2)}
            for (app,), hist in merged.items()]
    rows.sort(key=lambda row: (-row["count"], row["app"]))
    return rows[:top] if top else rows


def networks(rollups: RollupStore, top: Optional[int] = 20
             ) -> List[Dict[str, object]]:
    """Per-(operator, technology) table with the app/DNS contrast."""
    merged = rollups.fold("network",
                          by=("operator", "network_type", "kind"))
    grouped: Dict[tuple, Dict[str, MergeHist]] = {}
    for (operator, tech, kind), hist in merged.items():
        grouped.setdefault((operator, tech), {})[kind] = hist
    rows = []
    for (operator, tech), kinds in grouped.items():
        tcp = kinds.get(MeasurementKind.TCP, MergeHist())
        dns = kinds.get(MeasurementKind.DNS, MergeHist())
        rows.append({
            "network": "%s/%s" % (operator, tech),
            "count": tcp.count + dns.count,
            "app_median_ms": (round(tcp.median(), 2)
                              if tcp.count else None),
            "dns_median_ms": (round(dns.median(), 2)
                              if dns.count else None),
        })
    rows.sort(key=lambda row: (-row["count"], row["network"]))
    return rows[:top] if top else rows


def windows(rollups: RollupStore) -> List[Dict[str, object]]:
    """Per-window volume and app-RTT median (coarse Figure 10)."""
    by_window: Dict[str, Dict[str, MergeHist]] = {}
    for (window, kind), hist in rollups.fold(
            "network", by=("window", "kind")).items():
        by_window.setdefault(window, {})[kind] = hist
    rows = []
    for window in sorted(by_window, key=int):
        kinds = by_window[window]
        tcp = kinds.get(MeasurementKind.TCP, MergeHist())
        total = sum(hist.count for hist in kinds.values())
        rows.append({
            "window": int(window),
            "records": total,
            "app_median_ms": (round(tcp.median(), 2)
                              if tcp.count else None),
        })
    return rows


def cases(rollups: RollupStore) -> List[Dict[str, object]]:
    """Detector findings persisted with the rollup state."""
    return list(rollups.meta.get("findings", []))
