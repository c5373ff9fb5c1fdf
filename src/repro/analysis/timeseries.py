"""Temporal coverage of the crowdsourcing dataset.

The paper's dataset spans ten months (16 May 2016 -- 3 January 2017).
These helpers slice a store along its timestamps: weekly measurement
volumes (deployment growth / retention view) and per-period medians
(is the headline RTT stable over the campaign, or driven by a burst?).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.stats import median
from repro.core.records import MeasurementStore

_WEEK_MS = 7 * 24 * 3600 * 1000.0


def weekly_volumes(store: MeasurementStore) -> List[Tuple[int, int]]:
    """(week index, record count) pairs covering the campaign."""
    counts: Dict[int, int] = {}
    for record in store:
        week = int(record.timestamp_ms // _WEEK_MS)
        counts[week] = counts.get(week, 0) + 1
    return sorted(counts.items())


def weekly_medians(store: MeasurementStore,
                   min_count: int = 30) -> List[Tuple[int, float]]:
    """(week index, median RTT) for weeks with enough samples."""
    buckets: Dict[int, List[float]] = {}
    for record in store:
        week = int(record.timestamp_ms // _WEEK_MS)
        buckets.setdefault(week, []).append(record.rtt_ms)
    return [(week, median(rtts))
            for week, rtts in sorted(buckets.items())
            if len(rtts) >= min_count]


def coverage_gaps(store: MeasurementStore) -> List[int]:
    """Week indices inside the campaign span with zero records."""
    volumes = dict(weekly_volumes(store))
    if not volumes:
        return []
    first, last = min(volumes), max(volumes)
    return [week for week in range(first, last + 1)
            if week not in volumes]


def temporal_stability(store: MeasurementStore,
                       min_count: int = 30) -> Dict[str, float]:
    """How stable the weekly median RTT is across the campaign:
    max relative deviation from the overall median."""
    overall = median(store.rtts())
    weekly = weekly_medians(store, min_count=min_count)
    if not weekly:
        raise ValueError("not enough data for temporal analysis")
    deviations = [abs(value - overall) / overall
                  for _week, value in weekly]
    return {
        "overall_median_ms": overall,
        "weeks": len(weekly),
        "max_weekly_deviation": max(deviations),
        "mean_weekly_deviation": float(np.mean(deviations)),
    }
