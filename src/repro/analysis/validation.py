"""Statistical comparison of measurement stores.

Used to validate the dataset substitution: the mechanical fleet's
distributions should be close to the statistical campaign's for the
same profiles, and re-seeded campaigns should be stable.  Distances are
plain Kolmogorov-Smirnov statistics over RTT samples, computed with
numpy (no scipy dependency needed for the statistic itself).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.records import MeasurementStore


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup |F_a - F_b|)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def median_ratio(a: Sequence[float], b: Sequence[float]) -> float:
    """median(a) / median(b) -- scale agreement between two samples."""
    mb = float(np.median(np.asarray(b, dtype=float)))
    if mb == 0:
        raise ValueError("zero reference median")
    return float(np.median(np.asarray(a, dtype=float))) / mb


def compare_stores(a: MeasurementStore, b: MeasurementStore,
                   kinds: Tuple[str, ...] = ("TCP", "DNS")
                   ) -> Dict[str, Dict[str, float]]:
    """Per-kind KS distance + median ratio between two stores."""
    out: Dict[str, Dict[str, float]] = {}
    for kind in kinds:
        rtts_a = a.filter(lambda r: r.kind == kind).rtts()
        rtts_b = b.filter(lambda r: r.kind == kind).rtts()
        if not rtts_a or not rtts_b:
            continue
        out[kind] = {
            "ks": ks_distance(rtts_a, rtts_b),
            "median_ratio": median_ratio(rtts_a, rtts_b),
            "n_a": len(rtts_a),
            "n_b": len(rtts_b),
        }
    return out


def seed_stability(build, seeds: Sequence[int],
                   metric) -> Tuple[float, float, list]:
    """Run ``build(seed)`` per seed, apply ``metric`` to each result;
    returns (mean, max relative deviation, values)."""
    values = [metric(build(seed)) for seed in seeds]
    mean = float(np.mean(values))
    if mean == 0:
        raise ValueError("degenerate metric")
    max_dev = float(max(abs(v - mean) for v in values) / mean)
    return mean, max_dev, values
