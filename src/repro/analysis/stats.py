"""Small exact statistics helpers shared by the analysis modules:
:func:`median`, :func:`percentile`, :func:`cdf` and
:func:`fraction_below` over fully materialized sequences.  A stream
too large to hold is folded into the rollups' histogram instead
(:func:`repro.analysis.perapp.fold_rtts`)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def median(values: Sequence[float]) -> float:
    if not len(values):
        raise ValueError("median of empty sequence")
    return float(np.median(np.asarray(values, dtype=float)))


def percentile(values: Sequence[float], q: float) -> float:
    if not len(values):
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def cdf(values: Sequence[float],
        max_x: float = None) -> Tuple[List[float], List[float]]:
    """Empirical CDF as (xs, fractions), optionally clipped at max_x
    the way the paper's plots clip at 400 ms."""
    array = np.sort(np.asarray(values, dtype=float))
    if array.size == 0:
        return [], []
    fractions = np.arange(1, array.size + 1) / array.size
    if max_x is not None:
        keep = array <= max_x
        array, fractions = array[keep], fractions[keep]
    return array.tolist(), fractions.tolist()


def fraction_below(values: Sequence[float], threshold: float) -> float:
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("fraction_below of empty sequence")
    return float((array < threshold).mean())
