"""The metrics registry: counters, gauges, sim-time histograms.

Design constraints (see docs/OBSERVABILITY.md):

* **Catalog-enforced names.**  Creating an instrument whose name is not
  declared in :mod:`repro.obs.catalog` raises, so every emitted metric
  is documented by construction.
* **Deterministic snapshots.**  ``snapshot()`` walks metrics in sorted
  name order and ``to_json()`` serialises with sorted keys, so two runs
  with the same seed produce byte-identical output regardless of
  ``PYTHONHASHSEED`` -- the same contract the PR-1 dataset digest
  relies on.  Wall-clock-dependent metrics are declared ``volatile``
  in the catalog and excluded unless explicitly requested.
* **No upper-layer imports.**  The histogram is a fixed-bin sketch
  read like the rollups' ``repro.backend.rollups.MergeHist`` (all mass
  counted, quantiles interpolated within a bin), written here
  dependency-free so ``repro.obs`` stays importable from every layer
  (it needs nothing but the standard library; even the sim clock is
  injected).  Unlike it, each metric picks its own range and bin
  count, and mass above the range is kept apart in ``overflow``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.catalog import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricSpec,
    spec_for,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counter %s cannot decrease" % self.spec.name)
        self.value += n

    def snapshot(self) -> dict:
        return {"type": COUNTER, "unit": self.spec.unit,
                "value": self.value}


class Gauge:
    """A value that can move both ways (queue depth, throughput)."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": GAUGE, "unit": self.spec.unit,
                "value": self.value}


class Histogram:
    """Fixed-bin sketch over ``[0, max_x]``.

    Every observation is counted (mass above ``max_x`` lands in
    ``overflow``), quantiles interpolate linearly within a bin, so the
    quantile error is bounded by one bin width whatever the
    distribution's shape.  Bins are a
    sparse dict -- relay histograms touch a handful of bins out of
    thousands.
    """

    __slots__ = ("spec", "count", "total", "overflow", "_width", "_bins")

    def __init__(self, spec: MetricSpec):
        self.spec = spec
        self.count = 0
        self.total = 0.0
        self.overflow = 0
        self._width = spec.max_x / spec.n_bins
        self._bins: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value > self.spec.max_x:
            self.overflow += 1
            return
        index = min(int(value / self._width), self.spec.n_bins - 1)
        self._bins[index] = self._bins.get(index, 0) + 1

    @property
    def bin_width(self) -> float:
        return self._width

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.count == 0:
            raise ValueError("quantile of empty histogram %s"
                             % self.spec.name)
        target = q * self.count
        if target > self.count - self.overflow:
            raise ValueError(
                "quantile %.3f of %s lies beyond max_x=%g (overflow "
                "mass %.3f)" % (q, self.spec.name, self.spec.max_x,
                                self.overflow / self.count))
        cumulative = 0
        for index in sorted(self._bins):
            in_bin = self._bins[index]
            if cumulative + in_bin >= target:
                frac = (target - cumulative) / in_bin
                return (index + frac) * self._width
            cumulative += in_bin
        return self.spec.max_x

    def fraction_above(self, threshold: float) -> float:
        """Share of observations strictly above ``threshold`` (how
        Table 1 reports '>1 ms' write shares)."""
        if self.count == 0:
            raise ValueError("fraction_above of empty histogram %s"
                             % self.spec.name)
        if threshold >= self.spec.max_x:
            return self.overflow / self.count
        below = sum(n for index, n in self._bins.items()
                    if (index + 1) * self._width <= threshold)
        return 1.0 - below / self.count

    def snapshot(self) -> dict:
        return {"type": HISTOGRAM, "unit": self.spec.unit,
                "count": self.count, "sum": self.total,
                "overflow": self.overflow, "max_x": self.spec.max_x,
                "bin_width": self._width,
                "bins": [[index, self._bins[index]]
                         for index in sorted(self._bins)]}


Metric = Union[Counter, Gauge, Histogram]

_KIND_CLASS = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}


class MetricsRegistry:
    """All instruments of one observability scope.

    Instruments are created lazily on first use, from their catalog
    spec; a snapshot therefore contains exactly the metrics the run
    actually touched (which is itself deterministic for a seeded run).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            spec = spec_for(name)
            if spec.kind != kind:
                raise TypeError(
                    "metric %s is declared a %s, requested as %s"
                    % (name, spec.kind, kind))
            metric = self._metrics[name] = _KIND_CLASS[kind](spec)
        elif not isinstance(metric, _KIND_CLASS[kind]):
            raise TypeError(
                "metric %s already exists with a different type" % name)
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, COUNTER)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, GAUGE)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, HISTOGRAM)

    # -- reading -----------------------------------------------------------
    def value(self, name: str) -> float:
        """Current value (0 if the instrument was never touched);
        histograms report their observation count."""
        metric = self._metrics.get(name)
        if metric is None:
            spec_for(name)  # still validate the name
            return 0
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def names(self) -> List[str]:
        """Sorted names of every instrument touched so far."""
        return sorted(self._metrics)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self, include_volatile: bool = False) -> dict:
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)
                if include_volatile
                or not self._metrics[name].spec.volatile}

    def to_json(self, include_volatile: bool = False) -> str:
        """Canonical JSON: sorted keys, fixed separators -- the byte
        representation the determinism contract is stated over."""
        return json.dumps(self.snapshot(include_volatile),
                          sort_keys=True, indent=1,
                          separators=(",", ": "))


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]
