"""repro.obs -- the sim-time-aware observability layer.

One facade, :class:`Observability`, bundles the two instruments every
layer reports through:

* a :class:`~repro.obs.registry.MetricsRegistry` of counters, gauges
  and fixed-bin histograms whose names are enforced against
  :mod:`repro.obs.catalog` (and therefore against
  ``docs/OBSERVABILITY.md``);
* a :class:`~repro.obs.tracer.Tracer` producing spans keyed on
  simulation time.

The facade is injectable -- :class:`~repro.core.service.MopEyeService`
creates its own unless handed one, so concurrent services (fleet runs,
A/B benches) never share counters -- and a process-wide default exists
for code with no service in scope (the crowd campaign, the CLI).

Layering: this package imports only the standard library.  The sim
clock and active-process accessor are *injected* (``Observability(sim)``
binds them), so ``repro.obs`` sits next to ``repro.sim`` at the bottom
of the import graph and every layer above may depend on it.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.obs.catalog import CATALOG, SPANS, MetricSpec, SpanSpec
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import Span, Tracer


class Observability:
    """Registry + tracer bound to one scope (usually one service)."""

    def __init__(self, sim=None, trace: bool = False):
        self.sim = sim
        self.registry = MetricsRegistry()
        #: The registry's instruments by name: a metric call that finds
        #: one of the type it needs is one dict lookup; the first call
        #: (and any misuse) goes through the registry, which creates
        #: it or raises.
        self._metrics = self.registry._metrics
        #: Identity labels stamped onto snapshots (``{"node_id":
        #: "node-02"}``).  Empty by default -- and an empty dict keeps
        #: snapshot/to_json byte-identical to the unlabelled layout,
        #: so only multi-node scopes pay the extra key.
        self.labels: dict = {}
        if sim is not None:
            clock = lambda: sim.now                      # noqa: E731
            current = lambda: sim._active_process        # noqa: E731
        else:
            clock = current = None
        self.tracer = Tracer(clock=clock, current_process=current,
                             enabled=trace)

    # -- metric conveniences (the forms instrumentation sites use) --------
    def inc(self, name: str, n: int = 1) -> None:
        counter = self._metrics.get(name)
        if type(counter) is not Counter:
            counter = self.registry.counter(name)
        counter.inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self._metrics.get(name)
        if type(gauge) is not Gauge:
            gauge = self.registry.gauge(name)
        gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        histogram = self._metrics.get(name)
        if type(histogram) is not Histogram:
            histogram = self.registry.histogram(name)
        histogram.observe(value)

    def value(self, name: str) -> float:
        return self.registry.value(name)

    # -- tracer conveniences ----------------------------------------------
    def start_span(self, name: str, **attrs: Any):
        if name not in SPANS:
            raise KeyError(
                "span %r is not declared in repro.obs.catalog; add it "
                "there and to docs/OBSERVABILITY.md" % name)
        return self.tracer.start(name, **attrs)

    def end_span(self, span, **attrs: Any) -> None:
        self.tracer.end(span, **attrs)

    def span(self, name: str, **attrs: Any):
        if name not in SPANS:
            raise KeyError(
                "span %r is not declared in repro.obs.catalog; add it "
                "there and to docs/OBSERVABILITY.md" % name)
        return self.tracer.span(name, **attrs)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self, include_volatile: bool = False) -> dict:
        snap = self.registry.snapshot(include_volatile)
        if self.labels:
            snap["_labels"] = {key: self.labels[key]
                               for key in sorted(self.labels)}
        return snap

    def to_json(self, include_volatile: bool = False) -> str:
        if not self.labels:
            return self.registry.to_json(include_volatile)
        return json.dumps(self.snapshot(include_volatile),
                          sort_keys=True, indent=1,
                          separators=(",", ": "))


_default: Optional[Observability] = None


def get_default() -> Observability:
    """The process-wide scope, for code with no service in hand."""
    global _default
    if _default is None:
        _default = Observability()
    return _default


def reset_default() -> None:
    """Drop the process-wide scope (tests use this for isolation)."""
    global _default
    _default = None


__all__ = [
    "CATALOG",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "Observability",
    "SPANS",
    "Span",
    "SpanSpec",
    "Tracer",
    "get_default",
    "reset_default",
]
