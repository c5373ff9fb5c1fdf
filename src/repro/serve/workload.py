"""Simulated dashboard workload: a fan-out of percentile panels.

Models what MopEye's crowdsourcing dashboard does all day: viewers
open per-app and per-ISP percentile panels, and interest is heavily
skewed -- a handful of popular apps (WhatsApp, the browser) soak up
most of the queries.  Popularity is a Zipf distribution over the
app/operator catalog ranked by measurement volume, sampled by
inverse-CDF from ``random.Random(seed)`` so the same seed issues the
same query sequence whatever the host or ``PYTHONHASHSEED``.

``run()`` returns a deterministic report -- panel counts, a digest of
every panel's canonical JSON, blocks read/pruned, cache hit rate --
so two runs can be byte-diffed (``tests/test_cli.py`` pins the
``query dashboard`` output's sha256).  Wall-clock latency percentiles
are volatile by nature and only included when asked
(``include_latency=True``; the benchmark does, the pin does not).

``verify_against_scan()`` recomputes a sample of panels by full scan
and asserts byte-identical results with strictly fewer blocks read on
the pruned side (``tests/test_serve_engine.py`` runs it).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.obs import Observability
from repro.serve.engine import QueryError, ReadView

#: Zipf exponent: rank-r popularity proportional to 1 / r**s.
DEFAULT_ZIPF_S = 1.2
#: Share of panels that are per-app (the rest are per-ISP).
DEFAULT_APP_SHARE = 0.7


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


class DashboardWorkload:
    """A deterministic stream of panel queries against one view."""

    def __init__(self, view: ReadView, seed: int = 0,
                 panels: int = 64, zipf_s: float = DEFAULT_ZIPF_S,
                 app_share: float = DEFAULT_APP_SHARE,
                 obs: Optional[Observability] = None) -> None:
        self.view = view
        self.seed = int(seed)
        self.panels = max(0, int(panels))
        self.zipf_s = float(zipf_s)
        self.app_share = float(app_share)
        self.obs = obs if obs is not None else view.obs
        self.latencies_ms: List[float] = []
        self._apps, self._operators = self._catalog()

    def _catalog(self) -> Tuple[List[str], List[str]]:
        """Subjects ranked by measurement volume (rank 1 = most
        measured = most queried).  One full scan of the two tables --
        the dashboard's directory load -- which also warms the block
        cache."""
        app_volume: Dict[str, int] = {}
        for key, hist in self.view._scan_table("app").items():
            _window, app, _kind = key
            app_volume[app] = app_volume.get(app, 0) + hist.count
        operator_volume: Dict[str, int] = {}
        for key, hist in self.view._scan_table("network").items():
            _window, operator, _tech, _kind = key
            operator_volume[operator] = \
                operator_volume.get(operator, 0) + hist.count
        rank = lambda volume: sorted(  # noqa: E731
            volume, key=lambda name: (-volume[name], name))
        return rank(app_volume), rank(operator_volume)

    def _pick(self, names: List[str], cdf: List[float],
              rng: random.Random) -> str:
        return names[bisect_left(cdf, rng.random())]

    def run(self, include_latency: bool = False) -> Dict[str, object]:
        """Issue the panel stream; returns the deterministic report
        (plus volatile latency percentiles when asked)."""
        rng = random.Random(self.seed)
        app_cdf = _zipf_cdf(len(self._apps), self.zipf_s)
        operator_cdf = _zipf_cdf(len(self._operators), self.zipf_s)
        sha = hashlib.sha256()
        self.latencies_ms = []
        app_panels = 0
        network_panels = 0
        start = self.view.stats.copy()
        for _ in range(self.panels):
            use_app = bool(self._apps) and (
                not self._operators
                or rng.random() < self.app_share)
            began = time.perf_counter()
            if use_app:
                result = self.view.app_panel(
                    self._pick(self._apps, app_cdf, rng))
                app_panels += 1
            else:
                result = self.view.network_panel(
                    self._pick(self._operators, operator_cdf, rng))
                network_panels += 1
            elapsed_ms = (time.perf_counter() - began) * 1000.0
            self.latencies_ms.append(elapsed_ms)
            if self.obs is not None:
                self.obs.observe("serve.query_latency_ms", elapsed_ms)
            sha.update(_canonical(result).encode())
        delta = self.view.stats.delta_since(start)
        looked_up = delta.cache_hits + delta.cache_misses
        report: Dict[str, object] = {
            "panels": self.panels,
            "app_panels": app_panels,
            "network_panels": network_panels,
            "seed": self.seed,
            "apps_ranked": len(self._apps),
            "operators_ranked": len(self._operators),
            "results_digest": sha.hexdigest(),
            "blocks": {"read": delta.blocks_read,
                       "pruned": delta.blocks_pruned},
            "cache": {
                "hits": delta.cache_hits,
                "misses": delta.cache_misses,
                "hit_rate": (round(delta.cache_hits / looked_up, 4)
                             if looked_up else None),
            },
        }
        if include_latency:
            ordered = sorted(self.latencies_ms)
            report["latency_ms"] = {
                "p50": round(_percentile(ordered, 0.5), 3),
                "p99": round(_percentile(ordered, 0.99), 3),
                "max": round(ordered[-1], 3) if ordered else 0.0,
            }
        return report

    def verify_against_scan(self, sample: int = 8
                            ) -> Dict[str, object]:
        """Recompute up to ``sample`` app and operator panels by full
        scan and compare: pruned and scanned answers must serialise
        byte-identically, and the pruned side must read strictly
        fewer blocks.  Raises :class:`QueryError` on any mismatch."""
        checked = 0
        pruned_blocks = 0
        scan_blocks = 0
        subjects = \
            [("app", app) for app in self._apps[:sample]] + \
            [("network", operator)
             for operator in self._operators[:sample]]
        for panel_kind, subject in subjects:
            before = self.view.stats.copy()
            if panel_kind == "app":
                pruned = self.view.app_panel(subject)
            else:
                pruned = self.view.network_panel(subject)
            mid = self.view.stats.copy()
            if panel_kind == "app":
                scanned = self.view.app_panel(subject, scan=True)
            else:
                scanned = self.view.network_panel(subject, scan=True)
            after = self.view.stats.copy()
            if _canonical(pruned) != _canonical(scanned):
                raise QueryError(
                    "pruned %s panel for %r diverged from its full "
                    "scan" % (panel_kind, subject))
            pruned_blocks += mid.delta_since(before).blocks_read
            scan_blocks += after.delta_since(mid).blocks_read
            checked += 1
        return {"panels_checked": checked,
                "pruned_blocks_read": pruned_blocks,
                "scan_blocks_read": scan_blocks}


__all__ = ["DEFAULT_APP_SHARE", "DEFAULT_ZIPF_S", "DashboardWorkload"]
