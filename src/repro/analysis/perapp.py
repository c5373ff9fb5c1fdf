"""Per-app performance analyses: Figure 9 and Table 5.

Figures are computed exactly over a materialized
:class:`MeasurementStore`.  A record stream too large to hold -- the
full-scale campaign, generated or read off JSONL shards -- is folded
once by :func:`fold_rtts` into the rollups' own histogram, and its
headline medians read from that fold (:func:`folded_rtt_medians`,
:func:`repro.analysis.dnsperf.folded_dns_medians`): each within one
bin (``repro.backend.rollups.BIN_WIDTH_MS``) of exact."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.stats import cdf, median
from repro.core.records import (
    MeasurementKind,
    MeasurementRecord,
    MeasurementStore,
)
from repro.network.link import NetworkType

#: A :func:`fold_rtts` fold: ``{(kind, network_type): MergeHist}``.
RttFold = Dict[Tuple[str, Optional[str]], "MergeHist"]


def app_rtt_cdfs(store: MeasurementStore,
                 max_x: float = 400.0) -> Dict[str, Tuple[List[float],
                                                          List[float]]]:
    """Figure 9(a): CDFs of raw app RTTs for All / WiFi / Cellular."""
    tcp = store.tcp()
    return {
        "All": cdf(tcp.rtts(), max_x),
        "WiFi": cdf(tcp.for_network_type(NetworkType.WIFI).rtts(),
                    max_x),
        "Cellular": cdf(tcp.for_network_type(*NetworkType.CELLULAR)
                        .rtts(), max_x),
    }


def raw_rtt_medians(store: MeasurementStore) -> Dict[str, float]:
    """The section 4.2.2 headline medians (All 65 / WiFi 58 /
    Cellular 84 / LTE 76 in the paper)."""
    tcp = store.tcp()
    return {
        "All": median(tcp.rtts()),
        "WiFi": median(tcp.for_network_type(NetworkType.WIFI).rtts()),
        "Cellular": median(
            tcp.for_network_type(*NetworkType.CELLULAR).rtts()),
        "LTE": median(tcp.for_network_type(NetworkType.LTE).rtts()),
    }


def fold_rtts(records: Iterable[MeasurementRecord],
              hists: RttFold) -> Iterator[MeasurementRecord]:
    """Pass ``records`` through, folding each one's ``rtt_ms`` into
    ``hists[(kind, network_type)]`` on the way: one
    :class:`~repro.backend.rollups.MergeHist` per key, whatever the
    record count.  Failure records pass unfolded, as
    :meth:`RollupStore.add_all` skips them: their ``rtt_ms`` is a
    time-to-failure, not an RTT."""
    # The backend imports this package, so not at module level.
    from repro.backend.rollups import MergeHist

    for record in records:
        # One unpack, not four reads by name (as RollupStore.add_all).
        (kind, rtt_ms, _, _, _, _, _, _, network_type, _, _, _, failure,
         _) = record
        if failure is None:
            hist = hists.get((kind, network_type))
            if hist is None:
                hist = hists[kind, network_type] = MergeHist()
            hist.add(rtt_ms)
        yield record


def folded_medians(hists: RttFold, kind: str,
                   groups: Sequence[Tuple[str, Optional[Sequence[str]]]]
                   ) -> Dict[str, float]:
    """``{label: median}`` of ``kind``'s rows of a :func:`fold_rtts`
    fold, one per ``(label, network_types)`` group (``None``: every
    network type); a group with no sample is left out."""
    out: Dict[str, float] = {}
    for label, network_types in groups:
        merged = None
        for (row_kind, network_type), hist in hists.items():
            if row_kind != kind or (network_types is not None
                                    and network_type not in network_types):
                continue
            if merged is None:
                merged = hist.copy()
            else:
                merged.merge(hist)
        if merged is not None:
            out[label] = merged.median()
    return out


def folded_rtt_medians(hists: RttFold) -> Dict[str, float]:
    """:func:`raw_rtt_medians`, read from a :func:`fold_rtts` fold."""
    return folded_medians(hists, MeasurementKind.TCP, (
        ("All", None),
        ("WiFi", (NetworkType.WIFI,)),
        ("Cellular", NetworkType.CELLULAR),
        ("LTE", (NetworkType.LTE,))))


def per_app_median_cdf(store: MeasurementStore,
                       min_count: int = 1000, scale: float = 1.0,
                       max_x: float = 400.0
                       ) -> Tuple[List[float], List[float], int]:
    """Figure 9(b): CDF of per-app median RTTs over apps with more than
    ``min_count`` (full-scale) measurements.  Returns (xs, fractions,
    n_apps)."""
    tcp = store.tcp()
    counts = Counter(r.app_package for r in tcp
                     if r.app_package is not None)
    eligible = {app for app, count in counts.items()
                if count / scale > min_count}
    medians = []
    rtts_by_app: Dict[str, List[float]] = {}
    for record in tcp:
        if record.app_package in eligible:
            rtts_by_app.setdefault(record.app_package, []).append(
                record.rtt_ms)
    for app_rtts in rtts_by_app.values():
        medians.append(median(app_rtts))
    xs, fractions = cdf(medians, max_x)
    return xs, fractions, len(medians)


def representative_app_table(store: MeasurementStore,
                             packages_with_names: List[Tuple[str, str,
                                                             str]]
                             ) -> List[Dict[str, object]]:
    """Table 5: (category, name, #RTT, median RTT) for each
    representative app.  ``packages_with_names`` rows are (package,
    display name, category)."""
    tcp = store.tcp()
    rows = []
    for package, name, category in packages_with_names:
        app_store = tcp.for_app(package)
        rtts = app_store.rtts()
        rows.append({
            "category": category,
            "app": name,
            "package": package,
            "count": len(rtts),
            "median_ms": median(rtts) if rtts else None,
        })
    return rows


def representative_packages_table_spec() -> List[Tuple[str, str, str]]:
    """The 16 apps of Table 5 in paper order."""
    from repro.crowd.appcatalog import representative_apps
    return [(a.package, a.name, a.category)
            for a in representative_apps()]
