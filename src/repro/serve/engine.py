"""Snapshot-isolated query engine over a :class:`StoreEngine`.

The dashboard problem: MopEye's backend serves per-app / per-ISP
percentile comparisons to many concurrent viewers while ingestion
keeps flushing, compacting and retiring segments underneath them.  A
query that reads "whatever the engine has right now" can tear -- half
its rows from a pre-compaction segment, half from the merged
replacement.  This module gives every query a **pinned view** instead:

* :meth:`QueryEngine.snapshot` opens one
  :class:`~repro.store.segments.SegmentReader` per live segment and
  clones the memtable.  The readers hold open file descriptors, so
  even after compaction or retention *unlinks* a segment file the
  pinned bytes keep serving (POSIX semantics).  The clone shares the
  memtable's histograms copy-on-write
  (:meth:`~repro.backend.rollups.RollupStore.clone`): ingest copies a
  row the view can see before its first write to it, and a flush
  empties the live table dicts, not the view's.  So a snapshot costs
  the open descriptors plus eight dict copies, whatever the memtable
  holds, and the view reads rows without ever writing one.  A
  :class:`ReadView` therefore answers every query from exactly the
  state that existed at snapshot time -- ingest, flush, compaction
  and retention racing the reader cannot tear a result.
* Queries go through the segment zone maps
  (``footer.blocks[].min/max``).  Segments store a subject's rows
  together, so a panel asks each for **one range per table** and
  opens the one or two blocks that hold its subject -- byte-identical
  to a scan (``scan=True`` on every panel recomputes the answer the
  slow way for exactly that assertion).
* All readers of one engine share a byte-budgeted
  :class:`~repro.store.blockcache.BlockCache`, so a fan-out of panels
  over the same hot windows decodes each block once.

Anything wrong with the underlying files -- a segment quarantined
mid-read, a block failing its CRC -- surfaces as :class:`QueryError`
with the file named, never a crash or a silently partial answer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.backend import query as backend_query
from repro.backend.rollups import (
    BIN_WIDTH_MS,
    SPEC_BY_TABLE,
    TABLE_SPECS,
    Key,
    MergeHist,
    RollupStore,
    log_bin_value,
)
from repro.core.records import MeasurementKind
from repro.obs import Observability
from repro.store.blockcache import DEFAULT_CACHE_BYTES, BlockCache
from repro.store.segments import (
    ReadStats,
    SegmentCorruption,
    merged_rollups,
    prefix_range,
    stored_order,
    stored_text,
)

#: The CLI query surface, in display order.  ``tests/test_query_docs``
#: enforces that docs/QUERY.md documents exactly these views, both
#: directions.
VIEWS: Dict[str, str] = {
    "summary": "record counts, per-table group sizes, windows, digest "
               "and meta for the whole state",
    "apps": "per-app RTT table merged across windows, by volume",
    "networks": "per-(operator, technology) app-vs-DNS median table",
    "windows": "per-window volume and app-RTT median time series",
    "cases": "detector findings persisted with the state",
    "table": "raw rows of one rollup table (pick with --name)",
    "panel": "pruned per-app (--app) or per-ISP (--operator) "
             "percentile panel; app panels add throughput, energy "
             "and AoI sections when modality rollups are present",
    "dashboard": "simulated dashboard fan-out of Zipf-popular panels "
                 "(--panels, --seed, --latency)",
}
VIEW_ORDER: Tuple[str, ...] = tuple(VIEWS)


class QueryError(Exception):
    """A query could not be answered cleanly (unreadable or corrupt
    segment, quarantined file).  The message names the file."""


_QUANTILES = (0.5, 0.9, 0.99)
#: Their field names, per unit a table is in.
_FIELDS = {unit: ("median_" + unit, "p90_" + unit, "p99_" + unit)
           for unit in {spec.unit for spec in TABLE_SPECS}}


def _summary(hist: MergeHist, table: str, p99: bool = True
             ) -> Dict[str, float]:
    """Median, p90 and (unless ``p99`` is off) p99 of one histogram
    of ``table`` -- a stored row or a fold of several -- decoded by
    the table's grid and labelled by its unit (``median_ms``,
    ``p90_kb_s``, ...), from one pass over the bins.  Written out
    value by value: a panel calls this once per window."""
    spec = SPEC_BY_TABLE[table]
    median_field, p90_field, p99_field = _FIELDS[spec.unit]
    median, p90, top = hist.quantile_indices(_QUANTILES)
    if spec.grid == "log":
        out = {median_field: round(log_bin_value(median), 3),
               p90_field: round(log_bin_value(p90), 3),
               p99_field: round(log_bin_value(top), 3)}
    else:
        out = {median_field: round(median * BIN_WIDTH_MS, 2),
               p90_field: round(p90 * BIN_WIDTH_MS, 2),
               p99_field: round(top * BIN_WIDTH_MS, 2)}
    if not p99:
        del out[p99_field]
    return out


def _counted(hist: MergeHist, table: str, p99: bool = True
             ) -> Optional[Dict[str, object]]:
    """``count`` and :func:`_summary`, or None of an empty fold."""
    if hist.count == 0:
        return None
    return dict([("count", hist.count)], **_summary(hist, table, p99))


def _fold(out: Dict[Key, MergeHist], key: Key, hist: MergeHist) -> None:
    """Merge one stored row into ``out[key]``.  The first row under a
    key is copied, never aliased: stored rows belong to the block
    cache or the memtable, and a view only ever writes its own."""
    merged = out.get(key)
    if merged is None:
        out[key] = hist.copy()
    else:
        merged.merge(hist)


class ReadView:
    """One pinned, immutable snapshot of the rollup state.

    Scan views (:meth:`summary`, :meth:`apps`, :meth:`networks`,
    :meth:`window_series`, :meth:`cases`, :meth:`table_rows`) answer
    from a lazily materialised merge of every pinned segment plus the
    memtable clone -- byte-compatible with the pre-serving-tier CLI.
    Pruned views (:meth:`app_panel`, :meth:`network_panel`) answer
    from one zone-mapped subject range per table and segment instead
    (:meth:`scan_subject`), opening only the blocks that can match;
    pass ``scan=True`` to recompute the same panel by full scan (the
    byte-identity check the tests and perf guard run).

    Views must be closed (or used as context managers): close()
    releases the pinned file descriptors.
    """

    def __init__(self, readers: List, memtable: RollupStore,
                 meta: Optional[Dict[str, object]] = None,
                 findings: Optional[List[dict]] = None,
                 stats: Optional[ReadStats] = None,
                 obs: Optional[Observability] = None,
                 inject_findings: bool = False) -> None:
        self.readers = list(readers)
        self.memtable = memtable
        self.meta: Dict[str, object] = dict(meta or {})
        self.findings: List[dict] = list(findings or [])
        self.stats = stats if stats is not None else ReadStats()
        self.obs = obs
        self._inject_findings = inject_findings
        self._materialized: Optional[RollupStore] = None
        self._scanned: Dict[str, Dict[Key, MergeHist]] = {}
        self._windows: Optional[List[int]] = None
        self._fleet_aoi: Optional[MergeHist] = None
        self._closed = False

    @classmethod
    def from_rollups(cls, rollups: RollupStore) -> "ReadView":
        """A view over an in-memory / JSON-state store (no segments,
        nothing to pin -- the store is already immutable to us)."""
        return cls(readers=[], memtable=rollups, meta=rollups.meta)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for reader in self.readers:
            reader.close()

    def __enter__(self) -> "ReadView":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- bookkeeping ---------------------------------------------------

    def _count_query(self) -> None:
        if self.obs is not None:
            self.obs.inc("serve.queries")

    # -- the merged whole (scan views) ---------------------------------

    def materialize(self) -> RollupStore:
        """Segments (seq order) + memtable merged into one store;
        cached -- the view is immutable, so once is enough."""
        if self._materialized is None:
            try:
                merged = merged_rollups(self.readers,
                                        self.memtable.config,
                                        meta=self.meta)
            except SegmentCorruption as exc:
                raise QueryError(str(exc))
            merged.merge(self.memtable)
            if self._inject_findings and \
                    "findings" not in merged.meta:
                merged.meta["findings"] = list(self.findings)
            self._materialized = merged
        return self._materialized

    def summary(self) -> Dict[str, object]:
        self._count_query()
        return backend_query.summary(self.materialize())

    def apps(self, top: Optional[int] = 20) -> List[Dict[str, object]]:
        self._count_query()
        return backend_query.apps(self.materialize(), top=top)

    def networks(self, top: Optional[int] = 20
                 ) -> List[Dict[str, object]]:
        self._count_query()
        return backend_query.networks(self.materialize(), top=top)

    def window_series(self) -> List[Dict[str, object]]:
        self._count_query()
        return backend_query.windows(self.materialize())

    def cases(self) -> List[Dict[str, object]]:
        self._count_query()
        return backend_query.cases(self.materialize())

    def table_rows(self, name: str, top: Optional[int] = None
                   ) -> List[Dict[str, object]]:
        """Raw rows of one rollup table, highest volume first."""
        if name not in SPEC_BY_TABLE:
            raise QueryError("unknown table %r; tables are %s"
                             % (name, ", ".join(RollupStore.TABLES)))
        self._count_query()
        rows = [dict([("key", list(key)), ("count", hist.count)],
                     **_summary(hist, name))
                for key, hist in self._scan_table(name).items()]
        rows.sort(key=lambda row: (-row["count"], row["key"]))
        return rows[:top] if top is not None else rows

    # -- pruned primitives ---------------------------------------------

    def windows(self) -> List[int]:
        """Every rollup window in the view, from the memtable's keys
        and the segments' footers (zero block reads), worked out once.
        Panels do not ask: a subject's rows name their own windows."""
        if self._windows is None:
            seen = set(self.memtable.windows())
            for reader in self.readers:
                seen.update(reader.windows())
            self._windows = sorted(seen)
        return list(self._windows)

    def get(self, table: str, key: Key) -> Optional[MergeHist]:
        """Point read merged across every pinned segment plus the
        memtable; zone maps mean at most one block per segment."""
        key = tuple(key)
        try:
            hists = [reader.get(table, key) for reader in self.readers]
        except SegmentCorruption as exc:
            raise QueryError(str(exc))
        hists.append(self.memtable.tables[table].get(key))
        out: Dict[Key, MergeHist] = {}
        for hist in hists:
            if hist is not None:
                _fold(out, key, hist)
        return out.get(key)

    def get_many(self, table: str, keys: List[Key]
                 ) -> Dict[Key, MergeHist]:
        """Batched point reads merged across segments + memtable.
        The key set is encoded and sorted **once**, here, and every
        segment is handed the same ``(stored text, key)`` pairs: it
        walks its zone maps once, opens every candidate block at most
        once for the whole set, and looks rows up by the text."""
        out: Dict[Key, MergeHist] = {}
        wanted = set(map(tuple, keys))
        pairs = sorted((stored_text(table, key), key) for key in wanted)
        try:
            for reader in self.readers:
                for key, hist in reader.get_many(table, pairs).items():
                    _fold(out, key, hist)
        except SegmentCorruption as exc:
            raise QueryError(str(exc))
        rows = self.memtable.tables[table]
        for key in wanted:
            hist = rows.get(key)
            if hist is not None:
                _fold(out, key, hist)
        return out

    def scan_prefix(self, table: str, prefix_parts: Tuple[str, ...]
                    ) -> Dict[Key, MergeHist]:
        """Prefix range merged across segments + memtable, opening
        only the blocks whose zone map intersects the prefix."""
        return self.scan_prefixes(table, [tuple(prefix_parts)])

    def scan_prefixes(self, table: str,
                      prefixes: List[Tuple[str, ...]]
                      ) -> Dict[Key, MergeHist]:
        """Rows whose key starts with any of the (equal-length)
        prefixes **and is strictly longer** -- a row keyed exactly by
        a prefix is not under it, flushed or not -- merged across
        segments + memtable in one batched pass per segment; each
        prefix's stored range is worked out once, here.  Prefixes are
        in key order; on a subject-major table, where a window's rows
        are not stored together, one must be empty or reach the
        subject (:meth:`scan_subject`: a subject in every window)."""
        wanted = {tuple(prefix) for prefix in prefixes}
        lengths = sorted({len(prefix) for prefix in wanted})
        if len(lengths) > 1:
            raise ValueError("scan_prefixes wants equal-length "
                             "prefixes, got lengths %s" % lengths)
        if not wanted:
            return {}
        n = lengths[0]
        if n == 1 and SPEC_BY_TABLE[table].subject_major:
            raise ValueError("table %r is stored subject-first: a "
                             "window alone is not a range of it"
                             % table)
        ranges = sorted(prefix_range(stored_order(table, prefix))
                        for prefix in wanted)
        return self._merge_ranges(
            table, ranges,
            ((key, hist) for key, hist
             in self.memtable.tables[table].items()
             if len(key) > n and key[:n] in wanted))

    def scan_subject(self, table: str, subject: str
                     ) -> Dict[Key, MergeHist]:
        """Every row of a subject-major table about ``subject`` (its
        second key part), whatever the window, merged across segments
        + memtable: **one contiguous range per segment**, so zone maps
        leave the one or two blocks that hold the subject."""
        if not SPEC_BY_TABLE[table].subject_major:
            raise ValueError("table %r is not stored subject-first"
                             % table)
        return self._merge_ranges(
            table, [prefix_range((subject,))],
            ((key, hist) for key, hist
             in self.memtable.tables[table].items()
             if len(key) > 1 and key[1] == subject))

    def _merge_ranges(self, table: str,
                      ranges: List[Tuple[str, Optional[str]]],
                      memtable_rows) -> Dict[Key, MergeHist]:
        """Every segment's rows in ``ranges``, then the memtable's."""
        out: Dict[Key, MergeHist] = {}
        try:
            for reader in self.readers:
                for key, hist in reader.scan_prefixes(table, ranges):
                    _fold(out, key, hist)
        except SegmentCorruption as exc:
            raise QueryError(str(exc))
        for key, hist in memtable_rows:
            _fold(out, key, hist)
        return out

    def _scan_table(self, name: str,
                    cached: bool = True) -> Dict[Key, MergeHist]:
        """The whole table merged across segments + memtable (reads
        every block).  Cached per view by default; ``cached=False``
        re-reads every block -- the honest cost a ``scan=True`` panel
        is charged, so the pruned-vs-scan blocks-read comparison
        compares real work."""
        if cached:
            scanned = self._scanned.get(name)
            if scanned is not None:
                return scanned
        scanned = {}
        try:
            for reader in self.readers:
                for key, hist in reader.iter_table(name):
                    _fold(scanned, key, hist)
        except SegmentCorruption as exc:
            raise QueryError(str(exc))
        for key, hist in self.memtable.tables[name].items():
            _fold(scanned, key, hist)
        self._scanned[name] = scanned
        return scanned

    def _fleet_aoi_hist(self, scan: bool = False) -> MergeHist:
        """Every AoI row of every window merged into one histogram:
        the device fleet's staleness.  It folds the whole table (the
        empty prefix) and is the same for every app, so the pruned
        path works it out once a view; ``scan=True`` every time."""
        if not scan and self._fleet_aoi is not None:
            return self._fleet_aoi
        rows = self._scan_table("aoi", cached=False) if scan \
            else self.scan_prefixes("aoi", [()])
        fleet = MergeHist()
        for hist in rows.values():
            fleet.merge(hist)
        if not scan:
            self._fleet_aoi = fleet
        return fleet

    def _subject_rows(self, table: str, subject: str, scan: bool
                      ) -> Dict[Key, MergeHist]:
        """The subject's range, or the same rows out of a full scan."""
        if not scan:
            return self.scan_subject(table, subject)
        return {key: hist for key, hist
                in self._scan_table(table, cached=False).items()
                if len(key) > 1 and key[1] == subject}

    # -- dashboard panels ----------------------------------------------

    def app_panel(self, app: str, scan: bool = False
                  ) -> Dict[str, object]:
        """Per-window RTT percentiles for one app (MopEye section 5's
        per-app comparison), plus the app's modality summaries --
        per-direction throughput, attributed energy, and the device
        fleet's age-of-information (docs/MODALITIES.md).  Pruned by
        default: the app's range of each of three tables, so each
        segment opens only the blocks that hold the app."""
        self._count_query()
        by_window = {
            int(key[0]): hist for key, hist
            in self._subject_rows("app", app, scan).items()
            if len(key) == 3 and key[2] == MeasurementKind.TCP
            and hist.count}
        rows: List[Dict[str, object]] = []
        overall = MergeHist()
        for window in sorted(by_window):
            hist = by_window[window]
            rows.append(dict([("window", window),
                              ("count", hist.count)],
                             **_summary(hist, "app")))
            overall.merge(hist)
        up = MergeHist()
        down = MergeHist()
        directions = {MeasurementKind.TPUT_UP: up,
                      MeasurementKind.TPUT_DOWN: down}
        for key, hist in self._subject_rows("app_throughput", app,
                                            scan).items():
            if len(key) == 3 and key[2] in directions:
                directions[key[2]].merge(hist)
        energy = MergeHist()
        for key, hist in self._subject_rows("app_energy", app,
                                            scan).items():
            if len(key) == 2:
                energy.merge(hist)
        return {
            "panel": "app",
            "app": app,
            "windows": rows,
            "overall": _counted(overall, "app"),
            "throughput": {
                "up": _counted(up, "app_throughput", p99=False),
                "down": _counted(down, "app_throughput", p99=False)},
            "energy": _counted(energy, "app_energy", p99=False),
            "aoi": _counted(self._fleet_aoi_hist(scan), "aoi",
                            p99=False),
        }

    def network_panel(self, operator: str, scan: bool = False
                      ) -> Dict[str, object]:
        """Per-window app-vs-DNS medians and a per-technology
        breakdown for one operator (the per-ISP comparison).  Pruned
        by default: the operator's range of the ``network`` table, so
        each segment opens only the blocks that hold the operator."""
        self._count_query()
        by_window: Dict[int, List[Tuple[Key, MergeHist]]] = {}
        for key, hist in self._subject_rows("network", operator,
                                            scan).items():
            if len(key) == 4:
                by_window.setdefault(int(key[0]), []).append((key, hist))
        rows: List[Dict[str, object]] = []
        by_tech: Dict[str, MergeHist] = {}
        overall = MergeHist()
        app_layer = MergeHist()
        for window in sorted(by_window):
            tcp = MergeHist()
            dns = MergeHist()
            for key, hist in by_window[window]:
                _window, _operator, tech, kind = key
                if kind == MeasurementKind.TCP:
                    tcp.merge(hist)
                    merged = by_tech.get(tech)
                    if merged is None:
                        merged = by_tech[tech] = MergeHist()
                    merged.merge(hist)
                    overall.merge(hist)
                elif kind == MeasurementKind.DNS:
                    dns.merge(hist)
                elif kind == MeasurementKind.APP_RTT:
                    app_layer.merge(hist)
            app_median, app_p99 = tcp.quantile_indices((0.5, 0.99))
            rows.append({
                "window": window,
                "count": tcp.count + dns.count,
                "app_median_ms": (round(app_median * BIN_WIDTH_MS, 2)
                                  if tcp.count else None),
                "app_p99_ms": (round(app_p99 * BIN_WIDTH_MS, 2)
                               if tcp.count else None),
                "dns_median_ms": (round(dns.median(), 2)
                                  if dns.count else None),
            })
        # The middlebox tell (docs/MIDDLEBOX.md): SYN RTT vs app-layer
        # RTT for this operator.  Null when the relay never emitted
        # APP_RTT records (every pre-middlebox state).
        app_rtt = None
        if app_layer.count and overall.count:
            syn_median = overall.median()
            app_median = app_layer.median()
            app_rtt = {
                "count": app_layer.count,
                "median_ms": round(app_median, 2),
                "syn_median_ms": round(syn_median, 2),
                "divergence_ratio": (round(app_median / syn_median, 3)
                                     if syn_median else None),
            }
        return {
            "panel": "network",
            "operator": operator,
            "windows": rows,
            "app_rtt": app_rtt,
            "technologies": [
                dict([("technology", tech),
                      ("count", by_tech[tech].count)],
                     **_summary(by_tech[tech], "network"))
                for tech in sorted(by_tech)],
            "overall": _counted(overall, "network"),
        }


class QueryEngine:
    """Query front-end over one :class:`StoreEngine`: a shared block
    cache plus snapshot factories."""

    def __init__(self, engine, cache_bytes: int = DEFAULT_CACHE_BYTES,
                 obs: Optional[Observability] = None) -> None:
        self.engine = engine
        self.obs = obs if obs is not None else engine.obs
        self.cache = BlockCache(cache_bytes, obs=self.obs)

    def snapshot(self) -> ReadView:
        """Pin the current state: open readers over the live segments
        and clone the memtable (shared rows, copied by whichever side
        writes one first).  Raises :class:`QueryError` if a listed
        segment cannot be opened."""
        stats = ReadStats()
        try:
            readers = self.engine.segment_readers(
                cache=self.cache, obs=self.obs, stats=stats)
        except SegmentCorruption as exc:
            raise QueryError(str(exc))
        if self.obs is not None:
            self.obs.inc("serve.snapshots")
        return ReadView(
            readers=readers,
            memtable=self.engine.memtable.clone(),
            meta=self.engine.meta,
            findings=self.engine.findings,
            stats=stats,
            obs=self.obs,
            inject_findings=True)


__all__ = ["QueryEngine", "QueryError", "ReadView", "VIEWS",
           "VIEW_ORDER"]
