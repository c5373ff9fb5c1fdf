"""Windowed, mergeable rollups over measurement records.

The backend cannot keep 6.6M raw records in memory.  The unit of
aggregation here is :class:`MergeHist`, a sparse fixed-bin integer
histogram: adding a sample increments one bin, merging two histograms
adds bin counts.  Because the state is integers only and merging is
elementwise addition, a merge is associative *and* commutative -- the
rollup digest is byte-identical whether records were ingested by one
worker or sharded over eight, the same contract as
``repro.crowd.sharding``.  The offline analysis folds a record stream
into the same rows (:func:`repro.analysis.perapp.fold_rtts`, the
``crowd`` CLI's medians).

Bin width is 0.25 ms over [0, 8000) ms, so a median read from a
histogram lands in the exact median's bin: within one bin of it, as
long as the two middle samples an even count averages are no further
apart than that (``tests/test_analysis_streaming.py`` checks every
median ``crowd`` prints).

What a :class:`RollupStore` keys its histograms by -- each table's
name, key parts, feeding record kinds, bin grid, unit and stored
order -- is written once, in :data:`TABLE_SPECS`; everything that
reads a table by its shape (segments, retention, the serving tier,
``store inspect``, the docs tables) reads it from there.

A store's canonical form is :meth:`RollupStore.snapshot`, serialised
with sorted keys and fixed separators; the digest is the SHA-256 of
those bytes.  It is hashed, never read back: a store reaches disk
through the store engine (segments, checkpoints) and crosses ``fork``
as block payloads (:data:`repro.backend.ingest.ShardPart`).

Rows are **shared copy-on-write** between a store and its clones.
Every store has an *epoch* and every :class:`MergeHist` carries the
epoch of the store that created it; :meth:`RollupStore.clone` copies
the table dicts (pointers, not histograms) and moves both stores to
fresh epochs, so every row they share is now foreign to both.  The one
rule that keeps this safe: a row reachable from a ``RollupStore`` is
mutated only through :meth:`RollupStore._hist` (``add`` and ``merge``
both are), which replaces a foreign row with a private copy before
handing it out.  Readers may hold rows as long as they like.  Epochs
live in memory only -- nothing serialised carries one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis import rules
from repro.core.records import MeasurementKind, MeasurementRecord
from repro.network.link import NetworkType

#: Histogram resolution: 0.25 ms bins over [0, 8000) ms, one overflow
#: bin above: the one bound a median read off it states.
BIN_WIDTH_MS = 0.25
MAX_RTT_MS = 8000.0
N_BINS = int(MAX_RTT_MS / BIN_WIDTH_MS)

#: Default rollup window: 4 sim-weeks (the campaign spans 232 days, so
#: a full-scale run produces ~9 windows -- Figure 10's weekly series
#: re-binned coarsely enough to keep cardinality bounded).
DEFAULT_WINDOW_MS = 28 * 24 * 3600 * 1000.0

_SEP = "|"

#: Process-wide source of store epochs.  Epoch 0 is never drawn: it
#: marks rows and stores that have not been through a ``clone()``.
_EPOCHS = itertools.count(1)

#: Version stamped into the canonical snapshot -- the ``schema`` key,
#: escaped key text, every table of :data:`TABLE_SPECS` -- and so into
#: every digest; bumping it moves them all.
SNAPSHOT_SCHEMA = 3


class UnsupportedSchema(ValueError):
    """A sound persisted form -- manifest, WAL, checkpoint, segment --
    of a generation this build does not read (a newer build's, or an
    older one's).  Not corruption: nothing is moved, truncated or
    quarantined, and recovery stops on it.  ``args`` is ``(what,
    found, supported)``."""

    def __str__(self) -> str:
        return ("%s is schema %r and this build reads only schema %r; "
                "it is intact and was left as found" % self.args)


#: Log-spaced bin grid for the modality tables.  Throughput (KB/s),
#: energy (mJ) and AoI (ms) all span several decades, so a linear
#: 0.25-unit grid would waste resolution at the bottom and overflow at
#: the top.  Values map onto the *same* [0, N_BINS) integer index
#: space as the RTT grid -- bin = round(BINS_PER_DECADE * log10(v/V0))
#: -- so the block codec (segments, checkpoints, forked ingest) works
#: on modality histograms unchanged.
LOG_BINS_PER_DECADE = 2000
LOG_BIN_FLOOR = 1e-3


def log_bin(value: float) -> int:
    """Log-spaced bin index for a modality sample; clipped to the
    shared [0, N_BINS) index space."""
    if value <= LOG_BIN_FLOOR:
        return 0
    index = int(round(LOG_BINS_PER_DECADE
                      * math.log10(value / LOG_BIN_FLOOR)))
    if index < 0:
        return 0
    if index >= N_BINS:
        return N_BINS - 1
    return index


def log_bin_value(index: float) -> float:
    """Representative value for a (possibly fractional) log bin index
    -- the inverse of :func:`log_bin`, used by quantile readout."""
    return LOG_BIN_FLOOR * 10.0 ** (index / LOG_BINS_PER_DECADE)


class MergeHist:
    """Sparse fixed-bin integer histogram with exact merge semantics.

    State is ``{bin_index: count}`` plus an overflow count; values are
    clipped into ``[0, MAX_RTT_MS)``.  All state is integral, so merge
    order can never change the digest.

    Readouts: :meth:`quantile_indices` is the one quantile loop --
    any number of (ascending) quantiles from one sorted pass over the
    bins; :meth:`quantile_index`, :meth:`quantile` and :meth:`median`
    are that loop asked for one.  Folding stored rows into an answer
    starts from :meth:`copy` of the first and :meth:`merge` of the
    rest; a merge into a histogram with no bins yet is a dict update.

    ``epoch`` names the :class:`RollupStore` allowed to write this
    histogram in place (see the module docstring); it is bookkeeping,
    not state -- never serialised, never compared by a digest.
    """

    __slots__ = ("bins", "count", "overflow", "epoch")

    def __init__(self) -> None:
        self.bins: Dict[int, int] = {}
        self.count = 0
        self.overflow = 0
        self.epoch = 0

    def add(self, value_ms: float) -> None:
        if value_ms >= MAX_RTT_MS:
            self.overflow += 1
            index = N_BINS - 1
        else:
            index = int(value_ms / BIN_WIDTH_MS)
            if index < 0:
                index = 0
        self.bins[index] = self.bins.get(index, 0) + 1
        self.count += 1

    def add_bin(self, index: int) -> None:
        """Increment a precomputed bin index directly -- how the
        modality tables drive their log-spaced grid (the caller maps
        value -> index via :func:`log_bin`).  State and serialisation
        are identical to linear-grid histograms."""
        if index >= N_BINS:
            self.overflow += 1
            index = N_BINS - 1
        elif index < 0:
            index = 0
        self.bins[index] = self.bins.get(index, 0) + 1
        self.count += 1

    def quantile_indices(self, qs: Sequence[float]) -> List[float]:
        """The quantiles ``qs`` (**ascending**) as fractional bin
        *indices*, linearly interpolated inside each landing bin,
        from one sorted pass over the bins -- the one quantile loop
        every readout below goes through.  No grid is assumed: the
        linear RTT grid scales an index by ``BIN_WIDTH_MS``, log-grid
        callers decode it via :func:`log_bin_value`."""
        if self.count == 0 or not qs:
            return [0.0] * len(qs)
        targets = [q * self.count for q in qs]
        target = targets[0]
        out: List[float] = []
        bins = self.bins
        seen = 0
        for index in sorted(bins):
            n = bins[index]
            reached = seen + n
            while reached >= target:
                out.append(index + ((target - seen) / n if n else 0.0))
                if len(out) == len(targets):
                    return out
                target = targets[len(out)]
            seen = reached
        out.extend([float(N_BINS)] * (len(targets) - len(out)))
        return out

    def quantile_index(self, q: float) -> float:
        """Quantile as a fractional bin *index*."""
        return self.quantile_indices((q,))[0]

    def quantile(self, q: float) -> float:
        """Quantile in ms on the linear grid."""
        return self.quantile_indices((q,))[0] * BIN_WIDTH_MS

    def median(self) -> float:
        return self.quantile(0.5)

    def merge(self, other: "MergeHist") -> None:
        bins = self.bins
        if bins:
            for index, n in other.bins.items():
                bins[index] = bins.get(index, 0) + n
        else:                  # the first fold into a fresh histogram
            bins.update(other.bins)
        self.count += other.count
        self.overflow += other.overflow

    def copy(self) -> "MergeHist":
        dup = MergeHist.__new__(MergeHist)
        dup.bins = dict(self.bins)
        dup.count = self.count
        dup.overflow = self.overflow
        dup.epoch = 0
        return dup

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "overflow": self.overflow,
            # JSON objects need string keys; sorted for canonical form.
            "bins": {str(k): self.bins[k] for k in sorted(self.bins)},
        }


class RollupConfig:
    """Shape of the aggregation: window size and watched suffixes."""

    def __init__(self, window_ms: float = DEFAULT_WINDOW_MS,
                 watch_suffixes: Tuple[str, ...] = (
                     rules.WHATSAPP_SUFFIX,)) -> None:
        self.window_ms = float(window_ms)
        self.watch_suffixes = tuple(watch_suffixes)

    def window_of(self, timestamp_ms: float) -> int:
        return int(timestamp_ms // self.window_ms)

    def to_dict(self) -> Dict[str, object]:
        return {"window_ms": self.window_ms,
                "watch_suffixes": list(self.watch_suffixes)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RollupConfig":
        return cls(window_ms=data["window_ms"],  # type: ignore
                   watch_suffixes=tuple(data["watch_suffixes"]))


Key = Tuple[str, ...]


def _escape_part(part: str) -> str:
    return part.replace("\\", "\\\\").replace(_SEP, "\\" + _SEP)


def _encode_key(key: Key) -> str:
    """Join key parts with ``|``, escaping literal separators.

    Keys without ``|`` or ``\\`` (every key today: domains, operator
    names, window numbers) encode exactly as before, so existing
    digests are unchanged -- but a domain containing a pipe can no
    longer silently split into extra key parts on reload (the
    round-trip bug this replaces).

    The plain join *is* the encoding whenever no part needs an
    escape, and it shows that itself: no backslash, and exactly the
    separators the join put there."""
    text = _SEP.join(key)
    if "\\" not in text and text.count(_SEP) == len(key) - 1:
        return text
    return _SEP.join(_escape_part(part) for part in key)


def _decode_key(text: str) -> Key:
    if "\\" not in text:       # nothing escaped: every | separates
        return tuple(text.split(_SEP))
    parts: List[str] = []
    current: List[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            current.append(text[index + 1])
            index += 2
            continue
        if char == _SEP:
            parts.append("".join(current))
            current = []
            index += 1
            continue
        current.append(char)
        index += 1
    parts.append("".join(current))
    return tuple(parts)


class TableSpec(NamedTuple):
    """One rollup table, said once."""
    name: str
    #: The key's parts by name, in the order ``RollupStore`` and every
    #: digest key them.
    key: Tuple[str, ...]
    #: The record kinds :meth:`RollupStore.add` routes here.
    kinds: Tuple[str, ...]
    #: ``linear`` (``BIN_WIDTH_MS`` bins) or ``log`` (:func:`log_bin`).
    grid: str
    #: What a bin's value measures: ``ms``, ``kb_s`` or ``mj``.
    unit: str
    #: Read one subject (app, operator) at a time, so segments -- and
    #: only segments -- store it subject-first, the first two key
    #: parts swapped (:func:`repro.store.segments.stored_order`).
    subject_major: bool

    @property
    def windowed(self) -> bool:
        """Keyed window-first: retention evicts its old rows."""
        return self.key[0] == "window"


TABLE_SPECS: Tuple[TableSpec, ...] = (
    TableSpec("network", ("window", "operator", "network_type", "kind"),
              (MeasurementKind.TCP, MeasurementKind.DNS,
               MeasurementKind.APP_RTT), "linear", "ms", True),
    TableSpec("app", ("window", "app_package", "kind"),
              (MeasurementKind.TCP, MeasurementKind.APP_RTT),
              "linear", "ms", True),
    TableSpec("watch_domain", ("suffix", "domain_class", "domain"),
              (MeasurementKind.TCP,), "linear", "ms", False),
    TableSpec("watch_network",
              ("suffix", "domain_class", "operator", "network_type"),
              (MeasurementKind.TCP,), "linear", "ms", False),
    TableSpec("lte_domain", ("domain", "operator"),
              (MeasurementKind.TCP,), "linear", "ms", False),
    TableSpec("app_throughput", ("window", "app_package", "kind"),
              (MeasurementKind.TPUT_UP, MeasurementKind.TPUT_DOWN),
              "log", "kb_s", True),
    TableSpec("app_energy", ("window", "app_package"),
              (MeasurementKind.ENERGY,), "log", "mj", True),
    TableSpec("aoi", ("window", "device_id", "network_type"),
              (MeasurementKind.AOI,), "log", "ms", False),
)

#: :data:`TABLE_SPECS` by table name.
SPEC_BY_TABLE: Dict[str, TableSpec] = {spec.name: spec
                                       for spec in TABLE_SPECS}


def _check_specs() -> None:
    """What readers of :data:`TABLE_SPECS` take for granted: known
    kinds only, every kind routed, one grid per kind, and a window
    ahead of every subject that is stored first."""
    grids: Dict[str, str] = {}
    for spec in TABLE_SPECS:
        if spec.subject_major and not spec.windowed:
            raise ValueError("table %r: subject-major without a window "
                             "to swap the subject with" % spec.name)
        for kind in spec.kinds:
            if kind not in MeasurementKind.ALL:
                raise ValueError("table %r is fed by unknown kind %r"
                                 % (spec.name, kind))
            if grids.setdefault(kind, spec.grid) != spec.grid:
                raise ValueError("kind %r lands on two grids" % kind)
    unrouted = set(MeasurementKind.ALL) - set(grids)
    if unrouted:
        raise ValueError("kinds that feed no table: %s"
                         % sorted(unrouted))


_check_specs()


class RollupStore:
    """Live aggregates the backend serves queries from.

    Tables are ``{tuple-key: MergeHist}``; :meth:`add` routes one
    record into every table it belongs to, :meth:`merge` combines the
    stores built by parallel ingest workers.
    """

    TABLES = tuple(spec.name for spec in TABLE_SPECS)

    def __init__(self, config: Optional[RollupConfig] = None,
                 meta: Optional[Dict[str, object]] = None) -> None:
        self.config = config or RollupConfig()
        self.meta: Dict[str, object] = dict(meta or {})
        self.records = 0
        #: Failure-tagged records seen (not rolled up: their rtt_ms is
        #: a time-to-failure, not an RTT).  Live-only; not snapshotted.
        self.failure_records = 0
        self.tables: Dict[str, Dict[Key, MergeHist]] = {
            name: {} for name in self.TABLES}
        #: Rows whose ``epoch`` equals this are this store's to write
        #: in place; any other row is copied first (:meth:`_hist`).
        self._epoch = 0

    # -- ingestion ---------------------------------------------------

    def _hist(self, table: str, key: Key) -> MergeHist:
        """The row at ``key``, safe to mutate: created if absent, and
        replaced by a private copy if another store can still see it.
        Every in-place row write goes through here."""
        hists = self.tables[table]
        hist = hists.get(key)
        if hist is not None and hist.epoch == self._epoch:
            return hist
        hist = hists[key] = MergeHist() if hist is None else hist.copy()
        hist.epoch = self._epoch
        return hist

    def share_rows(self) -> None:
        """Move to a fresh epoch: every row this store holds now is
        treated as shared, so the first write to each copies it."""
        self._epoch = next(_EPOCHS)

    def add(self, record: MeasurementRecord) -> None:
        # One unpack, not eight reads by name: each of those is a
        # descriptor call on a tuple type.
        (kind, rtt, timestamp_ms, app_package, _, _, _, domain, tech,
         operator, _, device_id, failure, _) = record
        if failure is not None:
            self.failure_records += 1
            return
        self.records += 1
        window = str(self.config.window_of(timestamp_ms))
        operator = operator or "unknown"
        tech = tech or "unknown"

        if kind == MeasurementKind.TCP:
            self._hist("network", (window, operator, tech, kind)).add(rtt)
            self._hist("app", (window, app_package or "unknown",
                               kind)).add(rtt)
            for suffix in self.config.watch_suffixes:
                if rules.domain_matches_suffix(domain, suffix):
                    cls = rules.whatsapp_domain_class(domain)
                    self._hist("watch_domain",
                               (suffix, cls, domain)).add(rtt)
                    self._hist("watch_network",
                               (suffix, cls, operator, tech)).add(rtt)
            if domain is not None and tech == NetworkType.LTE:
                self._hist("lte_domain", (domain, operator)).add(rtt)
        elif kind == MeasurementKind.DNS:
            self._hist("network", (window, operator, tech, kind)).add(rtt)
        elif kind == MeasurementKind.APP_RTT:
            # App-layer RTT samples land next to the SYN RTTs on the
            # same linear grid, keyed by kind -- the divergence rule
            # compares the TCP and APP_RTT rows per operator.  The
            # first response byte can beat the lazy app mapping, so
            # the package may still be unknown here (the SYN RTT is
            # only recorded *after* mapping, hence never is).
            self._hist("network", (window, operator, tech, kind)).add(rtt)
            self._hist("app", (window, app_package or "unknown",
                               kind)).add(rtt)
        elif kind == MeasurementKind.TPUT_UP or \
                kind == MeasurementKind.TPUT_DOWN:
            # rtt_ms carries the throughput sample in KB/s; log grid.
            self._hist("app_throughput",
                       (window, app_package or "unknown",
                        kind)).add_bin(log_bin(rtt))
        elif kind == MeasurementKind.ENERGY:
            # rtt_ms carries the flow's attributed energy in mJ.
            self._hist("app_energy",
                       (window, app_package or "unknown")
                       ).add_bin(log_bin(rtt))
        elif kind == MeasurementKind.AOI:
            # rtt_ms carries the record-to-ACK staleness in ms.
            self._hist("aoi",
                       (window, device_id or "unknown",
                        tech)).add_bin(log_bin(rtt))

    def clear(self) -> None:
        """Empty the store in place (whoever holds it -- a pipeline
        its memtable -- keeps the same object)."""
        self.records = 0
        self.failure_records = 0
        for rows in self.tables.values():
            rows.clear()

    def add_all(self, records: Iterable[MeasurementRecord]) -> int:
        n = 0
        for record in records:
            self.add(record)
            n += 1
        return n

    # -- merging -----------------------------------------------------

    def merge(self, other: "RollupStore") -> None:
        if other.config.to_dict() != self.config.to_dict():
            raise ValueError("cannot merge rollups with different configs")
        self.records += other.records
        self.failure_records += other.failure_records
        for table in self.TABLES:
            for key, hist in other.tables[table].items():
                self._hist(table, key).merge(hist)

    def clone(self) -> "RollupStore":
        """An independent store with the same content: the serving
        tier pins one as its memtable snapshot while ingestion keeps
        writing the live store, and either may be written afterwards.

        Costs one dict copy per table, not one per histogram: the
        rows are shared, and both stores move to fresh epochs so
        whichever writes a shared row first copies it
        (:meth:`_hist`)."""
        dup = RollupStore(config=self.config, meta=self.meta)
        dup.records = self.records
        dup.failure_records = self.failure_records
        for table in self.TABLES:
            dup.tables[table] = dict(self.tables[table])
        self.share_rows()
        dup.share_rows()
        return dup

    # -- queries -----------------------------------------------------

    def table(self, name: str) -> Dict[Key, MergeHist]:
        return self.tables[name]

    def group_count(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def windows(self) -> List[int]:
        """Ascending; each distinct window parsed once, not per row."""
        seen = set()
        for spec in TABLE_SPECS:
            if spec.windowed:
                seen.update({key[0] for key in self.tables[spec.name]})
        return sorted({int(window) for window in seen})

    def fold(self, table: str, by: Sequence[str] = (),
             **where: str) -> Dict[Key, MergeHist]:
        """The rows of ``table`` whose named key parts equal
        ``where``, merged onto the parts named in ``by`` (none: one
        histogram under ``()``).  Parts are named as the table's
        :class:`TableSpec` names them; rows are visited in sorted key
        order and the histograms returned are the caller's own."""
        parts = SPEC_BY_TABLE[table].key
        picks = [parts.index(part) for part in by]
        tests = [(parts.index(part), value)
                 for part, value in where.items()]
        out: Dict[Key, MergeHist] = {}
        for key, hist in self.iter_table(table):
            if any(key[at] != value for at, value in tests):
                continue
            onto = tuple(key[at] for at in picks)
            merged = out.get(onto)
            if merged is None:
                merged = out[onto] = MergeHist()
            merged.merge(hist)
        return out

    def iter_table(self, name: str) -> Iterator[Tuple[Key, MergeHist]]:
        table = self.tables[name]
        for key in sorted(table):
            yield key, table[key]

    # -- serialisation -----------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Canonical plain-data form: deterministic given the records,
        whatever the ingest parallelism or PYTHONHASHSEED."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "config": self.config.to_dict(),
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "records": self.records,
            "tables": {
                table: {
                    _encode_key(key): hist.to_dict()
                    for key, hist in sorted(self.tables[table].items())
                }
                for table in self.TABLES
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 over the canonical snapshot, sans run metadata
        (meta records worker counts etc., which legitimately differ
        between runs that must digest identically)."""
        snapshot = self.snapshot()
        snapshot.pop("meta")
        data = json.dumps(snapshot, sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(data).hexdigest()
