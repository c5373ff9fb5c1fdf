"""Measurement records and the store MopEye uploads from.

A record is one opportunistic RTT sample: a TCP connect measured via
SYN/SYN-ACK, or a DNS query/response pair.  The store doubles as the
schema of the crowdsourcing dataset (section 4.2), so the analysis
pipeline runs identically over live-relay output and synthesised data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
)


_INF = float("inf")
_NEG_INF = -_INF


class MeasurementKind:
    TCP = "TCP"
    DNS = "DNS"
    #: Measurement modalities beyond RTT (docs/MODALITIES.md).  A
    #: throughput sample is per-direction -- bytes moved through the
    #: relay divided by flow duration, in KB/s -- so up and down are
    #: distinct kinds and roll up into distinct histogram rows.
    TPUT_UP = "TPUT_UP"
    TPUT_DOWN = "TPUT_DOWN"
    #: Per-flow energy attribution in millijoules: radio per-byte cost
    #: plus RRC promotion/tail energy (see repro.phone.battery).
    ENERGY = "ENERGY"
    #: Age-of-information: how stale a record was (ms) when the
    #: collector acknowledged it, emitted by the uploader at ACK time.
    AOI = "AOI"

    #: Application-layer RTT: first request byte written to first
    #: response byte read on the relayed connection.  A transparent
    #: split-connection proxy terminates the SYN near the client --
    #: the SYN RTT then measures the middlebox, not the server -- but
    #: the response still has to cross the full path, so SYN-RTT vs
    #: APP_RTT divergence is the middlebox signature
    #: (docs/MIDDLEBOX.md).
    APP_RTT = "APP_RTT"

    #: The post-RTT modalities added by the `repro.modalities` work;
    #: rtt_ms carries the sample value (KB/s, mJ, or ms -- the record
    #: schema stays 14 fields wide so every persisted dataset still
    #: round-trips).
    MODALITIES = (TPUT_UP, TPUT_DOWN, ENERGY, AOI)

    ALL = (TCP, DNS) + MODALITIES + (APP_RTT,)


class FailureKind:
    """Why a measured connect/query produced no RTT sample.

    ``timeout``: SYN retransmissions exhausted, or no DNS reply within
    the relay deadline.  ``refused``: the peer answered the SYN with
    RST.  ``unreachable``: the network reported no route to the
    destination.
    """

    TIMEOUT = "timeout"
    REFUSED = "refused"
    UNREACHABLE = "unreachable"

    ALL = (TIMEOUT, REFUSED, UNREACHABLE)


class _RecordFields(NamedTuple):
    kind: str                  # MeasurementKind
    rtt_ms: float
    timestamp_ms: float
    app_package: Optional[str] = None
    app_uid: Optional[int] = None
    dst_ip: str = ""
    dst_port: int = 0
    domain: Optional[str] = None
    network_type: str = "WIFI"
    operator: str = "unknown"
    country: str = "unknown"
    device_id: str = "local"
    #: None for a successful RTT sample; a FailureKind string when the
    #: connect/query failed (rtt_ms then holds the time-to-failure).
    failure: Optional[str] = None
    location: Optional[tuple] = None  # (lat, lon)


def check_fields(kind, rtt_ms, timestamp_ms, failure) -> None:
    """The four checks every :class:`MeasurementRecord` passes:
    raises ``ValueError`` for a negative or non-finite RTT, a
    non-finite timestamp, or a kind or failure kind this build does
    not know."""
    # Chained so that NaN, which compares false both ways, fails.
    if not 0 <= rtt_ms < _INF:
        raise ValueError("negative or non-finite RTT %r" % rtt_ms)
    if not _NEG_INF < timestamp_ms < _INF:
        raise ValueError("non-finite timestamp %r" % timestamp_ms)
    if kind not in MeasurementKind.ALL:
        raise ValueError("unknown measurement kind %r" % kind)
    if failure is not None and failure not in FailureKind.ALL:
        raise ValueError("unknown failure kind %r" % failure)


class MeasurementRecord(_RecordFields):
    """One measurement: an immutable tuple of the fourteen fields
    above, read by name, with no per-instance ``__dict__``.

    Every way to make one runs the four checks of
    :func:`check_fields`: the constructor, :meth:`_replace` (the one
    copy-with-changes method; it goes through :meth:`_make`),
    ``pickle`` and ``copy`` (through ``__getnewargs__``), and the
    decoder :func:`repro.core.persist.decode_record_lines`, whose
    ``_record_from_dict`` calls it and then ``tuple.__new__``.  Being
    a tuple, a record also equals a plain tuple of its fields,
    iterates, and ``json.dumps`` writes it as an array --
    :func:`repro.core.persist.record_to_line` is the serialiser, and
    the decoder refuses an array as malformed.
    """

    __slots__ = ()

    def __new__(cls, kind, rtt_ms, timestamp_ms, app_package=None,
                app_uid=None, dst_ip="", dst_port=0, domain=None,
                network_type="WIFI", operator="unknown",
                country="unknown", device_id="local", failure=None,
                location=None):
        check_fields(kind, rtt_ms, timestamp_ms, failure)
        return tuple.__new__(cls, (
            kind, rtt_ms, timestamp_ms, app_package, app_uid, dst_ip,
            dst_port, domain, network_type, operator, country,
            device_id, failure, location))

    @classmethod
    def _make(cls, iterable):
        # The inherited one is tuple.__new__ and checks nothing.
        return cls(*iterable)


@dataclass(frozen=True)
class FlowRecord:
    """Per-connection traffic summary -- the paper's "more metrics
    beyond RTT" future work: upload/download volume and flow duration
    per app, collected from the relay's own byte counters."""

    app_package: Optional[str]
    dst_ip: str
    dst_port: int
    domain: Optional[str]
    bytes_up: int
    bytes_down: int
    opened_at_ms: float
    duration_ms: float

    @property
    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    def throughput_mbps(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return (self.total_bytes * 8) / (self.duration_ms * 1000.0)


class MeasurementStore:
    """An appendable collection of records with the query helpers the
    analysis layer uses."""

    def __init__(self) -> None:
        self._records: List[MeasurementRecord] = []

    def add(self, record: MeasurementRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[MeasurementRecord]) -> None:
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return iter(self._records)

    def since(self, index: int) -> List[MeasurementRecord]:
        """Records appended at or after ``index`` -- an O(tail) view
        for incremental consumers (the uploader's cursor), instead of
        copying the whole store every poll."""
        return self._records[index:]

    # -- filtering ----------------------------------------------------------
    def filter(self, predicate: Callable[[MeasurementRecord], bool]
               ) -> "MeasurementStore":
        out = MeasurementStore()
        out._records = [r for r in self._records if predicate(r)]
        return out

    def tcp(self) -> "MeasurementStore":
        """Successful TCP samples only: failure records carry a
        time-to-failure, not an RTT, and would poison every median."""
        return self.filter(lambda r: r.kind == MeasurementKind.TCP
                           and r.failure is None)

    def dns(self) -> "MeasurementStore":
        return self.filter(lambda r: r.kind == MeasurementKind.DNS
                           and r.failure is None)

    def failures(self, kind: Optional[str] = None) -> "MeasurementStore":
        """Failure-tagged records, optionally one FailureKind only."""
        if kind is None:
            return self.filter(lambda r: r.failure is not None)
        return self.filter(lambda r: r.failure == kind)

    def for_app(self, package: str) -> "MeasurementStore":
        return self.filter(lambda r: r.app_package == package)

    def for_network_type(self, *types: str) -> "MeasurementStore":
        wanted = set(types)
        return self.filter(lambda r: r.network_type in wanted)

    def for_operator(self, operator: str) -> "MeasurementStore":
        return self.filter(lambda r: r.operator == operator)

    # -- aggregates -----------------------------------------------------------
    def rtts(self) -> List[float]:
        return [r.rtt_ms for r in self._records]

    def group_by(self, key: Callable[[MeasurementRecord], object]
                 ) -> Dict[object, "MeasurementStore"]:
        groups: Dict[object, MeasurementStore] = {}
        for record in self._records:
            groups.setdefault(key(record), MeasurementStore()).add(record)
        return groups

    def by_app(self) -> Dict[Optional[str], "MeasurementStore"]:
        return self.group_by(lambda r: r.app_package)

    def by_operator(self) -> Dict[str, "MeasurementStore"]:
        return self.group_by(lambda r: r.operator)

    def unique(self, key: Callable[[MeasurementRecord], object]) -> set:
        return {key(r) for r in self._records}
