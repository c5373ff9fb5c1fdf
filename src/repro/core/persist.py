"""Dataset persistence: export/import measurement stores.

The crowdsourced dataset outlives any single process, so the store
round-trips through JSON-lines (schema-preserving) and CSV (for
spreadsheet/pandas consumers).  The JSON-lines path also works in a
streaming regime for the sharded full-scale campaign: writers accept
any record iterable, :func:`iter_jsonl` / :func:`iter_jsonl_shards`
yield records lazily, and :func:`save_jsonl_shards` splits a stream
across numbered shard files so no step ever materializes the 5.25 M
record dataset in memory.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import (
    BinaryIO,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from orjson import loads as _fast_loads

from repro.core.records import (
    MeasurementKind,
    MeasurementRecord,
    MeasurementStore,
    check_fields,
)

_FIELDS = MeasurementRecord._fields

SHARD_PATTERN = "shard-%05d.jsonl"


def _normalize_kind(kind) -> str:
    """Collapse whatever ``kind`` the caller stored (a plain string, an
    ``Enum`` member, bytes from a wire protocol) onto the canonical
    :class:`MeasurementKind` string, so a round-trip through disk always
    compares equal to the original record."""
    kind = getattr(kind, "value", kind)
    if isinstance(kind, bytes):
        kind = kind.decode("utf-8", "replace")
    kind = str(kind).strip().upper()
    if kind not in MeasurementKind.ALL:
        raise ValueError("unknown measurement kind %r" % kind)
    return kind


def _record_to_dict(record: MeasurementRecord) -> dict:
    # What ``json.dumps`` is handed for a record the formatter in
    # :func:`record_to_line` passes on; the key order is the line's.
    (kind, rtt_ms, timestamp_ms, app_package, app_uid, dst_ip,
     dst_port, domain, network_type, operator, country, device_id,
     failure, location) = record
    return {
        "kind": kind,
        "rtt_ms": rtt_ms,
        "timestamp_ms": timestamp_ms,
        "app_package": app_package,
        "app_uid": app_uid,
        "dst_ip": dst_ip,
        "dst_port": dst_port,
        "domain": domain,
        "network_type": network_type,
        "operator": operator,
        "country": country,
        "device_id": device_id,
        "failure": failure,
        "location": (None if location is None
                     else [location[0], location[1]]),
    }


_fetch_fields = itemgetter(*_FIELDS)
_new_tuple = tuple.__new__

#: What :func:`_record_from_dict` assumes for a key the row lacks: the
#: record's own defaults (``kind``, ``rtt_ms`` and ``timestamp_ms``
#: have none).
_FIELD_DEFAULTS = MeasurementRecord._field_defaults


def _record_from_dict(data: dict) -> MeasurementRecord:
    # One fetch and a positional call: this runs once per record read
    # from a shard, an upload or the WAL.
    try:
        fields = _fetch_fields(data)
    except KeyError:
        fields = _fetch_fields({**_FIELD_DEFAULTS, **data})
    (kind, rtt_ms, timestamp_ms, app_package, app_uid, dst_ip,
     dst_port, domain, network_type, operator, country, device_id,
     failure, location) = fields
    if location is not None:
        location = (float(location[0]), float(location[1]))
    # These become rollup keys, where a list cannot be hashed and a
    # number cannot be sorted against the strings beside it: str.join
    # raises TypeError for anything but text (or an empty value).
    "".join((app_package or "", dst_ip or "", domain or "",
             network_type or "", operator or "", country or "",
             device_id or ""))
    try:
        rtt_ms = float(rtt_ms)
        timestamp_ms = float(timestamp_ms)
        app_uid = int(app_uid) if app_uid not in (None, "") else None
        dst_port = int(dst_port or 0)
        failure = failure or None
        check_fields(kind, rtt_ms, timestamp_ms, failure)
    except ValueError:
        if kind in MeasurementKind.ALL:
            raise
        # The constructor's checks are the one test of the kind.  What
        # they refused may still spell one (lower case, an Enum, bytes
        # off a wire): try again under the canonical name, which they
        # cannot refuse twice.
        return _record_from_dict({**data, "kind": _normalize_kind(kind)})
    # The constructor's checks have passed: build the tuple without
    # running them a second time.
    return _new_tuple(MeasurementRecord, (
        kind, rtt_ms, timestamp_ms, app_package or None, app_uid, dst_ip,
        dst_port, domain or None, network_type, operator, country,
        device_id, failure, location))


#: What a line that is not a record can raise on its way through
#: the JSON parser and :func:`_record_from_dict`: bad JSON or a value out
#: of range (``ValueError``), a missing key, a value of the wrong type
#: or not an object at all (``TypeError``), a short ``location``
#: (``IndexError``), an integer too large for a float
#: (``OverflowError``), nesting past the interpreter's stack
#: (``RecursionError``).
_MALFORMED = (ValueError, KeyError, TypeError, IndexError,
              OverflowError, RecursionError)

#: Lines :func:`iter_jsonl` hands the decoder at a time: enough to
#: spread the per-call overhead thin, few enough that one chunk's
#: records stay a small fraction of a shard's.
_CHUNK_LINES = 64


def decode_record_lines(lines: Sequence[str]
                        ) -> Tuple[List[MeasurementRecord], bool]:
    """The one reader of record lines: JSON objects in, ``(records,
    truncated)`` out.  ``records`` is the longest prefix of ``lines``
    in which every line is a record; ``truncated`` says a line that is
    not one stopped the decode (no record after it is returned: an
    upload ACK is a prefix count).

    Each line is parsed by ``orjson``, and by ``json.loads`` where the
    two could read it differently.  ``orjson`` takes strict RFC 8259
    JSON only: a line it refuses -- ``NaN`` or ``Infinity`` (which
    :func:`record_to_line` writes for a non-finite location), a number
    past the ``float`` range, a lone-surrogate escape -- may still be
    one the standard parser reads, so that parser decides it.  And
    ``orjson`` reads an integer past 64 bits as a ``float``: harmless
    where the record takes a ``float`` or refuses a number either way,
    not in ``app_uid`` or ``dst_port``, so a row with a ``float`` there
    is parsed again.

    The lines are parsed up to the first that is not JSON, and the
    records built after, up to the first row that is not one.  Parse
    and build interleaved line by line measured 2 % slower on the
    pipeline benchmark's ``bulk_offline`` and 13 % worse in
    ``serve_while_ingest``'s ``panel_ms_p99``, with the same blocks
    read per panel."""
    rows = []
    truncated = False
    try:
        for line in lines:
            try:
                row = _fast_loads(line)
            except ValueError:
                row = json.loads(line)
            else:
                if type(row) is dict and (
                        type(row.get("app_uid")) is float
                        or type(row.get("dst_port")) is float):
                    row = json.loads(line)
            rows.append(row)
    except (ValueError, RecursionError):
        truncated = True
    records: List[MeasurementRecord] = []
    try:
        for row in rows:
            records.append(_record_from_dict(row))
    except _MALFORMED:
        return records, True
    return records, truncated


#: The line ``json.dumps`` writes for :func:`_record_to_dict`'s
#: fourteen keys, each value a slot: ``%r`` where only a number can
#: stand, ``%s`` where the text is rendered first.
_LINE = ('{"kind": %s, "rtt_ms": %r, "timestamp_ms": %r, '
         '"app_package": %s, "app_uid": %s, "dst_ip": %s, '
         '"dst_port": %r, "domain": %s, "network_type": %s, '
         '"operator": %s, "country": %s, "device_id": %s, '
         '"failure": %s, "location": %s}')
_INF = float("inf")
_NEG_INF = -_INF
_NUMBER = (float, int)
_PAIR = (tuple, list)

#: Records :func:`write_records` serialises at a time: a device's
#: worth in one write and one hash update, or this many of them.
_WRITE_CHUNK = 512


def record_to_line(record: MeasurementRecord) -> str:
    """The canonical one-line JSON serialization (no trailing newline).
    Canonical means byte-stable: the same record always serializes to
    the same bytes, which is what shard digests compare.

    The line is ``json.dumps`` of :func:`_record_to_dict` to the byte,
    formatted rather than dumped: ``%r`` of a ``float`` or an ``int``
    is the ``__repr__`` JSON writes, text goes through the encoder's
    own ASCII-escaping quoter.  That holds for the exact types only
    (``repr(True)`` is not ``true``; a non-finite ``float``, which
    only a location can hold, is not its ``repr`` either), so a
    record with any field of another type -- a ``bool``, an ``Enum``,
    a ``str`` subclass, a numpy scalar -- is dumped as before,
    whatever that writes or raises."""
    (kind, rtt_ms, timestamp_ms, app_package, app_uid, dst_ip,
     dst_port, domain, network_type, operator, country, device_id,
     failure, location) = record
    place = None
    if location is None:
        place = "null"
    elif type(location) in _PAIR:
        # Too short a one raises IndexError here as it would there.
        lat, lon = location[0], location[1]
        if ((type(lat) is float and _NEG_INF < lat < _INF
             or type(lat) is int)
                and (type(lon) is float and _NEG_INF < lon < _INF
                     or type(lon) is int)):
            place = "[%r, %r]" % (lat, lon)
    if (place is not None
            and type(kind) is str
            and type(rtt_ms) in _NUMBER
            and type(timestamp_ms) in _NUMBER
            and (type(app_package) is str or app_package is None)
            and (app_uid is None or type(app_uid) is int)
            and (type(dst_ip) is str or dst_ip is None)
            and type(dst_port) is int
            and (type(domain) is str or domain is None)
            and (type(network_type) is str or network_type is None)
            and (type(operator) is str or operator is None)
            and (type(country) is str or country is None)
            and (type(device_id) is str or device_id is None)
            and (failure is None or type(failure) is str)):
        return _LINE % (
            _quote(kind), rtt_ms, timestamp_ms,
            "null" if app_package is None else _quote(app_package),
            "null" if app_uid is None else app_uid,
            "null" if dst_ip is None else _quote(dst_ip),
            dst_port,
            "null" if domain is None else _quote(domain),
            "null" if network_type is None else _quote(network_type),
            "null" if operator is None else _quote(operator),
            "null" if country is None else _quote(country),
            "null" if device_id is None else _quote(device_id),
            "null" if failure is None else _quote(failure),
            place)
    return json.dumps(_record_to_dict(record))


def encode_batch(records: Iterable[MeasurementRecord]) -> bytes:
    """The one writer of record lines: each record's line and a
    newline after it, as bytes.  An upload payload, a shard file and
    the body of a WAL envelope are all this.  ASCII, because neither
    path of :func:`record_to_line` writes a byte outside it."""
    lines = list(map(record_to_line, records))
    lines.append("")
    return "\n".join(lines).encode("ascii")


def encode_chunks(records: Iterable[MeasurementRecord], size: int
                  ) -> Iterator[Tuple[List[MeasurementRecord], bytes]]:
    """``records`` cut into lists of at most ``size``, each beside
    its :func:`encode_batch` -- a stream of any length serialised
    with no more than ``size`` lines held at once.  Raises
    ``ValueError`` for a ``size`` below 1, which would cut none."""
    if size < 1:
        raise ValueError("chunk size must be at least 1, not %r" % size)
    records = iter(records)
    while True:
        chunk = list(islice(records, size))
        if not chunk:
            return
        yield chunk, encode_batch(chunk)


def write_records(handle: BinaryIO,
                  records: Iterable[MeasurementRecord],
                  digest=None) -> int:
    """Append ``records`` to a file open for binary writing, feeding
    the same bytes to ``digest`` (a ``hashlib`` object) when one is
    given; returns the count."""
    count = 0
    for chunk, data in encode_chunks(records, _WRITE_CHUNK):
        handle.write(data)
        if digest is not None:
            digest.update(data)
        count += len(chunk)
    return count


def save_jsonl(records: Union[MeasurementStore,
                              Iterable[MeasurementRecord]],
               path: str) -> int:
    """Write one JSON object per line; returns the record count.
    Accepts a store or any record iterable (streaming-friendly)."""
    with open(path, "wb") as handle:
        return write_records(handle, records)


def iter_jsonl(path: str) -> Iterator[MeasurementRecord]:
    """Stream records from a JSON-lines file without loading it,
    ``_CHUNK_LINES`` lines to a decode.  Raises ``ValueError`` at the
    first line that is not a record, after yielding those before it."""
    with open(path, encoding="utf-8") as handle:
        while True:
            chunk = list(islice(handle, _CHUNK_LINES))
            if not chunk:
                return
            lines = list(filter(None, map(str.strip, chunk)))
            records, truncated = decode_record_lines(lines)
            yield from records
            if truncated:
                raise ValueError("%s: not a record: %.80r"
                                 % (path, lines[len(records)]))


def load_jsonl(path: str,
               store: Optional[MeasurementStore] = None
               ) -> MeasurementStore:
    store = store or MeasurementStore()
    for record in iter_jsonl(path):
        store.add(record)
    return store


# -- sharded JSON-lines ------------------------------------------------------

def shard_path(directory: str, index: int) -> str:
    return os.path.join(directory, SHARD_PATTERN % index)


def list_shards(directory: str) -> List[str]:
    """Shard files under ``directory`` in shard-index order."""
    return sorted(glob.glob(os.path.join(directory, "shard-*.jsonl")))


def save_jsonl_shards(records: Iterable[MeasurementRecord],
                      directory: str,
                      shard_size: int = 500_000) -> List[str]:
    """Split a record stream across numbered shard files of at most
    ``shard_size`` records each; returns the shard paths in order."""
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    records = iter(records)
    # Each turn takes the record that proves the next shard is needed.
    for first in records:
        paths.append(shard_path(directory, len(paths)))
        with open(paths[-1], "wb") as handle:
            write_records(handle, chain(
                (first,), islice(records, shard_size - 1)))
    if not paths:
        # An empty dataset still yields one (empty) shard so readers
        # have something to open.
        paths.append(shard_path(directory, 0))
        open(paths[0], "wb").close()
    return paths


def iter_jsonl_shards(shards: Union[str, Sequence[str]]
                      ) -> Iterator[MeasurementRecord]:
    """Stream records from shard files in order.  ``shards`` is either
    a directory (all ``shard-*.jsonl`` inside, sorted) or an explicit
    path sequence."""
    paths = list_shards(shards) if isinstance(shards, str) else shards
    for path in paths:
        yield from iter_jsonl(path)


def dataset_digest(shards: Union[str, Sequence[str]]) -> str:
    """SHA-256 over the concatenated shard bytes, in shard order.  Two
    runs produced the same dataset iff their digests match -- the
    property the determinism suite asserts across worker counts and
    ``PYTHONHASHSEED`` values."""
    paths = list_shards(shards) if isinstance(shards, str) else shards
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def merge_shards(shards: Union[str, Sequence[str]],
                 out_path: str) -> int:
    """Concatenate shard files (in shard order) into one JSON-lines
    dataset; returns the merged record count.  Byte concatenation keeps
    the merge deterministic and independent of worker scheduling."""
    paths = list_shards(shards) if isinstance(shards, str) else shards
    count = 0
    with open(out_path, "wb") as out:
        for path in paths:
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    count += chunk.count(b"\n")
                    out.write(chunk)
    return count


def save_csv(store: Union[MeasurementStore,
                          Iterable[MeasurementRecord]],
             path: str) -> int:
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_FIELDS[:-1] + ("lat", "lon"))
        for record in store:
            location = record.location
            writer.writerow(record[:-1] + (
                ("", "") if location is None
                else (location[0], location[1])))
            count += 1
    return count


def load_csv(path: str,
             store: Optional[MeasurementStore] = None
             ) -> MeasurementStore:
    store = store or MeasurementStore()
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            lat, lon = row.pop("lat", ""), row.pop("lon", "")
            if lat and lon:
                row["location"] = [lat, lon]
            else:
                row["location"] = None
            store.add(_record_from_dict(row))
    return store
