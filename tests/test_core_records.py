"""``MeasurementRecord`` is a validated tuple.  It replaced a frozen
dataclass; that type, and the three per-record functions that read
every field of it, are kept here as the reference the tuple is held
to: what one accepts, prints, serialises, decodes and rolls up, so
does the other.  What the tuple newly allows is pinned at the end.

``reference_line`` is also what the serialiser was before it formatted
a record's line instead of dumping it: one ``json.dumps`` of a
fourteen-key dict.  The formatter is held to it byte for byte, and
exception for exception, on everything the constructor lets through."""

import copy
import enum
import json
import os
import pickle
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

import numpy
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import rules
from repro.backend.ingest import parse_batch_lines
from repro.backend.rollups import RollupStore, log_bin
from repro.core.persist import (
    _MALFORMED,
    _normalize_kind,
    _record_from_dict,
    decode_record_lines,
    encode_batch,
    record_to_line,
)
from repro.core.records import FailureKind, MeasurementKind
from repro.core.records import MeasurementRecord as Record
from repro.network.link import NetworkType

_INF = float("inf")
_NAN = float("nan")


# -- the reference: the type and its readers as the parent had them ---------

@dataclass(frozen=True)
class MeasurementRecord:
    kind: str
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
    failure: Optional[str] = None
    location: Optional[tuple] = None

    def __post_init__(self):
        if not 0 <= self.rtt_ms < _INF:
            raise ValueError("negative or non-finite RTT %r"
                             % self.rtt_ms)
        if not -_INF < self.timestamp_ms < _INF:
            raise ValueError("non-finite timestamp %r"
                             % self.timestamp_ms)
        if self.kind not in MeasurementKind.ALL:
            raise ValueError("unknown measurement kind %r" % self.kind)
        if self.failure is not None and \
                self.failure not in FailureKind.ALL:
            raise ValueError("unknown failure kind %r" % self.failure)


Reference = MeasurementRecord
FIELDS = tuple(Reference.__dataclass_fields__)


def reference_line(record):
    location = record.location
    return json.dumps({
        "kind": record.kind,
        "rtt_ms": record.rtt_ms,
        "timestamp_ms": record.timestamp_ms,
        "app_package": record.app_package,
        "app_uid": record.app_uid,
        "dst_ip": record.dst_ip,
        "dst_port": record.dst_port,
        "domain": record.domain,
        "network_type": record.network_type,
        "operator": record.operator,
        "country": record.country,
        "device_id": record.device_id,
        "failure": record.failure,
        "location": (None if location is None
                     else [location[0], location[1]]),
    })


def reference_from_dict(data):
    data = {"app_package": None, "app_uid": None, "dst_ip": "",
            "dst_port": 0, "domain": None, "network_type": "WIFI",
            "operator": "unknown", "country": "unknown",
            "device_id": "local", "failure": None, "location": None,
            **data}
    kind = data["kind"]
    if kind not in MeasurementKind.ALL:
        kind = _normalize_kind(kind)
    location = data["location"]
    if location is not None:
        location = (float(location[0]), float(location[1]))
    "".join((data["app_package"] or "", data["dst_ip"] or "",
             data["domain"] or "", data["network_type"] or "",
             data["operator"] or "", data["country"] or "",
             data["device_id"] or ""))
    app_uid = data["app_uid"]
    return Reference(
        kind, float(data["rtt_ms"]), float(data["timestamp_ms"]),
        data["app_package"] or None,
        int(app_uid) if app_uid not in (None, "") else None,
        data["dst_ip"], int(data["dst_port"] or 0),
        data["domain"] or None, data["network_type"],
        data["operator"], data["country"], data["device_id"],
        data["failure"] or None, location)


def reference_add(store, record):
    """``RollupStore.add`` reading every field by name."""
    if record.failure is not None:
        store.failure_records += 1
        return
    store.records += 1
    rtt = record.rtt_ms
    window = str(store.config.window_of(record.timestamp_ms))
    kind = record.kind
    operator = record.operator or "unknown"
    tech = record.network_type or "unknown"
    app = record.app_package or "unknown"
    if kind == "TCP":
        store._hist("network", (window, operator, tech, kind)).add(rtt)
        store._hist("app", (window, app, kind)).add(rtt)
        domain = record.domain
        for suffix in store.config.watch_suffixes:
            if rules.domain_matches_suffix(domain, suffix):
                cls = rules.whatsapp_domain_class(domain)
                store._hist("watch_domain",
                            (suffix, cls, domain)).add(rtt)
                store._hist("watch_network",
                            (suffix, cls, operator, tech)).add(rtt)
        if domain is not None and tech == NetworkType.LTE:
            store._hist("lte_domain", (domain, operator)).add(rtt)
    elif kind == "DNS":
        store._hist("network", (window, operator, tech, kind)).add(rtt)
    elif kind == "APP_RTT":
        store._hist("network", (window, operator, tech, kind)).add(rtt)
        store._hist("app", (window, app, kind)).add(rtt)
    elif kind in ("TPUT_UP", "TPUT_DOWN"):
        store._hist("app_throughput",
                    (window, app, kind)).add_bin(log_bin(rtt))
    elif kind == "ENERGY":
        store._hist("app_energy", (window, app)).add_bin(log_bin(rtt))
    elif kind == "AOI":
        store._hist("aoi", (window, record.device_id or "unknown",
                            tech)).add_bin(log_bin(rtt))


def outcome(build, *args, **kwargs):
    """``("ok", record)`` or ``(exception type, message)``."""
    try:
        return "ok", build(*args, **kwargs)
    except Exception as error:
        return type(error), str(error)


# -- every way to make a record refuses what the constructor refuses --------

GOOD = dict(kind="TCP", rtt_ms=12.5, timestamp_ms=1000.0,
            app_package="com.app.a", app_uid=10001, dst_ip="203.0.113.1",
            dst_port=443, domain="api.example.com", network_type="LTE",
            operator="OpA", country="US", device_id="dev-1",
            failure="timeout", location=(40.7, -74.0))

DEFECTS = {
    "negative rtt": {"rtt_ms": -1.0},
    "nan rtt": {"rtt_ms": _NAN},
    "infinite rtt": {"rtt_ms": _INF},
    "+inf timestamp": {"timestamp_ms": _INF},
    "-inf timestamp": {"timestamp_ms": -_INF},
    "nan timestamp": {"timestamp_ms": _NAN},
    "unknown kind": {"kind": "ICMP"},
    "unknown failure": {"failure": "lost"},
}


def _unpickled(fields):
    """What ``pickle.loads`` and ``copy.copy`` call to rebuild a
    record, handed ``fields`` in place of the pickled ones."""
    rebuild, (cls, *_pickled) = \
        Record(**GOOD).__reduce_ex__(pickle.DEFAULT_PROTOCOL)[:2]
    return rebuild(cls, *fields.values())


PATHS = {
    "positional": lambda fields: Record(*fields.values()),
    "keyword": lambda fields: Record(**fields),
    "_replace": lambda fields: Record(**GOOD)._replace(**{
        name: value for name, value in fields.items()
        if value is not GOOD[name]}),
    "_make": lambda fields: Record._make(fields.values()),
    "unpickle": _unpickled,
    "_record_from_dict": _record_from_dict,
}


@pytest.mark.parametrize("defect", list(DEFECTS), ids=list(DEFECTS))
@pytest.mark.parametrize("path", list(PATHS), ids=list(PATHS))
def test_every_path_refuses_what_the_constructor_refuses(path, defect):
    fields = {**GOOD, **DEFECTS[defect]}
    with pytest.raises(ValueError) as refused:
        Reference(**fields)
    with pytest.raises(ValueError) as error:
        PATHS[path](fields)
    assert str(error.value) == str(refused.value)


@pytest.mark.parametrize("path", list(PATHS), ids=list(PATHS))
def test_every_path_makes_the_record_the_constructor_makes(path):
    made = PATHS[path](dict(GOOD))
    assert type(made) is Record
    assert made == Record(**GOOD)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy,
    *(lambda record, protocol=protocol: pickle.loads(
        pickle.dumps(record, protocol))
      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
])
def test_a_copy_is_an_equal_record(duplicate):
    record = Record(**GOOD)
    twin = duplicate(record)
    assert type(twin) is Record
    assert twin == record and hash(twin) == hash(record)
    assert repr(twin) == repr(record)


class TestImmutable:
    record = Record(**GOOD)

    @pytest.mark.parametrize("name", ["kind", "rtt_ms", "location"])
    def test_a_field_cannot_be_assigned_or_deleted(self, name):
        with pytest.raises(AttributeError):
            setattr(self.record, name, GOOD[name])
        with pytest.raises(AttributeError):
            delattr(self.record, name)
        with pytest.raises(TypeError):
            self.record[0] = "DNS"
        assert self.record == Record(**GOOD)

    def test_no_instance_dict(self):
        """Fails on a type that grew ``__dict__`` back -- what the
        constructor's cost was spent filling."""
        with pytest.raises(TypeError):
            vars(self.record)
        with pytest.raises(AttributeError):
            self.record.note = "x"
        assert Record.__slots__ == ()

    def test_unknown_field_names_are_refused(self):
        with pytest.raises(ValueError):
            self.record._replace(rtt=1.0)
        with pytest.raises(TypeError):
            Record(**GOOD, rtt=1.0)


def _sources():
    root = os.path.dirname(repro.__file__)
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as handle:
                    yield os.path.relpath(path, root), handle.read()


def test_one_record_type_one_copy_method_one_serialiser():
    sources = dict(_sources())
    assert [path for path, text in sources.items()
            if "dataclasses.replace(record" in text] == []
    assert [path for path, text in sources.items()
            if "_record_to_dict" in text] \
        == [os.path.join("core", "persist.py")]
    records = sources[os.path.join("core", "records.py")]
    assert records.count("frozen=True") == 1
    assert "frozen=True)\nclass FlowRecord" in records


# -- property: the tuple against the dataclass ------------------------------

_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 1.0, True, False, -0.0, 0.5, 10 ** 400,
                     -10 ** 400, _INF, -_INF, _NAN, None, "", "5"]),
    st.floats(), st.integers())
_TEXTS = st.one_of(
    st.sampled_from([None, "", "\U0010ffff", "LTE", "WIFI", 0,
                     "c1.whatsapp.net", "api.example.com"]),
    st.text(max_size=6))
_FIELD_STRATEGIES = dict(
    kind=st.sampled_from(MeasurementKind.ALL + ("tcp", "", None, 5)),
    rtt_ms=_NUMBERS, timestamp_ms=_NUMBERS, app_package=_TEXTS,
    app_uid=_NUMBERS, dst_ip=_TEXTS, dst_port=_NUMBERS, domain=_TEXTS,
    network_type=_TEXTS, operator=_TEXTS, country=_TEXTS,
    device_id=_TEXTS,
    failure=st.sampled_from((None, None, "", "lost") + FailureKind.ALL),
    location=st.one_of(
        st.none(), st.none(),
        st.tuples(st.floats(allow_nan=False),
                  st.floats(allow_nan=False))))
assert tuple(_FIELD_STRATEGIES) == FIELDS == Record._fields
_ALL_FIELDS = st.fixed_dictionaries(_FIELD_STRATEGIES)
#: A record the constructor takes more often than not.
_LIKELY_FIELDS = st.fixed_dictionaries({
    **_FIELD_STRATEGIES,
    "kind": st.sampled_from(MeasurementKind.ALL),
    "rtt_ms": st.one_of(st.sampled_from([0, 1, 1.0, True, 10 ** 400]),
                        st.floats(min_value=0, max_value=1e6)),
    "timestamp_ms": st.one_of(st.sampled_from([0, -0.0, 10 ** 400]),
                              st.floats(allow_nan=False,
                                        allow_infinity=False)),
    "failure": st.sampled_from((None, None, None) + FailureKind.ALL),
})
_FIELDS_DRAWN = st.one_of(_ALL_FIELDS, _LIKELY_FIELDS)

_PROPERTY = dict(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@given(fields=_FIELDS_DRAWN, positional=st.integers(0, len(FIELDS)),
       defaulted=st.integers(3, len(FIELDS)))
@settings(**_PROPERTY)
def test_both_accept_or_both_refuse_and_print_alike(
        fields, positional, defaulted):
    """The first ``positional`` fields by position, the rest by
    keyword, those from ``defaulted`` on left to their defaults."""
    values = list(fields.values())[:defaulted]
    args = values[:positional]
    kwargs = dict(zip(FIELDS[positional:], values[positional:]))
    want = outcome(Reference, *args, **kwargs)
    got = outcome(Record, *args, **kwargs)
    if want[0] != "ok":
        assert got == want
    else:
        assert got[0] == "ok" and repr(got[1]) == repr(want[1])
        assert type(got[1]) is Record


def _pair(fields):
    want, got = outcome(Reference, **fields), outcome(Record, **fields)
    assert (want[0] == "ok") == (got[0] == "ok")
    return (want[1], got[1]) if want[0] == "ok" else None


@given(first=_LIKELY_FIELDS, second=_LIKELY_FIELDS,
       take=st.lists(st.booleans(), min_size=len(FIELDS),
                     max_size=len(FIELDS)))
@settings(**_PROPERTY)
def test_equality_and_hash_agree_with_the_reference(first, second, take):
    mixed = {name: (second if taken else first)[name]
             for name, taken in zip(FIELDS, take)}
    a, b = _pair(first), _pair(mixed)
    if a is None or b is None:
        return
    assert (a[1] == b[1]) == (a[0] == b[0])
    assert (a[1] != b[1]) == (a[0] != b[0])
    if a[1] == b[1]:
        assert hash(a[1]) == hash(b[1])
    assert a[1] == copy.copy(a[1]) and a[1] == Record(**first)


@given(fields=_LIKELY_FIELDS)
@settings(**_PROPERTY)
def test_line_and_rollup_agree_with_the_reference(fields):
    pair = _pair(fields)
    if pair is None:
        return
    reference, record = pair
    assert outcome(record_to_line, record) \
        == outcome(reference_line, reference)
    want, got = RollupStore(), RollupStore()
    assert outcome(got.add, record) \
        == outcome(reference_add, want, reference)
    assert got.digest() == want.digest()
    assert (got.records, got.failure_records) \
        == (want.records, want.failure_records)


@given(row=_FIELDS_DRAWN, absent=st.sets(st.sampled_from(FIELDS)),
       spelling=st.sampled_from([str, str.lower, str.title,
                                 lambda kind: " %s " % kind,
                                 lambda kind: kind.encode()]))
@settings(**_PROPERTY)
def test_decode_agrees_with_the_reference(row, absent, spelling):
    """The decoder looks at the kind after the constructor has, the
    reference before: same record or same refusal all the same."""
    if isinstance(row["kind"], str):
        row["kind"] = spelling(row["kind"])
    row = {name: value for name, value in row.items()
           if name not in absent}
    want, got = outcome(reference_from_dict, row), \
        outcome(_record_from_dict, row)
    if want[0] != "ok":
        assert got[0] != "ok" and issubclass(got[0], _MALFORMED)
        return
    assert got[0] == "ok" and repr(got[1]) == repr(want[1])
    record = got[1]
    # A decoded record is canonical: its line decodes to itself.
    line = record_to_line(record)
    assert line == reference_line(want[1])
    assert _record_from_dict(json.loads(line)) == record
    assert decode_record_lines([line, line]) == ([record] * 2, False)


# -- the formatter against json.dumps ---------------------------------------

class Port(enum.IntEnum):
    HTTPS = 443


class WireKind(str, enum.Enum):
    TCP = "TCP"


class Millis(float):
    pass


class Name(str):
    pass


class Pair(tuple):
    pass


#: Values the formatter must either write as ``json.dumps`` does or
#: hand to ``json.dumps``, by the fields they go in.
CASES = {
    "an int rtt": {"rtt_ms": 5},
    "a huge int rtt": {"rtt_ms": 10 ** 400},
    "a bool rtt": {"rtt_ms": True},
    "a float subclass rtt": {"rtt_ms": Millis(2.5)},
    "a numpy float rtt": {"rtt_ms": numpy.float64(2.5)},
    "a numpy float32 rtt": {"rtt_ms": numpy.float32(2.5)},
    "a numpy int rtt": {"rtt_ms": numpy.int64(5)},
    "a Decimal rtt": {"rtt_ms": Decimal("2.5")},
    "a subnormal rtt": {"rtt_ms": 5e-324},
    "1e22": {"rtt_ms": 1e22},
    "1e-07": {"rtt_ms": 1e-07},
    "1e16": {"rtt_ms": 1e16},
    "a negative zero timestamp": {"timestamp_ms": -0.0},
    "an int timestamp": {"timestamp_ms": -7},
    "a Decimal timestamp": {"timestamp_ms": Decimal("1")},
    "a bool port": {"dst_port": True},
    "a bool uid": {"app_uid": False},
    "an IntEnum port": {"dst_port": Port.HTTPS},
    "an IntEnum uid": {"app_uid": Port.HTTPS},
    "a numpy port": {"dst_port": numpy.int64(443)},
    "a float uid": {"app_uid": 10.0},
    "no port": {"dst_port": None},
    "a text port": {"dst_port": "443"},
    "a port past 64 bits": {"dst_port": 2 ** 70},
    "a str-subclass kind": {"kind": Name("TCP")},
    "a str-Enum kind": {"kind": WireKind.TCP},
    "a str-subclass failure": {"failure": Name("timeout")},
    "a str-subclass operator": {"operator": Name('Op"\xe9')},
    "quotes and backslashes": {"operator": 'a"b\\c\\"d'},
    "control characters": {"domain": "\x00\x01\x1f\x7f\b\f\n\r\t"},
    "line separators": {"country": "  \x85\x0b\x0c\x1c"},
    "non-BMP": {"app_package": "\U0001f600\U0010ffff"},
    "lone surrogates": {"device_id": "\ud800 x \udfff\ud83d"},
    "latin and CJK": {"operator": "T\xe9l\xe9com 中"},
    "bytes for text": {"dst_ip": b"10.0.0.1"},
    "a number for text": {"network_type": 4},
    "every text None": dict.fromkeys(
        ["app_package", "dst_ip", "domain", "network_type",
         "operator", "country", "device_id", "failure"]),
    "no location": {"location": None},
    "a list location": {"location": [40.7, -74.0]},
    "an int location": {"location": (40, -74)},
    "a mixed location": {"location": [40, -74.5]},
    "a bool location": {"location": (True, 0.5)},
    "a long location": {"location": (1.5, 2.5, 3.5)},
    "a short location": {"location": (1.5,)},
    "an empty location": {"location": ()},
    "a NaN location": {"location": (_NAN, 0.0)},
    "an infinite location": {"location": [0.0, -_INF]},
    "a text location": {"location": "ab"},
    "a tuple-subclass location": {"location": Pair((1.5, 2.5))},
    "a numpy location": {"location": numpy.array([1.5, 2.5])},
    "a numpy int location": {"location": numpy.array([1, 2])},
    "a Decimal location": {"location": (Decimal("1.5"), 2.0)},
    "a dict location": {"location": {0: 1.5, 1: 2.5}},
}

#: What the reference makes of some of them: the rest of the table is
#: only worth its place if these are what JSON says.
WRITTEN = {
    "an int rtt": '"rtt_ms": 5, ',
    "a bool rtt": '"rtt_ms": true, ',
    "a subnormal rtt": '"rtt_ms": 5e-324, ',
    "1e22": '"rtt_ms": 1e+22, ',
    "1e-07": '"rtt_ms": 1e-07, ',
    "1e16": '"rtt_ms": 1e+16, ',
    "a negative zero timestamp": '"timestamp_ms": -0.0, ',
    "a bool port": '"dst_port": true, ',
    "a bool uid": '"app_uid": false, ',
    "an IntEnum port": '"dst_port": 443, ',
    "a str-Enum kind": '{"kind": "TCP", ',
    "quotes and backslashes": '"operator": "a\\"b\\\\c\\\\\\"d", ',
    "control characters":
        '"domain": "\\u0000\\u0001\\u001f\\u007f\\b\\f\\n\\r\\t", ',
    "non-BMP": '"app_package": "\\ud83d\\ude00\\udbff\\udfff", ',
    "lone surrogates": '"device_id": "\\ud800 x \\udfff\\ud83d", ',
    "an int location": '"location": [40, -74]}',
    "a bool location": '"location": [true, 0.5]}',
    "a long location": '"location": [1.5, 2.5]}',
    "a NaN location": '"location": [NaN, 0.0]}',
    "an infinite location": '"location": [0.0, -Infinity]}',
    "a text location": '"location": ["a", "b"]}',
}
RAISED = {
    "a numpy float32 rtt": TypeError,
    "a numpy int rtt": TypeError,
    "a Decimal rtt": TypeError,
    "a Decimal timestamp": TypeError,
    "a numpy port": TypeError,
    "bytes for text": TypeError,
    "a short location": IndexError,
    "an empty location": IndexError,
    "a numpy int location": TypeError,
    "a Decimal location": TypeError,
}


@pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
def test_the_formatted_line_is_the_dumped_line(case):
    record = Record(**{**GOOD, **CASES[case]})
    want = outcome(reference_line, record)
    assert outcome(record_to_line, record) == want
    if case in RAISED:
        assert want[0] is RAISED[case]
    else:
        assert want[0] == "ok" and WRITTEN.get(case, "") in want[1]
        assert encode_batch([record, record]) \
            == (want[1] + "\n").encode("ascii") * 2


_HOSTILE_TEXTS = st.one_of(
    st.sampled_from([None, "", '"', "\\", "\\u0041", "\x7f", "\ud800",
                     Name("sub"), "LTE", "wifi-usa", 0, b"raw"]),
    st.text(st.characters(), max_size=8),
    st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f  \xe9\ud83d'
                            '\ude00\U0001f600'), max_size=6))
_HOSTILE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e22,
                     1e23, 1e-07, 1e15, 1e16, 0.1 + 0.2, 1 / 3,
                     1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_HOSTILE_INTS = st.one_of(
    st.sampled_from([0, 5, -1, True, False, Port.HTTPS, 2 ** 70,
                     10 ** 400, numpy.int64(7), None, 10.0, "443"]),
    st.integers())
_HOSTILE_NUMBERS = st.one_of(
    _HOSTILE_FLOATS, _HOSTILE_INTS,
    st.sampled_from([Millis(2.5), numpy.float64(2.5),
                     numpy.float32(2.5), Decimal("2.5")]))
_COORDINATES = st.one_of(
    st.floats(), st.integers(), st.booleans(),
    st.sampled_from([Millis(1.5), numpy.float64(1.5), Decimal("1.5"),
                     "a", None]))
_HOSTILE = dict(
    kind=st.one_of(st.sampled_from(MeasurementKind.ALL),
                   st.sampled_from([Name("DNS"), WireKind.TCP])),
    rtt_ms=_HOSTILE_NUMBERS, timestamp_ms=_HOSTILE_NUMBERS,
    app_package=_HOSTILE_TEXTS, app_uid=_HOSTILE_INTS,
    dst_ip=_HOSTILE_TEXTS, dst_port=_HOSTILE_INTS,
    domain=_HOSTILE_TEXTS, network_type=_HOSTILE_TEXTS,
    operator=_HOSTILE_TEXTS, country=_HOSTILE_TEXTS,
    device_id=_HOSTILE_TEXTS,
    failure=st.sampled_from((None, None, Name("refused"))
                            + FailureKind.ALL),
    location=st.one_of(
        st.none(),
        st.lists(_COORDINATES, max_size=3),
        st.lists(_COORDINATES, max_size=3).map(tuple),
        st.sampled_from(["ab", Pair((1.5, 2.5)),
                         numpy.array([1.5, 2.5]), {0: 1, 1: 2}])))
assert tuple(_HOSTILE) == FIELDS
_HOSTILE_FIELDS = st.fixed_dictionaries(_HOSTILE)


@given(rows=st.lists(_HOSTILE_FIELDS, max_size=4))
@settings(**_PROPERTY)
def test_formatter_and_batch_agree_with_the_dumped_lines(rows):
    """Byte for byte, exception for exception; and a batch is its
    records' lines, which the upload parser takes apart again."""
    records, lines = [], []
    for fields in rows:
        made = outcome(Record, **fields)
        if made[0] != "ok":
            continue
        want = outcome(reference_line, made[1])
        assert outcome(record_to_line, made[1]) == want
        if want[0] == "ok":
            assert want[1].isascii() and "\n" not in want[1]
            records.append(made[1])
            lines.append(want[1])
        else:
            with pytest.raises(want[0]):
                encode_batch(records + [made[1]])
    payload = encode_batch(records)
    assert payload == "".join(line + "\n" for line in lines).encode()
    assert encode_batch(iter(records)) == payload
    # What the decoder makes of a line is canonical: those records
    # come back from their own batch equal, their lines verbatim.
    decoded = [decode_record_lines([line])[0] for line in lines]
    canonical = [found[0] for found in decoded if found]
    parsed, raw, truncated = parse_batch_lines(encode_batch(canonical))
    assert (parsed, truncated) == (canonical, False)
    assert raw == [record_to_line(record).encode()
                   for record in canonical]


# -- what the tuple newly allows --------------------------------------------

class TestTupleHazards:
    """A record is a tuple, and so does three things the dataclass did
    not.  None of them is a second way to write or read one."""

    record = Record(**GOOD)

    def test_equals_a_plain_tuple_of_its_fields(self):
        plain = tuple(GOOD.values())
        assert self.record == plain and hash(self.record) == hash(plain)
        assert type(plain) is not Record
        assert Reference(**GOOD) != plain

    def test_iterates_over_its_fields_in_order(self):
        assert list(self.record) == list(GOOD.values())
        assert len(self.record) == len(FIELDS) == 14
        assert self.record[:3] == ("TCP", 12.5, 1000.0)

    def test_json_dumps_writes_an_array_the_decoder_refuses(self):
        dumped = json.dumps(self.record)
        assert dumped.startswith('["TCP", 12.5, 1000.0, ')
        with pytest.raises(TypeError):
            json.dumps(Reference(**GOOD))
        good = record_to_line(self.record)
        assert decode_record_lines([dumped]) == ([], True)
        assert decode_record_lines([good, dumped, good]) \
            == ([self.record], True)
