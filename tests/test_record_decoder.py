"""The JSONL record decoder (``repro.core.persist.decode_record_lines``)
and the ingest contract it carries: each line is parsed by ``orjson``,
which must be indistinguishable from ``json.loads`` per line, and a
line that is not a record truncates the batch instead of raising
through it."""

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import IngestPipeline, ingest, parse_batch_lines
from repro.backend.rollups import RollupStore
from repro.core import persist
from repro.core.persist import (
    _normalize_kind,
    decode_record_lines,
    iter_jsonl,
    record_to_line,
)
from repro.core.records import MeasurementRecord
from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine


def _rec(rtt=100.0, ts=0.0, **fields):
    fields.setdefault("app_package", "com.app.a")
    fields.setdefault("device_id", "dev-1")
    return MeasurementRecord(kind="TCP", rtt_ms=rtt, timestamp_ms=ts,
                             **fields)


def _line(**overrides):
    """A canonical line with some values replaced by raw JSON text."""
    line = record_to_line(_rec())
    for key, raw in overrides.items():
        before = json.dumps({key: json.loads(line)[key]})[1:-1]
        assert before in line
        line = line.replace(before, '"%s": %s' % (key, raw))
    return line


def _payload(lines):
    return ("\n".join(lines) + "\n").encode("utf-8")


# -- hostile lines truncate, they do not raise ------------------------------

HOSTILE = {
    "array": "[1,2]",
    "number": "5",
    "null": "null",
    "string": '"TCP"',
    "short location": _line(location="[1.0]"),
    "400-digit rtt": _line(rtt_ms="9" * 400),
    "infinite app_uid": _line(app_uid="1e999"),
    "operator is a list": _line(operator="[1]"),
    "app_package is an object": _line(app_package='{"a": 1}'),
    "domain is a number": _line(domain="5"),
    "network_type is a number": _line(network_type="7"),
    "device_id is true": _line(device_id="true"),
    "deep nesting": "[" * 100_000,
    "deep nesting in a record": _line(location="[" * 100_000),
    "deep nesting, closed": _line(
        location="[" * 100_000 + "]" * 100_000),
}


@pytest.mark.parametrize("hostile", list(HOSTILE.values()),
                         ids=list(HOSTILE))
@pytest.mark.parametrize("good_before", [1, 3])
def test_hostile_line_is_a_malformed_line(hostile, good_before):
    obs = Observability()
    pipe = IngestPipeline(obs=obs)
    good = [record_to_line(_rec(rtt=float(i))) for i in range(5)]
    lines = good[:good_before] + [hostile] + good[good_before:]
    outcome = pipe.handle_batch("dev-1", 0, _payload(lines), 0.0)
    assert outcome.status == "ack"
    assert outcome.acked == good_before
    assert outcome.truncated
    assert [r.rtt_ms for r in outcome.records] == \
        [float(i) for i in range(good_before)]
    assert obs.value("backend.malformed_lines") == 1
    assert pipe.rollups.records == good_before


# -- non-finite numbers -----------------------------------------------------

@pytest.mark.parametrize("field, raw", [
    ("rtt_ms", "NaN"), ("rtt_ms", "Infinity"),
    ("timestamp_ms", "NaN"), ("timestamp_ms", "Infinity"),
    ("timestamp_ms", "-Infinity"),
])
def test_non_finite_number_truncates_a_durable_batch(tmp_path, field,
                                                     raw):
    good = [record_to_line(_rec(rtt=10.0 + i, ts=i * 1000.0))
            for i in range(4)]
    payload = _payload(good[:2] + [_line(**{field: raw})] + good[2:])

    def open_store(name):
        return StoreEngine(
            str(tmp_path / name),
            config=StoreConfig(flush_threshold_records=None),
            obs=Observability())

    engine = open_store("hostile")
    pipe = IngestPipeline(store=engine, obs=engine.obs)
    outcome = pipe.handle_batch("dev-1", 7, payload, 0.0)
    assert (outcome.status, outcome.acked, outcome.truncated) == \
        ("ack", 2, True)
    assert engine.memtable.records == 2
    assert engine.dedup[("dev-1", 7)] == 2

    replay = pipe.handle_batch("dev-1", 7, payload, 1.0)
    assert replay.duplicate and replay.acked == 2
    assert engine.memtable.records == 2

    prefix = open_store("prefix")
    IngestPipeline(store=prefix, obs=prefix.obs).handle_batch(
        "dev-1", 7, _payload(good[:2]), 0.0)
    engine.crash()
    info = engine.recover()
    assert info.wal_records == 2
    assert engine.memtable.digest() == prefix.memtable.digest()
    engine.close()
    prefix.close()


def test_null_app_package_is_not_a_poison_pill(tmp_path):
    """A well-formed TCP line with ``"app_package": null`` used to be
    ACKed and WAL-logged with ``None`` as a key part, after which
    flush, checkpoint and digest raised ``TypeError`` -- and replay
    put the ``None`` back after every recovery.  It rolls up under
    ``unknown``, like every other kind's missing package."""
    def open_store(name):
        return StoreEngine(
            str(tmp_path / name),
            config=StoreConfig(flush_threshold_records=None),
            obs=Observability())

    def upload(engine, package):
        lines = [record_to_line(_rec(rtt=20.0)),
                 _line(app_package=package)]
        outcome = IngestPipeline(store=engine, obs=engine.obs) \
            .handle_batch("dev-1", 3, _payload(lines), 0.0)
        assert (outcome.status, outcome.acked, outcome.truncated) == \
            ("ack", 2, False)

    engine, named = open_store("null"), open_store("named")
    upload(engine, "null")
    upload(named, '"unknown"')
    want = named.memtable.digest()
    assert engine.memtable.digest() == want
    engine.crash()
    assert engine.recover().wal_records == 2     # replay re-keys it
    assert engine.memtable.digest() == want
    assert engine.checkpoint() is not None
    engine.flush()
    engine.crash()
    engine.recover()
    assert engine.materialize().digest() == want
    engine.close()
    named.close()


@pytest.mark.parametrize("field", ["rtt_ms", "timestamp_ms"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_record_rejects_non_finite(field, value):
    with pytest.raises(ValueError):
        _rec(**{"rtt" if field == "rtt_ms" else "ts": value})


# -- json.loads only where orjson could read a line differently -------------

@pytest.fixture
def loads_calls(monkeypatch):
    calls = []
    real = json.loads

    def counting(text, *args, **kwargs):
        calls.append(text)
        return real(text, *args, **kwargs)

    monkeypatch.setattr(persist.json, "loads", counting)
    return calls


def test_clean_batch_costs_no_stdlib_parse(loads_calls):
    lines = [record_to_line(_rec(rtt=float(i))) for i in range(50)]
    records, raw, truncated = parse_batch_lines(_payload(lines))
    assert loads_calls == []
    assert not truncated
    assert [r.rtt_ms for r in records] == [float(i) for i in range(50)]
    assert raw == [line.encode("utf-8") for line in lines]


def test_big_int_app_uid_costs_one_stdlib_parse(loads_calls):
    """``orjson`` reads an integer past 64 bits as a ``float``; the one
    line that holds one in ``app_uid`` is parsed again, exactly."""
    lines = [record_to_line(_rec(rtt=float(i))) for i in range(5)]
    lines[2] = record_to_line(_rec(rtt=2.0, app_uid=10 ** 30))
    records, raw, truncated = parse_batch_lines(_payload(lines))
    assert loads_calls == [lines[2]]
    assert (len(records), len(raw), truncated) == (5, 5, False)
    assert records[2].app_uid == 10 ** 30


def test_bad_37th_line_still_acks_36(loads_calls):
    lines = [record_to_line(_rec(rtt=float(i))) for i in range(50)]
    lines[36] = "{broken"
    records, raw, truncated = parse_batch_lines(_payload(lines))
    assert truncated
    assert len(records) == len(raw) == 36
    # orjson refuses the bad line; json.loads is asked once, and agrees.
    assert loads_calls == ["{broken"]


def test_file_is_read_in_chunks_of_lines(tmp_path, monkeypatch):
    calls = []
    real = persist.decode_record_lines

    def counting(lines):
        calls.append(len(lines))
        return real(lines)

    monkeypatch.setattr(persist, "decode_record_lines", counting)
    n = 2 * persist._CHUNK_LINES + 3
    path = str(tmp_path / "ds.jsonl")
    with open(path, "w") as handle:
        for i in range(n):
            handle.write(record_to_line(_rec(rtt=float(i))) + "\n\n")
    assert [r.rtt_ms for r in iter_jsonl(path)] == \
        [float(i) for i in range(n)]
    # Blank lines count towards a chunk (2n lines in all), and are
    # dropped before the decode.
    assert len(calls) == -(-2 * n // persist._CHUNK_LINES)
    assert sum(calls) == n


def test_iter_jsonl_yields_the_prefix_then_raises(tmp_path):
    path = str(tmp_path / "ds.jsonl")
    with open(path, "w") as handle:
        handle.write(record_to_line(_rec(rtt=1.0)) + "\n")
        handle.write("[1,2]\n")
        handle.write(record_to_line(_rec(rtt=2.0)) + "\n")
    seen = []
    with pytest.raises(ValueError, match="not a record"):
        for record in iter_jsonl(path):
            seen.append(record.rtt_ms)
    assert seen == [1.0]


def test_wal_replay_refuses_a_line_that_is_not_a_record(tmp_path):
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(flush_threshold_records=None),
        obs=Observability())
    line = record_to_line(_rec()).encode("utf-8")
    engine.log_batch("dev-1", 0, 2, [], lines=[line, b"[1,2]"])
    engine.crash()
    with pytest.raises(ValueError, match="line 2 is not a record"):
        engine.recover()


# -- the decoder is observably json.loads per line --------------------------

def _reference_record(data):
    """``_record_from_dict`` the slow way: a ``.get`` per optional
    field, a type check per text field, the kind normalised every
    time."""
    location = data.get("location")
    if location is not None:
        location = (float(location[0]), float(location[1]))
    for key in ("app_package", "dst_ip", "domain", "network_type",
                "operator", "country", "device_id"):
        if not isinstance(data.get(key) or "", str):
            raise TypeError("%s is not text" % key)
    return MeasurementRecord(
        kind=_normalize_kind(data["kind"]),
        rtt_ms=float(data["rtt_ms"]),
        timestamp_ms=float(data["timestamp_ms"]),
        app_package=data.get("app_package") or None,
        app_uid=(int(data["app_uid"])
                 if data.get("app_uid") not in (None, "") else None),
        dst_ip=data.get("dst_ip", ""),
        dst_port=int(data.get("dst_port") or 0),
        domain=data.get("domain") or None,
        network_type=data.get("network_type", "WIFI"),
        operator=data.get("operator", "unknown"),
        country=data.get("country", "unknown"),
        device_id=data.get("device_id", "local"),
        failure=data.get("failure") or None,
        location=location)


def _reference(lines):
    """What the decoder must equal: ``json.loads`` and the reference
    builder per line, stopping at the first line either refuses."""
    records = []
    for line in lines:
        try:
            records.append(_reference_record(json.loads(line)))
        except (ValueError, LookupError, TypeError, AttributeError,
                ArithmeticError, RecursionError):
            return records, True
    return records, False


_CANONICAL = record_to_line(MeasurementRecord(
    kind="DNS", rtt_ms=12.5, timestamp_ms=1000.0, app_package=None,
    app_uid=10001, dst_ip="8.8.8.8", dst_port=53, domain="a.example",
    network_type="LTE", operator="OpA", country="US",
    device_id="dev-2", failure="timeout", location=(1.5, -2.5)))

#: Lines and line fragments with a history of fooling a batched parse.
_FRAGMENTS = [
    _CANONICAL,
    record_to_line(_rec()),
    '{"kind": "TCP", "rtt_ms": 1, "timestamp_ms": 2}',
    _line(kind='"tcp"'), _line(kind='" dns "'), _line(kind='"ICMP"'),
    _line(kind="5"), _line(kind='["TCP"]'),
    _line(rtt_ms="-1.0"), _line(rtt_ms="NaN"), _line(rtt_ms='"7.5"'),
    _line(timestamp_ms="-Infinity"), _line(failure='"bogus"'),
    _line(failure='""'), _line(app_uid='""'), _line(app_uid='"12"'),
    _line(dst_port="null"), _line(dst_port='"443"'),
    _line(location="[1.0]"), _line(location="[1, 2, 3]"),
    _line(operator="[1]"), _line(operator="0"), _line(domain="5"),
    _line(domain="[]"), _line(app_package="false"),
    _line(app_package="1.5"), _line(dst_ip="null"),
    _line(country='{"a": 1}'), _line(device_id="7"),
    _line(network_type="true"),
    _line(location='{"lat": 1}'), _line(domain='"has } brace"'),
    _line(domain='"has { brace"'), _line(domain='"esc \\" } quote"'),
    _line(operator='"sep\u2028arator"'), _line(operator='"nel\x85"'),
    _line(operator='"vt\x0bab"'), _line(operator='"tab\there"'),
    _line(operator='"nl\\nescaped"'),
    _CANONICAL[:-1] + ', "extra": 1}',
    _CANONICAL[:-1] + ', "extra": {"nested": 1}}',
    _CANONICAL.replace('"kind": "DNS", ', ""),
    _CANONICAL.replace('"kind": "DNS"', '"kind": "DNS", "kind": "TCP"'),
    _CANONICAL + "," + _CANONICAL,
    _CANONICAL + " " + _CANONICAL,
    _CANONICAL + "}", "{" + _CANONICAL, _CANONICAL + ",",
    _CANONICAL + ",5", "5," + _CANONICAL, _CANONICAL + ",null",
    _CANONICAL[:-1] + ', "x": [{}', "{}]}",
    _CANONICAL[:-1] + ', "x": [1', "2]}",
    _CANONICAL[:-1] + ', "a": "x}', '{y"}',
    _CANONICAL[:-1], "}", "{", "{}", "[]", "[1,2]", "5", "null", '"}"',
    "", " ", "  " + _CANONICAL, _CANONICAL + "  ", "\t" + _CANONICAL,
    _CANONICAL.replace(", ", ",\n"), _CANONICAL.replace(", ", ",\r"),
    "\ufeff" + _CANONICAL, "{broken", "nope", "]", "[", ",",
    "}," + _CANONICAL[:-1], '{"a": 1}]', '[{"a": 1}',
]

_PROPERTY = dict(max_examples=400, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _same(lines):
    records, truncated = decode_record_lines(lines)
    expected, expected_truncated = _reference(lines)
    assert truncated == expected_truncated
    assert len(records) == len(expected)
    # By repr, not ==: 1 and 1.0 and True must not pass for each other.
    assert repr(records) == repr(expected)


@pytest.mark.parametrize("second", _FRAGMENTS)
def test_every_fragment_after_a_clean_line(second):
    _same([_CANONICAL, second])
    _same([second, _CANONICAL])
    _same([second])


@given(lines=st.lists(st.sampled_from(_FRAGMENTS), max_size=8))
@settings(**_PROPERTY)
def test_decoder_equals_a_parse_per_line(lines):
    _same(lines)


_JSON_TEXT = st.text(alphabet=list('{}[]",:\\ \n\r\t\x0b\x85\u20281ae.-'),
                     max_size=12)


@given(lines=st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS[:3]), _JSON_TEXT,
              st.builds(lambda a, b: '{"kind": "TCP", "rtt_ms": 1, '
                        '"timestamp_ms": 2, "domain": %s%s' % (a, b),
                        _JSON_TEXT, st.sampled_from(["}", '"}', ""]))),
    max_size=6))
@settings(**_PROPERTY)
def test_decoder_equals_a_parse_per_line_on_json_soup(lines):
    _same(lines)


@given(lines=st.lists(st.sampled_from(_FRAGMENTS), max_size=8))
@settings(**_PROPERTY)
def test_upload_path_keeps_the_prefix_lines_verbatim(lines):
    """``parse_batch_lines`` cuts the payload where ``str.splitlines``
    does, drops blank lines, and returns the raw bytes of exactly the
    lines it decoded."""
    payload = "\n".join(lines).encode("utf-8")
    cut = [line for line in payload.decode("utf-8").splitlines()
           if line.strip()]
    expected, expected_truncated = _reference(cut)
    records, raw, truncated = parse_batch_lines(payload)
    assert (records, truncated) == (expected, expected_truncated)
    assert raw == [line.encode("utf-8")
                   for line in cut[:len(expected)]]
    store = RollupStore()
    assert store.add_all(records) == len(records)


# -- the array-join decoder this one replaced is the reference --------------

def _each_braced(lines):
    for line in lines:
        if line[:1] != "{" or line[-1:] != "}":
            return False
    return True


def _array_join_decode(lines):
    """The decoder before ``orjson``: two or more lines parsed by one
    ``json.loads`` of the lines joined into an array, when every line
    starts ``{`` and ends ``}`` and the batch holds as many ``{`` as
    lines (a line's one ``{`` then opens an object that must close on
    its last character, and the raw newline in the separator makes a
    string that runs into the next line a parse error); otherwise, or
    if that parse fails, ``json.loads`` per line."""
    rows = map(json.loads, lines)
    n = len(lines)
    if n > 1:
        text = "[%s]" % ",\n".join(lines)
        if text.count("{") == n and _each_braced(lines):
            try:
                rows = json.loads(text)
            except (ValueError, RecursionError):
                pass
    records = []
    try:
        for row in rows:
            records.append(persist._record_from_dict(row))
    except persist._MALFORMED:
        return records, True
    return records, False


def _canonical_with(**fields):
    """``record_to_line`` of a record holding values the line form
    writes but ``orjson`` reads otherwise or not at all."""
    return record_to_line(_rec(**fields))


_BIG_INTS = [str(2 ** 63), str(2 ** 64), str(-2 ** 63 - 1), str(10 ** 30)]
_NUMBERS = _BIG_INTS + ["443.0", "9" * 400, "1e400", "-1e400", "NaN",
                        "Infinity", "-Infinity", "0", "443"]
_TEXTS = ['"\\ud800"', '"a\\udfffb"', '"\\u2028"', '"sep\\u2028x"',
          '" "', '"ok"']
_HOSTILE_LINES = st.one_of(
    st.builds(lambda field, raw: _line(**{field: raw}),
              st.sampled_from(["app_uid", "dst_port", "rtt_ms",
                               "timestamp_ms"]),
              st.sampled_from(_NUMBERS)),
    st.builds(lambda raw: _line(location=raw), st.sampled_from([
        "[Infinity, 1]", "[1e400, 2]", "[NaN, -Infinity]",
        "[%s, 1]" % (10 ** 30), "[%s, 2]" % ("9" * 400)])),
    st.builds(lambda field, raw: _line(**{field: raw}),
              st.sampled_from(["operator", "domain", "device_id",
                               "kind"]),
              st.sampled_from(_TEXTS)),
    st.builds(lambda key, first, last: _CANONICAL[:-1]
              + ', "%s": %s, "%s": %s}' % (key, first, key, last),
              st.sampled_from(["app_uid", "dst_port", "rtt_ms",
                               "operator"]),
              st.sampled_from(_NUMBERS + _TEXTS),
              st.sampled_from(_NUMBERS + _TEXTS)),
    st.sampled_from([
        _canonical_with(app_uid=10 ** 30),
        _canonical_with(app_uid=-2 ** 63 - 1, dst_port=2 ** 64),
        _canonical_with(location=(float("nan"), float("inf"))),
        _canonical_with(location=(float("-inf"), 1.0)),
        _canonical_with(operator="\ud800", domain=" "),
    ]))
_CANONICAL_LINES = st.sampled_from(
    [_CANONICAL] + [record_to_line(_rec(rtt=float(i), app_uid=i))
                    for i in range(3)])


def _same_as_array_join(lines):
    records, truncated = decode_record_lines(lines)
    expected, expected_truncated = _array_join_decode(lines)
    assert truncated == expected_truncated
    # By repr: NaN is not equal to itself, and 1 must not pass for 1.0.
    assert repr(records) == repr(expected)
    payload = "\n".join(lines).encode("utf-8")
    with mock.patch.object(ingest, "decode_record_lines",
                           _array_join_decode):
        expected_parse = parse_batch_lines(payload)
    assert repr(parse_batch_lines(payload)) == repr(expected_parse)


@given(lines=st.lists(st.one_of(_CANONICAL_LINES, _HOSTILE_LINES),
                      max_size=6))
@settings(**_PROPERTY)
def test_decoder_equals_the_array_join_decoder(lines):
    _same_as_array_join(lines)


@pytest.mark.parametrize("line", [
    _canonical_with(app_uid=10 ** 30),
    _canonical_with(dst_port=2 ** 64 + 1),
    _line(dst_port="443.0"),
    _line(rtt_ms=str(10 ** 30)),
    _canonical_with(location=(float("nan"), 1.0)),
    _line(location="[1e400, 2]"),
    _line(operator='"\\ud800"'),
    _CANONICAL[:-1] + ', "app_uid": %d}' % 10 ** 30,
], ids=["uid-10^30", "port-2^64+1", "port-443.0", "rtt-10^30",
        "location-nan", "location-1e400", "lone-surrogate",
        "duplicate-uid"])
def test_what_orjson_reads_otherwise_is_read_exactly(line):
    _same_as_array_join([_CANONICAL, line, _CANONICAL])
    assert repr(decode_record_lines([line])) == repr(_reference([line]))
