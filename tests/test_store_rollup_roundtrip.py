"""Property tests for the RollupStore save/load round trip.

The durable formats (JSON snapshot and segment files) both promise
``load(save(s)).digest() == s.digest()`` for *any* store: empty,
single-bin histograms, keys containing the separator character,
failure-only ingest.  Hypothesis drives the record generator; the
schema-version gate gets its own explicit cases.

The fast paths ride on references written here: the key codec against
the character-by-character escaping codec, and ``decode_rows`` /
``decode_hist`` against decoders made of one ``read_uvarint`` call per
integer -- on well-formed payloads, in both stored part orders, and on
arbitrary truncations and bit-flips of them; the first writers' row
order, which the decoder once put right, is refused."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend.rollups import (
    SNAPSHOT_SCHEMA,
    MergeHist,
    RollupConfig,
    RollupStore,
    UnsupportedSchema,
    _decode_key,
    _encode_key,
    _escape_part,
)
from repro.core.records import MeasurementRecord
from repro.store.encoding import (
    decode_hist,
    decode_rows,
    encode_hist,
    read_uvarint,
    write_uvarint,
)
from repro.store.segments import (
    SegmentReader,
    encode_rows,
    sorted_rows,
    stored_order,
    stored_text,
    write_segment,
)

_SETTINGS = dict(
    max_examples=25, deadline=None,
    # tmp_path is handed to @given tests on purpose: each example
    # writes its own uniquely-named file inside the shared directory.
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])

_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1, max_size=12)

_records = st.lists(
    st.builds(
        MeasurementRecord,
        kind=st.sampled_from(["TCP", "DNS"]),
        rtt_ms=st.floats(min_value=0.0, max_value=10_000.0,
                         allow_nan=False),
        timestamp_ms=st.floats(min_value=0.0, max_value=3e10,
                               allow_nan=False),
        app_package=_names,
        domain=st.one_of(st.none(), _names),
        network_type=st.sampled_from(["WIFI", "LTE"]),
        operator=_names,
        failure=st.one_of(st.none(),
                          st.sampled_from(["timeout", "refused",
                                           "unreachable"])),
    ),
    max_size=40)


def _store_of(records):
    store = RollupStore()
    store.add_all(records)
    return store


class TestSnapshotRoundTrip:
    @given(records=_records)
    @settings(**_SETTINGS)
    def test_save_load_preserves_the_digest(self, records, tmp_path):
        store = _store_of(records)
        path = str(tmp_path / "state.json")
        store.save(path)
        loaded = RollupStore.load(path)
        assert loaded.digest() == store.digest()
        assert loaded.records == store.records
        for table in RollupStore.TABLES:
            assert loaded.tables[table].keys() == \
                store.tables[table].keys()

    @given(records=_records)
    @settings(**_SETTINGS)
    def test_segment_round_trip_matches_snapshot_round_trip(
            self, records, tmp_path):
        store = _store_of(records)
        seg = str(tmp_path / "seg.seg")
        write_segment(seg, store, seq=1)
        assert SegmentReader(seg).to_store().digest() == store.digest()

    def test_empty_store_round_trips(self, tmp_path):
        store = RollupStore()
        path = str(tmp_path / "empty.json")
        store.save(path)
        assert RollupStore.load(path).digest() == store.digest()

    def test_single_bin_hist_round_trips(self, tmp_path):
        store = RollupStore()
        hist = MergeHist()
        hist.add(42.0)
        store.tables["app"][("0", "com.one", "TCP")] = hist
        store.records = 1
        path = str(tmp_path / "one.json")
        store.save(path)
        loaded = RollupStore.load(path)
        assert loaded.digest() == store.digest()
        got = loaded.tables["app"][("0", "com.one", "TCP")]
        assert got.bins == hist.bins and got.count == hist.count

    def test_failure_records_are_live_only(self, tmp_path):
        """failure_records counts time-to-failure records that are
        never rolled up; the field is volatile by design and must not
        perturb the digest across a round trip."""
        store = RollupStore()
        store.add(MeasurementRecord(
            kind="TCP", rtt_ms=1.0, timestamp_ms=0.0,
            app_package="com.app", failure="timeout"))
        assert store.failure_records == 1 and store.records == 0
        assert "failure_records" not in store.snapshot()
        path = str(tmp_path / "f.json")
        store.save(path)
        loaded = RollupStore.load(path)
        assert loaded.failure_records == 0
        assert loaded.digest() == store.digest()


def _reference_decode_key(text):
    """The escaping decoder, one character at a time: a backslash
    takes the next character literally (a trailing one stands for
    itself), a bare ``|`` ends a part."""
    parts, current, index = [], [], 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            current.append(text[index + 1])
            index += 2
            continue
        if char == "|":
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
        index += 1
    parts.append("".join(current))
    return tuple(parts)


#: Key parts of every awkward shape: empty, non-ASCII, holding the
#: separator, the escape character, or ending in one.
_parts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "|", "\\", "a\\", "a|b", "\\|", "|\\",
                     "d\u00e9j\u00e0.example", "\u4e2d\u56fd\u79fb\u52a8",
                     "\U0001f4f6"]),
    st.text(alphabet="ab|\\\u00e9", max_size=8))
_keys = st.lists(_parts, min_size=1, max_size=4).map(tuple)


class TestKeyEncoding:
    @given(key=st.lists(_names, min_size=1, max_size=4))
    @settings(**_SETTINGS)
    def test_any_printable_key_round_trips(self, key):
        assert _decode_key(_encode_key(tuple(key))) == tuple(key)

    @given(key=_keys)
    @example(key=("0", "Cobalt Wifi", "WIFI", "TCP"))
    @example(key=("",))
    @example(key=("a\\",))
    @settings(max_examples=300, deadline=None)
    def test_fast_and_escaping_paths_agree(self, key):
        """Whichever path ``_encode_key`` takes, the text is the
        escaped join; whichever ``_decode_key`` takes, it undoes it."""
        text = _encode_key(key)
        assert text == "|".join(_escape_part(part) for part in key)
        assert _decode_key(text) == key
        assert _reference_decode_key(text) == key

    @given(text=st.text(alphabet="ab|\\\u00e9", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_decode_matches_the_reference_on_any_text(self, text):
        """Also on text no encoder wrote: a dangling escape, an
        escaped ordinary character."""
        assert _decode_key(text) == _reference_decode_key(text)

    def test_separator_in_key_no_longer_splits(self):
        """Regression: an operator named ``A|B`` used to come back as
        two key parts after save/load."""
        key = ("0", "Evil|Operator\\Inc", "WIFI", "TCP")
        assert _decode_key(_encode_key(key)) == key

    def test_separator_key_survives_save_load(self, tmp_path):
        store = RollupStore()
        store.add(MeasurementRecord(
            kind="TCP", rtt_ms=10.0, timestamp_ms=0.0,
            app_package="com.pipe", operator="Evil|Op"))
        path = str(tmp_path / "pipe.json")
        store.save(path)
        loaded = RollupStore.load(path)
        assert loaded.digest() == store.digest()
        assert ("0", "Evil|Op", "WIFI", "TCP") in \
            loaded.tables["network"]


def _reference_decode_hist(data, pos):
    """The hist codec read back one ``read_uvarint`` call per integer."""
    hist = MergeHist()
    hist.count, pos = read_uvarint(data, pos)
    hist.overflow, pos = read_uvarint(data, pos)
    n_entries, pos = read_uvarint(data, pos)
    index = 0
    for entry in range(n_entries):
        delta, pos = read_uvarint(data, pos)
        index = delta if entry == 0 else index + delta + 1
        count, pos = read_uvarint(data, pos)
        hist.bins[index] = count + 1
    return hist, pos


def _reference_decode_rows(payload, expected_rows=None):
    """``decode_rows`` from ``read_uvarint`` alone, one call per
    varint and one character per step of the key.  Rows come back
    under their stored text, as ``decode_rows`` returns them -- but
    every text is split here, refused unless it is exactly the
    escaped join of its parts, and a repeat is looked for among the
    key *tuples*: the check the decoder's one ``in`` per row has to
    be equal to."""
    n_rows, pos = read_uvarint(payload, 0)
    if expected_rows is not None and n_rows != expected_rows:
        raise ValueError("row count mismatch")
    rows = []
    for _ in range(n_rows):
        key_len, pos = read_uvarint(payload, pos)
        raw = payload[pos:pos + key_len]
        if len(raw) != key_len:
            raise ValueError("key runs past the payload")
        pos += key_len
        hist, pos = _reference_decode_hist(payload, pos)
        text = raw.decode("utf-8")
        key = _reference_decode_key(text)
        if "|".join(_escape_part(part) for part in key) != text:
            raise ValueError("key not in canonical form")
        rows.append((raw, text, key, hist))
    raws = [raw for raw, _text, _key, _hist in rows]
    if len({key for _raw, _text, key, _hist in rows}) != n_rows:
        raise ValueError("repeated key")
    if raws != sorted(raws):
        raise ValueError("rows out of key order")
    return {text: hist for _raw, text, _key, hist in rows}


def _payload(table, name):
    """``table`` as the one row payload segment blocks and checkpoint
    tables share, in table ``name``'s stored order."""
    rows = sorted_rows(table, lambda key: stored_text(name, key))
    return encode_rows(rows), len(rows)


#: One table stored as keyed, one stored subject-first.
_stored_as = st.sampled_from(["aoi", "app"])


def _outcome(decode, payload, expected_rows):
    """What a decoder makes of ``payload``: the rows in the order it
    returns them, or ``None`` for the two errors its callers turn
    into their typed corruption.  Anything else escapes."""
    try:
        table = decode(payload, expected_rows)
    except (ValueError, IndexError):
        return None
    return [(key, hist.count, hist.overflow, sorted(hist.bins.items()))
            for key, hist in table.items()]


def _hist_of(count, overflow, bins):
    hist = MergeHist()
    hist.count, hist.overflow, hist.bins = count, overflow, dict(bins)
    return hist


_hists = st.builds(
    _hist_of,
    count=st.integers(min_value=0, max_value=1 << 40),
    overflow=st.integers(min_value=0, max_value=300),
    bins=st.dictionaries(st.integers(min_value=0, max_value=31_999),
                         st.integers(min_value=1, max_value=100_000),
                         max_size=12))
_tables = st.dictionaries(_keys, _hists, max_size=12)

#: Every multi-byte varint position at once: counts >= 128, the top
#: bin index, a key longer than 127 bytes, plus the awkward key parts.
_AWKWARD_TABLE = {
    ("0", "x" * 200, "WIFI", "TCP"): _hist_of(129, 128, {31_999: 128}),
    ("0", "\u4e2d\u56fd\u79fb\u52a8", "LTE", "TCP"):
        _hist_of(3, 0, {0: 1, 1: 1, 130: 1}),
    ("0", "Evil|Op", "a\\"): _hist_of(1, 0, {260: 1}),
    ("", ""): _hist_of(16_384, 0, {5: 16_384}),
    ("\\",): _hist_of(0, 0, {}),
}


class TestRowDecoder:
    @given(table=_tables, name=_stored_as)
    @example(table=_AWKWARD_TABLE, name="aoi")
    @example(table=_AWKWARD_TABLE, name="app")
    @example(table={}, name="app")
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_reference_on_any_table(self, table, name):
        payload, n_rows = _payload(table, name)
        rows = _outcome(decode_rows, payload, n_rows)
        assert rows is not None
        assert rows == _outcome(_reference_decode_rows, payload, n_rows)
        assert rows == _outcome(decode_rows, payload, None)
        # Rows are keyed by the stored text, strictly ascending, and
        # nothing is lost: splitting the texts and putting the parts
        # back in key order gives exactly the table's keys.
        texts = [text for text, *_rest in rows]
        assert texts == sorted(stored_text(name, key) for key in table)
        assert len(set(texts)) == len(texts)
        assert [stored_order(name, _decode_key(text)) for text in texts] \
            == sorted(table, key=lambda key: stored_text(name, key))
        assert {text: bins for text, _c, _o, bins in rows} \
            == {stored_text(name, key): sorted(hist.bins.items())
                for key, hist in table.items()}
        assert _outcome(decode_rows, payload, n_rows + 1) is None

    @given(table=_tables, at=st.integers(min_value=0),
           bit=st.one_of(st.none(), st.integers(0, 7)),
           name=_stored_as)
    @example(table=_AWKWARD_TABLE, at=1, bit=7, name="aoi")
    @example(table=_AWKWARD_TABLE, at=207, bit=None, name="app")
    @settings(max_examples=400, deadline=None)
    def test_damaged_payloads_are_classified_like_the_reference(
            self, table, at, bit, name):
        """Cut the payload at ``at`` (``bit`` None) or flip one bit
        there: either both decoders return the same rows or both
        raise ValueError/IndexError -- never anything else, never a
        different answer."""
        payload, n_rows = _payload(table, name)
        at %= len(payload)
        if bit is None:
            damaged = payload[:at]
        else:
            damaged = (payload[:at] + bytes([payload[at] ^ (1 << bit)])
                       + payload[at + 1:])
        for expected in (n_rows, None):
            assert _outcome(decode_rows, damaged, expected) \
                == _outcome(_reference_decode_rows, damaged, expected)

    @given(table=_tables)
    @example(table={("1", "OpA"): _hist_of(1, 0, {4: 1}),
                    ("10", "OpA"): _hist_of(2, 0, {4: 2}),
                    ("1", "OpA2"): _hist_of(3, 0, {4: 3})})
    @settings(max_examples=150, deadline=None)
    def test_first_writers_row_order_is_refused(self, table):
        """Schema-1 segments and checkpoints stored rows sorted by key
        tuple, and the decoder used to sort such a payload into text
        order.  Both schemas are gone: the payload is refused whenever
        the two orders differ, and is the current one when not."""
        payload, n_rows = _payload(table, "aoi")
        legacy = bytearray()
        write_uvarint(legacy, len(table))
        for key in sorted(table):
            raw = _encode_key(key).encode("utf-8")
            write_uvarint(legacy, len(raw))
            legacy.extend(raw)
            encode_hist(legacy, table[key])
        legacy = bytes(legacy)
        rows = _outcome(decode_rows, payload, n_rows)
        for decode in (decode_rows, _reference_decode_rows):
            assert _outcome(decode, legacy, n_rows) \
                == (rows if legacy == payload else None)

    @given(hist=_hists, cut=st.integers(min_value=0))
    @settings(max_examples=150, deadline=None)
    def test_hist_decoder_agrees_with_the_reference(self, hist, cut):
        out = bytearray(b"\x00")
        encode_hist(out, hist)
        data = bytes(out)
        decoded, pos = decode_hist(data, 1)
        reference, reference_pos = _reference_decode_hist(data, 1)
        assert pos == reference_pos == len(data)
        assert (decoded.count, decoded.overflow, decoded.bins) \
            == (reference.count, reference.overflow, reference.bins) \
            == (hist.count, hist.overflow, hist.bins)
        with pytest.raises((ValueError, IndexError)):
            decode_hist(data[:1 + cut % (len(data) - 1)], 1)


class TestSchemaGate:
    def test_current_schema_is_stamped(self):
        assert RollupStore().snapshot()["schema"] == SNAPSHOT_SCHEMA

    def test_snapshot_without_schema_key_is_refused(self, tmp_path):
        """The first writer's form, once read as "version 1"."""
        store = _store_of([MeasurementRecord(
            kind="TCP", rtt_ms=10.0, timestamp_ms=0.0,
            app_package="com.v1")])
        snapshot = store.snapshot()
        del snapshot["schema"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(snapshot))
        with pytest.raises(UnsupportedSchema, match="schema None "):
            RollupStore.load(str(path))
        with pytest.raises(UnsupportedSchema):
            RollupStore.from_snapshot(snapshot)

    def _refused_by_name(self, tmp_path, schema):
        snapshot = RollupStore().snapshot()
        snapshot["schema"] = schema
        path = tmp_path / "other.json"
        path.write_text(json.dumps(snapshot))
        with pytest.raises(UnsupportedSchema) as refused:
            RollupStore.load(str(path))
        for told in (str(path), "schema %d " % schema,
                     "only schema %d;" % SNAPSHOT_SCHEMA):
            assert told in str(refused.value)

    def test_newer_schema_rejected_with_clear_error(self, tmp_path):
        self._refused_by_name(tmp_path, SNAPSHOT_SCHEMA + 1)

    def test_older_schema_rejected_the_same_way(self, tmp_path):
        """2: escaped keys, but only the five pre-PR-9 tables."""
        self._refused_by_name(tmp_path, 2)

    def test_missing_table_is_a_value_error_not_empty(self, tmp_path):
        """A pre-PR-9 snapshot re-stamped 3, or a truncated one: a
        table of this schema that is not there does not load empty."""
        snapshot = _store_of([MeasurementRecord(
            kind="TCP", rtt_ms=10.0, timestamp_ms=0.0,
            app_package="com.app")]).snapshot()
        del snapshot["tables"]["aoi"]
        path = tmp_path / "five-tables.json"
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ValueError, match="missing required.*aoi"):
            RollupStore.load(str(path))

    def test_missing_field_is_a_value_error_not_keyerror(self,
                                                         tmp_path):
        snapshot = RollupStore().snapshot()
        del snapshot["config"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ValueError, match="missing required"):
            RollupStore.load(str(path))
