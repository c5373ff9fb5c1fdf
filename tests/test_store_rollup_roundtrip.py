"""Property tests for the RollupStore round trips.

A store reaches disk as a segment file, written by a flush or as a
checkpoint (one block a table), and both promise
``digest(read(write(s))) == s.digest()`` for *any* store: empty,
single-bin histograms, keys containing the separator character,
failure-only ingest.  Hypothesis drives the record generator.  The
canonical snapshot the digest hashes is never read back; its schema
stamp gets one explicit case.

The fast paths ride on references written here: the key codec against
the character-by-character escaping codec, and ``decode_block`` (numpy
columns, rows built on demand) against a decoder made of ``struct``
and ``int.from_bytes`` that builds every row -- on well-formed
payloads, in both stored part orders, and on arbitrary truncations and
bit-flips of them; the first writers' row order, which the decoder
once put right, is refused."""

import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backend.rollups import (
    N_BINS,
    SNAPSHOT_SCHEMA,
    MergeHist,
    RollupStore,
    _decode_key,
    _encode_key,
    _escape_part,
)
from repro.core.records import MeasurementRecord
from repro.store.encoding import decode_block, encode_block
from repro.store.segments import (
    SegmentReader,
    merged_rollups,
    read_checkpoint,
    sorted_rows,
    stored_order,
    stored_text,
    write_checkpoint,
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


def _read_back(store, tmp_path):
    """``store`` written as a segment and as a checkpoint, and each
    read back."""
    seg, ckpt = str(tmp_path / "seg.seg"), str(tmp_path / "c.ckpt")
    write_segment(seg, store, seq=1)
    write_checkpoint(ckpt, store, 1)
    with SegmentReader(seg) as reader:
        from_segment = merged_rollups([reader], reader.config)
    return from_segment, read_checkpoint(ckpt)


class TestSnapshotRoundTrip:
    @given(records=_records)
    @settings(**_SETTINGS)
    def test_save_load_preserves_the_digest(self, records, tmp_path):
        store = _store_of(records)
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, store, 1)
        loaded = read_checkpoint(path)
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
        with SegmentReader(seg) as reader:
            assert merged_rollups([reader], reader.config) \
                .digest() == store.digest()

    def test_empty_store_round_trips(self, tmp_path):
        store = RollupStore()
        for loaded in _read_back(store, tmp_path):
            assert loaded.digest() == store.digest()

    def test_single_bin_hist_round_trips(self, tmp_path):
        store = RollupStore()
        hist = MergeHist()
        hist.add(42.0)
        store.tables["app"][("0", "com.one", "TCP")] = hist
        store.records = 1
        for loaded in _read_back(store, tmp_path):
            assert loaded.digest() == store.digest()
            got = loaded.tables["app"][("0", "com.one", "TCP")]
            assert got.bins == hist.bins and got.count == hist.count

    def test_failure_records_are_live_only(self, tmp_path):
        """failure_records counts time-to-failure records that are
        never rolled up; the digest does not see the field, so a
        failure-only store digests as an empty one, on disk too."""
        store = RollupStore()
        store.add(MeasurementRecord(
            kind="TCP", rtt_ms=1.0, timestamp_ms=0.0,
            app_package="com.app", failure="timeout"))
        assert store.failure_records == 1 and store.records == 0
        assert "failure_records" not in store.snapshot()
        assert store.digest() == RollupStore().digest()
        for loaded in _read_back(store, tmp_path):
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
                     "\U0001f4f6", "\n", "\x00", "\U0010ffff"]),
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
        for loaded in _read_back(store, tmp_path):
            assert loaded.digest() == store.digest()
            assert ("0", "Evil|Op", "WIFI", "TCP") in \
                loaded.tables["network"]


def _reference_decode_block(payload, expected_rows=None):
    """``decode_block`` from ``struct`` and ``int.from_bytes`` alone:
    one integer at a time, one ``(text, count, overflow, bins)`` per
    row, one character per step of the key.  Every text is split here,
    refused unless it is exactly the escaped join of its parts, and a
    repeat is looked for among the key *tuples*: the check the
    decoder's strict ascent of texts has to be equal to."""
    def inside(end):
        if end > len(payload):
            raise ValueError("payload ends early")

    def column(pos, n):
        inside(pos + 1)
        width = payload[pos]
        if width not in (1, 2, 4, 8):
            raise ValueError("no such column width")
        pos += 1
        inside(pos + n * width)
        values = [int.from_bytes(payload[at:at + width], "little")
                  for at in range(pos, pos + n * width, width)]
        top = max(values, default=0)
        if top >= 1 << 63:
            raise ValueError("value past 63 bits")
        if width != next(w for w in (1, 2, 4, 8) if top < 1 << 8 * w):
            raise ValueError("column wider than it needs to be")
        return values, pos + n * width

    inside(8)
    n_rows, key_bytes = struct.unpack_from("<II", payload)
    if expected_rows is not None and n_rows != expected_rows:
        raise ValueError("row count mismatch")
    inside(8 + key_bytes)
    keys = payload[8:8 + key_bytes]
    key_lengths, pos = column(8 + key_bytes, n_rows)
    counts, pos = column(pos, n_rows)
    overflows, pos = column(pos, n_rows)
    n_bins, pos = column(pos, n_rows)
    stored_indices, pos = column(pos, sum(n_bins))
    stored_counts, pos = column(pos, sum(n_bins))
    if pos != len(payload):
        raise ValueError("bytes after the last column")
    if sum(key_lengths) != key_bytes:
        raise ValueError("key lengths do not sum to the key bytes")
    rows, raws, tuples = [], [], set()
    key_at = bin_at = 0
    for row in range(n_rows):
        raw = keys[key_at:key_at + key_lengths[row]]
        key_at += key_lengths[row]
        text = raw.decode("utf-8")
        key = _reference_decode_key(text)
        if "|".join(_escape_part(part) for part in key) != text:
            raise ValueError("key not in canonical form")
        bins, index = [], -1
        for _ in range(n_bins[row]):
            index += stored_indices[bin_at] + 1
            if index >= N_BINS:
                raise ValueError("bin off the grid")
            bins.append((index, stored_counts[bin_at] + 1))
            bin_at += 1
        rows.append((text, counts[row], overflows[row], bins))
        raws.append(raw)
        tuples.add(key)
    if len(tuples) != n_rows:
        raise ValueError("repeated key")
    if raws != sorted(raws):
        raise ValueError("rows out of key order")
    return rows


def _payload(table, name):
    """``table`` as the one block payload every segment block holds,
    in table ``name``'s stored order."""
    rows = sorted_rows(table, name)
    return encode_block(rows), len(rows)


#: One table stored as keyed, one stored subject-first.
_stored_as = st.sampled_from(["aoi", "app"])


def _outcome(payload, expected_rows):
    """What ``decode_block`` makes of ``payload`` -- every row built,
    in stored order -- or ``None`` for the one error its callers turn
    into their typed corruption.  Anything else escapes, and so does
    anything at all once the payload has decoded: no check is left
    for ``hist(i)`` to make."""
    try:
        block = decode_block(payload, expected_rows)
    except ValueError:
        return None
    rows = [(text, hist.count, hist.overflow, sorted(hist.bins.items()))
            for text, hist in ((text, block.hist(i))
                               for i, text in enumerate(block.texts))]
    assert [hist for _text, hist in block.rows()] \
        == [block.hist(i) for i in range(len(block.texts))]
    # What decodes is what the encoder writes for those rows.
    assert encode_block(list(block.rows())) == payload
    return rows


def _reference_outcome(payload, expected_rows):
    try:
        return _reference_decode_block(payload, expected_rows)
    except ValueError:
        return None


def _hist_of(count, overflow, bins):
    hist = MergeHist()
    hist.count, hist.overflow, hist.bins = count, overflow, dict(bins)
    return hist


#: Either side of every column width, and the last value a column
#: takes.
_EDGES = [0, 1, 255, 256, 65_535, 65_536, (1 << 32) - 1, 1 << 32,
          (1 << 63) - 1]
_counts = st.one_of(st.integers(min_value=0, max_value=1 << 40),
                    st.sampled_from(_EDGES))
_hists = st.builds(
    _hist_of,
    count=_counts,
    overflow=_counts,
    bins=st.dictionaries(
        st.integers(min_value=0, max_value=N_BINS - 1),
        # Stored less one: the edges of the stored value, too.
        st.one_of(st.integers(min_value=1, max_value=100_000),
                  st.sampled_from(_EDGES).map(lambda n: n + 1)),
        max_size=12))
_tables = st.dictionaries(_keys, _hists, max_size=12)

#: Every column at more than one byte a value: counts >= 256, the top
#: bin index, a key longer than 255 bytes, plus the awkward key parts
#: and a row with no bins.
_AWKWARD_TABLE = {
    ("0", "x" * 300, "WIFI", "TCP"):
        _hist_of(65_536, 256, {N_BINS - 1: 1 << 32}),
    ("0", "中国移动", "LTE", "TCP"):
        _hist_of(3, 0, {0: 1, 1: 1, 130: 1}),
    ("0", "Evil|Op", "a\\"): _hist_of(1, 0, {260: 1}),
    ("0", "\n", "\x00", "\U0010ffff"): _hist_of(2, 1, {31_000: 2}),
    ("", ""): _hist_of(16_384, 0, {5: 16_384}),
    ("\\",): _hist_of(0, 0, {}),
}


def _damaged(payload, at, bit):
    """``payload`` cut at ``at`` (``bit`` None) or with one bit
    flipped there."""
    if bit is None:
        return payload[:at]
    return (payload[:at] + bytes([payload[at] ^ (1 << bit)])
            + payload[at + 1:])


class TestRowDecoder:
    @given(table=_tables, name=_stored_as)
    @example(table=_AWKWARD_TABLE, name="aoi")
    @example(table=_AWKWARD_TABLE, name="app")
    @example(table={}, name="app")
    @example(table={("one",): _hist_of(1, 0, {8: 1})}, name="app")
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_reference_on_any_table(self, table, name):
        payload, n_rows = _payload(table, name)
        rows = _outcome(payload, n_rows)
        assert rows is not None
        assert rows == _reference_outcome(payload, n_rows)
        assert rows == _outcome(payload, None)
        # Rows are keyed by the stored text, strictly ascending, and
        # nothing is lost: splitting the texts and putting the parts
        # back in key order gives exactly the table's keys.
        texts = [text for text, *_rest in rows]
        assert texts == sorted(stored_text(name, key) for key in table)
        assert len(set(texts)) == len(texts)
        assert [stored_order(name, _decode_key(text)) for text in texts] \
            == sorted(table, key=lambda key: stored_text(name, key))
        assert {text: (count, overflow, bins)
                for text, count, overflow, bins in rows} \
            == {stored_text(name, key):
                (hist.count, hist.overflow, sorted(hist.bins.items()))
                for key, hist in table.items()}
        assert _outcome(payload, n_rows + 1) is None

    def test_block_hands_out_rows_by_text_and_builds_each_once(self):
        payload, n_rows = _payload(_AWKWARD_TABLE, "aoi")
        block = decode_block(payload, n_rows)
        assert block._hists == [None] * n_rows
        for i, text in enumerate(block.texts):
            assert block.get(text) is block.hist(i)
            assert block.get(text + "|") is None
            assert block.hist(i).epoch == 0
        assert block.get("") is None

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
        raise ValueError -- never anything else, never a different
        answer, and never a block that decodes and then cannot build
        a row."""
        payload, n_rows = _payload(table, name)
        damaged = _damaged(payload, at % len(payload), bit)
        for expected in (n_rows, None):
            assert _outcome(damaged, expected) \
                == _reference_outcome(damaged, expected)

    def test_every_cut_and_every_bit_flip_of_one_payload(self):
        """The same, exhaustively, over the payload that has every
        column at more than one byte a value."""
        payload, n_rows = _payload(_AWKWARD_TABLE, "app")
        survived = 0
        for at in range(len(payload)):
            for bit in (None, 0, 1, 2, 3, 4, 5, 6, 7):
                damaged = _damaged(payload, at, bit)
                rows = _outcome(damaged, None)
                assert rows == _reference_outcome(damaged, None)
                survived += rows is not None
                assert bit is not None or rows is None
        # Most flips land in a key's or a count's bits and decode --
        # to other rows, which the frame's CRC is there to catch.
        assert 0 < survived < 8 * len(payload)

    @pytest.mark.parametrize("defect,told", [
        pytest.param(lambda p: p[:-1], "runs past the payload",
                     id="cut-short"),
        pytest.param(lambda p: p + b"\x00", "after the last column",
                     id="trailing-byte"),
        pytest.param(lambda p: p[:4] + b"\xff\xff\xff\xff" + p[8:],
                     "key bytes run past", id="key-bytes-overrun"),
        pytest.param(lambda p: p.replace(b"\x01\x03\x04",
                                         b"\x01\x03\x05", 1),
                     "key lengths do not sum", id="key-length-overrun"),
        pytest.param(lambda p: p.replace(b"abc", b"ab\xff", 1), "utf-8",
                     id="not-utf-8"),
        pytest.param(lambda p: p.replace(b"abcabcd", b"abdabcd", 1),
                     "rows out of key order", id="descending"),
        pytest.param(lambda p: p.replace(b"abcabcd", b"ab\\abcd", 1),
                     "not in canonical form", id="needless-escape"),
        # The key-length column's width byte: 3 is no width, 2 takes
        # the next column's bytes for its own ...
        pytest.param(lambda p: p.replace(b"\x01\x03\x04",
                                         b"\x03\x03\x04", 1),
                     "column width 3", id="no-such-width"),
        pytest.param(lambda p: p.replace(b"\x01\x03\x04",
                                         b"\x02\x03\x04", 1),
                     "column", id="width-overrun"),
        # ... and a column whole, but at twice the width it needs.
        pytest.param(lambda p: p.replace(b"\x01\x03\x04",
                                         b"\x02\x03\x00\x04\x00", 1),
                     "wider than its maximum", id="needless-width"),
    ])
    def test_each_defect_is_refused_at_decode_time(self, defect, told):
        """What the varint row decoder refused, and what the
        fixed-width form adds, one bytes-level defect each."""
        rows = [("abc", _hist_of(2, 0, {4: 1, 9: 1})),
                ("abcd", _hist_of(1, 0, {4: 1}))]
        payload = encode_block(rows)
        assert _outcome(payload, 2) == _reference_outcome(payload, 2)
        damaged = defect(payload)
        assert damaged != payload
        with pytest.raises(ValueError, match=told):
            decode_block(damaged, 2)
        assert _reference_outcome(damaged, 2) is None

    @pytest.mark.parametrize("rows,told", [
        ([("a", _hist_of(1 << 63, 0, {}))], "2\\*\\*63"),
        ([("a", _hist_of(-1, 0, {}))], "2\\*\\*63"),
        ([("a", _hist_of(0, 0, {4: 0}))], "2\\*\\*63"),      # empty bin
        ([("a", _hist_of(0, 0, {N_BINS: 1}))], "bin index"),
        ([("a", _hist_of(0, 0, {-1: 1}))], "2\\*\\*63|bin index"),
    ])
    def test_encoder_refuses_what_the_decoder_would(self, rows, told):
        with pytest.raises(ValueError, match=told):
            encode_block(rows)

    def test_bin_index_off_the_grid_is_refused(self):
        """A stored first index or delta >= N_BINS, or deltas that
        add up past it: refused before a sum could wrap."""
        # One row keyed "a": key length 1, count 1, overflow 0.
        head = struct.pack("<II", 1, 1) + b"a" + b"\x01\x01" * 2 \
            + b"\x01\x00"
        for n_bins, indices in (
                (1, b"\x02" + struct.pack("<H", N_BINS)),
                (2, b"\x02" + struct.pack("<HH", N_BINS - 1, 0)),
                (1, b"\x08" + struct.pack("<Q", 1 << 62))):
            payload = (head + bytes([1, n_bins]) + indices
                       + b"\x01" + b"\x00" * n_bins)
            with pytest.raises(ValueError, match="bin index"):
                decode_block(payload, 1)
            assert _reference_outcome(payload, 1) is None
        on_the_grid = (head + bytes([1, 2]) + b"\x02"
                       + struct.pack("<HH", N_BINS - 2, 0) + b"\x01\x00\x00")
        assert _outcome(on_the_grid, 1) == [
            ("a", 1, 0, [(N_BINS - 2, 1), (N_BINS - 1, 1)])]

    @given(table=_tables)
    @example(table={("1", "OpA"): _hist_of(1, 0, {4: 1}),
                    ("10", "OpA"): _hist_of(2, 0, {4: 2}),
                    ("1", "OpA2"): _hist_of(3, 0, {4: 3})})
    @settings(max_examples=150, deadline=None)
    def test_first_writers_row_order_is_refused(self, table):
        """Schema-1 segments and checkpoints stored rows sorted by key
        tuple, and the decoder used to sort such a payload into text
        order.  Those schemas are gone: rows in that order are refused
        whenever the two orders differ, and are the current payload
        when not."""
        payload, n_rows = _payload(table, "aoi")
        legacy = encode_block([(_encode_key(key), table[key])
                               for key in sorted(table)])
        expected = _outcome(payload, n_rows) if legacy == payload \
            else None
        assert _outcome(legacy, n_rows) == expected
        assert _reference_outcome(legacy, n_rows) == expected

    @given(hist=_hists, cut=st.integers(min_value=0))
    @settings(max_examples=150, deadline=None)
    def test_hist_decoder_agrees_with_the_reference(self, hist, cut):
        payload = encode_block([("key", hist)])
        block = decode_block(payload, 1)
        (reference,) = _reference_decode_block(payload, 1)
        decoded = block.hist(0)
        assert (decoded.count, decoded.overflow, decoded.bins) \
            == (reference[1], reference[2], dict(reference[3])) \
            == (hist.count, hist.overflow, hist.bins)
        with pytest.raises(ValueError):
            decode_block(payload[:cut % len(payload)], 1)


class TestSchemaGate:
    def test_current_schema_is_stamped(self):
        assert RollupStore().snapshot()["schema"] == SNAPSHOT_SCHEMA
