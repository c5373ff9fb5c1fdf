"""The ACK path writes what it wrote before, byte for byte.

A batch's ACK pays for its bookkeeping as well as its records and its
fsync: the dedup map, the metric calls, the envelope header, and --
when the batch brings on a checkpoint or a flush -- the block writer.
Each of those has a fast form; these tests hold each fast form to the
slow one it replaced:

* the block writer (``sorted_rows`` + ``encode_block``) against copies
  of its former versions, kept here as the reference, on any table;
* the formatted envelope header against ``json.dumps``;
* the metric calls' one-lookup path against the registry's, errors
  and snapshots alike;
* a small store fed through ``handle_batch`` -- one checkpoint, one
  flush -- against the sha256 of every file it wrote before, with its
  bookkeeping counted: one dedup write a batch, no header dumped, no
  key encoded on its own.
"""

import hashlib
import json
import os
from collections import OrderedDict
from itertools import chain, count, islice
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend.ingest import IngestPipeline
from repro.backend.rollups import (
    N_BINS,
    SPEC_BY_TABLE,
    TABLE_SPECS,
    MergeHist,
    _encode_key,
)
from repro.core.persist import encode_batch
from repro.core.records import MeasurementRecord
from repro.crowd import Campaign, CampaignConfig
from repro.obs import Observability
from repro.obs.registry import MetricsRegistry
from repro.store import StoreConfig, StoreEngine
from repro.store import engine as engine_module
from repro.store import segments
from repro.store.encoding import encode_block
from repro.store.segments import sorted_rows
from repro.store.wal import replay


# -- the block writer as it was: the reference ------------------------------


def _reference_stored_order(name, parts):
    if len(parts) >= 2 and SPEC_BY_TABLE[name].subject_major:
        return (parts[1], parts[0]) + parts[2:]
    return parts


def _reference_sorted_rows(table, text=_encode_key):
    return sorted(((text(key), hist) for key, hist in table.items()),
                  key=itemgetter(0))


def _reference_uint64(values):
    try:
        return np.asarray(values, dtype=np.uint64)
    except OverflowError:
        raise ValueError("a column holds only values in [0, 2**63)")


def _reference_column(column):
    top = int(column.max()) if len(column) else 0
    if top >> 63:
        raise ValueError("a column holds only values in [0, 2**63)")
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 \
        else 4 if top < 1 << 32 else 8
    return bytes((width,)) + column.astype("<u%d" % width).tobytes()


def _reference_encode_block(rows):
    raws = [text.encode("utf-8") for text, _hist in rows]
    bins = [hist.bins for _text, hist in rows]
    index = _reference_uint64(list(chain.from_iterable(bins)))
    if len(index) and int(index.max()) >= N_BINS:
        raise ValueError("a bin index outside [0, %d)" % N_BINS)
    index = index.astype(np.int64)
    lengths = np.fromiter(map(len, bins), np.int64, len(bins))
    order = np.lexsort((index, np.repeat(np.arange(len(rows)), lengths)))
    index = index[order]
    deltas = index.copy()
    deltas[1:] -= index[:-1] + 1
    starts = (np.cumsum(lengths) - lengths)[lengths > 0]
    deltas[starts] = index[starts]
    keys = b"".join(raws)
    return b"".join((
        len(rows).to_bytes(4, "little"), len(keys).to_bytes(4, "little"),
        keys,
        _reference_column(_reference_uint64([len(raw) for raw in raws])),
        _reference_column(_reference_uint64(
            [hist.count for _text, hist in rows])),
        _reference_column(_reference_uint64(
            [hist.overflow for _text, hist in rows])),
        _reference_column(lengths.astype(np.uint64)),
        _reference_column(deltas.astype(np.uint64)),
        _reference_column(_reference_uint64(list(chain.from_iterable(
            map(dict.values, bins))))[order] - np.uint64(1))))


def _hist_of(count, overflow, bins):
    hist = MergeHist()
    hist.count, hist.overflow, hist.bins = count, overflow, dict(bins)
    return hist


def _outcome(function, *args):
    try:
        return function(*args)
    except ValueError:
        return ValueError


#: Either side of every column width, and the last value a column
#: takes.
_EDGES = [0, 1, 255, 256, 65_535, 65_536, (1 << 32) - 1, 1 << 32,
          (1 << 33) + 5, (1 << 63) - 1]
_counts = st.one_of(st.integers(min_value=0, max_value=1 << 40),
                    st.sampled_from(_EDGES))
_hists = st.builds(
    _hist_of, count=_counts, overflow=_counts,
    bins=st.dictionaries(
        st.one_of(st.integers(min_value=0, max_value=N_BINS - 1),
                  st.sampled_from([0, 1, 255, 256, N_BINS - 2,
                                   N_BINS - 1])),
        st.one_of(st.integers(min_value=1, max_value=100_000),
                  st.sampled_from(_EDGES).map(lambda n: n + 1)),
        max_size=10))
_parts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "|", "\\", "a\\", "a|b", "\\|", "|\\",
                     "déjà.example", "中国移动",
                     "\U0001f4f6", "\n", "\x00"]),
    st.text(alphabet="ab|\\é", max_size=6))


@st.composite
def _tables(draw):
    """A table name, and rows keyed at its spec's width or, half the
    time, at ragged widths either side of it."""
    name = draw(st.sampled_from([spec.name for spec in TABLE_SPECS]))
    width = len(SPEC_BY_TABLE[name].key)
    widths = st.just(width) if draw(st.booleans()) \
        else st.integers(min_value=1, max_value=width + 1)
    keys = widths.flatmap(lambda n: st.lists(
        _parts, min_size=n, max_size=n).map(tuple))
    return name, draw(st.dictionaries(keys, _hists, max_size=40))


class TestBlockWriter:
    @given(case=_tables(), stored=st.booleans())
    @example(case=("app", {}), stored=True)
    @example(case=("network", {("7", "Evil|Op", "LTE", "TCP"):
                               _hist_of(1, 0, {3: 1}),
                               ("7", "Op", "LTE", "TCP"):
                               _hist_of(1 << 32, 1, {N_BINS - 1: 1,
                                                     0: 1 << 32})}),
             stored=True)
    @example(case=("app_energy", {("1", "a\\"): _hist_of(2, 0, {9: 2}),
                                  ("10",): _hist_of(1, 0, {8: 1})}),
             stored=True)
    @settings(max_examples=200, deadline=None)
    def test_writes_what_the_reference_wrote(self, case, stored):
        """Keyed or stored order, every slice -- one row, a segment
        block's 256, the whole table -- the same rows and bytes."""
        name, table = case
        if stored:
            rows = sorted_rows(table, name)
            reference = _reference_sorted_rows(
                table,
                lambda key: _encode_key(_reference_stored_order(name, key)))
        else:
            rows = sorted_rows(table)
            reference = _reference_sorted_rows(table)
        assert rows == reference
        for size in (1, 256, max(len(rows), 1)):
            for start in range(0, max(len(rows), 1), size):
                chunk = rows[start:start + size]
                assert encode_block(chunk) \
                    == _reference_encode_block(chunk)

    @given(rows=st.dictionaries(
        st.text(max_size=3),
        st.builds(_hist_of,
                  count=st.integers(min_value=-2, max_value=1 << 64),
                  overflow=st.sampled_from([0, -1, 1 << 63]),
                  bins=st.dictionaries(
                      st.integers(min_value=-1, max_value=N_BINS),
                      st.integers(min_value=-1, max_value=3),
                      max_size=3)),
        max_size=4).map(lambda table: sorted(table.items())))
    @settings(max_examples=150, deadline=None)
    def test_refuses_what_the_reference_refused(self, rows):
        """A negative or 64-bit count, an empty bin, an index off the
        grid: a ``ValueError`` from both, or the same bytes."""
        assert _outcome(encode_block, rows) \
            == _outcome(_reference_encode_block, rows)


# -- the envelope header ----------------------------------------------------

_devices = st.lists(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é",
                     "中", "\U0001f4f6", "\ud800", "\udfff",
                     " "])), max_size=12).map("".join)
_ints = st.one_of(st.integers(),
                  st.sampled_from([-(1 << 64), -1, 0, (1 << 63) - 1,
                                   1 << 63, (1 << 64) + 1, 10 ** 30]))


def _dumped(device, seq, acked, n):
    return json.dumps({"kind": "batch", "device": device, "seq": seq,
                       "acked": acked, "n": n},
                      sort_keys=True, separators=(",", ":"))


class _Device(str):
    pass


class TestEnvelopeHeader:
    @given(device=_devices, seq=_ints, acked=_ints,
           n=st.integers(min_value=0, max_value=1 << 20))
    @example(device='dév "\\\x01\ud800', seq=-1, acked=1 << 64, n=0)
    @settings(max_examples=300, deadline=None)
    def test_a_str_device_is_formatted_to_the_dumped_bytes(
            self, device, seq, acked, n):
        with mock.patch.object(engine_module, "json", wraps=json) as used:
            head = StoreEngine._batch_header(device, seq, acked, n)
        assert used.dumps.call_count == 0
        assert head == _dumped(device, seq, acked, n)

    @pytest.mark.parametrize("device", [_Device("dev-1"), 7, None, 2.5],
                             ids=["str-subclass", "int", "none", "float"])
    def test_any_other_device_is_dumped(self, device):
        with mock.patch.object(engine_module, "json", wraps=json) as used:
            head = StoreEngine._batch_header(device, 3, 2, 2)
        assert used.dumps.call_count == 1
        assert head == _dumped(device, 3, 2, 2)

    def test_the_wal_holds_the_canonical_headers(self, tmp_path):
        """Through ``log_batch`` (a bool seq is an int by then) and
        ``append_records``: every header line is the canonical dump,
        and recovery reads the batch identities back."""
        record = MeasurementRecord(
            kind="TCP", rtt_ms=5.0, timestamp_ms=0.0, app_package="a",
            app_uid=1, dst_ip="203.0.113.1", dst_port=443, domain=None,
            network_type="WIFI", operator="Op", country="US",
            device_id="d", failure=None)
        engine = StoreEngine(str(tmp_path), obs=Observability(),
                             config=StoreConfig(
                                 flush_threshold_records=None))
        engine.log_batch('q"é', True, 1, [record])
        engine.log_batch(_Device("sub"), 5, 0, [], lines=[])
        engine.append_records([record, record])
        engine.close()
        (path,) = engine.wal_paths()
        heads = [payload.split(b"\n", 1)[0].decode()
                 for payload in replay(path).payloads]
        assert heads == [
            _dumped('q"é', 1, 1, 1), _dumped("sub", 5, 0, 0),
            json.dumps({"kind": "bulk", "n": 2, "seq": 1},
                       sort_keys=True, separators=(",", ":"))]
        reopened = StoreEngine(str(tmp_path), obs=Observability())
        assert dict(reopened.dedup) == {('q"é', 1): 1, ("sub", 5): 0}
        reopened.close()


# -- the metric calls -------------------------------------------------------

_COUNTER, _GAUGE, _HISTOGRAM = ("relay.syn_packets",
                                "crowd.records_per_sec",
                                "tcp.connect_rtt_ms")
_UNDECLARED = "relay.not_a_metric"


def _call(function, *args):
    try:
        function(*args)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc)
    return None


class TestMetricFastPath:
    def test_each_error_survives_the_fast_path(self):
        """Before an instrument exists and after: an undeclared name is
        a ``KeyError``, the wrong kind a ``TypeError``, a negative
        count a ``ValueError``; a refused kind creates nothing."""
        obs = Observability()
        assert _call(obs.inc, _GAUGE) is TypeError
        assert obs.registry.names() == []
        for _round in range(2):
            assert _call(obs.inc, _UNDECLARED) is KeyError
            assert _call(obs.set_gauge, _UNDECLARED, 1.0) is KeyError
            assert _call(obs.observe, _UNDECLARED, 1.0) is KeyError
            assert _call(obs.inc, _COUNTER, -1) is ValueError
            obs.inc(_COUNTER)
            obs.set_gauge(_GAUGE, 2.0)
            obs.observe(_HISTOGRAM, 3.0)
            assert _call(obs.inc, _GAUGE) is TypeError
            assert _call(obs.set_gauge, _HISTOGRAM, 1.0) is TypeError
            assert _call(obs.observe, _COUNTER, 1.0) is TypeError
        assert obs.registry.names() == sorted([_COUNTER, _GAUGE,
                                               _HISTOGRAM])
        assert obs.value(_COUNTER) == 2

    @given(calls=st.lists(st.tuples(
        st.sampled_from(["inc", "set_gauge", "observe"]),
        st.sampled_from([_COUNTER, _GAUGE, _HISTOGRAM, _UNDECLARED]),
        st.integers(min_value=-2, max_value=50)), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_snapshots_are_the_registry_paths(self, calls):
        """The same calls through the facade and straight through the
        registry: the same error each time, the same snapshot."""
        fast = Observability()
        slow = MetricsRegistry()
        slow_call = {
            "inc": lambda name, n: slow.counter(name).inc(n),
            "set_gauge": lambda name, v: slow.gauge(name).set(v),
            "observe": lambda name, v: slow.histogram(name).observe(v)}
        for method, name, value in calls:
            assert _call(getattr(fast, method), name, value) \
                == _call(slow_call[method], name, value)
        assert fast.registry.to_json(include_volatile=True) \
            == slow.to_json(include_volatile=True)


# -- a store fed through handle_batch, pinned -------------------------------

#: sha256 of every file the store below holds right after its
#: checkpoint, and at the end (after its flush), with the digests of
#: its ``BatchOutcome`` reprs and its obs snapshot -- as written before
#: the ACK path lost its bookkeeping.
_PINNED_STORE = (
    {"MANIFEST.json": "9da6c6660d25bdeb941f5530ad4be2b1"
                      "34052a08e3421bf541a0b996e8381020",
     "ckpt-000001.ckpt": "07731a228a4e4b71c528c8db0626a686"
                         "3f974c90b279858794d559cfde4cd5c8",
     "wal-g000001-s00.log": "875a1b36ee2f0abaa071ab528e85fa6d"
                            "624e042319c77a5840b682a3edb88058",
     "wal.log": "008f28fcf50643c33c146c82b5cd69c2"
                "a396a57eb4ffc220064405cd6876ffc9"},
    {"MANIFEST.json": "5b3fb0c4fd601141e86b12baf217db1d"
                      "3c4508c89ec75d315156b00d36027704",
     os.path.join("segments", "seg-000001.seg"):
         "73f7562b86b8a26918aa7c201d5d034e"
         "61616c58be18e8e44c538e88c308e851",
     "wal-g000002-s00.log": "1ff968551032af1e4a5f327d0ef1707b"
                            "b33eae6a4e9c59cb6eb2774495860986"},
)
_PINNED_OUTCOMES = (263, "f092a2a25d9e84d451f83769dcadecab"
                         "f25dd67d28fc750f72e8a889f7dbaf3d")
_PINNED_OBS = ("8c9cbf2e728bec85b04c68e6210bd805"
               "bdf75ea703944fe638f43dc5027aee7c")


def _file_digests(root):
    found = {}
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = hashlib.sha256(
                    handle.read()).hexdigest()
    return found


class _CountedMap(OrderedDict):
    """The dedup map, counting its writes."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)


def test_a_handle_batch_store_is_byte_identical(tmp_path, monkeypatch):
    """1,500 generated records in batches of 1 to 30 through
    ``handle_batch``, with replays, a truncated batch, an adopted
    identity and a device that needs escaping: one checkpoint, then
    one flush, and every file, outcome and counter as pinned -- and
    the bookkeeping each ACK pays counted."""
    records = list(islice(Campaign(config=CampaignConfig(
        scale=0.002, seed=2016)).iter_records(), 1500))
    root = str(tmp_path)
    obs = Observability()
    used = mock.Mock(wraps=json)
    manifests = mock.create_autospec(
        StoreEngine._write_manifest,
        side_effect=StoreEngine._write_manifest)
    encoded = mock.Mock(wraps=segments._encode_key)
    monkeypatch.setattr(engine_module, "json", used)
    monkeypatch.setattr(StoreEngine, "_write_manifest", manifests)
    monkeypatch.setattr(segments, "_encode_key", encoded)
    engine = StoreEngine(root, obs=obs, config=StoreConfig(
        flush_threshold_records=1000, checkpoint_interval_records=700))
    engine.dedup = _CountedMap()
    pipeline = IngestPipeline(store=engine, obs=obs)
    outcomes, trees, seqs = [], [], {}
    sizes = (1, 7, 1, 1, 30, 1, 3)
    at = 0
    for i in count():
        if at == len(records):
            break
        batch = records[at:at + sizes[i % len(sizes)]]
        at += len(batch)
        device = batch[0].device_id
        seq = seqs[device] = seqs.get(device, -1) + 1
        payload = encode_batch(batch)
        if i == 5:
            payload += b'{"not": "a record"}\n' + encode_batch(batch)
        if i == 9:
            device = 'dév "\\\x01\ud800'
        now = i * 1000.0
        outcomes.append(pipeline.handle_batch(device, seq, payload, now))
        if i % 11 == 0:
            outcomes.append(pipeline.handle_batch(device, seq, payload,
                                                  now))
        if i == 13:
            outcomes.append(pipeline.adopt_dedup("foreign", 4, 9))
        if engine.checkpoint_names() and not trees:
            trees.append(_file_digests(root))
    engine.close()
    trees.append(_file_digests(root))
    assert obs.value("store.checkpoints") == 1
    assert obs.value("store.flushes") == 1
    # What the ACK pays besides its records and its fsync: the engine
    # writes the shared dedup map once a batch it admits or adopts; a
    # header is formatted, so the engine's json.dumps calls are its
    # manifests'; and no key part holds a | or a \, so sorted_rows
    # checks each table whole and encodes no key on its own.
    adopted = outcomes.count(True)
    assert adopted == 1
    assert engine.dedup.writes == obs.value("backend.batches") + adopted
    assert manifests.call_count == 2
    assert used.dumps.call_count == manifests.call_count
    assert encoded.call_count == 0
    assert tuple(trees) == _PINNED_STORE
    sha = hashlib.sha256()
    for outcome in outcomes:
        sha.update(repr(outcome).encode())
    assert (len(outcomes), sha.hexdigest()) == _PINNED_OUTCOMES
    assert hashlib.sha256(obs.to_json().encode()).hexdigest() \
        == _PINNED_OBS

