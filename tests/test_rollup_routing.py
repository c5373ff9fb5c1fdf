"""One routing loop: ``RollupStore.add_all`` against ``add`` as it
was, one record at a time, and the three ingest paths handing it
batches.

The reference below is ``RollupStore.add`` from before ``add_all``
became the loop: each row fetched through ``_hist`` and bumped by the
histogram's own ``add`` or ``add_bin``.  The new loop bins each record
once, computes each window's text once per call and writes a row in
place after one epoch check; whatever the records, it must leave the
same rows, counts and exception as the reference did.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import rules
from repro.backend.ingest import IngestPipeline
from repro.backend.rollups import RollupConfig, RollupStore, log_bin
from repro.core.persist import encode_batch
from repro.core.records import (FailureKind, MeasurementKind,
                                MeasurementRecord)
from repro.network.link import NetworkType
from repro.obs import Observability
from repro.store import StoreConfig, StoreEngine


def _reference_add(store, record):
    (kind, rtt, timestamp_ms, app_package, _, _, _, domain, tech,
     operator, _, device_id, failure, _) = record
    if failure is not None:
        store.failure_records += 1
        return
    store.records += 1
    window = str(store.config.window_of(timestamp_ms))
    operator = operator or "unknown"
    tech = tech or "unknown"
    if kind == MeasurementKind.TCP:
        store._hist("network", (window, operator, tech, kind)).add(rtt)
        store._hist("app", (window, app_package or "unknown",
                            kind)).add(rtt)
        for suffix in store.config.watch_suffixes:
            if rules.domain_matches_suffix(domain, suffix):
                cls = rules.whatsapp_domain_class(domain)
                store._hist("watch_domain",
                            (suffix, cls, domain)).add(rtt)
                store._hist("watch_network",
                            (suffix, cls, operator, tech)).add(rtt)
        if domain is not None and tech == NetworkType.LTE:
            store._hist("lte_domain", (domain, operator)).add(rtt)
    elif kind == MeasurementKind.DNS:
        store._hist("network", (window, operator, tech, kind)).add(rtt)
    elif kind == MeasurementKind.APP_RTT:
        store._hist("network", (window, operator, tech, kind)).add(rtt)
        store._hist("app", (window, app_package or "unknown",
                            kind)).add(rtt)
    elif kind in (MeasurementKind.TPUT_UP, MeasurementKind.TPUT_DOWN):
        store._hist("app_throughput",
                    (window, app_package or "unknown",
                     kind)).add_bin(log_bin(rtt))
    elif kind == MeasurementKind.ENERGY:
        store._hist("app_energy",
                    (window, app_package or "unknown")
                    ).add_bin(log_bin(rtt))
    elif kind == MeasurementKind.AOI:
        store._hist("aoi", (window, device_id or "unknown",
                            tech)).add_bin(log_bin(rtt))


#: Values on and off both grids: zero, inside, on a bin edge, at and
#: past the linear grid's end, under the log floor, and past the float
#: range (a log bin of 1e308 or of 10**400 raises).
_VALUES = st.sampled_from([0.0, 0.1, 0.25, 37.3, 7999.99, 8000.0,
                           1e6, 1e-9, 1e308, 10 ** 400])
_DOMAINS = st.sampled_from([None, "", "c1.whatsapp.net",
                            "mmg.whatsapp.net", "whatsapp.net",
                            "notwhatsapp.net", "api.example.com"])

_RECORDS = st.builds(
    MeasurementRecord,
    kind=st.sampled_from(MeasurementKind.ALL),
    rtt_ms=_VALUES,
    timestamp_ms=st.sampled_from([0.0, -1.0, 999.0, 1000.0, 2.5e3,
                                  1e15, 7]),
    app_package=st.sampled_from([None, "", "com.app.a", "com.app.b"]),
    domain=_DOMAINS,
    network_type=st.sampled_from([None, "", NetworkType.LTE, "WIFI"]),
    operator=st.sampled_from([None, "", "OpA", "Op|B"]),
    device_id=st.sampled_from([None, "dev-1", "dev-2"]),
    failure=st.sampled_from([None, None, None, FailureKind.TIMEOUT]))

#: A record whose window cannot be computed: it raises after it is
#: counted.
_RAISES = MeasurementRecord(kind="TCP", rtt_ms=1.0,
                            timestamp_ms=10 ** 400)


def _outcome(route, store, records):
    try:
        route(store, records)
    except Exception as error:
        raised = (type(error), str(error))
    else:
        raised = None
    return (raised, store.digest(), store.records,
            store.failure_records, store.group_count())


def _by_add_all(store, records):
    store.add_all(records)


def _by_reference(store, records):
    for record in records:
        _reference_add(store, record)


@given(records=st.lists(_RECORDS, max_size=30),
       raise_at=st.one_of(st.none(), st.integers(0, 30)),
       seeded=st.lists(_RECORDS.filter(
           lambda r: r.rtt_ms < 1e300), max_size=8),
       share=st.booleans())
@settings(max_examples=120, deadline=None)
def test_add_all_equals_add_one_record_at_a_time(records, raise_at,
                                                 seeded, share):
    """Every kind, failures, watched and LTE domains, off-grid
    values, a store whose rows another store shares, and perhaps one
    record that raises mid-list: the same exception, digest, counts
    and rows as the reference -- and a clone left as it was."""
    if raise_at is not None:
        records.insert(min(raise_at, len(records)), _RAISES)
    config = RollupConfig(window_ms=1000.0,
                          watch_suffixes=(rules.WHATSAPP_SUFFIX,
                                          "example.com"))
    outcomes = []
    for route in (_by_add_all, _by_reference):
        store = RollupStore(config=config)
        _by_reference(store, seeded)
        before = store.clone() if share else None
        pinned = before.digest() if share else None
        outcomes.append(_outcome(route, store, records))
        if share:
            assert before.digest() == pinned
    assert outcomes[0] == outcomes[1]


def test_a_record_that_raises_leaves_what_add_left():
    """The two orders the loop keeps: a record is counted before its
    window is computed, and a log-grid row exists before its bin."""
    for record, table in (
            (_RAISES, None),
            (MeasurementRecord(kind="TPUT_UP", rtt_ms=10 ** 400,
                               timestamp_ms=0.0), "app_throughput")):
        store = RollupStore()
        with pytest.raises(OverflowError):
            store.add_all([MeasurementRecord(kind="DNS", rtt_ms=1.0,
                                             timestamp_ms=0.0), record])
        assert store.records == 2
        if table is not None:
            (row,) = store.tables[table].values()
            assert row.count == 0


# -- every ingest path hands add_all a batch --------------------------------


def _records(n):
    return [MeasurementRecord(
        kind=MeasurementKind.ALL[i % len(MeasurementKind.ALL)],
        rtt_ms=10.0 + i, timestamp_ms=i * 1000.0,
        app_package="com.app.%d" % (i % 3), domain="c%d.whatsapp.net" % i,
        network_type="LTE" if i % 2 else "WIFI", operator="OpA",
        device_id="dev-%d" % (i % 4),
        failure=FailureKind.REFUSED if i % 9 == 0 else None)
        for i in range(n)]


@pytest.fixture
def routes(monkeypatch):
    """``add_all`` calls as ``[records routed]``; ``add`` calls made
    by anything but a test."""
    batches, singles = [], []
    add_all = RollupStore.add_all

    def counted_add_all(store, records):
        records = list(records)
        batches.append(len(records))
        return add_all(store, records)

    def counted_add(store, record):
        singles.append(record)

    monkeypatch.setattr(RollupStore, "add_all", counted_add_all)
    monkeypatch.setattr(RollupStore, "add", counted_add)
    return batches, singles


def test_each_path_routes_batches(tmp_path, routes):
    batches, singles = routes
    records = _records(60)
    obs = Observability()
    engine = StoreEngine(str(tmp_path / "store"), obs=obs,
                         config=StoreConfig(flush_threshold_records=None))
    pipeline = IngestPipeline(store=engine, obs=obs)

    # handle_batch: one add_all per accepted batch, none for a replay.
    del batches[:]
    for seq, at in enumerate(range(0, 60, 12)):
        payload = encode_batch(records[at:at + 12])
        for _ in range(2):
            pipeline.handle_batch("dev-1", seq, payload, seq * 1000.0)
    assert obs.value("backend.batches") == 5
    assert batches == [12] * 5

    # recover: at most one add_all per WAL envelope.
    pipeline.adopt_dedup("foreign", 3, 7)
    engine.crash()
    del batches[:]
    engine.recover()
    assert batches == [12] * 5 + [0]
    assert engine.last_recovery.wal_frames == len(batches)

    # append_records: one add_all per run, the runs cut where a flush
    # or a checkpoint falls due.
    engine.config.flush_threshold_records = 25
    engine.flush()
    del batches[:]
    engine.append_records(records)
    assert batches == [25, 25, 10]
    assert singles == []
    engine.close()
