"""Shared world-building helpers for the test suite."""

from __future__ import annotations

import os
import random
import struct
import zlib

import pytest

from repro.network import (
    AppServer,
    DnsServer,
    DnsZone,
    Internet,
    wifi_profile,
)
from repro.phone import AndroidDevice
from repro.sim import Constant, Simulator
from repro.sim.distributions import Distribution


def tree_bytes(root):
    """Every file under ``root`` with its bytes: equal before and
    after means nothing was moved, truncated, rewritten or added."""
    found = {}
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def log_records(engine, records, per_batch=None, device="dev-1",
                first_seq=0):
    """``records`` into ``engine`` as the ingest pipeline takes an
    upload: the memtable takes each batch, then ``log_batch`` writes
    its WAL envelope -- one per ``per_batch`` records, one for all
    without -- and commits it.  Batch ``i`` is ``(device, first_seq +
    i)``."""
    records = list(records)
    size = per_batch or max(1, len(records))
    for seq, start in enumerate(range(0, len(records), size),
                                first_seq):
        batch = records[start:start + size]
        engine.memtable.add_all(batch)
        engine.log_batch(device, seq, len(batch), batch)


def segment_store(reader):
    """A segment read back as a ``RollupStore``, row by row through
    ``iter_table`` -- each key split, each histogram built: the
    reference the column merge of segments is held to."""
    from repro.backend.rollups import RollupStore

    store = RollupStore(config=reader.config)
    store.records = reader.records
    store.failure_records = reader.failure_records
    for name in RollupStore.TABLES:
        store.tables[name] = {key: hist.copy()
                              for key, hist in reader.iter_table(name)}
    return store


def hand_built_row_block(raw_keys, key_len=None):
    """A row block made by hand from raw key bytes *in the order
    given* (each with the same one-sample histogram: 8.0 ms, bin 32),
    deflated and CRC-framed as the segment and checkpoint writers
    frame theirs -- so only the block decoder can tell it from a
    written one.  ``key_len`` overrides every row's declared key
    length."""
    from repro.store import encoding

    def column(values):
        return b"\x01" + bytes(values)      # one byte a value

    rows = len(raw_keys)
    keys = b"".join(raw_keys)
    payload = (struct.pack("<II", rows, len(keys)) + keys
               + column([len(raw) if key_len is None else key_len
                         for raw in raw_keys])
               + column([1] * rows)          # count
               + column([0] * rows)          # overflow
               + column([1] * rows)          # bins in the row
               + column([32] * rows)         # its first bin's index
               + column([0] * rows))         # that bin's count - 1
    return encoding.frame(zlib.compress(payload, 9))


class World:
    """A simulator + internet + one device + standard servers."""

    def __init__(self, sdk: int = 23, seed: int = 7,
                 wifi_rtt_ms: float = 14.0, bandwidth_mbps: float = 25.0,
                 server_path_oneway=None):
        self.sim = Simulator()
        self.internet = Internet(self.sim)
        self.rng = random.Random(seed)
        self.link = wifi_profile(self.sim, rng=self.rng,
                                 median_rtt_ms=wifi_rtt_ms,
                                 bandwidth_mbps=bandwidth_mbps)
        self.device = AndroidDevice(self.sim, self.internet, self.link,
                                    sdk=sdk,
                                    rng=random.Random(seed + 1))
        self.zone = DnsZone()
        self.dns = DnsServer(self.sim, "8.8.8.8", self.zone,
                             processing_delay=Constant(0.5))
        self.internet.add_server(self.dns)
        self._server_path_oneway = server_path_oneway

    def add_server(self, ip: str, name: str = "server",
                   domains=(), path_oneway=None,
                   **kwargs) -> AppServer:
        server = AppServer(self.sim, [ip], name=name,
                           path_oneway=path_oneway
                           or self._server_path_oneway,
                           rng=random.Random(
                               zlib.crc32(ip.encode()) & 0xFFFF),
                           **kwargs)
        self.internet.add_server(server)
        for domain in domains:
            self.zone.add(domain, ip)
        return server

    def run(self, until: float = 300000.0) -> None:
        """Run for ``until`` more virtual milliseconds (relative)."""
        self.sim.run(until=self.sim.now + until)

    def run_process(self, generator, until: float = 300000.0,
                    drain: float = 2000.0):
        """Run a generator as a process to completion; returns value.
        ``until`` is a relative budget of virtual milliseconds.  After
        the process finishes, the world runs ``drain`` ms longer so
        in-flight background work (lazy mapping, teardown ACKs)
        settles -- bounded even when polling threads keep the event
        heap non-empty."""
        process = self.sim.process(generator)
        deadline = self.sim.now + until
        self.sim.run(until=deadline, stop_event=process)
        assert process.triggered, \
            "process did not finish within %s ms" % until
        self.sim.run(until=self.sim.now + drain)
        return process.value


CAMPAIGN_SCALE = 0.01


@pytest.fixture(scope="session")
def campaign_store():
    """One shared synthetic dataset for crowd/analysis tests."""
    from repro.crowd import Campaign, CampaignConfig
    campaign = Campaign(config=CampaignConfig(scale=CAMPAIGN_SCALE,
                                              seed=11))
    return campaign.run()


@pytest.fixture(scope="session")
def campaign_rollups(campaign_store):
    """``campaign_store`` folded into rollups: what a collector that
    ingested the campaign would serve the diagnosis."""
    from repro.backend.rollups import RollupStore
    rollups = RollupStore()
    rollups.add_all(campaign_store)
    return rollups


def fleet_store(isp, devices, connects, seed):
    """The fleet validation: ``devices`` phones on one ISP profile,
    each running the catalog's first four apps through the chaos
    world (no faults), so the packet-level relay can be held to the
    statistical campaign drawn from the same profiles."""
    from repro.core.records import MeasurementStore
    from repro.crowd.appcatalog import build_catalog
    from repro.faults.chaos import run_device_world
    from repro.faults.scenarios import (Scenario, ScenarioApp,
                                        ScenarioOperator)
    apps = tuple(
        ScenarioApp(app.package, domain.domain,
                    (domain.path_median_ms + isp.core_penalty_ms) / 2.0,
                    domain.path_sigma)
        for app in build_catalog(n_longtail=0).apps[:4]
        for domain in app.domains[:1])
    operator = ScenarioOperator(isp.name, isp.network_type,
                                isp.access_median_ms / 2.0,
                                isp.access_sigma, devices=devices)
    scenario = Scenario(name="fleet", description="fleet validation",
                        operators=(operator,), apps=apps, events=(),
                        connects=connects, think_ms=(50.0, 400.0))
    store = MeasurementStore()
    for index in range(devices):
        store.extend(run_device_world(scenario, scenario.plan(seed),
                                      seed, index).records)
    return store


@pytest.fixture(scope="session")
def chaos_world(tmp_path_factory):
    """``chaos_world(name, seed=7, workers=1)``: one ``ChaosResult``
    per key, built on first use and shared by the whole session, its
    shards under the session's temp root.  Treat it as read-only: the
    pins, the worker-count parity and the closed-loop checks all read
    the same build."""
    from repro.faults import ChaosRunner

    built = {}

    def chaos_world(name, seed=7, workers=1):
        key = (name, seed, workers)
        if key not in built:
            shard_dir = tmp_path_factory.mktemp(
                "chaos-%s-s%d-w%d" % key)
            built[key] = ChaosRunner(name, seed=seed, workers=workers,
                                     shard_dir=str(shard_dir)).run()
        return built[key]

    return chaos_world


@pytest.fixture
def world():
    w = World()
    w.add_server("93.184.216.34", name="example",
                 domains=["www.example.com", "example.com"])
    return w


@pytest.fixture
def fast_world():
    """Deterministic ~zero-latency world for protocol-logic tests."""
    w = World(wifi_rtt_ms=2.0)
    w.add_server("198.51.100.10", name="fixed", domains=["fixed.test"],
                 path_oneway=Constant(1.0))
    return w
