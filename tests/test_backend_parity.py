"""Fleet-to-backend parity under adversity (satellite S4).

A device uploads a real campaign slice to the backend over a lossy
access link, against a backend that short-ACKs and sheds with BUSY.
Despite timeouts, retries, partial ACKs, and backoff, the backend's
windowed rollups must end up *digest-equal* to an offline RollupStore
fed the same records directly -- the whole point of the idempotent
(device_id, seq) protocol."""

import random
import statistics

import pytest

from repro.backend import RollupStore
from repro.backend.rollups import BIN_WIDTH_MS, MergeHist
from repro.backend.server import BackendServer
from repro.core import MopEyeService
from repro.core.records import MeasurementKind
from repro.core.uploader import MeasurementUploader
from repro.network import Internet
from repro.network.link import AccessLink, NetworkType
from repro.phone import AndroidDevice
from repro.sim import Simulator
from repro.sim.distributions import LogNormal

N_RECORDS = 300


@pytest.fixture
def lossy_world():
    sim = Simulator()
    internet = Internet(sim)
    rng = random.Random(13)
    link = AccessLink(sim,
                      up_latency=LogNormal(7.0, 0.4).bind(rng),
                      down_latency=LogNormal(7.0, 0.4).bind(rng),
                      loss_rate=0.03, rng=rng)
    link.network_type = NetworkType.WIFI
    device = AndroidDevice(sim, internet, link, sdk=23,
                           rng=random.Random(14))
    return sim, internet, device


class TestBackendParity:
    def test_lossy_fleet_upload_matches_offline_rollups(
            self, lossy_world, campaign_store):
        sim, internet, device = lossy_world
        records = list(campaign_store)[:N_RECORDS]

        # A hostile backend: short ACKs (25-record cap) and a tight
        # per-device rate limit that sheds with BUSY.
        collector = BackendServer(
            sim, ["198.51.100.77"], name="backend",
            max_batch_records=25,
            rate_capacity=2.0, rate_refill_per_min=12.0)
        internet.add_server(collector)

        mopeye = MopEyeService(device)
        for record in records:
            mopeye.store.add(record)

        uploader = MeasurementUploader(mopeye, "198.51.100.77",
                                       interval_ms=1500.0,
                                       min_batch=1, max_batch=40,
                                       ack_timeout_ms=5000.0)
        uploader.start()
        for _ in range(120):
            sim.run(until=sim.now + 10_000)
            if uploader._inflight is None and not uploader._pending():
                break
        assert uploader._pending() == [], \
            "upload did not drain: %d pending" % len(uploader._pending())
        assert uploader._inflight is None

        # The run actually exercised the failure paths it claims to.
        assert uploader.ack_timeouts >= 1       # loss bit us
        assert uploader.short_acks >= 1         # cap bit us
        assert uploader.busy_backoffs >= 1      # rate limit bit us
        assert collector.obs.value("backend.busy_rejections") \
            + collector.obs.value("backend.rate_limited") >= 1

        # Exactly-once delivery of the full slice.
        assert len(collector.received) == N_RECORDS
        sent = sorted(round(r.rtt_ms, 9) for r in records)
        got = sorted(round(r.rtt_ms, 9) for r in collector.received)
        assert got == sent

        # Tentpole parity: the live backend's rollups are digest-equal
        # to an offline store fed the identical records.
        offline = RollupStore()
        offline.add_all(records)
        assert collector.rollups.records == offline.records
        assert collector.rollups.digest() == offline.digest()

        # And the rollup view agrees with exact stream analysis to
        # within one histogram bin.
        exact = statistics.median(
            r.rtt_ms for r in records
            if r.kind == MeasurementKind.TCP)
        merged = MergeHist()
        for key, hist in collector.rollups.iter_table("network"):
            if key[3] == MeasurementKind.TCP:
                merged.merge(hist)
        assert abs(merged.median() - exact) <= BIN_WIDTH_MS
