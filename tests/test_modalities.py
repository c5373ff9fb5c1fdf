"""Modality subsystem tests (docs/MODALITIES.md): throughput/energy
records on flow close, AoI at upload ACK, log-grid rollup routing,
the coexistence closed loop with one rule shared online/offline, and
digest invariance across worker counts and cluster node counts."""

import dataclasses
import json

import pytest

from repro.analysis import rules
from repro.backend.detector import CoexistenceRule
from repro.backend.rollups import (
    N_BINS,
    RollupStore,
    log_bin,
    log_bin_value,
)
from repro.backend.server import BackendServer
from repro.cluster.runner import run_cluster_device_world
from repro.core import MopEyeService
from repro.core.records import MeasurementKind, MeasurementRecord
from repro.core.uploader import MeasurementUploader
from repro.faults import ChaosRunner, get_scenario, verify_scenario
from repro.phone import App


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _download(world, nbytes=30000):
    app = App(world.device, "com.example.app")

    def run():
        socket = yield from app.timed_connect("93.184.216.34", 80)
        socket.send(b"DOWNLOAD %d\n" % nbytes)
        yield from socket.recv_exactly(nbytes)
        socket.close()
        yield world.sim.timeout(3000)

    world.run_process(run())


class TestFlowModalities:
    def test_flow_close_emits_throughput_and_energy(self, world):
        mopeye = MopEyeService(world.device, modalities=True)
        mopeye.start()
        _download(world)
        kinds = {r.kind for r in mopeye.store}
        assert MeasurementKind.TPUT_UP in kinds
        assert MeasurementKind.TPUT_DOWN in kinds
        assert MeasurementKind.ENERGY in kinds

    def test_throughput_value_is_flow_bytes_over_duration(self, world):
        mopeye = MopEyeService(world.device, modalities=True)
        mopeye.start()
        _download(world)
        flow = mopeye.flows[0]
        down = [r for r in mopeye.store
                if r.kind == MeasurementKind.TPUT_DOWN]
        assert len(down) == 1
        # rtt_ms carries the sample in KB/s == bytes/ms.
        assert down[0].rtt_ms == pytest.approx(
            flow.bytes_down / flow.duration_ms)
        assert down[0].app_package == "com.example.app"

    def test_energy_record_is_positive_and_app_tagged(self, world):
        mopeye = MopEyeService(world.device, modalities=True)
        mopeye.start()
        _download(world)
        energy = [r for r in mopeye.store
                  if r.kind == MeasurementKind.ENERGY]
        assert len(energy) == 1
        assert energy[0].rtt_ms > 0
        assert energy[0].app_package == "com.example.app"

    def test_modalities_off_by_default(self, world):
        mopeye = MopEyeService(world.device)
        mopeye.start()
        _download(world)
        assert len(mopeye.flows) == 1
        kinds = {r.kind for r in mopeye.store}
        assert not kinds & set(MeasurementKind.MODALITIES)


class TestAgeOfInformation:
    def _world_with_uploader(self, world, emit_aoi):
        collector = BackendServer(world.sim, ["198.51.100.200"],
                                  name="collector")
        world.internet.add_server(collector)
        mopeye = MopEyeService(world.device)
        mopeye.start()
        uploader = MeasurementUploader(mopeye, "198.51.100.200",
                                       interval_ms=3000.0, min_batch=2,
                                       emit_aoi=emit_aoi)
        uploader.start()
        app = App(world.device, "com.example.app")
        for i in range(6):
            world.run_process(app.request("93.184.216.34", 80,
                                          b"m%d\n" % i))
        world.run(until=30000)
        return mopeye, uploader, collector

    def test_ack_emits_aoi_records(self, world):
        mopeye, uploader, _collector = \
            self._world_with_uploader(world, emit_aoi=True)
        aoi = [r for r in mopeye.store
               if r.kind == MeasurementKind.AOI]
        assert aoi
        # Staleness is ack-time minus creation-time: non-negative,
        # and at least the upload round trip for every sample.
        assert all(r.rtt_ms >= 0 for r in aoi)
        assert all(r.device_id == uploader.device_id for r in aoi)

    def test_aoi_of_aoi_never_emitted(self, world):
        """The flush must converge: AoI records acked in a later
        batch produce no second-generation AoI records."""
        mopeye, uploader, collector = \
            self._world_with_uploader(world, emit_aoi=True)
        uploader.stop()
        world.run(until=60000)
        n_records = len(mopeye.store)
        n_aoi = sum(1 for r in mopeye.store
                    if r.kind == MeasurementKind.AOI)
        n_base = n_records - n_aoi
        # One AoI record per acked non-AoI record, nothing more.
        assert n_aoi <= n_base
        # ...and the final flush shipped everything, AoI included.
        assert uploader.uploaded == n_records
        assert len(collector.received) == n_records

    def test_aoi_off_by_default(self, world):
        mopeye, _uploader, _collector = \
            self._world_with_uploader(world, emit_aoi=False)
        assert not any(r.kind == MeasurementKind.AOI
                       for r in mopeye.store)


class TestLogGrid:
    def test_round_trip_accuracy_over_decades(self):
        for value in (0.002, 0.5, 3.7, 42.0, 999.0, 8.5e4, 2.3e7):
            index = log_bin(value)
            assert 0 <= index < N_BINS
            assert log_bin_value(index) == pytest.approx(
                value, rel=2e-3)

    def test_floor_and_monotonicity(self):
        assert log_bin(0.0) == 0
        assert log_bin(1e-9) == 0
        samples = [0.01, 0.1, 1.0, 10.0, 100.0, 1e4]
        bins = [log_bin(v) for v in samples]
        assert bins == sorted(bins)
        assert len(set(bins)) == len(bins)

    def test_rollup_routes_each_modality_kind(self):
        store = RollupStore()
        base = dict(timestamp_ms=1000.0, app_package="com.app.a",
                    network_type="WIFI", operator="OpA",
                    device_id="dev-1")
        store.add(MeasurementRecord(kind=MeasurementKind.TPUT_UP,
                                    rtt_ms=12.5, **base))
        store.add(MeasurementRecord(kind=MeasurementKind.TPUT_DOWN,
                                    rtt_ms=480.0, **base))
        store.add(MeasurementRecord(kind=MeasurementKind.ENERGY,
                                    rtt_ms=310.0, **base))
        store.add(MeasurementRecord(kind=MeasurementKind.AOI,
                                    rtt_ms=5200.0, **base))
        window = str(store.config.window_of(1000.0))
        tput = store.table("app_throughput")
        assert set(tput) == {
            (window, "com.app.a", MeasurementKind.TPUT_UP),
            (window, "com.app.a", MeasurementKind.TPUT_DOWN)}
        energy = store.table("app_energy")[(window, "com.app.a")]
        assert log_bin_value(energy.quantile_index(0.5)) == \
            pytest.approx(310.0, rel=2e-3)
        aoi = store.table("aoi")[(window, "dev-1", "WIFI")]
        assert aoi.count == 1
        assert log_bin_value(aoi.quantile_index(0.5)) == \
            pytest.approx(5200.0, rel=2e-3)

    def test_modality_digest_is_deterministic(self):
        def build():
            store = RollupStore()
            for i in range(50):
                store.add(MeasurementRecord(
                    kind=MeasurementKind.MODALITIES[i % 4],
                    rtt_ms=0.5 + 13.7 * i, timestamp_ms=100.0 * i,
                    app_package="com.app.%d" % (i % 3),
                    device_id="dev-%d" % (i % 2)))
            return store
        assert build().digest() == build().digest()


@pytest.fixture(scope="module")
def coex_result(tmp_path_factory):
    return ChaosRunner(
        "coexistence", seed=3,
        shard_dir=str(tmp_path_factory.mktemp("coex"))).run()


class TestCoexistenceClosedLoop:
    def test_recall_and_precision(self, coex_result):
        report = verify_scenario(coex_result)
        assert report.recall_for("coex_bulk") == 1.0
        assert report.precision >= 0.9

    def test_bulk_app_traffic_lands_in_the_dataset(self, coex_result):
        bulk = [r for r in coex_result.iter_records()
                if r.app_package == rules.COEX_BULK_PACKAGE]
        assert bulk
        assert {r.kind for r in bulk} >= {MeasurementKind.TPUT_UP,
                                          MeasurementKind.TPUT_DOWN,
                                          MeasurementKind.ENERGY}

    def test_every_modality_kind_is_in_the_dataset(self, coex_result):
        kinds = {r.kind for r in coex_result.iter_records()}
        assert kinds >= set(MeasurementKind.MODALITIES)

    def test_every_world_survives_crash_recovery_digest_parity(
            self, coex_result):
        """The widened tables ride checkpoint + WAL recovery: each
        backend's rollups re-materialised purely from disk match a
        store built from the device's own records."""
        stats = coex_result.stats
        assert stats["backend_rollup_matches_store"] == \
            stats["workloads_completed"]
        assert stats["uploader_records_acked"] == \
            stats["store_records"]

    def test_modality_tables_populated(self, coex_result):
        snapshot = coex_result.rollups.snapshot()
        for table in ("app_throughput", "app_energy", "aoi"):
            assert snapshot["tables"][table], table

    def test_online_rule_fires_on_the_faulted_operator(
            self, coex_result):
        findings = CoexistenceRule().evaluate(coex_result.rollups, 1.0)
        assert {f.subject for f in findings} == {"Onyx Wifi"}
        summary = findings[0].summary
        assert summary["bulk_package"] == rules.COEX_BULK_PACKAGE
        assert summary["bulk_throughput_samples"] >= \
            rules.COEX_MIN_BULK_SAMPLES
        # The online verdict is the offline verdict, same function.
        assert rules.coexistence_verdict(
            summary["tcp_median_ms"], summary["peer_median_ms"],
            summary["bulk_throughput_samples"])

    def test_rule_is_inert_without_modality_records(self):
        store = RollupStore()
        # A grossly skewed RTT distribution without any bulk-app
        # throughput must never fire -- precision in every RTT-only
        # scenario depends on it.
        for i in range(40):
            store.add(MeasurementRecord(
                kind=MeasurementKind.TCP,
                rtt_ms=500.0 if i % 2 else 10.0,
                timestamp_ms=100.0 * i,
                operator="OpSlow" if i % 2 else "OpFast"))
        assert CoexistenceRule().evaluate(store, 1.0) == []


class TestCoexistenceDeterminism:
    def test_worker_count_cannot_change_a_byte(self, coex_result,
                                               tmp_path):
        for workers in (2, 4):
            pooled = ChaosRunner(
                "coexistence", seed=3, workers=workers,
                shard_dir=str(tmp_path / ("w%d" % workers))).run()
            assert pooled.digest() == coex_result.digest()
            assert pooled.ledger.to_json() == \
                coex_result.ledger.to_json()
            assert pooled.stats == coex_result.stats
            assert pooled.rollup_digest() == \
                coex_result.rollup_digest()


class TestClusterNodeInvariance:
    def test_node_count_cannot_change_the_merged_rollup(self):
        """Throughput/energy are measurement-side facts: the merged
        cluster rollup must be byte-identical at any node count (AoI
        is deliberately off in cluster worlds -- ACK timings vary
        with deployment)."""
        scenario = get_scenario("coexistence")
        plan = scenario.plan(3)
        runs = {n: run_cluster_device_world(scenario, plan, 3, 0,
                                            nodes=n)
                for n in (1, 3)}
        for run in runs.values():
            stats = run.stats
            assert stats["cluster_rollup_matches_reference"] == 1
            assert stats["cluster_zero_loss"] == 1
            assert not any(r.kind == MeasurementKind.AOI
                           for r in run.records)
        assert runs[1].records == runs[3].records
        assert _canonical(runs[1].rollup) == _canonical(runs[3].rollup)

    def test_cluster_world_still_emits_relay_modalities(self):
        scenario = get_scenario("coexistence")
        run = run_cluster_device_world(scenario, scenario.plan(3),
                                       3, 0, nodes=1)
        kinds = {r.kind for r in run.records}
        assert MeasurementKind.TPUT_UP in kinds
        assert MeasurementKind.ENERGY in kinds
