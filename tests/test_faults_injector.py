"""Injector-layer tests: link fault hooks, scope matching, timed
activation windows, backend crash semantics (volatile state genuinely
dies; recovery genuinely rebuilds it from disk), and the paper-facing
SYN-ACK retransmission inflation (section 4.1)."""

import random

import pytest

from repro.backend.rollups import RollupStore
from repro.backend.server import BackendServer
from repro.core import MopEyeService
from repro.core.persist import record_to_line
from repro.core.records import MeasurementRecord
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.network.link import LinkDirection, NetworkType
from repro.network.servers import OUTAGE_REFUSE
from repro.phone import App
from repro.sim import Constant, Simulator
from repro.store import StoreConfig
from tests.conftest import World


def blast(direction, n=200):
    delivered = []
    for index in range(n):
        direction.send(index, 100, delivered.append)
    direction.sim.run()
    return delivered


class TestLossRateBounds:
    def test_loss_rate_one_is_accepted(self):
        """Regression: a fully-lossy link is a valid configuration
        (blackholed radio); the old validation rejected 1.0."""
        sim = Simulator()
        direction = LinkDirection(sim, Constant(1.0), loss_rate=1.0,
                                  rng=random.Random(1))
        assert blast(direction) == []
        assert direction.obs.value("link.packets_dropped") == 200

    def test_loss_rate_above_one_still_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            LinkDirection(sim, Constant(0.0), loss_rate=1.0001)
        with pytest.raises(ValueError):
            LinkDirection(sim, Constant(0.0), loss_rate=-0.1)


class TestBurstLoss:
    def test_all_bad_state_drops_everything(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(1.0))
        direction.set_burst_loss(1.0, 0.0, loss_good=1.0, loss_bad=1.0)
        assert blast(direction) == []
        assert direction.obs.value("link.burst_drops") == 200

    def test_clear_restores_delivery(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(1.0))
        direction.set_burst_loss(1.0, 0.0, loss_good=1.0, loss_bad=1.0)
        direction.clear_burst_loss()
        assert len(blast(direction)) == 200

    def test_gilbert_elliott_losses_cluster(self):
        """With sticky states (low transition probabilities) drops
        arrive in runs, not i.i.d. -- the burstiness the model is
        for."""
        sim = Simulator()
        direction = LinkDirection(sim, Constant(0.0))
        direction.set_burst_loss(0.05, 0.05, loss_good=0.0,
                                 loss_bad=1.0,
                                 rng=random.Random(42))
        outcomes = []
        for index in range(2000):
            before = direction.obs.value("link.packets_dropped")
            direction.send(index, 10, lambda p: None)
            outcomes.append(
                direction.obs.value("link.packets_dropped") > before)
        sim.run()
        drops = sum(outcomes)
        assert 200 < drops < 1800
        # Count state flips along the sequence: bursty losses flip far
        # less often than a fair i.i.d. coin would (~50% of steps).
        flips = sum(1 for a, b in zip(outcomes, outcomes[1:])
                    if a != b)
        assert flips < 0.25 * len(outcomes)

    def test_validation(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(0.0))
        with pytest.raises(ValueError):
            direction.set_burst_loss(1.5, 0.0)
        with pytest.raises(ValueError):
            direction.set_burst_loss(0.5, 0.5, loss_bad=2.0)


class TestLatencySpike:
    def test_extra_latency_applied_and_cleared(self):
        sim = Simulator()
        direction = LinkDirection(sim, Constant(5.0))
        direction.set_latency_spike(100.0)
        arrivals = []
        direction.send("a", 10, lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(105.0)]
        direction.clear_latency_spike()
        direction.send("b", 10, lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals[1] == pytest.approx(sim.now)


def plan_of(*events, seed=4):
    return FaultPlan(seed=seed, events=list(events))


class TestInjectorScopeMatching:
    def test_operator_scope_filters_link_faults(self):
        world = World()
        plan = plan_of(
            FaultEvent("e-mine", FaultKind.LATENCY_SPIKE, 0.0, 0.0,
                       scope={"operator": "HomeWifi"},
                       params={"extra_ms": 50.0}),
            FaultEvent("e-other", FaultKind.LATENCY_SPIKE, 0.0, 0.0,
                       scope={"operator": "SomeoneElse"},
                       params={"extra_ms": 50.0}))
        injector = FaultInjector(world.sim, plan, operator="HomeWifi",
                                 link=world.link)
        assert injector.install() == 1

    def test_device_scope(self):
        world = World()
        plan = plan_of(
            FaultEvent("e", FaultKind.LATENCY_SPIKE, 0.0, 0.0,
                       scope={"device": "phone-b"},
                       params={"extra_ms": 1.0}))
        miss = FaultInjector(world.sim, plan, device_id="phone-a",
                             link=world.link)
        hit = FaultInjector(world.sim, plan, device_id="phone-b",
                            link=world.link)
        assert miss.install() == 0
        assert hit.install() == 1

    def test_component_faults_need_their_component(self):
        world = World()
        plan = plan_of(
            FaultEvent("e-dns", FaultKind.DNS_OUTAGE, 0.0, 10.0),
            FaultEvent("e-crash", FaultKind.BACKEND_CRASH, 0.0, 10.0),
            FaultEvent("e-srv", FaultKind.SERVER_OUTAGE, 0.0, 10.0,
                       scope={"domain": "nowhere.example"}))
        bare = FaultInjector(world.sim, plan)
        assert bare.install() == 0
        with_dns = FaultInjector(world.sim, plan, dns=world.dns)
        assert with_dns.install() == 1


class TestInjectorWindows:
    def test_server_outage_window_refuses_then_recovers(self):
        world = World(server_path_oneway=Constant(1.0))
        server = world.add_server("198.51.100.9", name="svc",
                                  domains=["svc.example"])
        plan = plan_of(
            FaultEvent("e-refuse", FaultKind.SERVER_OUTAGE,
                       1_000.0, 2_000.0,
                       scope={"domain": "svc.example"},
                       params={"mode": "refuse"}))
        injector = FaultInjector(world.sim, plan,
                                 servers={"svc.example": server})
        injector.install()
        assert server.outage_mode is None
        world.run(until=1_500.0)
        assert server.outage_mode == OUTAGE_REFUSE
        world.run(until=2_000.0)
        assert server.outage_mode is None
        assert injector.counts["e-refuse"] == {"activations": 1,
                                               "deactivations": 1}

    def test_zero_duration_means_rest_of_run(self):
        world = World()
        plan = plan_of(
            FaultEvent("e", FaultKind.LATENCY_SPIKE, 100.0, 0.0,
                       params={"extra_ms": 40.0}))
        injector = FaultInjector(world.sim, plan, link=world.link)
        injector.install()
        world.run(until=10_000.0)
        assert world.link.up.latency_extra_ms == 40.0
        assert injector.counts["e"]["deactivations"] == 0

    def test_handover_flips_network_type_and_back(self):
        world = World()
        assert world.link.network_type == NetworkType.WIFI
        plan = plan_of(
            FaultEvent("e-h", FaultKind.HANDOVER, 500.0, 1_000.0,
                       params={"to_type": NetworkType.LTE,
                               "gap_ms": 100.0}))
        injector = FaultInjector(world.sim, plan, link=world.link)
        injector.install()
        world.run(until=800.0)
        assert world.link.network_type == NetworkType.LTE
        world.run(until=1_500.0)
        assert world.link.network_type == NetworkType.WIFI
        assert injector.counts["e-h"] == {"activations": 1,
                                          "deactivations": 1}

    def test_metrics_count_installs_and_activations(self):
        world = World()
        plan = plan_of(
            FaultEvent("e", FaultKind.LATENCY_SPIKE, 0.0, 50.0,
                       params={"extra_ms": 1.0}))
        injector = FaultInjector(world.sim, plan, link=world.link)
        injector.install()
        world.run(until=1_000.0)
        assert injector.obs.value("faults.events_installed") == 1
        assert injector.obs.value("faults.activated") == 1
        assert injector.obs.value("faults.deactivated") == 1
        assert injector.obs.value("faults.active") == 0.0


def _batch_payload(n=8, seq_base=0):
    records = [MeasurementRecord(
        kind="TCP", rtt_ms=40.0 + index, timestamp_ms=1000.0 * index,
        app_package="com.crash.app", app_uid=10001,
        dst_ip="203.0.113.9", dst_port=443, domain="crash.example",
        operator="TestNet", device_id="dev-crash")
        for index in range(seq_base, seq_base + n)]
    return ("\n".join(record_to_line(r) for r in records)
            + "\n").encode(), len(records)


class TestBackendCrashSemantics:
    """A crash is a real process death: the rollup memtable, dedup
    cache and received mirror are genuinely dropped, and the post-
    restart digest parity comes from WAL/segment *recovery* -- not
    from in-memory state quietly surviving the crash."""

    def _durable_backend(self, tmp_path):
        sim = Simulator()
        return BackendServer(
            sim, ["203.0.113.50"],
            data_dir=str(tmp_path / "store"),
            store_config=StoreConfig(flush_threshold_records=None))

    def test_crash_genuinely_drops_volatile_state(self, tmp_path):
        backend = self._durable_backend(tmp_path)
        payload, count = _batch_payload()
        outcome = backend.pipeline.handle_batch("dev-crash", 0,
                                                payload, now_ms=0.0)
        assert outcome.acked == count
        ingested = backend.rollups.digest()
        empty = RollupStore(
            config=backend.store.rollup_config).digest()
        assert ingested != empty
        backend.crash()
        # Volatile state is gone -- no pretending RAM is durable.
        assert backend.rollups.records == 0
        assert backend.rollups.digest() == empty
        assert len(backend.received) == 0
        assert len(backend.store.dedup) == 0

    def test_restart_recovers_from_wal_not_survival(self, tmp_path):
        backend = self._durable_backend(tmp_path)
        payload, count = _batch_payload()
        backend.pipeline.handle_batch("dev-crash", 0, payload,
                                      now_ms=0.0)
        ingested = backend.rollups.digest()
        received = len(backend.received)
        backend.crash()
        assert backend.rollups.records == 0     # really dropped...
        backend.restart()
        # ...and really rebuilt, purely from the WAL on disk.
        assert backend.recoveries == 1
        assert backend.rollups.digest() == ingested
        assert len(backend.received) == received
        assert backend.store.last_recovery.wal_records == count
        # The dedup cache recovered too: replaying the acked batch
        # returns the cached ACK instead of double-counting.
        again = backend.pipeline.handle_batch("dev-crash", 0, payload,
                                              now_ms=1000.0)
        assert again.acked == count
        assert backend.obs.value("backend.duplicate_batches") == 1
        assert backend.rollups.digest() == ingested

    def test_ram_only_backend_loses_everything(self, tmp_path):
        sim = Simulator()
        backend = BackendServer(sim, ["203.0.113.50"])
        payload, _count = _batch_payload()
        backend.pipeline.handle_batch("dev-crash", 0, payload,
                                      now_ms=0.0)
        assert backend.rollups.records > 0
        backend.crash()
        backend.restart()
        assert backend.recoveries == 0
        assert backend.rollups.records == 0
        assert len(backend.received) == 0


class TestSynAckRetransmissionInflation:
    """Paper section 4.1: MopEye's connect RTT is measured SYN -> ACK
    on the external socket, so a lost SYN-ACK shows up as a full
    retransmission timeout in the measured RTT."""

    def make_world(self):
        world = World(server_path_oneway=Constant(1.0))
        server = world.add_server("198.51.100.77", name="flaky",
                                  domains=["flaky.example"],
                                  accept_delay=Constant(0.0))
        mopeye = MopEyeService(world.device)
        mopeye.start()
        return world, server, mopeye

    def connect_once(self, world):
        app = App(world.device, "com.example.probe")
        world.run_process(app.timed_connect("198.51.100.77", 443),
                          until=60_000.0)
        return app

    def test_clean_baseline_rtt_is_small(self):
        world, server, mopeye = self.make_world()
        self.connect_once(world)
        rtts = mopeye.store.tcp().rtts()
        assert len(rtts) == 1
        assert rtts[0] < 200.0
        assert server.syn_ack_retransmissions == 0

    def test_lost_syn_ack_inflates_relayed_rtt(self):
        world, server, mopeye = self.make_world()
        # Blackhole the downlink long enough to swallow the first
        # SYN-ACK; the relay's 1 s SYN RTO retransmits, the server
        # re-answers from the half-open connection, and the measured
        # connect RTT absorbs the full retransmission timeout.
        world.link.down.set_burst_loss(1.0, 0.0, loss_good=1.0,
                                       loss_bad=1.0)

        def heal():
            yield world.sim.timeout(500.0)
            world.link.down.clear_burst_loss()

        world.sim.process(heal())
        self.connect_once(world)
        assert server.syn_ack_retransmissions >= 1
        rtts = mopeye.store.tcp().rtts()
        assert len(rtts) == 1
        assert rtts[0] > 900.0
