"""The cluster control plane, driven directly (no device worlds):
heartbeat failure detection, failover with durable dedup handoff,
join with live handoff, and the partition != crash distinction."""

import pytest

from repro.cluster import (
    CollectorNode,
    Coordinator,
    cluster_node_ip,
    merge_stores,
    node_name,
)
from repro.core.persist import record_to_line
from repro.core.records import MeasurementRecord
from repro.sim import Simulator
from tests.conftest import CLOSES_WHAT_IT_OPENS

pytestmark = CLOSES_WHAT_IT_OPENS

FLEET = ["device-%02d" % i for i in range(12)]


def _payload(device):
    record = MeasurementRecord(
        kind="TCP", rtt_ms=12.0, timestamp_ms=0.0,
        app_package="com.app.a", app_uid=10001,
        dst_ip="203.0.113.1", dst_port=443, domain=None,
        network_type="WIFI", operator="OpA", country="US",
        device_id=device)
    return (record_to_line(record) + "\n").encode()


def _node(sim, index, tmp_path):
    node_id = node_name(index)
    return node_id, CollectorNode(
        sim, node_id, cluster_node_ip(index),
        data_dir=str(tmp_path / node_id))


@pytest.fixture()
def cluster(tmp_path):
    """A factory of ``(sim, coordinator, rehomed)``: ``active`` nodes
    and ``standby`` spares under one coordinator.  Every node it made
    is closed when the test ends."""
    made = []

    def make(active=3, standby=0, **kwargs):
        sim = Simulator()
        nodes = dict(_node(sim, i, tmp_path) for i in range(active))
        spares = dict(_node(sim, active + i, tmp_path)
                      for i in range(standby))
        made.extend(nodes.values())
        made.extend(spares.values())
        rehomed = []
        coordinator = Coordinator(
            sim, nodes=nodes, standby=spares, fleet=FLEET,
            on_rehome=lambda device, ip: rehomed.append((device, ip)),
            **kwargs)
        coordinator.install()
        return sim, coordinator, rehomed

    yield make
    for node in made:
        node.close()


class TestAddressPlan:
    def test_node_ips_are_deterministic(self):
        assert cluster_node_ip(0) == "203.0.113.60"
        assert cluster_node_ip(189) == "203.0.113.249"
        with pytest.raises(ValueError):
            cluster_node_ip(190)

    def test_node_names(self):
        assert node_name(7) == "node-07"


class TestHeartbeats:
    def test_healthy_cluster_never_fails_over(self, cluster):
        sim, coordinator, rehomed = cluster()
        sim.run(until=10_000.0)
        assert coordinator.event_counts().get("failover", 0) == 0
        assert int(coordinator.obs.value("cluster.heartbeats")) == 30
        assert not rehomed

    def test_failed_node_detected_after_threshold(self, cluster):
        sim, coordinator, rehomed = cluster(
            heartbeat_ms=1_000.0, miss_threshold=3)
        coordinator.fail_node("node-01")
        sim.run(until=10_000.0)
        counts = coordinator.event_counts()
        assert counts.get("failover") == 1
        assert int(coordinator.obs.value(
            "cluster.heartbeat_misses")) == 3
        assert not coordinator.is_active("node-01")
        # Every device that lived on node-01 was re-homed off it.
        moved = [e for e in coordinator.events
                 if e.kind == "failover"][0].details["moved"]
        assert set(m for m, _ in rehomed) == set(moved)
        for device in moved:
            assert coordinator.ring.node_for(device) != "node-01"

    def test_epoch_bumps_on_membership_change(self, cluster):
        sim, coordinator, _ = cluster()
        assert coordinator.epoch == 1  # bootstrap push
        coordinator.fail_node("node-00")
        sim.run(until=5_000.0)
        assert coordinator.epoch == 2
        for node in coordinator.nodes.values():
            assert node.config_epoch == 2


class TestPartitionSemantics:
    def test_partition_never_fails_over(self, cluster):
        sim, coordinator, rehomed = cluster()
        coordinator.partition_node("node-00")
        sim.run(until=15_000.0)
        counts = coordinator.event_counts()
        assert counts.get("partition") == 1
        assert counts.get("failover", 0) == 0
        assert coordinator.is_active("node-00")

    def test_heal_redrives_the_partitioned_nodes_devices(
            self, cluster):
        sim, coordinator, rehomed = cluster()
        coordinator.partition_node("node-00")
        coordinator.heal_node("node-00")
        owned = [d for d in FLEET
                 if coordinator.ring.node_for(d) == "node-00"]
        assert sorted(d for d, _ in rehomed) == sorted(owned)

    def test_heal_of_failed_node_is_rejected(self, cluster):
        sim, coordinator, _ = cluster()
        coordinator.fail_node("node-00")
        with pytest.raises(RuntimeError):
            coordinator.heal_node("node-00")


class TestJoin:
    def test_join_moves_devices_onto_the_joiner(self, cluster):
        sim, coordinator, rehomed = cluster(standby=1)
        joiner = node_name(3)
        assert coordinator.is_standby(joiner)
        coordinator.join_node(joiner)
        assert coordinator.is_active(joiner)
        moved = [e for e in coordinator.events
                 if e.kind == "join"][0].details["moved"]
        assert moved  # 12 devices over 3->4 nodes: someone moves
        for device in moved:
            assert coordinator.ring.node_for(device) == joiner
        assert set(m for m, _ in rehomed) == set(moved)

    def test_join_hands_off_live_dedup(self, cluster):
        sim, coordinator, _ = cluster(standby=1)
        # Seed every old owner with an acked batch per device, as if
        # the campaign had been running.
        for device in FLEET:
            owner = coordinator.nodes[coordinator.ring.node_for(device)]
            owner.backend.pipeline.adopt_dedup(device, 0, 3)
        joiner = node_name(3)
        coordinator.join_node(joiner)
        moved = [e for e in coordinator.events
                 if e.kind == "join"][0].details["moved"]
        new = coordinator.nodes[joiner].backend.pipeline
        for device in moved:
            assert new.dedup_entries(device) == [(0, 3)]


class TestFailoverHandoff:
    def test_durable_dedup_survives_the_crash(self, cluster):
        """A batch the dead node ingested (WAL-committed) is absorbed
        as a duplicate by its successor after failover."""
        sim, coordinator, _ = cluster()
        victim_id = "node-01"
        victim = coordinator.nodes[victim_id]
        device = next(d for d in FLEET
                      if coordinator.ring.node_for(d) == victim_id)
        outcome = victim.backend.pipeline.handle_batch(
            device, 0, _payload(device), now_ms=0.0)
        assert outcome.status == "ack" and outcome.acked == 1
        coordinator.fail_node(victim_id)
        sim.run(until=5_000.0)
        assert not coordinator.is_active(victim_id)
        successor = coordinator.nodes[coordinator.ring.node_for(device)]
        # The replayed batch identity is already known -> duplicate.
        assert not successor.backend.pipeline.adopt_dedup(device, 0, 1)
        # And the global merge still sees the dead node's record.
        stores = [n.materialize() for n in coordinator.all_nodes()]
        merged = merge_stores(stores)
        assert merged.records == 1
