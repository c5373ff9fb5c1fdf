"""The cluster as a device world's collector.

:func:`repro.faults.chaos.run_device_world` builds the world -- device,
link, DNS, app servers, relay, proxy, injector, workload -- exactly as
for the embedded backend; :class:`ClusterCollector` replaces that one
collector with N :class:`~repro.cluster.node.CollectorNode`s under a
:class:`~repro.cluster.coordinator.Coordinator`.

Two isolation rules keep the global-digest invariant provable:

* **Dedicated upload path.**  Collector traffic rides its own
  :class:`AccessLink` (``Internet.set_route_link``), never the
  device's measurement link, so upload packets share no FIFO queue and
  no RNG state with the traffic being measured.
* **Dedicated RNG streams.**  Every cluster-side distribution binds a
  ``_world_rng(seed, device_id, "cluster:...")`` stream -- node paths,
  nodes, the upload link, the uploader's ISNs.  The shared world RNG
  sees exactly the draws it sees in a collector-less world, so
  ``service.store`` -- the measurement ground truth -- is
  byte-identical under any node count, any failure placement, and any
  ``PYTHONHASHSEED``.

With the measurement records invariant, the per-world check
``merged(all nodes) == rollup(service.store)`` forces the *global*
merged rollup (folded across device worlds by the existing chaos
shard machinery) to equal the rollup a single collector ingesting the
whole fleet would hold -- which is the acceptance invariant the CI
cluster job diffs byte-for-byte.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict

from repro.backend.ingest import IngestLoadModel
from repro.backend.rollups import RollupStore
from repro.cluster.coordinator import Coordinator
from repro.cluster.merge import merge_stores
from repro.cluster.node import CollectorNode, cluster_node_ip, node_name
from repro.core import MopEyeService
from repro.core.uploader import MeasurementUploader
from repro.faults.chaos import _world_rng
from repro.faults.scenarios import Scenario, ScenarioOperator
from repro.network import AccessLink
from repro.obs import Observability
from repro.sim import Constant, LogNormal, Simulator
from repro.store.engine import StoreConfig


class ClusterCollector:
    """``nodes`` active collectors (plus the scenario's standbys) on a
    consistent-hash ring, fed by one uploader the coordinator homes.
    Beside the streams above it differs from the embedded backend in
    two ways: no AoI records (ACK timings vary with node count, so
    they would break the invariant) and a drain long enough for every
    planned membership change to fire."""

    def __init__(self, scenario: Scenario, seed: int, device_id: str,
                 operator: ScenarioOperator, service: MopEyeService,
                 nodes: int) -> None:
        if nodes < 1:
            raise ValueError("cluster worlds need >= 1 node")
        sim, internet = service.sim, service.device.internet
        uplink_rng = _world_rng(seed, device_id, "cluster:uplink")
        upload_oneway = LogNormal(4.0, 0.2).bind(uplink_rng)
        upload_link = AccessLink(sim, up_latency=upload_oneway,
                                 down_latency=upload_oneway,
                                 network_type=operator.network_type,
                                 operator=operator.name, rng=uplink_rng)
        self.root = tempfile.mkdtemp(prefix="mopeye-cluster-")
        self.obs = Observability(sim=sim)

        def build_node(index: int) -> CollectorNode:
            node_id = node_name(index)
            ip = cluster_node_ip(index)
            data_dir = os.path.join(self.root, node_id)
            os.makedirs(data_dir, exist_ok=True)
            node = CollectorNode(
                sim, node_id, ip,
                data_dir=data_dir,
                path_oneway=LogNormal(8.0, 0.2).bind(_world_rng(
                    seed, device_id, "cluster:path:%s" % node_id)),
                accept_delay=Constant(0.05),
                load=IngestLoadModel(base_ms=400.0, per_record_ms=5.0),
                store_config=StoreConfig(flush_threshold_records=None,
                                         checkpoint_interval_records=50),
                rng=_world_rng(seed, device_id,
                               "cluster:node:%s" % node_id))
            internet.add_server(node.backend)
            internet.set_route_link(ip, upload_link)
            return node

        active = {node_name(i): build_node(i) for i in range(nodes)}
        standby = {node_name(nodes + i): build_node(nodes + i)
                   for i in range(scenario.cluster_standby)}

        def on_rehome(moved_device: str, new_ip: str) -> None:
            # Placement is fleet-wide but this world has one uploader.
            if moved_device == device_id:
                self.uploader.rehome(new_ip)

        self.coordinator = Coordinator(
            sim, nodes=active, standby=standby,
            fleet=[dev for dev, _operator in scenario.devices()],
            vnodes=scenario.cluster_vnodes,
            heartbeat_ms=scenario.cluster_heartbeat_ms,
            miss_threshold=scenario.cluster_miss_threshold,
            obs=self.obs, on_rehome=on_rehome)
        self.coordinator.install()
        self.uploader = MeasurementUploader(
            service, self.coordinator.home_ip(device_id),
            interval_ms=scenario.uploader_interval_ms,
            min_batch=scenario.uploader_min_batch,
            ack_timeout_ms=scenario.uploader_ack_timeout_ms,
            isn_rng=_world_rng(seed, device_id, "cluster:isn"))
        self.uploader.start()
        #: What the injector's collector faults act on.
        self.target = {"cluster": self.coordinator}

    def drain(self, sim: Simulator, horizon: float) -> None:
        # Far enough that every planned membership change has fired
        # and re-driven any stranded flush -- a workload that ends
        # before the failover window must not strand its tail.
        self.uploader.stop()
        sim.run(until=max(sim.now + 20_000.0, horizon + 10_000.0))

    def finish(self, service: MopEyeService,
               stats: Dict[str, int]) -> RollupStore:
        """Fold every node's disk into the global view, prove the
        invariant, add the ``cluster_*`` stats; return the merge."""
        coordinator = self.coordinator
        merged = merge_stores([node.materialize()
                               for node in coordinator.all_nodes()],
                              obs=self.obs)
        reference = RollupStore(config=merged.config)
        reference.add_all(service.store)
        event_counts = coordinator.event_counts()
        stats.update({
            "cluster_failovers": event_counts.get("failover", 0),
            "cluster_joins": event_counts.get("join", 0),
            "cluster_partitions": event_counts.get("partition", 0),
            "cluster_heals": event_counts.get("heal", 0),
            "cluster_keys_moved": sum(
                len(event.details.get("moved", []))
                for event in coordinator.events
                if event.kind in ("failover", "join")),
            "cluster_dedup_handoffs": sum(
                int(event.details.get("dedup_handoffs", 0))
                for event in coordinator.events),
            "cluster_rollup_matches_reference":
                int(merged.digest() == reference.digest()),
            "cluster_zero_loss":
                int(merged.records + merged.failure_records
                    == self.uploader.uploaded == len(service.store)),
            "uploader_rehomes": self.uploader.rehomes,
        })
        for node in coordinator.all_nodes():
            node.close()
        shutil.rmtree(self.root, ignore_errors=True)
        return merged


__all__ = ["ClusterCollector"]
