"""Cluster device worlds: the chaos runner's federated twin.

:func:`run_cluster_device_world` mirrors
:func:`repro.faults.chaos.run_device_world` exactly on the measurement
side -- same device, link, DNS, app servers, same shared world RNG
stream consumed by the same draws -- and replaces the single embedded
collector with N :class:`~repro.cluster.node.CollectorNode`s under a
:class:`~repro.cluster.coordinator.Coordinator`.

Two isolation rules keep the global-digest invariant provable:

* **Dedicated upload path.**  Collector traffic rides its own
  :class:`AccessLink` (``Internet.set_route_link``), never the
  device's measurement link, so upload packets share no FIFO queue and
  no RNG state with the traffic being measured.
* **Dedicated RNG streams.**  Every cluster-side distribution binds a
  ``_world_rng(seed, device_id, "cluster:...")`` stream.  The shared
  world RNG sees exactly the draws it sees in a classic chaos world,
  so ``service.store`` -- the measurement ground truth -- is
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
from typing import Dict, Optional

from repro.backend.ingest import IngestLoadModel
from repro.backend.rollups import RollupStore
from repro.cluster.coordinator import Coordinator
from repro.cluster.merge import merge_stores
from repro.cluster.node import CollectorNode, cluster_node_ip, node_name
from repro.core import MopEyeService
from repro.core.uploader import MeasurementUploader
from repro.crowd.campaign import stable_ip_for_domain
from repro.faults.chaos import (
    _CONNECT_WATCHDOG_MS,
    DeviceRun,
    _world_rng,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import Scenario
from repro.network import AccessLink, AppServer, DnsServer, DnsZone, Internet
from repro.obs import Observability
from repro.phone import AndroidDevice, App
from repro.phone.device import ResolveError
from repro.sim import Constant, LogNormal, Simulator
from repro.store.engine import StoreConfig


def run_cluster_device_world(scenario: Scenario, plan: FaultPlan,
                             seed: int, device_index: int,
                             nodes: Optional[int] = None) -> DeviceRun:
    """Build and run one device's world against an N-node collector
    cluster; pure function of ``(scenario, seed, device_index,
    nodes)``."""
    n_active = scenario.cluster_nodes if nodes is None else int(nodes)
    if n_active < 1:
        raise ValueError("cluster worlds need >= 1 node")
    device_id, operator = scenario.devices()[device_index]
    sim = Simulator()
    internet = Internet(sim)

    # -- measurement side: identical to run_device_world ---------------
    rng = _world_rng(seed, device_id, "world")
    oneway = LogNormal(max(0.5, operator.access_oneway_ms),
                       operator.sigma).bind(rng)
    link = AccessLink(sim, up_latency=oneway, down_latency=oneway,
                      network_type=operator.network_type,
                      operator=operator.name, rng=rng)
    device = AndroidDevice(sim, internet, link, sdk=23,
                           rng=_world_rng(seed, device_id, "device"))
    device.model = device_id
    zone = DnsZone()
    dns = DnsServer(sim, "8.8.8.8", zone,
                    processing_delay=Constant(0.2),
                    path_oneway=LogNormal(2.0, 0.2).bind(rng))
    internet.add_server(dns)
    servers: Dict[str, AppServer] = {}
    for spec in scenario.apps:
        ip = stable_ip_for_domain(spec.domain)
        server = AppServer(
            sim, [ip], name=spec.domain,
            path_oneway=LogNormal(max(0.25, spec.path_oneway_ms),
                                  spec.sigma).bind(rng),
            accept_delay=Constant(0.05),
            rng=_world_rng(seed, device_id, "server:%s" % spec.domain))
        internet.add_server(server)
        zone.add(spec.domain, ip)
        servers[spec.domain] = server
    # Modalities from the relay (throughput/energy) are node-count
    # independent -- they depend only on the measurement side, which is
    # identical to a classic chaos world.  AoI is NOT enabled here:
    # its samples are ACK timings, which legitimately vary with node
    # count (failover retries, rebalance pauses) and would break the
    # digest-invariance the cluster tier proves.
    service = MopEyeService(device, modalities=scenario.modalities)
    service.start()

    # -- cluster side: dedicated link, dedicated RNG streams -----------
    uplink_rng = _world_rng(seed, device_id, "cluster:uplink")
    upload_oneway = LogNormal(4.0, 0.2).bind(uplink_rng)
    upload_link = AccessLink(sim, up_latency=upload_oneway,
                             down_latency=upload_oneway,
                             network_type=operator.network_type,
                             operator=operator.name, rng=uplink_rng)
    cluster_root = tempfile.mkdtemp(prefix="mopeye-cluster-")
    cluster_obs = Observability(sim=sim)

    def build_node(index: int) -> CollectorNode:
        node_id = node_name(index)
        ip = cluster_node_ip(index)
        data_dir = os.path.join(cluster_root, node_id)
        os.makedirs(data_dir, exist_ok=True)
        node = CollectorNode(
            sim, node_id, ip,
            data_dir=data_dir,
            path_oneway=LogNormal(8.0, 0.2).bind(
                _world_rng(seed, device_id, "cluster:path:%s" % node_id)),
            accept_delay=Constant(0.05),
            load=IngestLoadModel(base_ms=400.0, per_record_ms=5.0),
            store_config=StoreConfig(flush_threshold_records=None,
                                     checkpoint_interval_records=50),
            rng=_world_rng(seed, device_id, "cluster:node:%s" % node_id))
        internet.add_server(node.backend)
        internet.set_route_link(ip, upload_link)
        return node

    active = {node_name(i): build_node(i) for i in range(n_active)}
    standby = {node_name(n_active + i): build_node(n_active + i)
               for i in range(scenario.cluster_standby)}
    fleet = [dev for dev, _operator in scenario.devices()]
    uploader: Optional[MeasurementUploader] = None

    def on_rehome(moved_device: str, new_ip: str) -> None:
        # Placement is fleet-wide but this world only has one uploader.
        if moved_device == device_id and uploader is not None:
            uploader.rehome(new_ip)

    coordinator = Coordinator(
        sim, nodes=active, standby=standby, fleet=fleet,
        vnodes=scenario.cluster_vnodes,
        heartbeat_ms=scenario.cluster_heartbeat_ms,
        miss_threshold=scenario.cluster_miss_threshold,
        obs=cluster_obs, on_rehome=on_rehome)
    coordinator.install()
    uploader = MeasurementUploader(
        service, coordinator.home_ip(device_id),
        interval_ms=scenario.uploader_interval_ms,
        min_batch=scenario.uploader_min_batch,
        ack_timeout_ms=scenario.uploader_ack_timeout_ms,
        isn_rng=_world_rng(seed, device_id, "cluster:isn"))
    uploader.start()
    injector = FaultInjector(sim, plan, device_id=device_id,
                             operator=operator.name, link=link,
                             servers=servers, dns=dns, service=service,
                             cluster=coordinator)
    injector.install()

    # -- workload: identical to run_device_world -----------------------
    apps = {spec.package: App(device, spec.package,
                              rng=_world_rng(seed, device_id,
                                             "app:%s" % spec.package))
            for spec in scenario.apps}
    wrng = _world_rng(seed, device_id, "workload")
    resolve_failures = [0]

    def one_connect(spec):
        try:
            yield from apps[spec.package].resolve_and_request(
                spec.domain, 443, b"GET / HTTP/1.1\r\n\r\n")
        except ResolveError:
            resolve_failures[0] += 1

    def workload():
        for index in range(scenario.connects):
            spec = scenario.apps[wrng.randrange(len(scenario.apps))]
            attempt = sim.process(one_connect(spec),
                                  name="connect-%d" % index)
            yield sim.any_of([attempt,
                              sim.timeout(_CONNECT_WATCHDOG_MS)])
            yield sim.timeout(wrng.uniform(*scenario.think_ms))

    process = sim.process(workload(), name="cluster-workload")
    sim.run(until=scenario.duration_ms, stop_event=process)
    if not process.triggered:
        raise RuntimeError(
            "cluster workload for %s did not finish within the %.0f "
            "ms budget (deadlock?)" % (device_id, scenario.duration_ms))
    uploader.stop()
    # Drain far enough that every planned membership change has fired
    # and re-driven any stranded flush -- a workload that ends before
    # the failover window must not strand its tail.
    horizon = max([event.end_ms for event in plan] + [0.0])
    sim.run(until=max(sim.now + 20_000.0, horizon + 10_000.0))

    records = [record._replace(device_id=device_id)
               for record in service.store]

    # -- global view: fold every node's disk, prove the invariant ------
    stores = []
    rollup_config = None
    for node in coordinator.all_nodes():
        stores.append(node.materialize())
        rollup_config = node.backend.store.rollup_config
    merged = merge_stores(stores, config=rollup_config,
                          obs=cluster_obs)
    reference = RollupStore(config=rollup_config)
    reference.add_all(service.store)
    merged_total = merged.records + merged.failure_records
    event_counts = coordinator.event_counts()
    moved = sum(len(event.details.get("moved", []))
                for event in coordinator.events
                if event.kind in ("failover", "join"))
    handoffs = sum(int(event.details.get("dedup_handoffs", 0))
                   for event in coordinator.events)
    stats: Dict[str, int] = {
        "records": len(records),
        "failure_records": sum(1 for r in records
                               if r.failure is not None),
        "app_failures": sum(app.failures for app in apps.values()),
        "resolve_failures": resolve_failures[0],
        "workloads_completed": 1,
        "vpn_revocations": device.vpn.revocations,
        "service_running": int(service.running),
        "cluster_failovers": event_counts.get("failover", 0),
        "cluster_joins": event_counts.get("join", 0),
        "cluster_partitions": event_counts.get("partition", 0),
        "cluster_heals": event_counts.get("heal", 0),
        "cluster_keys_moved": moved,
        "cluster_dedup_handoffs": handoffs,
        "cluster_rollup_matches_reference":
            int(merged.digest() == reference.digest()),
        "cluster_zero_loss":
            int(merged_total == uploader.uploaded
                and uploader.uploaded == len(service.store)),
        "uploader_failures": uploader.failures,
        "uploader_ack_timeouts": uploader.ack_timeouts,
        "uploader_records_acked": uploader.uploaded,
        "uploader_rehomes": uploader.rehomes,
        "store_records": len(service.store),
    }
    rollup_snapshot = merged.snapshot()
    for node in coordinator.all_nodes():
        node.close()
    shutil.rmtree(cluster_root, ignore_errors=True)
    return DeviceRun(device_id=device_id, records=records,
                     counts=injector.counts, stats=stats,
                     rollup=rollup_snapshot)


__all__ = ["run_cluster_device_world"]
