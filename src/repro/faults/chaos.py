"""The chaos runner: one scenario, end to end, deterministically.

Builds one packet-level world per device (fleet-style: real
AndroidDevice + MopEye relay + servers placed at CRC-32-stable IPs),
installs a :class:`FaultInjector` wired to that world's components,
runs the app workload to completion, and streams the tagged
measurement records into JSON-lines shards -- one shard per device, so
the merged dataset bytes are identical no matter how many worker
processes ran.  Worlds differ only in who collects their uploads:
nobody, the embedded backend, or a cluster (:mod:`repro.cluster`).

Everything stochastic is string-seeded on ``(seed, device_id, ...)``,
the same discipline as ``crowd/sharding.py``; worker processes rebuild
their worlds from ``(scenario name, seed, device index)`` alone, so
fork and spawn start methods, pool scheduling, and ``PYTHONHASHSEED``
cannot change a byte of output.  The CI chaos job and the determinism
tests both lean on this.

No-hang guarantee: the workload races the scenario's ``duration_ms``
budget.  Per-connect stalls are bounded by a watchdog race (a revoked
VPN or crashed backend can strand one request, never the run), and a
workload that fails to finish inside the budget raises instead of
spinning -- a deadlock becomes a test failure, not a hung process.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import MopEyeService
from repro.core.persist import (
    dataset_digest,
    iter_jsonl_shards,
    list_shards,
    shard_path,
    write_records,
)
from repro.core.records import MeasurementRecord, MeasurementStore
from repro.core.uploader import MeasurementUploader
from repro.backend.ingest import (IngestLoadModel, ShardPart,
                                  fold_shard_part, pack_shard_part)
from repro.backend.rollups import RollupConfig, RollupStore
from repro.backend.server import BackendServer
from repro.store.engine import StoreConfig
from repro.crowd.campaign import stable_ip_for_domain
from repro.faults.injector import FaultInjector
from repro.faults.ledger import GroundTruthLedger
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.scenarios import Scenario, SCENARIOS, get_scenario
from repro.faults.specs import SPEC_BY_KIND
from repro.middlebox.proxy import DEFAULT_INTERCEPT_PORTS, TransparentProxy
from repro.network import AccessLink, AppServer, DnsServer, DnsZone, Internet
from repro.phone import AndroidDevice, App
from repro.phone.device import ResolveError
from repro.sim import Constant, LogNormal, Simulator

#: Where the collector lives in backend-enabled scenarios.
COLLECTOR_IP = "203.0.113.50"

#: Upper bound on one connect+request exchange before the workload
#: abandons it (the socket may still complete in the background).
_CONNECT_WATCHDOG_MS = 60_000.0


@dataclass
class DeviceRun:
    """What one device world produced, in the process that built it."""
    device_id: str
    records: List[MeasurementRecord]
    counts: Dict[str, Dict[str, int]]
    stats: Dict[str, int]
    #: The collector's rollup store rebuilt from disk alone -- the
    #: embedded backend's segments + WAL replay, or every cluster
    #: node's merged -- or None in a world without a collector.
    rollup: Optional[RollupStore] = None


def _world_rng(seed: int, device_id: str, purpose: str) -> random.Random:
    return random.Random("chaos:%d:%s:%s" % (seed, device_id, purpose))


class _Collector:
    """The embedded backend at :data:`COLLECTOR_IP`, on the world RNG
    (docs/CLUSTER.md lists how the cluster's collector differs)."""

    def __init__(self, scenario: Scenario, seed: int, device_id: str,
                 service: MopEyeService, rng: random.Random) -> None:
        # Durable storage per world: every crash in this world now
        # genuinely drops the memtable and dedup cache, and restart
        # recovers them from WAL + segments alone.  Auto-flush is off
        # so segments never absorb mid-run state; checkpoints do
        # (every 50 records, two retained), which exercises
        # checkpoint recovery under real crashes -- records
        # folded into a checkpoint survive only as aggregates, so the
        # received mirror may trail the store counters, and the digest
        # parity check in :meth:`finish` is the proof that matters.
        self.data_dir = tempfile.mkdtemp(prefix="mopeye-store-")
        self.backend = BackendServer(
            service.sim, [COLLECTOR_IP],
            path_oneway=LogNormal(8.0, 0.2).bind(rng),
            accept_delay=Constant(0.05),
            load=IngestLoadModel(base_ms=400.0, per_record_ms=5.0),
            data_dir=self.data_dir,
            store_config=StoreConfig(flush_threshold_records=None,
                                     checkpoint_interval_records=50),
            rng=_world_rng(seed, device_id, "backend"))
        service.device.internet.add_server(self.backend)
        self.uploader = MeasurementUploader(
            service, COLLECTOR_IP,
            interval_ms=scenario.uploader_interval_ms,
            min_batch=scenario.uploader_min_batch,
            ack_timeout_ms=scenario.uploader_ack_timeout_ms,
            emit_aoi=scenario.modalities)
        self.uploader.start()
        #: What the injector's collector faults act on.
        self.target = {"backend": self.backend}

    def drain(self, sim: Simulator, horizon: float) -> None:
        sim.run(until=max(sim.now, horizon + 5_000.0))
        self.uploader.stop()
        sim.run(until=sim.now + 15_000.0)

    def finish(self, service: MopEyeService,
               stats: Dict[str, int]) -> RollupStore:
        """Add the ``backend_*`` stats; return the recovered store."""
        # Digest parity is the crash-recovery proof: the rollup store
        # materialised purely from disk (segments + WAL replay, live
        # memtable discarded by the recover() below) must equal a
        # store built fresh from the device's own records.
        backend = self.backend
        backend.store.recover()
        recovered = backend.store.materialize()
        reference = RollupStore(config=recovered.config)
        reference.add_all(service.store)
        stats.update({
            "backend_crashes": backend.crashes,
            "backend_recoveries": backend.recoveries,
            "backend_batches": backend.batches,
            "backend_duplicates": backend.duplicates,
            "backend_records": len(backend.received),
            "backend_rollup_matches_store":
                int(recovered.digest() == reference.digest()),
        })
        backend.store.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        return recovered


def run_device_world(scenario: Scenario, plan: FaultPlan, seed: int,
                     device_index: int,
                     cluster_nodes: Optional[int] = None) -> DeviceRun:
    """Build and run one device's world; pure function of
    ``(scenario, seed, device_index, cluster_nodes)``.  Cluster
    scenarios (or an explicit ``cluster_nodes``) get a
    :class:`~repro.cluster.runner.ClusterCollector`."""
    nodes = scenario.cluster_nodes if cluster_nodes is None \
        else int(cluster_nodes)
    device_id, operator = scenario.devices()[device_index]
    sim = Simulator()
    internet = Internet(sim)
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
    service = MopEyeService(device, modalities=scenario.modalities,
                            app_rtt=scenario.app_rtt)
    service.start()
    # A transparent proxy exists only in worlds whose operator the
    # event scopes: clean-operator worlds never construct one, so
    # their packet schedules (and record bytes) stay identical to a
    # proxy-free run.  The proxy is built disabled; the injector flips
    # its ``enabled`` flag at the event's start time.
    proxy = None
    for event in plan:
        if event.kind == FaultKind.TRANSPARENT_PROXY and \
                event.scope.get("operator") in (None, operator.name):
            ports = tuple(
                int(p) for p in event.params.get(
                    "intercept_ports", DEFAULT_INTERCEPT_PORTS))
            proxy = TransparentProxy(
                sim, internet, intercept_ports=ports,
                bypass_ips=(COLLECTOR_IP,),
                rng=_world_rng(seed, device_id, "middlebox"),
                obs=service.obs)
            break
    collector = None
    if nodes:
        # Imported lazily: repro.cluster.runner imports this module.
        from repro.cluster.runner import ClusterCollector
        collector = ClusterCollector(scenario, seed, device_id, operator,
                                     service, nodes)
    elif scenario.with_backend:
        collector = _Collector(scenario, seed, device_id, service, rng)
    injector = FaultInjector(sim, plan, device_id=device_id,
                             operator=operator.name, link=link,
                             servers=servers, dns=dns, service=service,
                             middlebox=proxy, obs=service.obs,
                             **(collector.target if collector else {}))
    injector.install()

    apps = {spec.package: App(device, spec.package,
                              rng=_world_rng(seed, device_id,
                                             "app:%s" % spec.package))
            for spec in scenario.apps}
    wrng = _world_rng(seed, device_id, "workload")
    resolve_failures = [0]

    def one_connect(spec):
        try:
            yield from apps[spec.package].resolve_and_request(
                spec.domain, spec.port, b"GET / HTTP/1.1\r\n\r\n")
        except ResolveError:
            resolve_failures[0] += 1

    def workload():
        for index in range(scenario.connects):
            spec = scenario.apps[wrng.randrange(len(scenario.apps))]
            attempt = sim.process(one_connect(spec),
                                  name="connect-%d" % index)
            # Watchdog race: a torn-down relay can strand one request
            # (a recv() that will never complete); bound the damage.
            yield sim.any_of([attempt, sim.timeout(_CONNECT_WATCHDOG_MS)])
            yield sim.timeout(wrng.uniform(*scenario.think_ms))

    process = sim.process(workload(), name="chaos-workload")
    sim.run(until=scenario.duration_ms, stop_event=process)
    if not process.triggered:
        raise RuntimeError(
            "chaos workload for %s did not finish within the %.0f ms "
            "budget (deadlock?)" % (device_id, scenario.duration_ms))
    # A fault process can outlive the workload and keep producing
    # records (e.g. coex_bulk's download loop emits throughput/energy
    # flows until its window closes); each collector drains past the
    # plan horizon so its uploader keeps shipping them, then flushes.
    horizon = max([event.end_ms for event in plan] + [0.0])
    if collector is None:
        sim.run(until=max(sim.now, horizon + 5_000.0) + 5_000.0)
    else:
        collector.drain(sim, horizon)

    records = [record._replace(device_id=device_id)
               for record in service.store]
    stats: Dict[str, int] = {
        "records": len(records),
        "failure_records": sum(1 for r in records
                               if r.failure is not None),
        "app_failures": sum(app.failures for app in apps.values()),
        "resolve_failures": resolve_failures[0],
        "workloads_completed": 1,
        "vpn_revocations": device.vpn.revocations,
        "service_running": int(service.running),
    }
    # Each kind installed here folds its registry counters into the
    # cross-world stats.
    for event in injector.installed:
        for short, metric in SPEC_BY_KIND[event.kind].stats:
            stats[short] = int(service.obs.value(metric))
    rollup = None
    if collector is not None:
        uploader = collector.uploader
        stats.update({
            "uploader_failures": uploader.failures,
            "uploader_ack_timeouts": uploader.ack_timeouts,
            "uploader_records_acked": uploader.uploaded,
            "store_records": len(service.store),
        })
        rollup = collector.finish(service, stats)
    return DeviceRun(device_id=device_id, records=records,
                     counts=injector.counts, stats=stats, rollup=rollup)


def _merge_counts(total: Dict[str, Dict[str, int]],
                  part: Dict[str, Dict[str, int]]) -> None:
    for event_id in sorted(part):
        entry = total.setdefault(event_id,
                                 {"activations": 0, "deactivations": 0})
        entry["activations"] += part[event_id].get("activations", 0)
        entry["deactivations"] += part[event_id].get("deactivations", 0)


def _merge_stats(total: Dict[str, int], part: Dict[str, int]) -> None:
    for key in sorted(part):
        total[key] = total.get(key, 0) + int(part[key])


def _run_chaos_shard(task: Tuple[str, int, int, int, str,
                                 Optional[int]],
                     scenario: Optional[Scenario] = None
                     ) -> Tuple[int, int, str,
                                Dict[str, Dict[str, int]],
                                Dict[str, int],
                                Optional[ShardPart]]:
    """Worker entry point: one contiguous device range -> one shard
    and one part of rollups.  Rebuilds everything from (scenario name,
    seed) so fork and spawn behave identically; the inline path hands
    in ``scenario`` itself, which need not be a registry one."""
    scenario_name, seed, device_lo, device_hi, path, cluster_nodes \
        = task
    if scenario is None:
        scenario = get_scenario(scenario_name)
    plan = scenario.plan(seed)
    sha = hashlib.sha256()
    count = 0
    counts: Dict[str, Dict[str, int]] = {}
    stats: Dict[str, int] = {}
    rollup: Optional[RollupStore] = None
    with open(path, "wb") as handle:
        for device_index in range(device_lo, device_hi):
            run = run_device_world(scenario, plan, seed, device_index,
                                   cluster_nodes=cluster_nodes)
            count += write_records(handle, run.records, sha)
            _merge_counts(counts, run.counts)
            _merge_stats(stats, run.stats)
            if rollup is None:
                rollup = run.rollup
            elif run.rollup is not None:
                rollup.merge(run.rollup)
    return (device_lo, count, sha.hexdigest(), counts, stats,
            pack_shard_part(rollup) if rollup is not None else None)


@dataclass
class ChaosResult:
    scenario_name: str
    seed: int
    shard_dir: str
    paths: List[str] = field(default_factory=list)
    records: int = 0
    plan: Optional[FaultPlan] = None
    ledger: Optional[GroundTruthLedger] = None
    stats: Dict[str, int] = field(default_factory=dict)
    #: The recovered backend rollup store merged across all device
    #: worlds (None for scenarios without a backend).
    rollups: Optional[RollupStore] = None

    def digest(self) -> str:
        """SHA-256 of the merged dataset bytes (device order)."""
        return dataset_digest(self.paths)

    def rollup_digest(self) -> Optional[str]:
        """Digest of the recovered backend rollups -- pinned per
        scenario in ``tests/test_pinned_digests.py``."""
        return None if self.rollups is None else self.rollups.digest()

    def iter_records(self) -> Iterator[MeasurementRecord]:
        return iter_jsonl_shards(self.paths)

    def load(self) -> MeasurementStore:
        store = MeasurementStore()
        for record in self.iter_records():
            store.add(record)
        return store


class ChaosRunner:
    """Run a scenario across a worker pool (one shard per device).

    ``workers=1`` runs inline; multi-worker runs require a registry
    scenario (workers regenerate it by name).  Output is byte-identical
    either way -- the determinism tests compare exactly this.
    """

    def __init__(self, scenario, seed: int = 0, workers: int = 1,
                 shard_dir: Optional[str] = None,
                 cluster_nodes: Optional[int] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if workers > 1 and SCENARIOS.get(scenario.name) is not scenario:
            raise ValueError("multi-worker runs need a registry "
                             "scenario (workers rebuild it by name)")
        if cluster_nodes is not None:
            if cluster_nodes < 1:
                raise ValueError("cluster_nodes must be >= 1")
            if not scenario.cluster_nodes:
                raise ValueError(
                    "scenario %r is not a cluster scenario; "
                    "cluster_nodes only overrides the node count of "
                    "scenarios that declare one" % scenario.name)
        self.scenario: Scenario = scenario
        self.seed = seed
        self.workers = workers
        self.shard_dir = shard_dir
        self.cluster_nodes = cluster_nodes

    def run(self) -> ChaosResult:
        shard_dir = self.shard_dir or tempfile.mkdtemp(
            prefix="mopeye-chaos-")
        os.makedirs(shard_dir, exist_ok=True)
        for stale in list_shards(shard_dir):
            os.remove(stale)
        devices = self.scenario.devices()
        tasks = [(self.scenario.name, self.seed, index, index + 1,
                  shard_path(shard_dir, index), self.cluster_nodes)
                 for index in range(len(devices))]
        if self.workers == 1:
            outcomes = [_run_chaos_shard(task, self.scenario)
                        for task in tasks]
        else:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            with ctx.Pool(processes=self.workers) as pool:
                outcomes = pool.map(_run_chaos_shard, tasks)
        outcomes.sort(key=lambda outcome: outcome[0])
        plan = self.scenario.plan(self.seed)
        ledger = GroundTruthLedger.from_plan(plan)
        result = ChaosResult(scenario_name=self.scenario.name,
                             seed=self.seed, shard_dir=shard_dir,
                             plan=plan, ledger=ledger)
        # Every world's collector store is built on the default config.
        config = RollupConfig()
        for device_lo, count, _sha, counts, stats, part in outcomes:
            result.paths.append(shard_path(shard_dir, device_lo))
            result.records += count
            ledger.record_counts(counts)
            _merge_stats(result.stats, stats)
            if part is not None:
                result.rollups = fold_shard_part(result.rollups, config,
                                                 part)
        return result


__all__ = ["ChaosResult", "ChaosRunner", "DeviceRun", "run_device_world",
           "COLLECTOR_IP"]
