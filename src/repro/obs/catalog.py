"""The metric and span catalog: the single source of truth for names.

Every metric the system can emit is declared here, with its type, unit
and emitting module; :class:`~repro.obs.registry.MetricsRegistry`
refuses to create an instrument whose name is not in the catalog.  That
makes drift impossible in both directions: code cannot emit an
undocumented metric (the registry raises), and the documentation test
(`tests/test_obs_docs.py`) diffs ``docs/OBSERVABILITY.md`` against this
catalog, so a stale doc fails CI.

``volatile=True`` marks metrics whose value depends on wall-clock time
or host speed (e.g. ``crowd.records_per_sec``).  They are excluded from
deterministic snapshots so the snapshot byte-identity contract (same
seed => same bytes, regardless of ``PYTHONHASHSEED`` or machine) holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    name: str
    kind: str                    # counter | gauge | histogram
    unit: str                    # "packets", "ms", "records", ...
    module: str                  # emitting module (dotted path)
    help: str
    volatile: bool = False       # wall-clock dependent; excluded from
                                 # deterministic snapshots
    max_x: float = 1000.0        # histogram domain upper edge
    n_bins: int = 2000           # histogram bin count


@dataclass(frozen=True)
class SpanSpec:
    name: str
    module: str
    help: str


def _m(name: str, kind: str, unit: str, module: str, help: str,
       volatile: bool = False, max_x: float = 1000.0,
       n_bins: int = 2000) -> Tuple[str, MetricSpec]:
    return name, MetricSpec(name=name, kind=kind, unit=unit,
                            module=module, help=help, volatile=volatile,
                            max_x=max_x, n_bins=n_bins)


CATALOG: Dict[str, MetricSpec] = dict([
    # -- relay-wide counters -----------------------------------------------
    _m("relay.syn_packets", COUNTER, "packets", "repro.core.main_worker",
       "SYNs captured from the tunnel; each starts a TcpClient."),
    _m("relay.pure_acks_discarded", COUNTER, "packets",
       "repro.core.relay_tcp",
       "Pure ACKs from the app, discarded per section 2.3."),
    _m("relay.orphan_packets", COUNTER, "packets",
       "repro.core.main_worker",
       "Non-SYN tunnel segments with no live TcpClient."),
    _m("relay.parse_errors", COUNTER, "packets",
       "repro.core.main_worker",
       "Tunnel packets whose TCP/UDP payload failed to decode."),
    _m("relay.state_errors", COUNTER, "packets",
       "repro.core.main_worker",
       "Segments rejected by the user-space TCP state machine."),
    _m("relay.connect_failures", COUNTER, "connections",
       "repro.core.relay_tcp",
       "External connect() refused or timed out; app got a RST."),
    _m("relay.packets_to_tunnel", COUNTER, "packets",
       "repro.core.service",
       "Packets written toward the app, TCP and UDP alike (every "
       "producer funnels through MopEyeService.emit_packet)."),
    _m("relay.bytes_up", COUNTER, "bytes", "repro.core.relay_tcp",
       "App payload bytes relayed outward (tunnel -> external socket) "
       "across all TCP connections."),
    _m("relay.bytes_down", COUNTER, "bytes", "repro.core.relay_tcp",
       "Server payload bytes relayed inward (external socket -> "
       "tunnel) across all TCP connections."),
    # -- TunReader (section 3.1) -------------------------------------------
    _m("tun_reader.packets_read", COUNTER, "packets",
       "repro.core.tun_reader",
       "Packets retrieved from the tun fd and enqueued for MainWorker."),
    _m("tun_reader.poll_rounds", COUNTER, "rounds",
       "repro.core.tun_reader",
       "Poll iterations (sleep/adaptive ToyVpn-style modes only)."),
    _m("tun_reader.empty_polls", COUNTER, "rounds",
       "repro.core.tun_reader",
       "Poll iterations that found no packet (wasted wakeups)."),
    _m("tun_reader.read_wait_ms", HISTOGRAM, "ms",
       "repro.core.tun_reader",
       "Sim time spent blocked in one tun read() (blocking mode)."),
    # -- MainWorker (sections 2.3, 3.2) ------------------------------------
    _m("main_worker.loops", COUNTER, "iterations",
       "repro.core.main_worker",
       "Selector-loop iterations completed."),
    _m("main_worker.socket_events", COUNTER, "events",
       "repro.core.main_worker",
       "Socket readiness events handled (read + write)."),
    _m("main_worker.tunnel_packets", COUNTER, "packets",
       "repro.core.main_worker",
       "Tunnel packets drained from the read queue and dispatched."),
    _m("main_worker.events_per_loop", HISTOGRAM, "events",
       "repro.core.main_worker",
       "Socket events handled per selector-loop iteration.",
       max_x=64.0, n_bins=64),
    _m("main_worker.queue_depth", HISTOGRAM, "packets",
       "repro.core.main_worker",
       "Tunnel read-queue depth observed at each drain.",
       max_x=256.0, n_bins=256),
    # -- connect / RTT (sections 2.4, 4.1.1) -------------------------------
    _m("tcp.connect_rtt_ms", HISTOGRAM, "ms", "repro.core.relay_tcp",
       "The RTT samples themselves: blocking connect() durations "
       "bracketed by timestamps (Table 2's accuracy argument)."),
    # -- packet-to-app mapping (section 3.3, Figure 5) ---------------------
    _m("mapping.requests", COUNTER, "requests", "repro.core.mapping",
       "Mapping requests served (one per measured connection)."),
    _m("mapping.parses", COUNTER, "parses", "repro.core.mapping",
       "/proc/net/tcp6|tcp parses actually performed."),
    _m("mapping.served_by_peer", COUNTER, "requests",
       "repro.core.mapping",
       "Requests resolved from a concurrent thread's snapshot (the "
       "lazy mapper's 67.8% mitigation path)."),
    _m("mapping.wait_naps", COUNTER, "naps", "repro.core.mapping",
       "50 ms naps taken while another thread was parsing."),
    _m("mapping.unmapped", COUNTER, "requests", "repro.core.mapping",
       "Four-tuples never resolved to a UID."),
    _m("mapping.overhead_ms", HISTOGRAM, "ms", "repro.core.mapping",
       "CPU cost charged per mapping request (Figure 5(b)).",
       max_x=100.0, n_bins=1000),
    # -- TunWriter (section 3.5.1, Table 1) --------------------------------
    _m("tun_writer.packets_written", COUNTER, "packets",
       "repro.core.tun_writer",
       "Packets written to the tun fd (queueWrite consumer or "
       "directWrite producers)."),
    _m("tun_writer.packets_dropped", COUNTER, "packets",
       "repro.core.tun_writer",
       "Packets enqueued after stop() and never written."),
    _m("tun_writer.sleep_count", COUNTER, "rounds",
       "repro.core.tun_writer",
       "newPut spin rounds: empty checks the consumer made instead of "
       "parking in wait() (the section 3.5.1 sleep counter)."),
    _m("tun_writer.queue_depth", HISTOGRAM, "packets",
       "repro.core.tun_writer",
       "Write-queue occupancy observed at each producer put.",
       max_x=256.0, n_bins=256),
    _m("tun_writer.put_cost_ms", HISTOGRAM, "ms",
       "repro.core.tun_writer",
       "Producer-side enqueue cost per put (Table 1's oldPut/newPut "
       "contrast).", max_x=50.0, n_bins=1000),
    _m("tun_writer.write_cost_ms", HISTOGRAM, "ms",
       "repro.core.tun_writer",
       "Consumer-side tun write() syscall cost.", max_x=50.0,
       n_bins=1000),
    _m("tun_writer.direct_write_ms", HISTOGRAM, "ms",
       "repro.core.tun_writer",
       "End-to-end producer write cost under directWrite, lock "
       "contention included (Table 1's worst column).", max_x=50.0,
       n_bins=1000),
    # -- UDP relay (section 2.4) -------------------------------------------
    _m("udp_relay.datagrams", COUNTER, "datagrams",
       "repro.core.relay_udp",
       "UDP datagrams captured from the tunnel and relayed outward."),
    _m("udp_relay.replies", COUNTER, "datagrams",
       "repro.core.relay_udp",
       "Server replies forwarded back into the tunnel."),
    _m("udp_relay.timeouts", COUNTER, "datagrams",
       "repro.core.relay_udp",
       "Relayed datagrams that never got a reply within the timeout."),
    _m("udp_relay.dns_measured", COUNTER, "queries",
       "repro.core.relay_udp",
       "Port-53 round trips recorded as DNS measurements."),
    _m("udp_relay.bytes_up", COUNTER, "bytes", "repro.core.relay_udp",
       "UDP payload bytes relayed outward (tunnel -> server)."),
    _m("udp_relay.bytes_down", COUNTER, "bytes",
       "repro.core.relay_udp",
       "UDP payload bytes forwarded back into the tunnel."),
    # -- cellular RRC state machine (docs/MODALITIES.md) -------------------
    _m("rrc.dwell_idle_ms", COUNTER, "ms", "repro.network.rrc",
       "Sim time the radio spent in IDLE (no radio resources)."),
    _m("rrc.dwell_low_ms", COUNTER, "ms", "repro.network.rrc",
       "Sim time the radio spent in LOW (FACH / connected-DRX)."),
    _m("rrc.dwell_high_ms", COUNTER, "ms", "repro.network.rrc",
       "Sim time the radio spent in HIGH (DCH / RRC_CONNECTED "
       "active)."),
    _m("rrc.tail_ms", COUNTER, "ms", "repro.network.rrc",
       "Sim time the radio lingered in a powered state after its last "
       "activity (the inactivity-timer tail that dominates cellular "
       "energy)."),
    # -- uploader ----------------------------------------------------------
    _m("uploader.batches", COUNTER, "batches", "repro.core.uploader",
       "Upload batches fully or partly acknowledged."),
    _m("uploader.records_acked", COUNTER, "records",
       "repro.core.uploader",
       "Measurement records acknowledged by the collector."),
    _m("uploader.failures", COUNTER, "batches", "repro.core.uploader",
       "Upload attempts that failed (connect error or bad response)."),
    _m("uploader.short_acks", COUNTER, "batches",
       "repro.core.uploader",
       "Batches the collector part-ACKed; the tail is retried next "
       "interval (the retry tail)."),
    _m("uploader.deferred_cellular", COUNTER, "intervals",
       "repro.core.uploader",
       "Upload intervals skipped because the device was on cellular."),
    _m("uploader.ack_latency_ms", HISTOGRAM, "ms",
       "repro.core.uploader",
       "connect() to ACK-received latency per upload batch.",
       max_x=5000.0, n_bins=1000),
    _m("uploader.busy_backoffs", COUNTER, "batches",
       "repro.core.uploader",
       "Batches rejected with BUSY; the uploader backed off with "
       "jitter and will retry the same (device_id, batch_seq)."),
    _m("uploader.ack_timeouts", COUNTER, "batches",
       "repro.core.uploader",
       "Uploads abandoned after the ACK deadline passed (lost payload "
       "or lost ACK); retried idempotently next interval."),
    _m("uploader.final_flush", COUNTER, "batches",
       "repro.core.uploader",
       "Batches pushed by the shutdown flush in stop(), below "
       "min_batch included."),
    _m("uploader.stale_acks", COUNTER, "batches",
       "repro.core.uploader",
       "ACKs discarded because a concurrent attempt already consumed "
       "the batch (periodic upload racing the shutdown flush); "
       "counting them would over-advance the cursor."),
    _m("uploader.rehomes", COUNTER, "rehomes",
       "repro.core.uploader",
       "Times the cluster coordinator pointed this uploader at a new "
       "home collector (failover or rebalance); the in-flight batch "
       "travels to the new node verbatim."),
    _m("uploader.aoi_records", COUNTER, "records",
       "repro.core.uploader",
       "Age-of-information records emitted at ACK time (one per "
       "acknowledged non-AoI record when emit_aoi is on)."),
    # -- collection backend ------------------------------------------------
    _m("backend.batches", COUNTER, "batches", "repro.backend.ingest",
       "Upload batches accepted and ingested (duplicates excluded)."),
    _m("backend.records_ingested", COUNTER, "records",
       "repro.backend.ingest",
       "Measurement records ingested into the rollup store."),
    _m("backend.malformed_headers", COUNTER, "requests",
       "repro.backend.server",
       "Requests whose header was not a well-formed PUSH2 (ACK 0)."),
    _m("backend.malformed_lines", COUNTER, "batches",
       "repro.backend.ingest",
       "Batches truncated at a malformed JSON line; the ACK covers "
       "only the valid prefix."),
    _m("backend.duplicate_batches", COUNTER, "batches",
       "repro.backend.ingest",
       "Batches replayed with a known (device_id, batch_seq); the "
       "cached ACK was returned without re-ingesting."),
    _m("backend.busy_rejections", COUNTER, "batches",
       "repro.backend.ingest",
       "Batches shed with BUSY because the ingest backlog exceeded "
       "the load threshold."),
    _m("backend.rate_limited", COUNTER, "batches",
       "repro.backend.ingest",
       "Batches shed with BUSY because the per-device token bucket "
       "was empty."),
    _m("backend.batch_records", HISTOGRAM, "records",
       "repro.backend.ingest",
       "Records per accepted batch.", max_x=2000.0, n_bins=2000),
    _m("backend.ingest_delay_ms", HISTOGRAM, "ms",
       "repro.backend.ingest",
       "Sim-time processing delay charged per accepted batch (the "
       "backlog model's per-batch cost).", max_x=2000.0, n_bins=2000),
    _m("backend.rollup_groups", GAUGE, "groups",
       "repro.backend.rollups",
       "Distinct (table, key) histogram groups currently held."),
    _m("backend.detector_evaluations", COUNTER, "evaluations",
       "repro.backend.detector",
       "Detector rule evaluations performed against live rollups."),
    _m("backend.detector_findings", COUNTER, "findings",
       "repro.backend.detector",
       "Case-study findings raised by the online detector."),
    _m("backend.ingest_records_per_sec", GAUGE, "records/s",
       "repro.backend.ingest",
       "Wall-clock ingest throughput of the last offline ingest run.",
       volatile=True),
    _m("backend.ingest_merge_wall_ms", GAUGE, "ms",
       "repro.backend.ingest",
       "Parent-side wall-clock time the last shard-parallel ingest "
       "spent accumulating and finalising worker packs (the serial "
       "fraction that used to scale with worker count).",
       volatile=True),
    _m("backend.ingest_worker_wall_ms", HISTOGRAM, "ms",
       "repro.backend.ingest",
       "Per-worker wall-clock time of the last shard-parallel ingest "
       "(straggler spread shows up as histogram width).",
       max_x=120000.0, n_bins=1200, volatile=True),
    # -- storage engine ----------------------------------------------------
    _m("store.wal_appends", COUNTER, "frames", "repro.store.wal",
       "WAL frames (one uploaded batch each) made durable by a "
       "commit."),
    _m("store.wal_bytes", COUNTER, "bytes", "repro.store.wal",
       "Framed bytes written to the WAL (header + payload)."),
    _m("store.wal_fsyncs", COUNTER, "fsyncs", "repro.store.wal",
       "WAL commits issued; each is one modelled fsync barrier."),
    _m("store.wal_commit_cost_ms", HISTOGRAM, "ms", "repro.store.wal",
       "Modelled sim-time cost per WAL commit (FsyncModel); charged "
       "to the batch ACK.", max_x=500.0, n_bins=1000),
    _m("store.wal_replayed_frames", COUNTER, "frames",
       "repro.store.engine",
       "Valid WAL frames replayed into the memtable by recovery."),
    _m("store.wal_replayed_records", COUNTER, "records",
       "repro.store.engine",
       "Measurement records rebuilt from WAL replay."),
    _m("store.wal_torn_tails", COUNTER, "tails", "repro.store.engine",
       "Recoveries that found a torn or corrupt WAL tail and "
       "truncated it at the last valid frame."),
    _m("store.flushes", COUNTER, "flushes", "repro.store.engine",
       "Memtable freezes into an immutable segment (WAL restarts "
       "empty afterwards)."),
    _m("store.segment_flush_bytes", COUNTER, "bytes",
       "repro.store.engine",
       "Bytes written by memtable flushes (compaction rewrites "
       "excluded)."),
    _m("store.segment_writes", COUNTER, "segments",
       "repro.store.segments",
       "Segment files written, flushes and compaction rewrites "
       "combined."),
    _m("store.compactions", COUNTER, "compactions",
       "repro.store.engine",
       "Tiered compactions: N segments merged into one."),
    _m("store.segments_quarantined", COUNTER, "segments",
       "repro.store.engine",
       "Segments that failed checksum validation during recovery and "
       "were moved to quarantine/ instead of being served."),
    _m("store.retention_windows_evicted", COUNTER, "windows",
       "repro.store.engine",
       "Distinct rollup windows dropped by the retention pass for "
       "exceeding the configured horizon."),
    _m("store.recoveries", COUNTER, "recoveries", "repro.store.engine",
       "Crash recoveries completed (initial cold opens excluded)."),
    _m("store.segments", GAUGE, "segments", "repro.store.engine",
       "Live segment files currently in the manifest."),
    _m("store.segment_bytes", GAUGE, "bytes", "repro.store.engine",
       "Total on-disk size of live segments."),
    _m("store.memtable_records", GAUGE, "records",
       "repro.store.engine",
       "Records currently held only by the memtable (durable in the "
       "WAL, not yet in a segment)."),
    _m("store.recovery_replay_wall_ms", GAUGE, "ms",
       "repro.store.engine",
       "Wall-clock time of the last recovery replay.", volatile=True),
    _m("store.checkpoints", COUNTER, "checkpoints",
       "repro.store.segments",
       "Checkpoint files written (memtable snapshots that bound WAL "
       "replay at recovery)."),
    _m("store.checkpoint_bytes", COUNTER, "bytes",
       "repro.store.segments",
       "Bytes written by checkpoint snapshots (tmp+rename writes, "
       "quarantined files included)."),
    _m("store.checkpoint_records", GAUGE, "records",
       "repro.store.engine",
       "Records covered by the most recent checkpoint snapshot."),
    _m("store.checkpoints_quarantined", COUNTER, "checkpoints",
       "repro.store.engine",
       "Checkpoints that failed validation during recovery and were "
       "moved to quarantine/; recovery fell back to the previous "
       "checkpoint (or a full WAL replay)."),
    _m("store.wal_rotations", COUNTER, "rotations",
       "repro.store.engine",
       "WAL generation seals: the active generation was closed and a "
       "fresh one opened (checkpoint or flush)."),
    _m("store.wal_files", GAUGE, "files", "repro.store.engine",
       "WAL files currently on disk across generations and shards."),
    _m("store.durable.renames", COUNTER, "renames",
       "repro.store.durable",
       "Files renamed into place (a segment, checkpoint or manifest "
       "written atomically, or a file moved to quarantine/); each is "
       "followed by a sync of its directory."),
    _m("store.durable.creates", COUNTER, "files",
       "repro.store.durable",
       "Files and directories created for the store to keep (a WAL "
       "generation with its magic, segments/, quarantine/); each is "
       "followed by a sync of its parent directory."),
    _m("store.durable.dir_syncs", COUNTER, "fsyncs",
       "repro.store.durable",
       "Directory fsyncs: what makes a rename or a create survive a "
       "power loss.  None rides an upload's ACK unless it flushes or "
       "checkpoints."),
    _m("store.durable.truncates", COUNTER, "files",
       "repro.store.durable",
       "WAL files cut back to their last valid frame by recovery, "
       "each fsynced after the cut."),
    _m("store.durable.removes", COUNTER, "files",
       "repro.store.durable",
       "Files the store deleted (stale checkpoints, segments and WAL "
       "generations, orphans and .tmp files); no directory sync."),
    _m("store.blocks_read", COUNTER, "blocks", "repro.store.segments",
       "Segment blocks fetched on the read path (block-cache hits "
       "included: a hit still serves that block to the query)."),
    _m("store.blocks_pruned", COUNTER, "blocks",
       "repro.store.segments",
       "Candidate blocks skipped because their zone-map [min, max] "
       "key range cannot intersect the query."),
    _m("store.cache.hits", COUNTER, "blocks",
       "repro.store.blockcache",
       "Block-cache lookups served from a cached decoded block."),
    _m("store.cache.misses", COUNTER, "blocks",
       "repro.store.blockcache",
       "Block-cache lookups that fell through to a disk read + "
       "decode."),
    _m("store.cache.evictions", COUNTER, "blocks",
       "repro.store.blockcache",
       "Decoded blocks evicted from the LRU end to fit the byte "
       "budget."),
    _m("store.cache.bytes", GAUGE, "bytes", "repro.store.blockcache",
       "Decoded payload bytes currently resident in the block cache."),
    _m("store.cache.entries", GAUGE, "blocks",
       "repro.store.blockcache",
       "Decoded blocks currently resident in the block cache."),
    # -- serving tier (the query engine over the store) --------------------
    _m("serve.snapshots", COUNTER, "views", "repro.serve.engine",
       "Snapshot read views opened (each pins the segment list and a "
       "memtable copy for its lifetime)."),
    _m("serve.queries", COUNTER, "queries", "repro.serve.engine",
       "Queries answered by read views: panels, tables, and "
       "dashboard-style views alike."),
    _m("serve.query_latency_ms", HISTOGRAM, "ms",
       "repro.serve.workload",
       "Wall-clock latency of one dashboard panel query.",
       volatile=True, max_x=1000.0, n_bins=2000),
    # -- access link (loss / latency faults land here) ---------------------
    _m("link.packets_dropped", COUNTER, "packets", "repro.network.link",
       "Packets lost on a link direction, i.i.d. and burst losses "
       "combined."),
    _m("link.burst_drops", COUNTER, "packets", "repro.network.link",
       "Packets lost by the Gilbert-Elliott burst model specifically "
       "(subset of link.packets_dropped)."),
    _m("link.latency_extra_ms", GAUGE, "ms", "repro.network.link",
       "Extra one-way latency currently injected on a link direction "
       "(0 when no latency-spike fault is active)."),
    # -- cluster tier (coordinator + global merge) -------------------------
    _m("cluster.heartbeats", COUNTER, "probes",
       "repro.cluster.coordinator",
       "Heartbeat probes the coordinator sent to active collector "
       "nodes (one per node per interval)."),
    _m("cluster.heartbeat_misses", COUNTER, "probes",
       "repro.cluster.coordinator",
       "Heartbeat probes a failed node did not answer; "
       "miss_threshold consecutive misses drive a failover."),
    _m("cluster.failovers", COUNTER, "failovers",
       "repro.cluster.coordinator",
       "Failed nodes removed from the ring with their devices "
       "re-homed to ring successors."),
    _m("cluster.rebalances", COUNTER, "joins",
       "repro.cluster.coordinator",
       "Standby nodes joined into the ring (each join's key movement "
       "is checked against the ring's minimal-movement bound)."),
    _m("cluster.partitions", COUNTER, "partitions",
       "repro.cluster.coordinator",
       "Network partitions observed by the coordinator (node "
       "unreachable for uploads but alive -- never a failover)."),
    _m("cluster.devices_rehomed", COUNTER, "devices",
       "repro.cluster.coordinator",
       "Device uploaders pointed at a new home collector by "
       "failovers and rebalances."),
    _m("cluster.keys_moved", COUNTER, "keys",
       "repro.cluster.coordinator",
       "Placement keys whose home node changed across all membership "
       "changes (== devices_rehomed unless a device world never "
       "instantiated the key)."),
    _m("cluster.dedup_handoffs", COUNTER, "batches",
       "repro.cluster.coordinator",
       "Batch identities ((device, seq) -> acked) seeded into a "
       "successor's dedup cache during failover (from the dead "
       "node's disk) or join (from the old owner, live)."),
    _m("cluster.nodes", GAUGE, "nodes", "repro.cluster.coordinator",
       "Active collector nodes currently in the ring."),
    _m("cluster.epoch", GAUGE, "epochs", "repro.cluster.coordinator",
       "Config epoch last pushed to the fleet (bumped on every "
       "membership change)."),
    _m("cluster.merge_wall_ms", GAUGE, "ms", "repro.cluster.merge",
       "Wall-clock time of the last global rollup merge.",
       volatile=True),
    # -- middlebox (repro.middlebox, docs/MIDDLEBOX.md) --------------------
    _m("mbox.intercepted_connects", COUNTER, "connections",
       "repro.middlebox.proxy",
       "SYNs to intercepted ports answered locally by the transparent "
       "proxy (each becomes a split connection attempt)."),
    _m("mbox.split_connections", COUNTER, "connections",
       "repro.middlebox.proxy",
       "Upstream halves successfully opened to the real server; the "
       "two halves are spliced from then on."),
    _m("mbox.upstream_failures", COUNTER, "connections",
       "repro.middlebox.proxy",
       "Upstream connects that failed after the SYN was already "
       "answered locally; the client gets a late RST."),
    _m("mbox.rewritten_bytes", COUNTER, "bytes",
       "repro.middlebox.proxy",
       "Response-stream bytes emitted by the rewrite hook when it "
       "changed the payload."),
    _m("mbox.dns_tcp_refused", COUNTER, "connections",
       "repro.middlebox.proxy",
       "DNS-over-TCP SYNs on intercepted ports refused with RST (the "
       "split proxy does not speak DNS; never a silent drop)."),
    _m("mbox.bytes_up", COUNTER, "bytes", "repro.middlebox.proxy",
       "Client payload bytes forwarded to upstream connections."),
    _m("mbox.bytes_down", COUNTER, "bytes", "repro.middlebox.proxy",
       "Server payload bytes spliced back toward clients (after any "
       "rewriting)."),
    _m("mbox.divergence_findings", COUNTER, "findings",
       "repro.backend.detector",
       "Proxy-divergence verdicts raised by the online detector "
       "(SYN-RTT vs app-layer-RTT distributions split)."),
    # -- measurement imperfections (repro.middlebox.imperfect) -------------
    _m("imperfect.quantised_samples", COUNTER, "reads",
       "repro.middlebox.imperfect",
       "Clock reads floored to the configured N-ms tick."),
    _m("imperfect.jitter_applied", COUNTER, "reads",
       "repro.middlebox.imperfect",
       "Clock reads delayed by seeded scheduling jitter."),
    # -- fault injection ---------------------------------------------------
    _m("faults.events_installed", COUNTER, "events",
       "repro.faults.injector",
       "Fault events scheduled by an injector (scope matched)."),
    _m("faults.activated", COUNTER, "events", "repro.faults.injector",
       "Fault events whose start time fired and whose effect was "
       "applied."),
    _m("faults.deactivated", COUNTER, "events",
       "repro.faults.injector",
       "Fault events whose duration elapsed and whose effect was "
       "reverted."),
    _m("faults.active", GAUGE, "events", "repro.faults.injector",
       "Fault events currently in effect."),
    # -- sharded crowd campaign --------------------------------------------
    _m("crowd.records_generated", COUNTER, "records",
       "repro.crowd.sharding",
       "Measurement records generated by the campaign."),
    _m("crowd.shards_completed", COUNTER, "shards",
       "repro.crowd.sharding",
       "Shard files fully written and checksummed."),
    _m("crowd.shard_records", HISTOGRAM, "records",
       "repro.crowd.sharding",
       "Records per shard (load-balance quality of plan_shards).",
       max_x=4_000_000.0, n_bins=4000),
    _m("crowd.shard_elapsed_s", HISTOGRAM, "s", "repro.crowd.sharding",
       "Wall-clock seconds per shard generation.", volatile=True,
       max_x=600.0, n_bins=600),
    _m("crowd.records_per_sec", GAUGE, "records/s",
       "repro.crowd.sharding",
       "Wall-clock generation throughput of the last campaign run.",
       volatile=True),
])


def _s(name: str, module: str, help: str) -> Tuple[str, SpanSpec]:
    return name, SpanSpec(name=name, module=module, help=help)


SPANS: Dict[str, SpanSpec] = dict([
    _s("tun_reader.read", "repro.core.tun_reader",
       "One blocking tun read(): idle wait for the next app packet."),
    _s("main_worker.select", "repro.core.main_worker",
       "MainWorker parked in select(), waiting for socket readiness "
       "or a TunReader wakeup."),
    _s("main_worker.loop", "repro.core.main_worker",
       "One selector-loop iteration: socket events then tunnel "
       "drain.  Parent of socket_event and tunnel_packet spans."),
    _s("main_worker.socket_event", "repro.core.main_worker",
       "Handling one socket readiness key (write flush / read drain)."),
    _s("main_worker.tunnel_packet", "repro.core.main_worker",
       "Parsing and dispatching one captured tunnel packet."),
    _s("tcp.connect", "repro.core.relay_tcp",
       "The blocking external connect(); its duration is the RTT "
       "sample (rtt_ms attribute on success)."),
    _s("mapping.map", "repro.core.mapping",
       "One packet-to-app mapping request (lazy naps included)."),
    _s("tun_writer.write", "repro.core.tun_writer",
       "One consumer-side tun write in queueWrite mode."),
    _s("tun_writer.park", "repro.core.tun_writer",
       "TunWriter parked in wait() after exhausting its sleep "
       "counter (idle)."),
    _s("udp_relay.relay", "repro.core.relay_udp",
       "One UDP relay round trip, DNS measurement included."),
    _s("uploader.upload", "repro.core.uploader",
       "One batch upload: connect, push, wait for ACK."),
])


def spec_for(name: str) -> MetricSpec:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            "metric %r is not in repro.obs.catalog.CATALOG; add it "
            "there (and to docs/OBSERVABILITY.md) first" % name)


__all__ = ["CATALOG", "SPANS", "MetricSpec", "SpanSpec", "spec_for",
           "COUNTER", "GAUGE", "HISTOGRAM"]
