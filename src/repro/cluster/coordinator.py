"""The cluster control plane: membership, epochs, failover, rebalance.

The coordinator owns the :class:`~repro.cluster.ring.HashRing`, pushes
campaign/config epochs to the collector fleet, and routes each
device's uploader to its home collector.  It is the Measure-X-style
control plane over today's data plane: collectors stay dumb
(terminate PUSH2, ingest, ACK), all placement decisions live here.

Failure detection is sim-time heartbeats: every ``heartbeat_ms`` the
coordinator probes each active node; ``miss_threshold`` consecutive
misses drive a **failover** --

1. the dead node leaves the ring (its devices re-home to their ring
   successors; the structural minimal-movement bound is asserted);
2. the dead node's *disk* is recovered and its ``(device, seq) ->
   acked`` batch identities are seeded into the successors' dedup
   caches (durably: each seed is WAL-logged as an empty batch), so a
   batch the dead node ingested but never acknowledged is absorbed as
   a duplicate when the uploader replays it -- ingested exactly once
   across the fleet;
3. affected uploaders are re-homed (``uploader.rehome``), which also
   re-drives any stranded final flush.

**Rebalance** (node join) is the same machinery without a corpse: the
standby node joins the ring, moved devices' live dedup entries are
copied to it, and every moved device must land on the joined node
(the ring's minimal-movement guarantee, asserted).

Partitions are deliberately *not* failures: ``partition_node`` makes a
node unreachable for uploads while the control plane (out of band)
keeps seeing it alive -- heartbeats do not miss, no failover fires,
and ``heal_node`` re-drives stranded uploads.  The
``network_partition`` scenario exists to prove that distinction.

Every device world re-derives the same coordinator timeline from the
scenario's fault plan (fixed sim times, fixed heartbeat cadence), so
the per-world cluster event streams are identical -- which is what
lets the verify layer compare summed stats against the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.node import CollectorNode
from repro.cluster.ring import HashRing, check_minimal_movement
from repro.obs import Observability


@dataclass
class CoordinatorEvent:
    """One control-plane decision, for joining against the ledger."""
    kind: str                  # epoch | failover | join | partition
                               # | heal | cluster_lost
    time_ms: float
    node_id: Optional[str] = None
    details: Dict[str, object] = field(default_factory=dict)


class Coordinator:
    def __init__(self, sim, *,
                 nodes: Dict[str, CollectorNode],
                 standby: Optional[Dict[str, CollectorNode]] = None,
                 fleet: Sequence[str],
                 vnodes: int = 32,
                 heartbeat_ms: float = 1_000.0,
                 miss_threshold: int = 3,
                 obs: Optional[Observability] = None,
                 on_rehome: Optional[Callable[[str, str], None]] = None
                 ) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        self.sim = sim
        self.nodes = dict(nodes)
        self.standby = dict(standby or {})
        #: Every device in the campaign, in canonical order: placement
        #: is computed fleet-wide so movement accounting matches what
        #: the union of device worlds experiences.
        self.fleet = list(fleet)
        self.ring = HashRing(vnodes=vnodes, nodes=sorted(self.nodes))
        self.heartbeat_ms = heartbeat_ms
        self.miss_threshold = miss_threshold
        self.obs = obs or Observability(sim=sim)
        self.on_rehome = on_rehome
        self.epoch = 0
        self.events: List[CoordinatorEvent] = []
        self._placement = self.ring.placement(self.fleet)
        self._misses: Dict[str, int] = {}
        self._retired: Dict[str, CollectorNode] = {}
        self.obs.set_gauge("cluster.nodes", float(len(self.nodes)))

    # -- routing -------------------------------------------------------

    def home_ip(self, device_id: str) -> str:
        return self.nodes[self._placement[device_id]].ip

    def knows(self, node_id: str) -> bool:
        return node_id in self.nodes or node_id in self.standby

    def is_active(self, node_id: str) -> bool:
        return node_id in self.nodes

    def is_standby(self, node_id: str) -> bool:
        return node_id in self.standby

    def all_nodes(self) -> List[CollectorNode]:
        """Every node ever part of the cluster (failed and standby
        included) in id order -- the global merge must fold them all:
        a dead node's disk still holds records it acked."""
        seen = dict(self.nodes)
        seen.update(self.standby)
        seen.update(self._retired)
        return [seen[node_id] for node_id in sorted(seen)]

    # -- lifecycle -----------------------------------------------------

    def install(self) -> None:
        self._push_epoch("bootstrap")
        self.sim.process(self._heartbeat_loop(),
                         name="cluster-coordinator")

    def _push_epoch(self, reason: str) -> None:
        self.epoch += 1
        for node_id in sorted(self.nodes):
            self.nodes[node_id].config_epoch = self.epoch
        self.obs.set_gauge("cluster.epoch", float(self.epoch))
        self.events.append(CoordinatorEvent(
            "epoch", self.sim.now,
            details={"epoch": self.epoch, "reason": reason}))

    def _heartbeat_loop(self):
        while True:
            yield self.sim.timeout(self.heartbeat_ms)
            for node_id in sorted(self.nodes):
                node = self.nodes.get(node_id)
                if node is None:        # failed over mid-sweep
                    continue
                self.obs.inc("cluster.heartbeats")
                if node.failed:
                    misses = self._misses.get(node_id, 0) + 1
                    self._misses[node_id] = misses
                    self.obs.inc("cluster.heartbeat_misses")
                    if misses >= self.miss_threshold:
                        self._failover(node_id)
                else:
                    self._misses[node_id] = 0

    # -- fault facade (called by the injector) -------------------------

    def fail_node(self, node_id: str, mode: str = "refuse") -> None:
        self.nodes[node_id].fail(mode)

    def partition_node(self, node_id: str,
                       mode: str = "blackhole") -> None:
        self.nodes[node_id].partition(mode)
        self.obs.inc("cluster.partitions")
        self.events.append(CoordinatorEvent(
            "partition", self.sim.now, node_id=node_id))

    def heal_node(self, node_id: str) -> None:
        self.nodes[node_id].heal()
        self.events.append(CoordinatorEvent(
            "heal", self.sim.now, node_id=node_id))
        # Reachability is back: re-drive uploads stranded by the
        # partition (a shutdown flush that gave up mid-window).
        if self.on_rehome is not None:
            for device_id in self.fleet:
                if self._placement[device_id] == node_id:
                    self.on_rehome(device_id,
                                   self.nodes[node_id].ip)

    # -- failover ------------------------------------------------------

    def _failover(self, node_id: str) -> None:
        node = self.nodes.pop(node_id)
        self._misses.pop(node_id, None)
        self._retired[node_id] = node
        before = dict(self._placement)
        self.ring.remove(node_id)
        self.obs.inc("cluster.failovers")
        self.obs.set_gauge("cluster.nodes", float(len(self.nodes)))
        if not self.nodes:
            self.events.append(CoordinatorEvent(
                "cluster_lost", self.sim.now, node_id=node_id))
            return
        self._placement = self.ring.placement(self.fleet)
        moved = check_minimal_movement(before, self._placement,
                                       left=node_id)
        handoffs = self._handoff_durable(node, moved)
        self.obs.inc("cluster.keys_moved", len(moved))
        self.obs.inc("cluster.devices_rehomed", len(moved))
        self._push_epoch("failover:%s" % node_id)
        self.events.append(CoordinatorEvent(
            "failover", self.sim.now, node_id=node_id,
            details={"moved": list(moved), "dedup_handoffs": handoffs}))
        self._rehome(moved)

    def _handoff_durable(self, node: CollectorNode,
                         moved: Sequence[str]) -> int:
        """Seed the successors' dedup caches from the dead node's
        disk.  Only identities whose device actually re-homed matter
        (a dead node only ever held batches of its own devices)."""
        targets = set(moved)
        handoffs = 0
        for device, seq, acked in node.durable_dedup():
            if device not in targets:
                continue
            successor = self.nodes[self._placement[device]]
            if successor.backend.pipeline.adopt_dedup(device, seq,
                                                      acked):
                handoffs += 1
        if handoffs:
            self.obs.inc("cluster.dedup_handoffs", handoffs)
        return handoffs

    # -- rebalance -----------------------------------------------------

    def join_node(self, node_id: str) -> None:
        """A standby node joins the ring: bounded key movement, live
        dedup handoff for the moved devices, re-home."""
        node = self.standby.pop(node_id)
        before = dict(self._placement)
        self.nodes[node_id] = node
        self.ring.add(node_id)
        self._placement = self.ring.placement(self.fleet)
        moved = check_minimal_movement(before, self._placement,
                                       joined=node_id)
        handoffs = 0
        for device in moved:
            old = self.nodes[before[device]]
            for seq, acked in \
                    old.backend.pipeline.dedup_entries(device):
                if node.backend.pipeline.adopt_dedup(device, seq,
                                                     acked):
                    handoffs += 1
        if handoffs:
            self.obs.inc("cluster.dedup_handoffs", handoffs)
        self.obs.inc("cluster.rebalances")
        self.obs.inc("cluster.keys_moved", len(moved))
        self.obs.inc("cluster.devices_rehomed", len(moved))
        self.obs.set_gauge("cluster.nodes", float(len(self.nodes)))
        self._push_epoch("join:%s" % node_id)
        self.events.append(CoordinatorEvent(
            "join", self.sim.now, node_id=node_id,
            details={"moved": list(moved),
                     "dedup_handoffs": handoffs}))
        self._rehome(moved)

    def _rehome(self, moved: Sequence[str]) -> None:
        if self.on_rehome is None:
            return
        for device_id in moved:
            self.on_rehome(device_id,
                           self.nodes[self._placement[device_id]].ip)

    # -- accounting ----------------------------------------------------

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


__all__ = ["Coordinator", "CoordinatorEvent"]
