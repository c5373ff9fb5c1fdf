"""The chaos scenario library: named, self-contained experiments.

A :class:`Scenario` bundles a miniature world description (operators,
devices, apps) with the fault events injected into it.  The world
parameters live here rather than in the runner so that a scenario name
plus a seed fully determines the experiment -- ``python -m repro chaos
--scenario bursty_lte --seed 7`` is reproducible from the command line
alone.

Each preset is designed so the faults leave a *diagnosable* footprint
(see ``faults/verify.py``):

* ``bursty_lte``      -- Gilbert-Elliott loss on one LTE operator and a
  latency spike on a second, with a clean third as the peer baseline;
  connect RTTs inflate through SYN retransmission (paper section 4.1)
  and the operator diagnosis flags the access/core network.
* ``server_brownout`` -- slow-accept brownouts on two apps' servers
  (diagnosed SERVER_SIDE against healthy peers) plus a refuse window
  on a third (refused-connect failure records).
* ``dns_outage``      -- resolver blackhole window; timed-out relay
  queries become DNS failure records.  Small and fast: the CLI
  tests run this one.
* ``handover_storm``  -- repeated wifi<->LTE flips with radio gaps;
  records carry both network types.
* ``backend_crash``   -- collector crash window under an active
  uploader; exercises ack-timeout, idempotent replay, and recovery.
* ``multi_crash``     -- two crash windows (refuse, then blackhole);
  each restart is a real WAL/segment recovery and the recovered
  rollups must digest-match the device's own records.
* ``vpn_flap``        -- VPN consent revoked twice mid-run; the relay
  tears down and restarts (the no-hang watchdog scenario).
* ``collector_failover`` -- cluster tier: one of three collector nodes
  dies; heartbeat detection, ring failover, dedup handoff.
* ``network_partition``  -- cluster tier: a node is unreachable for a
  window but alive; no failover, heal re-drives stranded uploads.
* ``rebalance_storm``    -- cluster tier: two standby nodes join;
  bounded key movement with live dedup handoff.
* ``coexistence``        -- a bulk download app inflates a foreground
  app's RTTs on one operator; runs with the beyond-RTT modality
  records enabled so the bulk transfer is visible as throughput
  evidence (docs/MODALITIES.md).
* ``transparent_proxy``  -- a split-connection middlebox on one
  operator answers SYNs locally on ports 80/443; SYN RTTs collapse to
  middlebox RTT while app-layer RTTs still span the full path, and
  the shared divergence rule flags the operator
  (docs/MIDDLEBOX.md).
* ``noisy_clock``        -- the device clock quantises every
  timestamp read to a coarse grid; both RTT kinds distort *together*,
  so the divergence rule must stay inert while the ablation
  quantifies the accuracy cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.network.link import NetworkType


@dataclass(frozen=True)
class ScenarioApp:
    """One app and the server behind it."""
    package: str
    domain: str
    path_oneway_ms: float = 10.0
    sigma: float = 0.2
    #: Destination port the app connects to.  443 by default; the
    #: middlebox scenarios put one app on a non-intercepted port to
    #: prove port-selectivity (docs/MIDDLEBOX.md).
    port: int = 443


@dataclass(frozen=True)
class ScenarioOperator:
    """One operator; the scenario runs ``devices`` phones on it."""
    name: str
    network_type: str = NetworkType.WIFI
    access_oneway_ms: float = 5.0
    sigma: float = 0.2
    devices: int = 2


def _slug(name: str) -> str:
    return name.lower().replace(" ", "-")


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    operators: Tuple[ScenarioOperator, ...]
    apps: Tuple[ScenarioApp, ...]
    events: Tuple[FaultEvent, ...]
    connects: int = 30
    think_ms: Tuple[float, float] = (200.0, 800.0)
    #: Sim-time budget per device world; the no-hang watchdog bound.
    duration_ms: float = 3_600_000.0
    with_backend: bool = False
    uploader_interval_ms: float = 2_000.0
    uploader_min_batch: int = 4
    uploader_ack_timeout_ms: float = 3_000.0
    #: Collector nodes in the cluster tier (0 = classic single
    #: collector; >0 hands the world to ``repro.cluster.runner``).
    cluster_nodes: int = 0
    #: Standby nodes available for ``node_join`` rebalances.
    cluster_standby: int = 0
    cluster_vnodes: int = 32
    cluster_heartbeat_ms: float = 1_000.0
    cluster_miss_threshold: int = 3
    #: Emit the beyond-RTT modality records (throughput / energy from
    #: the relay, AoI from the uploader) -- see docs/MODALITIES.md.
    modalities: bool = False
    #: Emit app-layer RTT records (first request byte to first
    #: response byte) alongside the SYN RTTs -- the second half of the
    #: middlebox-divergence signal (docs/MIDDLEBOX.md).
    app_rtt: bool = False

    def plan(self, seed: int) -> FaultPlan:
        """The fault plan for one run.  Events are static data; the
        seed picks the per-event effect RNG streams."""
        return FaultPlan(seed=seed, events=list(self.events))

    def devices(self) -> List[Tuple[str, ScenarioOperator]]:
        """``(device_id, operator)`` in canonical (shardable) order."""
        out: List[Tuple[str, ScenarioOperator]] = []
        for operator in self.operators:
            for index in range(operator.devices):
                out.append(("chaos-%s-%02d" % (_slug(operator.name),
                                               index), operator))
        return out


def _bursty_lte() -> Scenario:
    return Scenario(
        name="bursty_lte",
        description="Burst loss on one LTE operator, latency spike on "
                    "another, third clean as the peer baseline.",
        operators=(
            ScenarioOperator("Jade LTE", NetworkType.LTE, 6.0),
            ScenarioOperator("Coral LTE", NetworkType.LTE, 6.0),
            ScenarioOperator("Slate LTE", NetworkType.LTE, 6.0),
        ),
        apps=(
            ScenarioApp("chat.pigeon", "pigeon.example", 9.0),
            ScenarioApp("cdn.lark", "lark.example", 11.0),
            ScenarioApp("video.heron", "heron.example", 10.0),
        ),
        events=(
            FaultEvent("e-burst", FaultKind.BURST_LOSS, 0.0, 0.0,
                       scope={"operator": "Slate LTE"},
                       params={"p_enter": 0.45, "p_exit": 0.25,
                               "loss_bad": 0.7, "loss_good": 0.0}),
            FaultEvent("e-spike", FaultKind.LATENCY_SPIKE, 0.0, 0.0,
                       scope={"operator": "Coral LTE"},
                       params={"extra_ms": 120.0}),
        ),
        connects=40,
        think_ms=(200.0, 1000.0),
    )


def _server_brownout() -> Scenario:
    return Scenario(
        name="server_brownout",
        description="Slow-accept brownout on two apps' servers plus a "
                    "refuse window on a third; one healthy operator.",
        operators=(
            ScenarioOperator("Basalt Wifi", NetworkType.WIFI, 4.0,
                             devices=3),
        ),
        apps=(
            ScenarioApp("shop.fennec", "fennec.example", 9.0),
            ScenarioApp("mail.oriole", "oriole.example", 10.0),
            ScenarioApp("maps.vireo", "vireo.example", 8.0),
            ScenarioApp("feed.tanager", "tanager.example", 11.0),
            ScenarioApp("play.siskin", "siskin.example", 10.0),
            ScenarioApp("news.egret", "egret.example", 9.0),
        ),
        events=(
            FaultEvent("e-brown-1", FaultKind.SERVER_OUTAGE, 0.0, 0.0,
                       scope={"domain": "fennec.example"},
                       params={"mode": "slow_accept", "slow_ms": 300.0}),
            FaultEvent("e-brown-2", FaultKind.SERVER_OUTAGE, 0.0, 0.0,
                       scope={"domain": "oriole.example"},
                       params={"mode": "slow_accept", "slow_ms": 350.0}),
            FaultEvent("e-refuse", FaultKind.SERVER_OUTAGE,
                       20_000.0, 40_000.0,
                       scope={"domain": "vireo.example"},
                       params={"mode": "refuse"}),
        ),
        connects=40,
        think_ms=(500.0, 3000.0),
    )


def _dns_outage() -> Scenario:
    return Scenario(
        name="dns_outage",
        description="Resolver blackhole window; relay DNS timeouts "
                    "become failure records.  (CI smoke scenario.)",
        operators=(
            ScenarioOperator("Quartz Wifi", NetworkType.WIFI, 4.0),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("mail.dunlin", "dunlin.example", 10.0),
        ),
        events=(
            FaultEvent("e-dns", FaultKind.DNS_OUTAGE,
                       10_000.0, 25_000.0,
                       scope={"server": "8.8.8.8"},
                       params={"mode": "blackhole"}),
        ),
        connects=30,
        think_ms=(400.0, 1500.0),
    )


def _handover_storm() -> Scenario:
    return Scenario(
        name="handover_storm",
        description="Repeated wifi<->LTE handovers with radio gaps.",
        operators=(
            ScenarioOperator("Cobalt Mobile", NetworkType.WIFI, 5.0),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("video.heron", "heron.example", 10.0),
            ScenarioApp("chat.pigeon", "pigeon.example", 9.0),
        ),
        events=tuple(
            FaultEvent("e-hand-%d" % index, FaultKind.HANDOVER,
                       6_000.0 * (index + 1), 4_000.0,
                       scope={"operator": "Cobalt Mobile"},
                       params={"to_type": NetworkType.LTE,
                               "gap_ms": 120.0})
            for index in range(3)),
        connects=40,
        think_ms=(200.0, 800.0),
    )


def _backend_crash() -> Scenario:
    return Scenario(
        name="backend_crash",
        description="Collector crash window under an active uploader; "
                    "ack-timeout, idempotent replay, recovery.",
        operators=(
            ScenarioOperator("Granite Wifi", NetworkType.WIFI, 4.0),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("mail.dunlin", "dunlin.example", 10.0),
        ),
        events=(
            FaultEvent("e-crash", FaultKind.BACKEND_CRASH,
                       12_000.0, 8_000.0,
                       scope={"server": "collector"},
                       params={"mode": "refuse"}),
        ),
        connects=40,
        think_ms=(200.0, 1000.0),
        with_backend=True,
    )


def _multi_crash() -> Scenario:
    return Scenario(
        name="multi_crash",
        description="Two collector crash windows (refuse then "
                    "blackhole) under an active uploader; every "
                    "restart is a WAL/segment recovery and the "
                    "recovered rollups must digest-match a store "
                    "built from the device records.",
        operators=(
            ScenarioOperator("Flint Wifi", NetworkType.WIFI, 4.0),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("mail.dunlin", "dunlin.example", 10.0),
        ),
        events=(
            FaultEvent("e-crash-1", FaultKind.BACKEND_CRASH,
                       10_000.0, 6_000.0,
                       scope={"server": "collector"},
                       params={"mode": "refuse"}),
            FaultEvent("e-crash-2", FaultKind.BACKEND_CRASH,
                       24_000.0, 6_000.0,
                       scope={"server": "collector"},
                       params={"mode": "blackhole"}),
        ),
        connects=45,
        think_ms=(200.0, 1000.0),
        with_backend=True,
    )


def _vpn_flap() -> Scenario:
    return Scenario(
        name="vpn_flap",
        description="VPN consent revoked twice mid-run; the relay "
                    "tears down and restarts without hanging.",
        operators=(
            ScenarioOperator("Opal Wifi", NetworkType.WIFI, 4.0),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("chat.pigeon", "pigeon.example", 9.0),
        ),
        events=(
            FaultEvent("e-flap-1", FaultKind.VPN_REVOKE,
                       8_000.0, 5_000.0, scope={}, params={}),
            FaultEvent("e-flap-2", FaultKind.VPN_REVOKE,
                       20_000.0, 4_000.0, scope={}, params={}),
        ),
        connects=40,
        think_ms=(300.0, 900.0),
    )


def _collector_failover() -> Scenario:
    return Scenario(
        name="collector_failover",
        description="One of three collector nodes dies mid-campaign; "
                    "heartbeats miss, the ring re-homes its devices, "
                    "dedup handoff absorbs replays, and the global "
                    "rollup digest must still equal a single-collector "
                    "run.",
        operators=(
            ScenarioOperator("Cinnabar Wifi", NetworkType.WIFI, 4.0,
                             devices=3),
            ScenarioOperator("Verdant Wifi", NetworkType.WIFI, 5.0,
                             devices=2),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("mail.dunlin", "dunlin.example", 10.0),
        ),
        events=(
            FaultEvent("e-node-fail", FaultKind.COLLECTOR_FAIL,
                       12_000.0, 0.0,
                       scope={"node": "node-01"},
                       params={"mode": "refuse"}),
        ),
        connects=35,
        think_ms=(300.0, 1200.0),
        with_backend=True,
        cluster_nodes=3,
    )


def _network_partition() -> Scenario:
    return Scenario(
        name="network_partition",
        description="One collector node is blackholed for a window "
                    "but never dies: heartbeats keep passing, no "
                    "failover fires, and the heal re-drives any "
                    "stranded uploads -- zero loss without movement.",
        operators=(
            ScenarioOperator("Cinnabar Wifi", NetworkType.WIFI, 4.0,
                             devices=3),
            ScenarioOperator("Verdant Wifi", NetworkType.WIFI, 5.0,
                             devices=2),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("mail.dunlin", "dunlin.example", 10.0),
        ),
        events=(
            FaultEvent("e-partition", FaultKind.NET_PARTITION,
                       10_000.0, 12_000.0,
                       scope={"node": "node-00"},
                       params={"mode": "blackhole"}),
        ),
        connects=35,
        think_ms=(300.0, 1200.0),
        with_backend=True,
        cluster_nodes=3,
    )


def _rebalance_storm() -> Scenario:
    return Scenario(
        name="rebalance_storm",
        description="Two standby collector nodes join mid-campaign; "
                    "each join must move only the keys the ring's "
                    "minimal-movement bound allows, with live dedup "
                    "handoff keeping replays idempotent.",
        operators=(
            ScenarioOperator("Cinnabar Wifi", NetworkType.WIFI, 4.0,
                             devices=3),
            ScenarioOperator("Verdant Wifi", NetworkType.WIFI, 5.0,
                             devices=2),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("mail.dunlin", "dunlin.example", 10.0),
        ),
        events=(
            FaultEvent("e-join-1", FaultKind.NODE_JOIN,
                       10_000.0, 0.0,
                       scope={"node": "node-03"}, params={}),
            FaultEvent("e-join-2", FaultKind.NODE_JOIN,
                       18_000.0, 0.0,
                       scope={"node": "node-04"}, params={}),
        ),
        connects=35,
        think_ms=(300.0, 1200.0),
        with_backend=True,
        cluster_nodes=3,
        cluster_standby=2,
    )


def _coexistence() -> Scenario:
    return Scenario(
        name="coexistence",
        description="A bulk download app saturates one operator's "
                    "access link while foreground apps keep "
                    "measuring: their connect RTTs inflate, and the "
                    "bulk app's own throughput records mark the "
                    "cause.  Runs with the modality records on "
                    "(docs/MODALITIES.md).",
        operators=(
            ScenarioOperator("Onyx Wifi", NetworkType.WIFI, 5.0,
                             devices=2),
            ScenarioOperator("Pearl Wifi", NetworkType.WIFI, 5.0,
                             devices=2),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 9.0),
            ScenarioApp("chat.pigeon", "pigeon.example", 9.0),
        ),
        events=(
            FaultEvent("e-coex", FaultKind.COEX_BULK,
                       5_000.0, 45_000.0,
                       scope={"operator": "Onyx Wifi"},
                       params={"domain": "plover.example",
                               "extra_ms": 60.0}),
        ),
        connects=30,
        think_ms=(300.0, 1200.0),
        with_backend=True,
        modalities=True,
    )


def _transparent_proxy() -> Scenario:
    return Scenario(
        name="transparent_proxy",
        description="A split-connection middlebox on one operator "
                    "answers SYNs at middlebox RTT on ports 80/443 "
                    "and relays the bytes upstream itself.  SYN RTTs "
                    "collapse while app-layer RTTs still span the "
                    "full path; the shared divergence rule flags the "
                    "operator (docs/MIDDLEBOX.md).  One app sits on "
                    "a non-intercepted port as the in-scenario "
                    "port-selectivity control.",
        operators=(
            ScenarioOperator("Ferrite Wifi", NetworkType.WIFI, 4.0,
                             devices=2),
            ScenarioOperator("Lumen Wifi", NetworkType.WIFI, 4.0,
                             devices=2),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 25.0),
            ScenarioApp("chat.pigeon", "pigeon.example", 25.0),
            ScenarioApp("news.egret", "egret.example", 25.0,
                        port=8443),
        ),
        events=(
            FaultEvent("e-proxy", FaultKind.TRANSPARENT_PROXY,
                       0.0, 0.0,
                       scope={"operator": "Ferrite Wifi"},
                       params={"intercept_ports": [80, 443]}),
        ),
        connects=36,
        think_ms=(300.0, 1200.0),
        with_backend=True,
        app_rtt=True,
    )


def _noisy_clock() -> Scenario:
    return Scenario(
        name="noisy_clock",
        description="The device clock quantises every timestamp read "
                    "to a 5 ms grid -- no middlebox anywhere.  Both "
                    "RTT kinds distort together, so the divergence "
                    "rule must stay inert; the imperfection ablation "
                    "quantifies the per-source accuracy cost "
                    "(docs/MIDDLEBOX.md).",
        operators=(
            ScenarioOperator("Topaz Wifi", NetworkType.WIFI, 4.0,
                             devices=2),
        ),
        apps=(
            ScenarioApp("web.plover", "plover.example", 10.0),
            ScenarioApp("chat.pigeon", "pigeon.example", 9.0),
        ),
        events=(
            FaultEvent("e-clock", FaultKind.NOISY_CLOCK, 0.0, 0.0,
                       scope={},
                       params={"quantum_ms": 5.0, "jitter_ms": 0.0}),
        ),
        connects=30,
        think_ms=(300.0, 1200.0),
        with_backend=True,
        app_rtt=True,
    )


def _build_registry() -> Dict[str, Scenario]:
    scenarios = [_bursty_lte(), _server_brownout(), _dns_outage(),
                 _handover_storm(), _backend_crash(), _multi_crash(),
                 _vpn_flap(), _collector_failover(),
                 _network_partition(), _rebalance_storm(),
                 _coexistence(), _transparent_proxy(), _noisy_clock()]
    return {scenario.name: scenario for scenario in scenarios}


SCENARIOS: Dict[str, Scenario] = _build_registry()


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError("unknown scenario %r (have: %s)"
                       % (name, ", ".join(sorted(SCENARIOS))))


__all__ = ["Scenario", "ScenarioApp", "ScenarioOperator", "SCENARIOS",
           "get_scenario"]
