"""Fault plans: timed, scoped, seeded fault descriptions.

A :class:`FaultPlan` is pure data -- what goes wrong, when, and to
whom -- decoupled from *how* the effect is applied (the injector's
job).  Plans round-trip through canonical JSON byte-for-byte, so a
plan's digest identifies an experiment the same way a dataset digest
identifies its output.

Randomness discipline (same as ``crowd/sharding.py``): any stochastic
effect parameter draws from :func:`event_rng`, a ``random.Random``
string-seeded on ``(plan seed, event id, purpose)``.  String seeding
hashes through SHA-512, so streams are immune to ``PYTHONHASHSEED``
and identical across processes -- the property the 1-vs-N-worker
determinism tests assert.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class FaultKind:
    """What kind of thing breaks: the names only.  Each kind's row in
    :data:`repro.faults.specs.FAULT_SPECS` (same order as :attr:`ALL`)
    says where it applies, the effect it drives and the evidence that
    proves it; this module stays free of those imports, since
    scenarios and plan validation need only the names."""

    BURST_LOSS = "burst_loss"        # Gilbert-Elliott loss on a link
    LATENCY_SPIKE = "latency_spike"  # extra one-way delay on a link
    SERVER_OUTAGE = "server_outage"  # AppServer refuse/blackhole/slow
    DNS_OUTAGE = "dns_outage"        # resolver blackhole/servfail
    VPN_REVOKE = "vpn_revoke"        # consent revoked; service restart
    BACKEND_CRASH = "backend_crash"  # collector crash/restart window
    HANDOVER = "handover"            # wifi<->LTE flip with a loss gap
    COLLECTOR_FAIL = "collector_fail"  # cluster node dies; failover
    NET_PARTITION = "net_partition"  # cluster node unreachable; heals
    NODE_JOIN = "node_join"          # standby node joins; rebalance
    COEX_BULK = "coex_bulk"          # bulk transfer contends with apps
    TRANSPARENT_PROXY = "transparent_proxy"  # split-connection middlebox
    NOISY_CLOCK = "noisy_clock"      # quantised/jittered device clock

    ALL = (BURST_LOSS, LATENCY_SPIKE, SERVER_OUTAGE, DNS_OUTAGE,
           VPN_REVOKE, BACKEND_CRASH, HANDOVER, COLLECTOR_FAIL,
           NET_PARTITION, NODE_JOIN, COEX_BULK, TRANSPARENT_PROXY,
           NOISY_CLOCK)


def event_rng(seed: int, event_id: str,
              purpose: str = "effect") -> random.Random:
    """The deterministic RNG stream for one event's stochastic effect
    parameters.  Distinct purposes (e.g. the up vs down direction of a
    burst-loss fault) get independent streams."""
    return random.Random("fault:%d:%s:%s" % (seed, event_id, purpose))


@dataclass
class FaultEvent:
    """One timed fault.

    ``scope`` names what is affected (``operator``, ``domain``,
    ``device``...); ``params`` holds kind-specific knobs (burst
    probabilities, outage mode, extra latency).  Both are flat
    JSON-serialisable dicts.
    """

    event_id: str
    kind: str
    start_ms: float
    duration_ms: float
    scope: Dict[str, object] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FaultKind.ALL:
            raise ValueError("unknown fault kind %r" % self.kind)
        if self.start_ms < 0:
            raise ValueError("start_ms must be >= 0")
        if self.duration_ms < 0:
            raise ValueError("duration_ms must be >= 0")

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms

    def to_dict(self) -> Dict[str, object]:
        return {"event_id": self.event_id, "kind": self.kind,
                "start_ms": self.start_ms,
                "duration_ms": self.duration_ms,
                "scope": dict(self.scope),
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(event_id=str(data["event_id"]),
                   kind=str(data["kind"]),
                   start_ms=float(data["start_ms"]),
                   duration_ms=float(data["duration_ms"]),
                   scope=dict(data.get("scope") or {}),
                   params=dict(data.get("params") or {}))


@dataclass
class FaultPlan:
    """A seed plus a sorted list of events with unique ids."""

    seed: int
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self):
        self.events = sorted(self.events,
                             key=lambda e: (e.start_ms, e.event_id))
        seen = set()
        for event in self.events:
            if event.event_id in seen:
                raise ValueError("duplicate event_id %r"
                                 % event.event_id)
            seen.add(event.event_id)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def event(self, event_id: str) -> Optional[FaultEvent]:
        for event in self.events:
            if event.event_id == event_id:
                return event
        return None

    def rng(self, event_id: str,
            purpose: str = "effect") -> random.Random:
        return event_rng(self.seed, event_id, purpose)

    # -- canonical JSON ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "events": [e.to_dict() for e in self.events]}

    def to_json(self) -> str:
        """Canonical (byte-stable) serialisation: sorted keys, fixed
        separators, events in (start_ms, event_id) order."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return cls(seed=int(data["seed"]),
                   events=[FaultEvent.from_dict(e)
                           for e in data.get("events") or []])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())


__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "event_rng"]
