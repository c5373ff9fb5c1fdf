"""The ground-truth ledger: what was actually injected, and when.

The plan says what *should* happen; the ledger records what *did*:
per-event activation/deactivation counts reported by the injectors
(one per device world), merged in device order.  Counts are plain
integer sums, so the merge is commutative and the ledger JSON is
byte-identical across 1-vs-N-worker runs -- the property the chaos
determinism tests (and the CI chaos job) assert.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.faults.plan import FaultPlan


@dataclass
class LedgerEntry:
    """Ground truth for one fault event."""

    event_id: str
    kind: str
    start_ms: float
    end_ms: float
    scope: Dict[str, object]
    params: Dict[str, object]
    #: Device worlds in which the event's effect was applied.
    activations: int = 0
    deactivations: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {"event_id": self.event_id, "kind": self.kind,
                "start_ms": self.start_ms, "end_ms": self.end_ms,
                "scope": dict(self.scope),
                "params": dict(self.params),
                "activations": self.activations,
                "deactivations": self.deactivations}


@dataclass
class GroundTruthLedger:
    seed: int
    entries: List[LedgerEntry] = field(default_factory=list)

    @classmethod
    def from_plan(cls, plan: FaultPlan) -> "GroundTruthLedger":
        return cls(seed=plan.seed, entries=[
            LedgerEntry(event_id=e.event_id, kind=e.kind,
                        start_ms=e.start_ms, end_ms=e.end_ms,
                        scope=dict(e.scope), params=dict(e.params))
            for e in plan.events])

    def entry(self, event_id: str) -> LedgerEntry:
        for entry in self.entries:
            if entry.event_id == event_id:
                return entry
        raise KeyError(event_id)

    def record_counts(self, counts: Dict[str, Dict[str, int]]) -> None:
        """Fold one injector's report (``{event_id: {"activations": n,
        "deactivations": n}}``) into the ledger.  Integer addition is
        commutative, so the fold order cannot change the result."""
        for event_id in sorted(counts):
            entry = self.entry(event_id)
            entry.activations += int(
                counts[event_id].get("activations", 0))
            entry.deactivations += int(
                counts[event_id].get("deactivations", 0))

    def activated(self) -> List[LedgerEntry]:
        return [e for e in self.entries if e.activations > 0]

    # -- canonical JSON ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "entries": [e.to_dict() for e in self.entries]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "GroundTruthLedger":
        data = json.loads(text)
        ledger = cls(seed=int(data["seed"]))
        for item in data.get("entries") or []:
            ledger.entries.append(LedgerEntry(
                event_id=str(item["event_id"]),
                kind=str(item["kind"]),
                start_ms=float(item["start_ms"]),
                end_ms=float(item["end_ms"]),
                scope=dict(item.get("scope") or {}),
                params=dict(item.get("params") or {}),
                activations=int(item.get("activations", 0)),
                deactivations=int(item.get("deactivations", 0))))
        return ledger

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "GroundTruthLedger":
        with open(path) as handle:
            return cls.from_json(handle.read())


__all__ = ["LedgerEntry", "GroundTruthLedger"]
