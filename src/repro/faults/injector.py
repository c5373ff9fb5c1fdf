"""Applies a :class:`FaultPlan` to one live device world.

One injector is built per world (the chaos runner builds one per
device), handed references to the components it may break, and
``install()``-ed before the workload starts.  Each event whose kind's
:data:`~repro.faults.specs.FAULT_SPECS` row applies here (the
components it needs exist; its scope, and any ``device`` scope, match
this world) becomes that row's driver process.  Every world re-derives
the same plan from the scenario seed, so a domain-scoped outage is one
server as far as the dataset is concerned.

Stochastic effect parameters draw from :func:`repro.faults.plan.event_rng`
streams keyed on ``(seed, event_id, purpose)``, never from a shared
RNG, so injection is deterministic per world regardless of how worlds
are batched across worker processes.

The injector reports ``{event_id: {"activations": n, "deactivations":
n}}`` for the ground-truth ledger; the ``faults.*`` registry metrics
mirror the same counts per world.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.specs import SPEC_BY_KIND
from repro.obs import Observability


class FaultInjector:
    def __init__(self, sim, plan: FaultPlan, *,
                 device_id: Optional[str] = None,
                 operator: Optional[str] = None,
                 link=None,
                 servers: Optional[Dict[str, object]] = None,
                 dns=None,
                 service=None,
                 backend=None,
                 cluster=None,
                 middlebox=None,
                 obs: Optional[Observability] = None):
        self.sim = sim
        self.plan = plan
        self.device_id = device_id
        self.operator = operator
        self.link = link
        self.servers = servers or {}
        self.dns = dns
        self.service = service
        self.backend = backend
        #: A :class:`repro.cluster.coordinator.Coordinator` facade.
        self.cluster = cluster
        #: A :class:`repro.middlebox.TransparentProxy`, built disabled.
        self.middlebox = middlebox
        self.obs = obs or Observability(sim=sim)
        #: ``{event_id: {"activations": n, "deactivations": n}}`` --
        #: folded into the GroundTruthLedger after the run.
        self.counts: Dict[str, Dict[str, int]] = {}
        #: The events :meth:`install` scheduled, in plan order.
        self.installed: List[FaultEvent] = []
        self._active = 0

    def install(self) -> int:
        """Schedule a driver process per applicable event.  Returns the
        number installed."""
        for event in self.plan:
            spec = SPEC_BY_KIND[event.kind]
            if not spec.applies(self, event):
                continue
            self.sim.process(spec.drive(self, event),
                             name="fault:%s" % event.event_id)
            self.obs.inc("faults.events_installed")
            self.installed.append(event)
        return len(self.installed)

    def mark(self, event: FaultEvent, what: str) -> None:
        """Count one ``"activations"`` or ``"deactivations"`` of
        ``event``; drivers call this as the effect switches."""
        entry = self.counts.setdefault(
            event.event_id, {"activations": 0, "deactivations": 0})
        entry[what] += 1
        if what == "activations":
            self.obs.inc("faults.activated")
            self._active += 1
        else:
            self.obs.inc("faults.deactivated")
            self._active -= 1
        self.obs.set_gauge("faults.active", float(self._active))


__all__ = ["FaultInjector"]
