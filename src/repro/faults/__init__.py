"""Deterministic fault injection with ground-truth labelling.

Three layers (see docs/FAULTS.md):

* :mod:`repro.faults.plan` -- :class:`FaultPlan` / :class:`FaultEvent`,
  JSON-round-trippable timed faults with per-event RNG streams;
  :mod:`repro.faults.scenarios` is the named preset library.
* :mod:`repro.faults.specs` -- one ``FAULT_SPECS`` row per kind:
  where it applies, what it does, what proves it.
* :mod:`repro.faults.injector` -- applies events to live components
  (links, servers, the VPN service, the backend) at their sim times.
* :mod:`repro.faults.ledger` + :mod:`repro.faults.verify` -- the
  ground-truth record of what was injected, joined against the
  diagnosis/detector output to score precision and recall.

:mod:`repro.faults.chaos` runs a whole scenario end to end (the
``python -m repro chaos`` command).
"""

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, event_rng
from repro.faults.ledger import GroundTruthLedger
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
)
from repro.faults.chaos import ChaosResult, ChaosRunner
from repro.faults.verify import VerificationReport, verify_scenario

__all__ = [
    "FaultEvent", "FaultKind", "FaultPlan", "event_rng",
    "GroundTruthLedger", "FaultInjector",
    "SCENARIOS", "Scenario", "get_scenario",
    "ChaosResult", "ChaosRunner",
    "VerificationReport", "verify_scenario",
]
