"""Close the loop: join the ground-truth ledger against the pipeline.

Each activated ledger entry is checked for the evidence the
measurement/diagnosis pipeline *should* show if the injection worked
and the analysis localises it correctly -- its kind's ``check`` in
:data:`repro.faults.specs.FAULT_SPECS` (docs/FAULTS.md tabulates what
each looks for).  The diagnosis judges the collector's rollups, or
a world without one on the rollups of its own records.

Recall is the fraction of activated faults whose evidence shows up;
precision is the fraction of non-healthy diagnosis findings that some
activated fault's ``explains`` accounts for.  The closed-loop tests
assert recall >= 0.9 for the link- and server-fault presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.backend.detector import Diagnosis, diagnose_all
from repro.backend.rollups import RollupStore
from repro.faults.scenarios import Scenario, get_scenario
from repro.faults.specs import MIN_SAMPLES, SPEC_BY_KIND, Evidence


@dataclass
class EntryCheck:
    """One activated fault, and whether its evidence was found."""
    event_id: str
    kind: str
    matched: bool
    evidence: str


@dataclass
class VerificationReport:
    scenario_name: str
    seed: int
    checks: List[EntryCheck] = field(default_factory=list)
    findings: List[Diagnosis] = field(default_factory=list)
    unexplained: List[str] = field(default_factory=list)

    @property
    def recall(self) -> float:
        return _recall(self.checks)

    @property
    def precision(self) -> float:
        total = len(self.findings)
        if total == 0:
            return 1.0
        return (total - len(self.unexplained)) / total

    def recall_for(self, *kinds: str) -> float:
        return _recall([c for c in self.checks if kinds.count(c.kind)])

    def summary(self) -> str:
        lines = ["%s seed=%d: recall %.2f precision %.2f"
                 % (self.scenario_name, self.seed, self.recall,
                    self.precision)]
        for check in self.checks:
            lines.append("  [%s] %s (%s): %s"
                         % ("ok" if check.matched else "MISS",
                            check.event_id, check.kind, check.evidence))
        for subject in self.unexplained:
            lines.append("  [??] unexplained finding: %s" % subject)
        return "\n".join(lines)


def _recall(checks: List[EntryCheck]) -> float:
    if not checks:
        return 1.0
    return sum(1 for c in checks if c.matched) / len(checks)


def verify_scenario(result, scenario: Optional[Scenario] = None
                    ) -> VerificationReport:
    """Score a :class:`~repro.faults.chaos.ChaosResult` against its
    ledger."""
    records = list(result.iter_records())
    rollups = result.rollups
    if rollups is None:
        rollups = RollupStore()
        rollups.add_all(records)
    evidence = Evidence(
        scenario=scenario or get_scenario(result.scenario_name),
        rollups=rollups, records=records, stats=result.stats,
        findings=diagnose_all(rollups, min_samples=MIN_SAMPLES, top=50))
    report = VerificationReport(scenario_name=result.scenario_name,
                                seed=result.seed,
                                findings=evidence.findings)
    explained = set()
    for entry in result.ledger.activated():
        spec = SPEC_BY_KIND[entry.kind]
        matched, text = spec.check(evidence, entry)
        report.checks.append(EntryCheck(
            event_id=entry.event_id, kind=entry.kind,
            matched=matched, evidence=text))
        explained.update(spec.explains(evidence, entry))
    # Precision: every non-healthy finding should trace to a fault.
    report.unexplained = [
        "%s %s -> %s" % (finding.kind, finding.subject, finding.verdict)
        for finding in report.findings
        if (finding.kind, finding.subject) not in explained]
    return report


__all__ = ["EntryCheck", "VerificationReport", "verify_scenario"]
