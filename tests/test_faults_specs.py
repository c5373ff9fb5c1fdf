"""The fault rows: one per kind, each oracle able to miss.

``FAULT_SPECS`` holds one row per ``FaultKind``; the injector and the
verifier are loops over it.  The control here swaps every row's driver
for one that only marks the ledger: the ground truth then claims
faults the worlds never saw, and every check must say MISS while the
diagnosis layer, looking at clean worlds, must find nothing."""

import pytest

from repro.faults import (
    SCENARIOS,
    ChaosRunner,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    verify_scenario,
)
from repro.faults.specs import FAULT_SPECS
from repro.sim import Simulator


def test_one_row_per_kind_in_kind_order():
    assert tuple(spec.kind for spec in FAULT_SPECS) == FaultKind.ALL


def _mark_only(injector, event):
    yield injector.sim.timeout(event.start_ms)
    injector.mark(event, "activations")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_oracle_can_miss(name, monkeypatch, tmp_path):
    for spec in FAULT_SPECS:
        monkeypatch.setattr(spec, "drive", _mark_only)
    # One worker: the swapped drivers live in this process only.
    result = ChaosRunner(name, seed=7, workers=1,
                         shard_dir=str(tmp_path)).run()
    report = verify_scenario(result)
    assert result.ledger.activated()
    assert report.findings == []
    assert report.checks
    assert [(c.event_id, c.matched) for c in report.checks] == \
        [(c.event_id, False) for c in report.checks]


class _Cluster:
    """A coordinator facade with one active and one standby node."""

    def __init__(self):
        self.failed, self.joined = [], []

    def is_active(self, node):
        return node == "node-00"

    def is_standby(self, node):
        return node == "node-09"

    def fail_node(self, node, mode):
        self.failed.append(node)

    def join_node(self, node):
        self.joined.append(node)


@pytest.mark.parametrize("kind, node", [
    (FaultKind.COLLECTOR_FAIL, "node-00"),
    (FaultKind.NODE_JOIN, "node-09"),
])
def test_a_kind_without_an_off_effect_marks_no_deactivation(kind, node):
    """A failed node stays failed and a joined node stays joined, so
    the window closing undoes nothing: no deactivation is counted and
    the active gauge stays up."""
    sim = Simulator()
    cluster = _Cluster()
    plan = FaultPlan(seed=1, events=[
        FaultEvent("e", kind, 100.0, 1_000.0, scope={"node": node})])
    injector = FaultInjector(sim, plan, cluster=cluster)
    assert injector.install() == 1
    sim.run(until=5_000.0)
    assert cluster.failed + cluster.joined == [node]
    assert injector.counts == {"e": {"activations": 1,
                                     "deactivations": 0}}
    assert injector.obs.value("faults.active") == 1.0
