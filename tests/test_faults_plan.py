"""Unit tests for the fault-plan and ground-truth-ledger layers."""

import json

import pytest

from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    GroundTruthLedger,
    event_rng,
)


def small_plan(seed=5):
    return FaultPlan(seed=seed, events=[
        FaultEvent("e-late", FaultKind.SERVER_OUTAGE, 500.0, 100.0,
                   scope={"domain": "x.example"},
                   params={"mode": "refuse"}),
        FaultEvent("e-early", FaultKind.BURST_LOSS, 10.0, 0.0,
                   scope={"operator": "Op"},
                   params={"p_enter": 0.5, "p_exit": 0.5}),
    ])


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent("e", "meteor_strike", 0.0, 1.0)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            FaultEvent("e", FaultKind.DNS_OUTAGE, -1.0, 1.0)
        with pytest.raises(ValueError):
            FaultEvent("e", FaultKind.DNS_OUTAGE, 0.0, -1.0)

    def test_end_ms(self):
        event = FaultEvent("e", FaultKind.DNS_OUTAGE, 10.0, 5.0)
        assert event.end_ms == 15.0

    def test_dict_round_trip(self):
        event = FaultEvent("e", FaultKind.HANDOVER, 1.0, 2.0,
                           scope={"operator": "Op"},
                           params={"to_type": "LTE"})
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestFaultPlan:
    def test_events_sorted_by_start_then_id(self):
        plan = small_plan()
        assert [e.event_id for e in plan] == ["e-early", "e-late"]

    def test_duplicate_event_ids_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=1, events=[
                FaultEvent("dup", FaultKind.DNS_OUTAGE, 0.0, 1.0),
                FaultEvent("dup", FaultKind.DNS_OUTAGE, 5.0, 1.0)])

    def test_json_round_trip_is_byte_identical(self):
        plan = small_plan()
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_json() == plan.to_json()
        assert clone.digest() == plan.digest()

    def test_canonical_json_is_sorted_and_compact(self):
        text = small_plan().to_json()
        assert ": " not in text and ", " not in text
        assert json.loads(text)["seed"] == 5

    def test_save_load(self, tmp_path):
        plan = small_plan()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path).digest() == plan.digest()

    def test_event_lookup(self):
        plan = small_plan()
        assert plan.event("e-late").kind == FaultKind.SERVER_OUTAGE
        assert plan.event("nope") is None


class TestEventRng:
    def test_streams_are_reproducible(self):
        a = event_rng(7, "e-1").random()
        b = event_rng(7, "e-1").random()
        assert a == b

    def test_streams_differ_by_purpose_and_event(self):
        base = event_rng(7, "e-1", "up").random()
        assert base != event_rng(7, "e-1", "down").random()
        assert base != event_rng(7, "e-2", "up").random()
        assert base != event_rng(8, "e-1", "up").random()

    def test_plan_rng_matches_module_function(self):
        plan = small_plan(seed=9)
        assert plan.rng("e-early", "x").random() == \
            event_rng(9, "e-early", "x").random()


class TestGroundTruthLedger:
    def test_from_plan_copies_events(self):
        plan = small_plan()
        ledger = GroundTruthLedger.from_plan(plan)
        assert [e.event_id for e in ledger.entries] == \
            [e.event_id for e in plan]
        assert all(e.activations == 0 for e in ledger.entries)

    def test_record_counts_folds_and_is_commutative(self):
        plan = small_plan()
        part_a = {"e-early": {"activations": 2, "deactivations": 1}}
        part_b = {"e-early": {"activations": 1},
                  "e-late": {"activations": 3, "deactivations": 3}}
        one = GroundTruthLedger.from_plan(plan)
        one.record_counts(part_a)
        one.record_counts(part_b)
        two = GroundTruthLedger.from_plan(plan)
        two.record_counts(part_b)
        two.record_counts(part_a)
        assert one.to_json() == two.to_json()
        assert one.entry("e-early").activations == 3
        assert one.entry("e-early").deactivations == 1

    def test_unknown_event_rejected(self):
        ledger = GroundTruthLedger.from_plan(small_plan())
        with pytest.raises(KeyError):
            ledger.record_counts({"ghost": {"activations": 1}})

    def test_json_round_trip(self, tmp_path):
        ledger = GroundTruthLedger.from_plan(small_plan())
        ledger.record_counts({"e-late": {"activations": 1,
                                         "deactivations": 1}})
        clone = GroundTruthLedger.from_json(ledger.to_json())
        assert clone.to_json() == ledger.to_json()
        path = str(tmp_path / "ledger.json")
        ledger.save(path)
        assert GroundTruthLedger.load(path).digest() == ledger.digest()

    def test_activated(self):
        ledger = GroundTruthLedger.from_plan(small_plan())
        ledger.record_counts({"e-early": {"activations": 1}})
        assert [e.event_id for e in ledger.activated()] == ["e-early"]
