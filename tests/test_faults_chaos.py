"""End-to-end chaos tests: determinism across runs and seeds, the
closed verification loop (injected faults are found by the analysis
with high recall), and the no-hang watchdog for teardown-heavy
scenarios.  The worlds are the session's ``chaos_world`` builds at
seed 7; their worker-count parity and digests are
``tests/test_pinned_digests.py``."""

import json

import pytest

from repro.backend.rollups import RollupStore
from repro.faults import ChaosRunner, get_scenario, verify_scenario
from repro.faults.chaos import run_device_world


@pytest.fixture
def brownout_result(chaos_world):
    return chaos_world("server_brownout")


@pytest.fixture
def bursty_result(chaos_world):
    return chaos_world("bursty_lte")


class TestDeterminism:
    def test_same_seed_twice_is_byte_identical(self, chaos_world,
                                               tmp_path):
        one = chaos_world("dns_outage", 11)
        two = ChaosRunner("dns_outage", seed=11,
                          shard_dir=str(tmp_path)).run()
        assert one.digest() == two.digest()
        assert one.ledger.to_json() == two.ledger.to_json()
        assert one.stats == two.stats

    def test_one_world_whoever_collects(self):
        """The measurement side is built once: a backend-less world
        and the same world uploading to a one-node cluster measure the
        same records."""
        scenario = get_scenario("dns_outage")
        plan = scenario.plan(7)
        bare = run_device_world(scenario, plan, 7, 0)
        clustered = run_device_world(scenario, plan, 7, 0,
                                     cluster_nodes=1)
        assert bare.rollup is None
        assert isinstance(clustered.rollup, RollupStore)
        assert clustered.stats["cluster_rollup_matches_reference"] == 1
        assert len(bare.records) == 61
        assert clustered.records == bare.records

    def test_different_seeds_differ(self, chaos_world):
        assert chaos_world("dns_outage", 7).digest() \
            != chaos_world("dns_outage", 11).digest()

    def test_plan_digest_is_stable_data(self):
        scenario = get_scenario("dns_outage")
        assert scenario.plan(7).digest() == scenario.plan(7).digest()
        text = scenario.plan(7).to_json()
        assert json.loads(text)["seed"] == 7


class TestClosedLoop:
    """ISSUE acceptance: recall >= 0.9 for injected server-outage and
    burst-loss faults against the diagnosis layer."""

    def test_server_outage_recall(self, brownout_result):
        report = verify_scenario(brownout_result)
        assert report.recall_for("server_outage") >= 0.9
        # Both brownouts must be diagnosed SERVER_SIDE specifically.
        slow = [c for c in report.checks
                if c.event_id.startswith("e-brown")]
        assert len(slow) == 2 and all(c.matched for c in slow)

    def test_burst_loss_and_latency_spike_recall(self, bursty_result):
        report = verify_scenario(bursty_result)
        assert report.recall_for("burst_loss", "latency_spike") >= 0.9

    def test_refused_window_leaves_failure_records(self,
                                                   brownout_result):
        store = brownout_result.load()
        refused = store.failures("refused")
        assert len(refused) > 0
        entry = brownout_result.ledger.entry("e-refuse")
        assert all(entry.start_ms <= r.timestamp_ms
                   <= entry.end_ms + 5_000.0 for r in refused)

    def test_burst_loss_inflates_the_operator_median(self,
                                                     bursty_result):
        store = bursty_result.load()
        slate = store.for_operator("Slate LTE").tcp().rtts()
        jade = store.for_operator("Jade LTE").tcp().rtts()
        slate_median = sorted(slate)[len(slate) // 2]
        jade_median = sorted(jade)[len(jade) // 2]
        # SYN/SYN-ACK losses push whole RTO periods into the RTT.
        assert slate_median > 5 * jade_median

    def test_ledger_records_all_activations(self, brownout_result):
        ledger = brownout_result.ledger
        # 3 devices, every event activates once per device world.
        for entry in ledger.entries:
            assert entry.activations == 3


class TestNoHangWatchdog:
    """VPN-revoke and backend-crash scenarios must complete within the
    sim-time budget -- a deadlock raises instead of spinning."""

    def test_vpn_flap_completes_and_recovers(self, chaos_world):
        result = chaos_world("vpn_flap")
        stats = result.stats
        assert stats["workloads_completed"] == 2
        assert stats["service_running"] == 2
        assert stats["vpn_revocations"] == 4
        report = verify_scenario(result)
        assert report.recall_for("vpn_revoke") == 1.0

    def test_backend_crash_completes_and_resyncs(self, chaos_world):
        result = chaos_world("backend_crash")
        stats = result.stats
        assert stats["workloads_completed"] == 2
        assert stats["backend_crashes"] == 2
        # Every crash was followed by a real WAL/segment recovery.
        assert stats["backend_recoveries"] == stats["backend_crashes"]
        # The crash disrupted uploads...
        assert stats["uploader_failures"] + \
            stats["uploader_ack_timeouts"] > 0
        # ...but idempotent replay re-synced every record, exactly once.
        assert stats["uploader_records_acked"] == stats["store_records"]
        # Records folded into a checkpoint survive a crash only as
        # aggregates, so the raw-record mirror may trail the store; it
        # must never exceed it (a duplicate would).  Digest parity
        # below is the completeness proof.
        assert stats["backend_records"] <= stats["store_records"]
        # Digest parity is proven by recovery, not survival: each
        # device's rollups were re-materialised purely from disk after
        # a final crash+recover and matched a store built straight
        # from that device's own records.
        assert stats["backend_rollup_matches_store"] == \
            stats["workloads_completed"]
        assert result.rollup_digest() is not None
        report = verify_scenario(result)
        assert report.recall_for("backend_crash") == 1.0

    def test_multi_crash_every_restart_is_a_real_recovery(
            self, chaos_world):
        result = chaos_world("multi_crash")
        stats = result.stats
        assert stats["workloads_completed"] == 2
        # Two crash windows x two devices; each restart recovered.
        assert stats["backend_crashes"] == 4
        assert stats["backend_recoveries"] == 4
        assert stats["backend_rollup_matches_store"] == 2
        assert stats["uploader_records_acked"] == stats["store_records"]
        assert stats["backend_records"] <= stats["store_records"]
        report = verify_scenario(result)
        assert report.recall_for("backend_crash") == 1.0

    def test_watchdog_raises_on_budget_overrun(self):
        import dataclasses
        scenario = dataclasses.replace(get_scenario("dns_outage"),
                                       duration_ms=100.0)
        plan = scenario.plan(0)
        with pytest.raises(RuntimeError, match="did not finish"):
            run_device_world(scenario, plan, 0, 0)


class TestRunnerSurface:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            ChaosRunner("volcano")

    def test_multi_worker_needs_registry_scenario(self):
        import dataclasses
        custom = dataclasses.replace(get_scenario("dns_outage"),
                                     name="custom")
        with pytest.raises(ValueError):
            ChaosRunner(custom, workers=2)

    def test_result_load_matches_record_count(self, brownout_result):
        store = brownout_result.load()
        assert len(store) == brownout_result.records
        assert brownout_result.records == \
            brownout_result.stats["records"]

    def test_records_are_device_tagged(self, brownout_result):
        devices = {r.device_id for r in brownout_result.iter_records()}
        assert devices == {d for d, _op in
                           get_scenario("server_brownout").devices()}
