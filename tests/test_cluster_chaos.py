"""End-to-end cluster scenarios: the digest invariant (any node
count -> the same dataset and the same merged global rollup),
closed-loop verification of failover/partition/join, and zero record
loss through every membership change.  The worlds are the session's
``chaos_world`` builds at seed 7 on each scenario's default three
nodes; their worker-count parity and digests are
``tests/test_pinned_digests.py``."""

import pytest

from repro.backend.rollups import RollupStore
from repro.faults import ChaosRunner, verify_scenario


@pytest.fixture
def failover_result(chaos_world):
    return chaos_world("collector_failover")


@pytest.fixture
def partition_result(chaos_world):
    return chaos_world("network_partition")


@pytest.fixture
def rebalance_result(chaos_world):
    return chaos_world("rebalance_storm")


class TestDigestInvariant:
    def test_node_count_cannot_change_a_byte(self, failover_result,
                                             tmp_path):
        """The tentpole invariant: sharding the fleet across 1 or 3
        collectors -- with a failover landing on one of them -- must
        not perturb a single measurement byte, and the merged global
        rollup must stay byte-identical too."""
        solo = ChaosRunner("collector_failover", seed=7,
                           cluster_nodes=1,
                           shard_dir=str(tmp_path / "n1")).run()
        assert solo.digest() == failover_result.digest()
        assert solo.rollup_digest() == failover_result.rollup_digest()

    def test_global_rollup_equals_single_collector_reference(
            self, failover_result):
        """The merged rollup is exactly what one collector ingesting
        the whole dataset would hold."""
        reference = RollupStore()
        reference.add_all(failover_result.iter_records())
        assert failover_result.rollup_digest() == reference.digest()

    def test_every_world_checked_the_invariant(self, failover_result):
        stats = failover_result.stats
        worlds = stats["workloads_completed"]
        assert worlds == 5
        assert stats["cluster_rollup_matches_reference"] == worlds
        assert stats["cluster_zero_loss"] == worlds


class TestCollectorFailover:
    def test_closed_loop(self, failover_result):
        report = verify_scenario(failover_result)
        assert report.recall == 1.0
        assert report.precision == 1.0

    def test_failover_observed_per_world(self, failover_result):
        stats = failover_result.stats
        assert stats["cluster_failovers"] == \
            stats["workloads_completed"]
        # The failing node owned one device; only its uploader moved.
        assert stats["uploader_rehomes"] == 1
        assert stats["cluster_dedup_handoffs"] > 0

    def test_zero_record_loss(self, failover_result):
        stats = failover_result.stats
        assert stats["uploader_records_acked"] == \
            stats["store_records"]


class TestNetworkPartition:
    def test_closed_loop(self, partition_result):
        report = verify_scenario(partition_result)
        assert report.recall == 1.0
        assert report.precision == 1.0

    def test_partition_is_not_a_failure(self, partition_result):
        stats = partition_result.stats
        assert stats["cluster_partitions"] == \
            stats["workloads_completed"]
        assert stats["cluster_failovers"] == 0
        assert stats["cluster_heals"] == stats["workloads_completed"]

    def test_heal_resyncs_everything(self, partition_result):
        stats = partition_result.stats
        assert stats["cluster_zero_loss"] == \
            stats["workloads_completed"]
        assert stats["uploader_records_acked"] == \
            stats["store_records"]


class TestRebalanceStorm:
    def test_closed_loop(self, rebalance_result):
        report = verify_scenario(rebalance_result)
        assert report.recall == 1.0
        assert report.precision == 1.0

    def test_two_joins_per_world(self, rebalance_result):
        stats = rebalance_result.stats
        assert stats["cluster_joins"] == \
            2 * stats["workloads_completed"]

    def test_joins_preserve_the_digest_invariant(self,
                                                 rebalance_result,
                                                 failover_result):
        """All three presets share the same measurement world; the
        cluster layer (and its faults) must be invisible to it."""
        assert rebalance_result.digest() == failover_result.digest()
        assert rebalance_result.rollup_digest() == \
            failover_result.rollup_digest()
