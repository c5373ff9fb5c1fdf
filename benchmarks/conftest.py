"""Session fixtures shared by the benchmark harness."""

from __future__ import annotations

import pytest

BENCH_SCALE = 0.05


@pytest.fixture(scope="session")
def crowd_store():
    """The synthetic crowdsourcing dataset all Figure 6-11 / Table 5-6
    benches analyse (scale 0.05 of the paper's 5.25 M records)."""
    from repro.crowd import Campaign, CampaignConfig
    campaign = Campaign(config=CampaignConfig(scale=BENCH_SCALE,
                                              seed=2016))
    return campaign.run()


@pytest.fixture(scope="session")
def crowd_rollups(crowd_store):
    """``crowd_store`` folded into rollups, as a collector would serve
    it: what the Case 1 and Case 2 benches diagnose."""
    from repro.backend.rollups import RollupStore
    rollups = RollupStore()
    rollups.add_all(crowd_store)
    return rollups


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE
