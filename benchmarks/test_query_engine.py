"""Serving-tier benchmark: the simulated dashboard workload.

Generates the synthetic crowdsourcing dataset, ingests it through the
storage engine into several segments, then drives the Zipf-popular
panel fan-out (``repro.serve.DashboardWorkload``) against one
snapshot view:

* a **cold** pass through a fresh ``QueryEngine`` -- an empty
  ``BlockCache`` and newly opened segment descriptors, so every block
  it touches is read, inflated and decoded (the workload's catalog
  scan, which reads every block, ran against another engine's cache)
  -- and a **warm** pass over the same panels: the two runs must
  produce the same ``results_digest``, the cold one must miss, and the
  warm pass's cache hit rate must not be lower;
* ``verify_against_scan`` recomputes a sample of panels by full
  table scan: byte-identical answers with strictly fewer blocks read
  on the pruned side (the guard assertion, also run in CI via
  ``tools/perf_guards.py query``);
* p50/p99/max per-panel latency, blocks read/pruned and cache
  hit rates land in ``benchmarks/results/BENCH_query.json``.

Scale knobs for quick local runs:

    MOPEYE_QUERY_BENCH_SCALE=0.02 MOPEYE_QUERY_BENCH_PANELS=64 \
        PYTHONPATH=src python -m pytest benchmarks/test_query_engine.py
"""

import json
import os

from repro.crowd import CampaignConfig, ShardedCampaign
from repro.obs import Observability
from repro.serve import DashboardWorkload, QueryEngine
from repro.store import StoreConfig, StoreEngine

SCALE = float(os.environ.get("MOPEYE_QUERY_BENCH_SCALE", "0.1"))
WORKERS = int(os.environ.get("MOPEYE_QUERY_BENCH_WORKERS", "4"))
PANELS = int(os.environ.get("MOPEYE_QUERY_BENCH_PANELS", "256"))
SEED = 2016


def test_query_engine_dashboard(tmp_path, benchmark):
    from benchmarks._common import RESULTS_DIR, load_entries

    campaign = ShardedCampaign(
        config=CampaignConfig(scale=SCALE, seed=SEED),
        workers=WORKERS, shard_dir=str(tmp_path / "shards"))
    dataset = campaign.run()
    entries = load_entries(dataset.paths)

    # Several segments so pruning and the cache have something to do.
    obs = Observability()
    engine = StoreEngine(
        str(tmp_path / "store"),
        config=StoreConfig(
            flush_threshold_records=max(10_000, len(entries) // 6)),
        obs=obs)
    engine.append_entries(entries)
    engine.flush()
    segments = len(engine.segment_names())
    assert segments >= 2, "need multiple segments to exercise pruning"

    # Ranking the catalog scans both tables and would leave every
    # block cached: let it fill a cache the timed passes never see.
    with QueryEngine(engine, obs=obs).snapshot() as catalog_view:
        workload = DashboardWorkload(catalog_view, seed=SEED,
                                     panels=PANELS)
    view = QueryEngine(engine, obs=obs).snapshot()
    workload.view = view
    try:
        cold = workload.run(include_latency=True)
        cold_latency = cold.pop("latency_ms")
        assert cold["cache"]["misses"] > 0, \
            "the cold pass found every block cached: it is not cold"
        warm = workload.run(include_latency=True)
        warm_latency = warm.pop("latency_ms")
        # Same seed, same view: the answers cannot move...
        assert warm["results_digest"] == cold["results_digest"]
        # ...and the warm pass must hit the cache at least as often.
        assert warm["cache"]["hit_rate"] >= cold["cache"]["hit_rate"]

        verify = workload.verify_against_scan(sample=8)
        assert verify["pruned_blocks_read"] \
            < verify["scan_blocks_read"], \
            "pruned panels must read strictly fewer blocks than " \
            "their full scans (%d vs %d)" \
            % (verify["pruned_blocks_read"],
               verify["scan_blocks_read"])

        top_app = workload._apps[0]
        benchmark(view.app_panel, top_app)

        payload = {
            "benchmark": "query_engine",
            "scale": SCALE,
            "records": dataset.total_records,
            "segments": segments,
            "panels": PANELS,
            "results_digest": cold["results_digest"],
            "cold": dict(cold, latency_ms=cold_latency),
            "warm": dict(warm, latency_ms=warm_latency),
            "latency_ms": {           # headline numbers = cold pass
                "p50": cold_latency["p50"],
                "p99": cold_latency["p99"],
                "max": cold_latency["max"],
            },
            "blocks_read": cold["blocks"]["read"],
            "blocks_pruned": cold["blocks"]["pruned"],
            "cache_hit_rate": cold["cache"]["hit_rate"],
            "verify_against_scan": verify,
        }
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_query.json"),
                  "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print()
        print("dashboard: %d panels over %d records in %d segments"
              % (PANELS, dataset.total_records, segments))
        print("cold: p50 %.3fms p99 %.3fms, blocks read %d / pruned "
              "%d, hit rate %s"
              % (cold_latency["p50"], cold_latency["p99"],
                 cold["blocks"]["read"], cold["blocks"]["pruned"],
                 cold["cache"]["hit_rate"]))
        print("warm: p50 %.3fms p99 %.3fms, hit rate %s"
              % (warm_latency["p50"], warm_latency["p99"],
                 warm["cache"]["hit_rate"]))
        print("verify: %d panels, pruned %d blocks vs scan %d"
              % (verify["panels_checked"],
                 verify["pruned_blocks_read"],
                 verify["scan_blocks_read"]))
    finally:
        view.close()
        engine.close()
