"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``      -- the quickstart world: relay a few app requests and
                   print MopEye's measurements (``--trace FILE`` to
                   also write a span trace and print the per-stage
                   sim-time budget, ``--metrics FILE`` to save the
                   metric snapshot).
* ``metrics``   -- run the demo workload silently and print the
                   deterministic metric snapshot as canonical JSON.
* ``obsreport`` -- re-render the time-budget table from a saved trace.
* ``crowd``     -- synthesise the crowdsourcing dataset and print the
                   headline analyses (``--scale`` to size it,
                   ``--export PATH.jsonl|.csv`` to persist it,
                   ``--metrics`` to append the campaign counters).
* ``serve``     -- generate a campaign, ingest it through the backend
                   pipeline with shard-parallel workers, run the online
                   case-study detector, and save the rollup state
                   through the storage engine (``--data-dir DIR``).
* ``query``     -- query a storage-engine directory (``serve
                   --data-dir``, or a chaos backend's store) through
                   the serving tier: scan views (``summary``, ``apps``,
                   ``networks``, ``windows``, ``cases``, ``table``),
                   pruned percentile panels (``panel --app`` /
                   ``--operator``), and the simulated ``dashboard``
                   fan-out.  See docs/QUERY.md.
* ``store``     -- operate on a storage-engine data directory:
                   ``inspect`` prints the manifest/segment/WAL summary,
                   ``compact`` merges segments (optionally evicting
                   windows past ``--retention-days``).  See
                   docs/STORAGE.md.
* ``chaos``     -- run a named fault-injection scenario (see
                   docs/FAULTS.md): deterministic dataset shards, the
                   ground-truth ledger, and the closed-loop
                   verification report (``--list`` to enumerate
                   scenarios).
* ``cluster``   -- run a cluster scenario against the federated
                   multi-collector tier (see docs/CLUSTER.md):
                   consistent-hash device sharding over ``--nodes``
                   collectors, coordinator-driven failover/rebalance,
                   and the merged global rollup whose digest must be
                   byte-identical for any node count.
* ``accuracy``  -- Table 2 live: MopEye vs MobiPerf vs tcpdump.

See docs/OBSERVABILITY.md for the metric/span catalog and how to read
the budget table.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
import tempfile
from typing import Optional


def _build_demo_world():
    from repro.network import (
        AppServer,
        DnsServer,
        DnsZone,
        Internet,
        wifi_profile,
    )
    from repro.phone import AndroidDevice
    from repro.sim import Simulator

    sim = Simulator()
    internet = Internet(sim)
    link = wifi_profile(sim, rng=random.Random(1))
    device = AndroidDevice(sim, internet, link, sdk=23)
    zone = DnsZone()
    zone.add("api.example.com", "93.184.216.34")
    internet.add_server(DnsServer(sim, "8.8.8.8", zone))
    internet.add_server(AppServer(sim, ["93.184.216.34"], name="api"))
    return sim, device


def _run_demo_workload(trace: bool = False):
    """Build the demo world, relay 5 requests, return (service, obs).

    Shared by ``demo`` and ``metrics`` so both observe the exact same
    seeded run -- which is what makes the ``metrics`` snapshot a
    byte-stable regression anchor.
    """
    from repro.core import MopEyeService
    from repro.obs import Observability
    from repro.phone import App

    sim, device = _build_demo_world()
    obs = Observability(sim=sim, trace=trace)
    mopeye = MopEyeService(device, obs=obs)
    mopeye.start()
    app = App(device, "com.example.app")

    def workload():
        for _ in range(5):
            yield from app.resolve_and_request(
                "api.example.com", 443, b"GET / HTTP/1.1\r\n\r\n")
            yield sim.timeout(250.0)

    sim.process(workload())
    sim.run(until=60_000)
    return mopeye, obs


def cmd_demo(args) -> int:
    mopeye, obs = _run_demo_workload(trace=bool(args.trace))
    print("collected %d measurements:" % len(mopeye.store))
    for record in mopeye.store:
        print("  %-4s %7.2f ms  %-22s %s" % (
            record.kind, record.rtt_ms, record.app_package or "-",
            record.domain or record.dst_ip))
    if args.trace:
        from repro.analysis.obsreport import render_time_budget
        count = obs.tracer.dump(args.trace)
        print("\nwrote %d spans to %s" % (count, args.trace))
        print(render_time_budget(
            [span.to_dict() for span in obs.tracer.spans]))
    if args.metrics:
        with open(args.metrics, "w") as handle:
            handle.write(obs.to_json() + "\n")
        print("wrote metric snapshot to %s" % args.metrics)
    return 0


def cmd_metrics(_args) -> int:
    """The deterministic snapshot: same seed -> byte-identical stdout,
    whatever PYTHONHASHSEED (``tests/test_cli.py`` checks this)."""
    _mopeye, obs = _run_demo_workload()
    print(obs.to_json())
    return 0


def cmd_obsreport(args) -> int:
    from repro.analysis.obsreport import load_trace, render_time_budget
    try:
        spans = load_trace(args.trace)
    except OSError as exc:
        print("error: cannot read trace: %s" % exc, file=sys.stderr)
        return 2
    print(render_time_budget(spans))
    return 0


def _shard_dir(given: Optional[str], prefix: str):
    """``given``, or a fresh temporary directory removed with all it
    holds once the command using it is done."""
    if given:
        return contextlib.nullcontext(given)
    return tempfile.TemporaryDirectory(prefix=prefix)


def cmd_crowd(args) -> int:
    """Generate the campaign and print its headline analyses from one
    pass over its records: straight from the generator, or from the
    JSONL shards when ``--workers > 1`` or ``--shard-dir`` asks for
    them.  Every source prints the same statistics and medians."""
    import time

    from repro.crowd import Campaign, CampaignConfig, ShardedCampaign

    if args.workers < 1:
        print("error: --workers must be >= 1 (got %d)" % args.workers,
              file=sys.stderr)
        return 2
    config = CampaignConfig(scale=args.scale, seed=args.seed)
    if args.workers == 1 and not args.shard_dir:
        return _crowd_report(args, Campaign(config=config).iter_records)
    with _shard_dir(args.shard_dir, "mopeye-shards-") as shard_dir:
        runner = ShardedCampaign(config=config, workers=args.workers,
                                 shard_dir=shard_dir)
        started = time.perf_counter()
        result = runner.run()
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            runner.obs.set_gauge("crowd.records_per_sec",
                                 result.total_records / elapsed)
        print("generated %d records in %d shards with %d worker(s) "
              "in %.1fs" % (result.total_records, len(result.shards),
                            args.workers, elapsed))
        print("shard dir:      %s%s" % (
            shard_dir, "" if args.shard_dir else " (removed when done)"))
        print("dataset sha256: %s" % result.digest())
        return _crowd_report(args, result.iter_records, result.paths)


def _crowd_report(args, records, shards=None) -> int:
    """``crowd``'s one analysis: one pass over ``records()`` counts
    the section 4.2.1 statistics and folds both median lines.
    ``shards`` are the JSONL files the records are read from; without
    them the pass is the generation, counted here."""
    from repro.analysis import (
        dataset_statistics,
        fold_rtts,
        folded_dns_medians,
        folded_rtt_medians,
    )
    from repro.obs import get_default

    hists: dict = {}
    stats = dataset_statistics(fold_rtts(records(), hists))
    if shards is None:
        get_default().inc("crowd.records_generated", stats["total"])
    for key, value in stats.items():
        print("%-12s %d" % (key, value))
    print("app-RTT medians:", {k: round(v, 1) for k, v in
                               folded_rtt_medians(hists).items()})
    print("DNS medians:    ", {k: round(v, 1) for k, v in
                               folded_dns_medians(hists).items()})
    if args.export:
        # Whatever the source, the format is the one the extension
        # names; only JSON lines from shards is a byte copy.
        from repro.core.persist import merge_shards, save_csv, save_jsonl
        if args.export.endswith(".csv"):
            count = save_csv(records(), args.export)
        elif shards:
            count = merge_shards(shards, args.export)
        else:
            count = save_jsonl(records(), args.export)
        print("exported %d records to %s" % (count, args.export))
    if args.metrics:
        _print_crowd_metrics()
    return 0


def _print_crowd_metrics() -> None:
    """Deterministic slice of the process-wide registry (the crowd
    counters; wall-clock throughput metrics are volatile, excluded)."""
    from repro.obs import get_default
    print("campaign metrics:")
    print(get_default().to_json())


def cmd_serve(args) -> int:
    """The backend pipeline end to end: sharded generation, parallel
    rollup ingest (digest-stable across worker counts), online
    detection, persisted state."""
    import time

    from repro.backend import (
        OnlineDetector,
        RollupConfig,
        ingest_shard_files,
    )
    from repro.crowd import CampaignConfig, ShardedCampaign

    if args.workers < 1:
        print("error: --workers must be >= 1 (got %d)" % args.workers,
              file=sys.stderr)
        return 2
    config = CampaignConfig(scale=args.scale, seed=args.seed)
    rollup_config = RollupConfig(
        window_ms=args.window_days * 24 * 3600 * 1000.0)
    with _shard_dir(args.shard_dir, "mopeye-backend-") as shard_dir:
        runner = ShardedCampaign(config=config, workers=args.workers,
                                 shard_dir=shard_dir)
        started = time.perf_counter()
        result = runner.run()
        print("generated %d records in %d shards with %d worker(s)"
              % (result.total_records, len(result.shards),
                 args.workers))
        rollups = ingest_shard_files(result.paths, config=rollup_config,
                                     workers=args.workers)
    rollups.meta.update({"scale": args.scale, "seed": args.seed})
    elapsed = time.perf_counter() - started
    print("ingested %d records into %d rollup groups in %.1fs"
          % (rollups.records, rollups.group_count(), elapsed))
    print("rollup sha256: %s" % rollups.digest())

    detector = OnlineDetector(rollups, scale=args.scale)
    detector.evaluate()
    findings = detector.report()
    rollups.meta["findings"] = findings
    print("detector: %d finding(s)" % len(findings))
    for finding in findings:
        print("  %-28s %s" % (finding["rule"], finding["subject"]))
    if args.data_dir:
        from repro.store import StoreEngine

        engine = StoreEngine(args.data_dir,
                             rollup_config=rollup_config)
        engine.meta.update(rollups.meta)
        engine.findings = list(findings)
        engine.bulk_load(rollups)
        segment_bytes = engine.segment_bytes()
        json_bytes = len(rollups.to_json()) + 1
        ratio = json_bytes / segment_bytes if segment_bytes else 0.0
        print("stored %d segment(s) under %s: %d bytes "
              "(canonical JSON %d bytes, %.1fx smaller)"
              % (len(engine.segment_names()), args.data_dir,
                 segment_bytes, json_bytes, ratio))
        engine.close()
    if args.metrics:
        _print_crowd_metrics()
    return 0


def cmd_query(args) -> int:
    import json as _json

    from repro.backend import RollupStore
    from repro.serve import DashboardWorkload, QueryEngine, QueryError

    def _usage(message: str) -> int:
        print("error: %s" % message, file=sys.stderr)
        return 2

    if args.top is not None and args.top < 1:
        return _usage("--top must be a positive row count (got %d)"
                      % args.top)
    if args.view == "table":
        if args.name is None:
            return _usage("the table view needs --name; tables are %s"
                          % ", ".join(RollupStore.TABLES))
        if args.name not in RollupStore.TABLES:
            return _usage("unknown table %r; tables are %s"
                          % (args.name, ", ".join(RollupStore.TABLES)))
    if args.view == "panel" and \
            (args.app is None) == (args.operator is None):
        return _usage("the panel view needs exactly one of --app or "
                      "--operator")
    if args.panels < 0:
        return _usage("--panels must be >= 0 (got %d)" % args.panels)
    if args.cache_mb < 0:
        return _usage("--cache-mb must be >= 0 (got %d)"
                      % args.cache_mb)

    engine = None
    view_obj = None
    try:
        try:
            engine = _open_store(args.data_dir)
            view_obj = QueryEngine(
                engine, cache_bytes=args.cache_mb << 20).snapshot()
        except (OSError, ValueError, KeyError, QueryError) as exc:
            print("error: cannot read rollup state: %s" % exc,
                  file=sys.stderr)
            return 2
        try:
            if args.view == "summary":
                out = view_obj.summary()
            elif args.view == "apps":
                out = view_obj.apps(top=args.top)
            elif args.view == "networks":
                out = view_obj.networks(top=args.top)
            elif args.view == "windows":
                out = view_obj.window_series()
            elif args.view == "cases":
                out = view_obj.cases()
            elif args.view == "table":
                out = {"table": args.name,
                       "rows": view_obj.table_rows(args.name,
                                                   top=args.top)}
            elif args.view == "panel":
                if args.app is not None:
                    out = view_obj.app_panel(args.app)
                else:
                    out = view_obj.network_panel(args.operator)
            else:                       # dashboard
                workload = DashboardWorkload(
                    view_obj, seed=args.seed, panels=args.panels)
                out = workload.run(include_latency=args.latency)
        except QueryError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    finally:
        if view_obj is not None:
            view_obj.close()
        if engine is not None:
            engine.close()
    print(_json.dumps(out, indent=1, sort_keys=True,
                      separators=(",", ": ")))
    return 0


def cmd_chaos(args) -> int:
    """One scenario end to end: inject, measure, verify.  Everything
    printed (digests, ledger, report) is deterministic in
    (scenario, seed) -- the CI chaos job diffs two runs of this."""
    from repro.faults import (
        SCENARIOS,
        ChaosRunner,
        get_scenario,
        verify_scenario,
    )

    if args.list:
        for name in sorted(SCENARIOS):
            print("%-16s %s" % (name, SCENARIOS[name].description))
        return 0
    if not args.scenario:
        print("error: --scenario NAME required (or --list)",
              file=sys.stderr)
        return 2
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1 (got %d)" % args.workers,
              file=sys.stderr)
        return 2
    runner = ChaosRunner(scenario, seed=args.seed, workers=args.workers,
                         shard_dir=args.shard_dir)
    result = runner.run()
    print("scenario %s seed=%d: %d records from %d device(s) in %d "
          "shard(s)" % (scenario.name, args.seed, result.records,
                        len(scenario.devices()), len(result.paths)))
    print("shard dir:      %s" % result.shard_dir)
    print("dataset sha256: %s" % result.digest())
    print("plan sha256:    %s" % result.plan.digest())
    print("ledger sha256:  %s" % result.ledger.digest())
    rollup_digest = result.rollup_digest()
    if rollup_digest is not None:
        # Recovered purely from each backend's WAL + segments;
        # tests/test_pinned_digests.py pins it per scenario.
        print("recovered rollup sha256: %s" % rollup_digest)
    if args.ledger:
        result.ledger.save(args.ledger)
        print("wrote ledger to %s" % args.ledger)
    if args.export:
        from repro.core.persist import merge_shards
        merge_shards(result.paths, args.export)
        print("merged dataset: %s" % args.export)
    report = verify_scenario(result)
    print(report.summary())
    return 0


def cmd_cluster(args) -> int:
    """One cluster scenario end to end: shard the fleet across
    ``--nodes`` collectors, inject the cluster faults, merge the
    per-collector rollups, and check the digest invariant -- the
    merged global rollup must byte-match a single-collector reference
    built straight from the measurement records."""
    from repro.backend.rollups import RollupStore
    from repro.faults import (
        SCENARIOS,
        ChaosRunner,
        get_scenario,
        verify_scenario,
    )

    if args.list:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            if scenario.cluster_nodes:
                print("%-20s nodes=%d %s"
                      % (name, scenario.cluster_nodes,
                         scenario.description))
        return 0
    if not args.scenario:
        print("error: --scenario NAME required (or --list)",
              file=sys.stderr)
        return 2
    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    if not scenario.cluster_nodes:
        print("error: scenario %r does not declare a cluster "
              "(cluster_nodes=0); run it via `chaos`" % args.scenario,
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1 (got %d)" % args.workers,
              file=sys.stderr)
        return 2
    if args.nodes is not None and args.nodes < 1:
        print("error: --nodes must be >= 1 (got %d)" % args.nodes,
              file=sys.stderr)
        return 2
    runner = ChaosRunner(scenario, seed=args.seed, workers=args.workers,
                         shard_dir=args.shard_dir,
                         cluster_nodes=args.nodes)
    result = runner.run()
    nodes = args.nodes or scenario.cluster_nodes
    print("scenario %s seed=%d nodes=%d: %d records from %d device(s) "
          "in %d shard(s)" % (scenario.name, args.seed, nodes,
                              result.records, len(scenario.devices()),
                              len(result.paths)))
    print("shard dir:      %s" % result.shard_dir)
    print("dataset sha256: %s" % result.digest())
    print("plan sha256:    %s" % result.plan.digest())
    print("ledger sha256:  %s" % result.ledger.digest())
    # The global rollup is the merge of every collector's store
    # (failed nodes folded in from their disks); the reference is
    # built straight from the dataset records.  Byte-inequality here
    # means the cluster tier lost, duplicated, or perturbed records.
    global_digest = result.rollup_digest()
    reference = RollupStore()
    reference.add_all(result.iter_records())
    print("global rollup sha256:    %s" % global_digest)
    print("reference rollup sha256: %s" % reference.digest())
    if args.ledger:
        result.ledger.save(args.ledger)
        print("wrote ledger to %s" % args.ledger)
    report = verify_scenario(result)
    print(report.summary())
    if global_digest != reference.digest():
        print("error: global rollup digest != single-collector "
              "reference", file=sys.stderr)
        return 1
    return 0


def _open_store(path: str, config=None):
    """The store ``query`` and ``store`` read; opening a path that
    holds none would create one, so that is an ``OSError``."""
    from repro.store.engine import StoreEngine, holds_store

    if not holds_store(path):
        raise OSError("%s holds no store (no MANIFEST.json, no WAL file)"
                      % path)
    return StoreEngine(path, config=config)


def cmd_store(args) -> int:
    """Operate on a storage-engine data directory (docs/STORAGE.md)."""
    from repro.store import StoreConfig

    config = None
    if args.action == "compact" and args.retention_days is not None:
        config = StoreConfig(
            retention_ms=args.retention_days * 24 * 3600 * 1000.0)
    try:
        engine = _open_store(args.data_dir, config=config)
    except (OSError, ValueError) as exc:
        print("error: cannot open store: %s" % exc, file=sys.stderr)
        return 2
    try:
        if args.action == "compact":
            rollups = engine.materialize()
            windows = rollups.windows()
            # Retention is judged against the newest data the store
            # holds: the upper edge of its latest window.
            now_ms = ((windows[-1] + 1)
                      * engine.rollup_config.window_ms
                      if windows else None)
            before = engine.segment_names()
            merged = engine.compact(now_ms=now_ms, force=True)
            print("compacted %d segment(s) -> %d (%s)"
                  % (len(before), len(engine.segment_names()),
                     "merged" if merged else "nothing to merge"))
        _print_store_summary(engine)
    finally:
        engine.close()
    return 0


def _print_store_summary(engine) -> None:
    import os

    from repro.backend.rollups import TABLE_SPECS
    from repro.store.engine import QUARANTINE_DIR
    from repro.store.segments import stored_order
    from repro.store.wal import replay

    info = engine.last_recovery
    parts_width = max(len(",".join(spec.key)) for spec in TABLE_SPECS)
    print("data dir:       %s" % engine.data_dir)
    print("segments:       %d" % len(engine.segment_names()))
    readers = engine.segment_readers()
    try:
        for reader in readers:
            footer = reader.footer
            print("  seq %-4d %-16s %8d bytes  %7d records  schema %d"
                  % (footer["seq"],
                     os.path.basename(reader.path),
                     reader.size_bytes(), footer["records"],
                     footer["schema"]))
            for spec in TABLE_SPECS:
                blocks = reader.blocks(spec.name)
                if not blocks:
                    continue
                print("    %-15s parts %-*s %6d rows %3d blocks  %s .. %s"
                      % (spec.name, parts_width,
                         ",".join(stored_order(spec.name, spec.key)),
                         reader.rows(spec.name), len(blocks),
                         blocks[0]["min"], blocks[-1]["max"]))
    finally:
        for reader in readers:
            reader.close()
    frames = sum(len(replay(path).payloads)
                 for path in engine.wal_paths())
    print("wal:            %d file(s), %d frame(s), %d bytes%s"
          % (len(engine.wal_paths()), frames, engine.wal_bytes(),
             " (torn tail truncated)" if info and info.torn_tail
             else ""))
    checkpoints = engine.checkpoint_names()
    if checkpoints or (info and info.checkpoint_loaded):
        print("checkpoints:    %s" % (", ".join(checkpoints) or "-"))
        if info and info.checkpoint_loaded:
            print("  recovered from %s (%d records, %d replayed)"
                  % (info.checkpoint_loaded, info.checkpoint_records,
                     info.wal_records))
    print("dedup seeds:    %d" % len(engine.dedup))
    print("findings:       %d" % len(engine.findings))
    quarantine = os.path.join(engine.data_dir, QUARANTINE_DIR)
    quarantined = (sorted(os.listdir(quarantine))
                   if os.path.isdir(quarantine) else [])
    if quarantined or (info and info.segments_quarantined):
        print("quarantined:    %s" % (", ".join(quarantined) or "-"))
    rollups = engine.materialize()
    print("records:        %d (+%d failure-only)"
          % (rollups.records, rollups.failure_records))
    print("rollup sha256:  %s" % rollups.digest())


def cmd_accuracy(_args) -> int:
    import runpy
    import os
    script = os.path.join(os.path.dirname(__file__), "..", "..",
                          "examples", "accuracy_shootout.py")
    if os.path.exists(script):
        runpy.run_path(script, run_name="__main__")
        return 0
    print("accuracy example script not found; run "
          "examples/accuracy_shootout.py from a source checkout",
          file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser("demo", help="relay demo on a simulated phone")
    demo.add_argument("--trace", type=str, default=None, metavar="FILE",
                      help="write a JSONL span trace and print the "
                           "per-stage sim-time budget")
    demo.add_argument("--metrics", type=str, default=None,
                      metavar="FILE",
                      help="write the metric snapshot (canonical JSON)")
    sub.add_parser("metrics", help="print the demo run's deterministic "
                                   "metric snapshot")
    obsreport = sub.add_parser("obsreport",
                               help="render the time-budget table from "
                                    "a saved trace")
    obsreport.add_argument("trace", help="JSONL trace from demo --trace")
    crowd = sub.add_parser("crowd", help="synthesise + analyse the "
                                         "crowdsourcing dataset")
    crowd.add_argument("--scale", type=float, default=0.02)
    crowd.add_argument("--seed", type=int, default=2016)
    crowd.add_argument("--export", type=str, default=None,
                       help="write the dataset to a .jsonl or .csv")
    crowd.add_argument("--workers", type=int, default=1,
                       help="worker processes; >1 generates JSONL "
                            "shards and analyses them (the same "
                            "statistics and medians for any value)")
    crowd.add_argument("--shard-dir", type=str, default=None,
                       help="keep the JSONL shards here (implies the "
                            "sharded path even with --workers 1; "
                            "default: a temp dir removed when done)")
    crowd.add_argument("--metrics", action="store_true",
                       help="print the campaign's registry snapshot")
    serve = sub.add_parser("serve", help="run the backend pipeline "
                                         "over a generated campaign")
    serve.add_argument("--scale", type=float, default=0.02)
    serve.add_argument("--seed", type=int, default=2016)
    serve.add_argument("--workers", type=int, default=1,
                       help="processes for generation AND ingest; the "
                            "rollup digest is identical for any value")
    serve.add_argument("--shard-dir", type=str, default=None,
                       help="directory for the dataset shards "
                            "(default: a temp dir removed when done)")
    serve.add_argument("--window-days", type=float, default=28.0,
                       help="rollup window length in sim days")
    serve.add_argument("--data-dir", type=str, default=None,
                       metavar="DIR",
                       help="persist the rollups (+ findings) through "
                            "the storage engine: segment-encoded, "
                            "queryable with `repro query DIR` and "
                            "`repro store inspect DIR`")
    serve.add_argument("--metrics", action="store_true",
                       help="print the backend's registry snapshot")
    from repro.serve import VIEW_ORDER

    query = sub.add_parser("query", help="query a storage-engine data "
                                         "directory (see docs/QUERY.md)")
    query.add_argument("data_dir", metavar="DATA_DIR",
                       help="directory from serve --data-dir (or a "
                            "chaos backend's store)")
    query.add_argument("view", choices=list(VIEW_ORDER))
    query.add_argument("--top", type=int, default=20,
                       help="row cap for apps/networks/table views "
                            "(must be >= 1)")
    query.add_argument("--name", default=None,
                       help="rollup table for the table view")
    query.add_argument("--app", default=None,
                       help="app package for the panel view")
    query.add_argument("--operator", default=None,
                       help="operator (ISP) for the panel view")
    query.add_argument("--panels", type=int, default=64,
                       help="dashboard view: panel queries to issue")
    query.add_argument("--seed", type=int, default=0,
                       help="dashboard view: workload RNG seed")
    query.add_argument("--cache-mb", type=int, default=32,
                       help="block-cache budget in MiB")
    query.add_argument("--latency", action="store_true",
                       help="dashboard view: include wall-clock "
                            "latency percentiles (volatile; excluded "
                            "by default so output stays diffable)")
    chaos = sub.add_parser("chaos", help="run a fault-injection "
                                         "scenario with ground truth")
    chaos.add_argument("--scenario", type=str, default=None,
                       help="scenario name (see --list)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--workers", type=int, default=1,
                       help="worker processes; output is byte-identical "
                            "for any value")
    chaos.add_argument("--shard-dir", type=str, default=None,
                       help="directory for the dataset shards "
                            "(default: a fresh temp dir)")
    chaos.add_argument("--ledger", type=str, default=None,
                       metavar="FILE",
                       help="write the ground-truth ledger JSON")
    chaos.add_argument("--export", type=str, default=None,
                       metavar="FILE.jsonl",
                       help="merge the shards into one JSONL dataset")
    chaos.add_argument("--list", action="store_true",
                       help="list scenarios and exit")
    cluster = sub.add_parser("cluster",
                             help="run a scenario against the "
                                  "federated multi-collector tier")
    cluster.add_argument("--scenario", type=str, default=None,
                         help="cluster scenario name (see --list)")
    cluster.add_argument("--nodes", type=int, default=None,
                         help="active collector count (default: the "
                              "scenario's cluster_nodes); the global "
                              "rollup digest is identical for any "
                              "value")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--workers", type=int, default=1,
                         help="worker processes; output is "
                              "byte-identical for any value")
    cluster.add_argument("--shard-dir", type=str, default=None,
                         help="directory for the dataset shards "
                              "(default: a fresh temp dir)")
    cluster.add_argument("--ledger", type=str, default=None,
                         metavar="FILE",
                         help="write the ground-truth ledger JSON")
    cluster.add_argument("--list", action="store_true",
                         help="list cluster scenarios and exit")
    store = sub.add_parser("store", help="inspect or compact a storage "
                                         "engine data directory")
    store.add_argument("action", choices=["inspect", "compact"],
                       help="inspect: print the manifest/segment/WAL "
                            "summary; compact: force a segment merge")
    store.add_argument("data_dir", help="directory from serve "
                                        "--data-dir (or a chaos "
                                        "backend's store)")
    store.add_argument("--retention-days", type=float, default=None,
                       help="with compact: evict windowed rows older "
                            "than this horizon (measured back from "
                            "the newest window in the store)")
    sub.add_parser("accuracy", help="Table 2 shoot-out")
    args = parser.parse_args(argv)
    return {"demo": cmd_demo, "metrics": cmd_metrics,
            "obsreport": cmd_obsreport, "crowd": cmd_crowd,
            "serve": cmd_serve, "query": cmd_query,
            "chaos": cmd_chaos, "cluster": cmd_cluster,
            "store": cmd_store,
            "accuracy": cmd_accuracy}[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
