"""From the repetitions, counts and spans of a run to the named metrics.

Every timed phase is repeated with identical inputs, pass after pass,
and every time arrives here already rescaled to the nominal host (see
:mod:`.host`).  Each operation -- the same batch, the same panel, the
k-th snapshot -- is credited with its **median** time over the
repetitions; a metric is then the median or percentile over operations
of those.  What remains in a p99 is what every repetition pays there
(a flush, a 50-record batch), not what one of them happened to suffer.
The quartiles reported next to a value are those of the single
repetitions, each reduced on its own.

Counts and per-layer self times are the median pass's, so they do not
depend on how many passes fitted the time budget, and counts repeat
exactly between runs of one seed.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Optional

from benchmarks.pipeline.phases import Context
from benchmarks.pipeline.trace import HARNESS, Tracer


class Stat(NamedTuple):
    """A metric's value with, where it was repeated, the quartiles
    and number of the repetitions behind it."""
    value: float
    unit: str
    q1: Optional[float] = None
    q3: Optional[float] = None
    n: int = 1


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


median = statistics.median


def _p50(values: List[float]) -> float:
    return percentile(values, 0.50)


def _p99(values: List[float]) -> float:
    return percentile(values, 0.99)


def _midmean(values: List[float]) -> float:
    """Interquartile mean: the mean of the middle half.  The panel
    stream mixes cheap app panels, heavy ones and network panels
    several times dearer, and its plain median sits on the knee
    between the first two: with the host silent it still moves 18 %
    from seed to seed, the middle half's mean 5-8 %."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _first(values: List[float]) -> float:
    return values[0]


def _per_s(values: List[float]) -> float:
    return 1.0 / values[0]


def typical(repetitions: List[List[float]]) -> List[float]:
    """Operation by operation, the median time over the repetitions."""
    if len({len(values) for values in repetitions}) != 1:
        raise ValueError("repetitions are not aligned: lengths %r"
                         % [len(values) for values in repetitions])
    return [median(times) for times in zip(*repetitions)]


#: name -> (unit, repetition pool, reducer over the operations).
#: ``BENCHMARK.json`` lists the same names with their regression
#: bounds.
END_TO_END = {
    "setup_s": ("s", "setup_s", _first),
    "records_per_s": ("1/s", "s_per_record", _per_s),
    "batch_ack_ms_p50": ("ms", "ack_ms", _p50),
    "batch_ack_ms_p99": ("ms", "ack_ms", _p99),
    "recover_s": ("s", "recover_s", _first),
    "disk_bytes_per_record":
        ("B/record", "disk_bytes_per_record", _first),
    "panel_ms_p50": ("ms", "panel_ms", _midmean),
    "panel_ms_p99": ("ms", "panel_ms", _p99),
    "panel_tight_ms_p50": ("ms", "panel_tight_ms", _midmean),
    "snapshot_ms_p50": ("ms", "snapshot_ms", _p50),
    "peak_rss_mb": ("MiB", "peak_rss_mb", _first),
}

#: Per-layer metrics that are counts, or ratios of counts: two runs of
#: one seed must agree on them to the last digit.
EXACT = frozenset((
    "crowd.shard_bytes_per_record",
    "backend.ingest.batches", "backend.ingest.duplicates_absorbed",
    "backend.ingest.busy", "backend.rollups.groups",
    "store.wal.fsyncs", "store.wal.bytes_per_record",
    "store.engine.flushes", "store.engine.checkpoints",
    "store.engine.compactions", "store.engine.recover_wal_records",
    "store.checkpoint.bytes", "store.segments.bytes_per_record",
    "store.segments.blocks_read_per_panel",
    "store.segments.blocks_pruned_share",
    "store.blockcache.hit_rate", "store.blockcache.evictions",
    "store.blockcache.bytes", "cluster.ring.skew",
))


def median_pass(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Name by name, the median over ``passes`` (a name a pass lacks
    counts as 0 there)."""
    names = {name for counts in passes for name in counts}
    return {name: median([counts.get(name, 0.0) for counts in passes])
            for name in names}


def end_to_end(ctx: Context) -> Dict[str, Stat]:
    stats = {}
    for name, (unit, pool, reduce) in END_TO_END.items():
        repetitions = ctx.rec.reps[pool]
        singly = [reduce(values) for values in repetitions]
        if len(singly) > 1:
            q1, _q2, q3 = statistics.quantiles(singly, n=4)
        else:
            q1 = q3 = singly[0]
        stats[name] = Stat(reduce(typical(repetitions)), unit, q1, q3,
                           len(singly))
    return stats


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(ctx: Context, tracer: Tracer, traced: List[int]
              ) -> Dict[str, Stat]:
    """Every per-layer metric; 0 where the workload never enters the
    layer.  Times are self times from the spans of the ``traced``
    passes, counts come from the program's own registry and read
    stats."""
    passes = ctx.rec.passes
    reps = ctx.rec.reps
    ds = ctx.ds
    by_region = tracer.self_times()
    self_s = median_pass([by_region.get(index, {}) for index in traced])
    count = median_pass([done.counts for done in passes])

    def spent(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    def counted(*names: str) -> float:
        return sum(count.get(name, 0.0) for name in names)

    def mid(pool: str, reduce=_first) -> float:
        """Median over the repetitions of ``pool``, each reduced."""
        return median([reduce(values) for values in reps[pool]]) \
            if pool in reps else 0.0

    def wall(indices) -> float:
        walls = [passes[index].wall for index in indices]
        return median(walls) if walls else 0.0

    generate_s = mid("generate_s")
    parse_s = spent("backend.ingest.parse_batch_lines")
    panels = counted("panel.panels", "panel_tight.panels")
    blocks_read = counted("panel.blocks_read",
                          "panel_tight.blocks_read")
    blocks_pruned = counted("panel.blocks_pruned",
                            "panel_tight.blocks_pruned")
    tight_hits = counted("panel_tight.cache_hits")
    snapshot_ms = tracer.durations_ms("serve.engine.snapshot")
    clone_ms = tracer.durations_ms("backend.rollups.clone",
                                   parent="serve.engine.snapshot")
    untraced = [index for index in range(len(passes))
                if index not in traced]
    values = {
        "crowd.generate_s": (generate_s, "s"),
        "crowd.generate_records_per_s":
            (_ratio(ds.n, generate_s), "1/s"),
        "crowd.shard_bytes_per_record":
            (ds.shard_bytes / ds.n, "B/record"),
        "core.persist.encode_us_per_record":
            (mid("encode_s") / ds.n * 1e6, "us/record"),
        "core.persist.decode_us_per_record":
            (mid("decode_s") / ds.n * 1e6, "us/record"),
        "backend.ingest.parse_s": (parse_s, "s"),
        "backend.ingest.parse_us_per_record":
            (_ratio(parse_s, counted("records_uploaded")) * 1e6,
             "us/record"),
        "backend.ingest.handle_batch_self_s":
            (spent("backend.ingest.handle_batch"), "s"),
        "backend.ingest.batches":
            (counted("backend.batches"), "count"),
        "backend.ingest.duplicates_absorbed":
            (counted("backend.duplicate_batches"), "count"),
        "backend.ingest.busy":
            (counted("backend.rate_limited",
                     "backend.busy_rejections"), "count"),
        "backend.ingest.w2_speedup": (mid("w2_speedup"), "ratio"),
        "backend.shardmerge.merge_s": (mid("shardmerge_s"), "s"),
        "backend.rollups.add_us_per_record":
            (mid("rollup_add_s") / ds.n * 1e6, "us/record"),
        "backend.rollups.groups":
            (ctx.reference.group_count(), "count"),
        "backend.rollups.digest_s": (mid("rollup_digest_s"), "s"),
        "backend.rollups.clone_ms":
            (median(clone_ms) if clone_ms else 0.0, "ms"),
        "store.wal.commit_s": (spent("store.wal.commit"), "s"),
        "store.wal.fsyncs": (counted("store.wal_fsyncs"), "count"),
        "store.wal.bytes_per_record":
            (_ratio(counted("store.wal_bytes"),
                    counted("records_logged")), "B/record"),
        "store.engine.log_batch_self_s":
            (spent("store.engine.log_batch"), "s"),
        "store.engine.flush_s": (spent("store.engine.flush"), "s"),
        "store.engine.flushes": (counted("store.flushes"), "count"),
        "store.engine.checkpoint_s":
            (spent("store.engine.checkpoint"), "s"),
        "store.engine.checkpoints":
            (counted("store.checkpoints"), "count"),
        "store.engine.compact_s":
            (spent("store.engine.compact"), "s"),
        "store.engine.compactions":
            (counted("store.compactions"), "count"),
        "store.engine.stall_ms_max":
            (max(typical(reps["ack_ms"])), "ms"),
        "store.engine.stall_share": (mid("stall_share"), "share"),
        "store.engine.recover_self_s":
            (spent("store.engine.recover"), "s"),
        "store.engine.recover_wal_records":
            (_ratio(counted("store.wal_replayed_records"),
                    counted("recoveries")), "count"),
        "store.checkpoint.read_s":
            (spent("store.checkpoint.read_checkpoint"), "s"),
        "store.checkpoint.write_s":
            (spent("store.checkpoint.write_checkpoint"), "s"),
        "store.checkpoint.bytes":
            (counted("store.checkpoint_bytes"), "B"),
        "store.segments.write_s":
            (spent("store.segments.write_segment"), "s"),
        "store.segments.bytes_per_record":
            (_ratio(counted("store.segment_flush_bytes"),
                    counted("records_stored")), "B/record"),
        "store.segments.read_s":
            (spent("store.segments.get_many",
                   "store.segments.scan_prefixes"), "s"),
        "store.segments.blocks_read_per_panel":
            (_ratio(blocks_read, panels), "count"),
        "store.segments.blocks_pruned_share":
            (_ratio(blocks_pruned, blocks_read + blocks_pruned),
             "share"),
        "store.blockcache.hit_rate":
            (_ratio(tight_hits, tight_hits
                    + counted("panel_tight.cache_misses")), "share"),
        "store.blockcache.evictions":
            (counted("store.cache.evictions"), "count"),
        "store.blockcache.bytes":
            (counted("tight.cache_bytes"), "B"),
        "serve.engine.app_panel_ms_p50":
            (mid("panel_ms.app", _p50), "ms"),
        "serve.engine.network_panel_ms_p50":
            (mid("panel_ms.network", _p50), "ms"),
        "serve.engine.panel_self_s":
            (spent("serve.engine.app_panel",
                   "serve.engine.network_panel"), "s"),
        "serve.engine.snapshot_ms_p95":
            (percentile(snapshot_ms, 0.95) if snapshot_ms else 0.0,
             "ms"),
        "cluster.ring.skew": (mid("ring_skew"), "ratio"),
        "cluster.merge.merge_s": (mid("cluster_merge_s"), "s"),
        "cluster.merge.tax": (mid("cluster_merge_tax"), "ratio"),
        "bench.calibration_ms":
            (median(ctx.host.ticks) * 1000.0, "ms"),
        "bench.harness_self_share":
            (_ratio(spent(HARNESS), sum(self_s.values())), "share"),
        "trace.overhead_ratio":
            (_ratio(wall(traced), wall(untraced)), "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return {name: Stat(float(value), unit)
            for name, (value, unit) in values.items()}
