"""The four workloads.

A workload is ``one_pass()``, run as often as the time budget allows,
each time from a fresh store.  A pass first does what the workload
exists to stress, then takes the remaining end-to-end metrics on the
state that left behind, with a small fixed amount of work -- every
run must report every metric.  README.md says which is which.

Store thresholds are fractions of the dataset, so every scale sees the
same number of flushes and checkpoints.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple, Type

from repro.store.engine import StoreEngine

from benchmarks.pipeline import dataset as datasets
from benchmarks.pipeline import phases
from benchmarks.pipeline.phases import Context


class Sizes(NamedTuple):
    """How much work a pass does."""
    #: Panels per fit-cache and per tight-cache repetition in
    #: dashboard_read, where reading is the workload ...
    fit_panels: int
    tight_panels: int
    #: ... and in the other three, where it is not.
    side_fit_panels: int
    side_tight_panels: int
    #: Repetitions per pass of the fit phase (each followed by
    #: ``snapshot_cycles`` snapshots), which is cheap, and of
    #: dashboard_read's tight phase; the other three ask each of their
    #: tight panels once a pass.
    fit_repetitions: int
    tight_repetitions: int
    #: Panels per phase recomputed by full scan on a checking pass.
    parity: int
    #: Batches uploaded late into a store that was loaded in bulk.
    late_batches: int
    recoveries: int
    snapshot_cycles: int


FULL = Sizes(fit_panels=128, tight_panels=10, side_fit_panels=48,
             side_tight_panels=12, fit_repetitions=3,
             tight_repetitions=2, parity=8, late_batches=1000,
             recoveries=3, snapshot_cycles=10)
SMOKE = Sizes(fit_panels=32, tight_panels=5, side_fit_panels=16,
              side_tight_panels=4, fit_repetitions=1,
              tight_repetitions=1, parity=2, late_batches=100,
              recoveries=1, snapshot_cycles=3)


class Workload:
    """``BENCHMARK.json`` says why each of the four exists."""
    name = ""

    def __init__(self, ctx: Context, sizes: Sizes) -> None:
        self.ctx = ctx
        self.sizes = sizes
        self.engine: Optional[StoreEngine] = None

    @staticmethod
    def stream_blocks(sizes: Sizes) -> Tuple[int, int]:
        """Block sizes of the panel stream this workload asks: the
        tight phase's panels first, then the rest of the fit
        phase's."""
        return (sizes.side_tight_panels,
                sizes.side_fit_panels - sizes.side_tight_panels)

    def prepare(self) -> None:
        """Untimed inputs only this workload needs."""

    def warm_up(self) -> None:
        """A short untimed exercise of the pass's code paths."""

    def one_pass(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        phases.discard_store(self.engine)
        self.engine = None

    def _replace_engine(self, engine: StoreEngine) -> None:
        phases.discard_store(self.engine)
        self.engine = engine

    def _side_dashboard(self, fit: bool = True) -> None:
        """The small dashboard of a workload that is not about
        reading.  With ``fit=False`` only its tight phase (and the
        cache that phase's panels fill)."""
        sizes = self.sizes
        phases.Dashboard(
            self.ctx, self.engine,
            sizes.side_fit_panels if fit else sizes.side_tight_panels,
            sizes.side_tight_panels).read(
                sizes.fit_repetitions if fit else 0, 1, sizes.parity,
                sizes.snapshot_cycles)


class UploadDurable(Workload):
    """Every batch through ``handle_batch`` into a durable store."""
    name = "upload_durable"
    flush_share, checkpoint_share = 3 / 8, 3 / 20
    serving = False

    def _store(self, label: str) -> StoreEngine:
        n = self.ctx.ds.n
        return phases.open_store(self.ctx, label,
                                 int(n * self.flush_share),
                                 int(n * self.checkpoint_share))

    def _upload(self, engine: StoreEngine, batches) -> float:
        serving = phases.Serving(self.ctx, engine) \
            if self.serving else None
        return phases.upload(self.ctx, engine, batches,
                             serving=serving)

    def warm_up(self) -> None:
        engine = self._store("warm")
        batches = self.ctx.ds.batches
        self._upload(engine, batches[:len(batches) // 8])
        phases.discard_store(engine)

    def one_pass(self) -> None:
        ctx, sizes = self.ctx, self.sizes
        self._replace_engine(self._store(self.name))
        wall = self._upload(self.engine, ctx.ds.batches)
        ctx.rec.repetition("s_per_record", [wall / ctx.ds.n])
        phases.recoveries(ctx, self.engine, sizes.recoveries)
        phases.weigh(ctx, self.engine)
        # A serving pass took its snapshots and fit-cache panels
        # under ingest; only the tight phase is left to take.
        self._side_dashboard(fit=not self.serving)


class ServeWhileIngest(UploadDurable):
    """The upload loop with a dashboard refresh between any two
    slices of it."""
    name = "serve_while_ingest"
    flush_share, checkpoint_share = 3 / 20, 3 / 50
    serving = True


class BulkOffline(Workload):
    """``ingest_shard_files`` RAM-only: one worker, two workers, and a
    ring split merged."""
    name = "bulk_offline"

    def prepare(self) -> None:
        ctx = self.ctx
        self.node_paths, self.node_counts = datasets.ring_split(
            ctx.ds, ctx.fresh_dir("ring"))

    def one_pass(self) -> None:
        """Ingest offline, then -- as ``serve --data-dir`` does --
        import the merged rollups as one segment, and serve, recover
        and upload to that."""
        ctx, sizes = self.ctx, self.sizes
        counts = self.node_counts
        ctx.rec.repetition(
            "ring_skew", [max(counts) / (sum(counts) / len(counts))])
        merged = phases.bulk_ingest(ctx, self.node_paths)
        self._replace_engine(phases.open_store(ctx, self.name, None))
        with ctx.counting(self.engine.obs), ctx.timed(sampled=True):
            self.engine.bulk_load(merged)
        ctx.count("records_stored", ctx.ds.n)
        ctx.rec.repetition("disk_bytes_per_record",
                           [self.engine.disk_bytes() / ctx.ds.n])
        phases.recoveries(ctx, self.engine, sizes.recoveries)
        self._side_dashboard()
        phases.late_uploads(ctx, self.engine, sizes.late_batches)


class DashboardRead(Workload):
    """A Zipf panel stream over a store nobody writes to."""
    name = "dashboard_read"
    served: Optional[StoreEngine] = None

    @staticmethod
    def stream_blocks(sizes: Sizes) -> Tuple[int, int]:
        return (sizes.tight_panels,
                sizes.fit_panels - sizes.tight_panels)

    def _store(self, label: str) -> StoreEngine:
        return phases.open_store(self.ctx, label, self.ctx.ds.n // 6)

    def prepare(self) -> None:
        """The store the dashboard reads: the records through
        ``append_records`` so that at least six segments result.  No
        pass writes to it."""
        ctx, sizes = self.ctx, self.sizes
        self.served = self._store("served")
        self.served.append_records(ctx.ds.records)
        self.served.flush()
        self.dashboard = phases.Dashboard(
            ctx, self.served, sizes.fit_panels, sizes.tight_panels)

    def one_pass(self) -> None:
        """Read; then load a second such store, timed (this workload's
        ``records_per_s``), and recover and upload to that one."""
        ctx, sizes = self.ctx, self.sizes
        ctx.rec.op(len(self.served.segment_names()) >= 6,
                   "fewer than six segments to read from")
        self.dashboard.read(sizes.fit_repetitions,
                            sizes.tight_repetitions, sizes.parity,
                            sizes.snapshot_cycles)
        self._replace_engine(self._store(self.name))
        seconds = phases.load(ctx, self.engine)
        ctx.rec.repetition("s_per_record", [seconds / ctx.ds.n])
        ctx.rec.repetition("disk_bytes_per_record",
                           [self.engine.disk_bytes() / ctx.ds.n])
        phases.recoveries(ctx, self.engine, sizes.recoveries)
        phases.late_uploads(ctx, self.engine, sizes.late_batches)

    def close(self) -> None:
        super().close()
        phases.discard_store(self.served)


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (UploadDurable, BulkOffline,
                              DashboardRead, ServeWhileIngest)}
