"""Sharded, parallel generation of the full-scale campaign dataset.

The paper's §4.2 dataset is 5,252,758 records; generating it in one
process inside one in-memory store is both slow and RAM-hungry.  This
module fans the device population out across a ``multiprocessing``
worker pool.  Each worker process builds the campaign once from the
config alone and streams every device range it is handed into a
JSON-lines shard file; the parent then merges shards by byte
concatenation.

Correctness rests on the campaign's determinism contract
(:mod:`repro.crowd.campaign`): every device's record stream is a pure
function of ``(seed, device_id)``, so the merged dataset is
byte-identical no matter how many workers ran, how the pool scheduled
them, or what ``PYTHONHASHSEED`` each process drew.  Shard boundaries
are contiguous device ranges balanced by expected record count, and the
merge restores device order by concatenating shards in index order.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.obs import Observability, get_default

from repro.core.persist import (
    dataset_digest,
    iter_jsonl_shards,
    list_shards,
    shard_path,
    write_records,
)
from repro.core.records import MeasurementRecord, MeasurementStore
from repro.crowd.campaign import Campaign, CampaignConfig
from repro.crowd.population import Population


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous device range assigned to one shard file."""
    index: int
    device_lo: int         # first device index (inclusive)
    device_hi: int         # last device index (exclusive)
    expected_records: int  # planning estimate, exact by construction


@dataclass(frozen=True)
class ShardResult:
    spec: ShardSpec
    path: str
    records: int
    sha256: str


@dataclass
class ShardedRunResult:
    shard_dir: str
    shards: List[ShardResult] = field(default_factory=list)

    @property
    def total_records(self) -> int:
        return sum(shard.records for shard in self.shards)

    @property
    def paths(self) -> List[str]:
        return [shard.path for shard in self.shards]

    def digest(self) -> str:
        """SHA-256 of the merged dataset bytes (shard order)."""
        return dataset_digest(self.paths)

    def iter_records(self) -> Iterator[MeasurementRecord]:
        return iter_jsonl_shards(self.paths)

    def load(self) -> MeasurementStore:
        """Materialize everything (small scales / tests only)."""
        store = MeasurementStore()
        for record in self.iter_records():
            store.add(record)
        return store


def plan_shards(population: Population, scale: float,
                n_shards: int) -> List[ShardSpec]:
    """Split the device list into ``n_shards`` contiguous ranges with
    roughly equal expected record counts.  Contiguity is what lets the
    merge restore global device order by concatenation alone."""
    counts = [max(1, round(device.activity * scale))
              for device in population.devices]
    total = sum(counts)
    n_shards = max(1, min(n_shards, len(counts)))
    specs: List[ShardSpec] = []
    lo = 0
    acc = 0
    for index in range(n_shards):
        target = total * (index + 1) / n_shards
        hi = lo
        records = 0
        # Leave enough devices for the remaining shards to be nonempty.
        max_hi = len(counts) - (n_shards - index - 1)
        while hi < max_hi and (acc + records < target or hi == lo):
            records += counts[hi]
            hi += 1
        specs.append(ShardSpec(index=index, device_lo=lo, device_hi=hi,
                               expected_records=records))
        acc += records
        lo = hi
    return specs


def _write_shard(campaign: Campaign, index: int, device_lo: int,
                 device_hi: int, path: str
                 ) -> Tuple[int, int, str, float]:
    """Stream one device range of ``campaign`` to a shard file -- the
    one body the inline and the pool path both run.  The elapsed
    seconds ride back for the parent's (volatile) throughput metrics."""
    sha = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    with open(path, "wb") as handle:
        for device in campaign.population.devices[device_lo:device_hi]:
            count += write_records(
                handle, campaign.device_records(device), sha)
    return index, count, sha.hexdigest(), time.perf_counter() - started


#: A pool worker's campaign: set by the pool's initializer in the
#: worker process only, gone with it; ``None`` in every other process.
_worker_campaign: Optional[Campaign] = None


def _init_worker(config_kwargs: dict) -> None:
    """Pool initializer: build the campaign once per worker process.
    It is a pure function of the config, so the result never depends
    on inherited parent state (fork and spawn start methods behave
    identically) or on which shards the worker goes on to write."""
    global _worker_campaign
    _worker_campaign = Campaign(config=CampaignConfig(**config_kwargs))


def _generate_shard(task: Tuple[int, int, int, str]
                    ) -> Tuple[int, int, str, float]:
    """Worker entry point: one shard from the worker's campaign."""
    return _write_shard(_worker_campaign, *task)


class ShardedCampaign:
    """Drive a :class:`Campaign` across a worker pool.

    ``workers=1`` runs inline (no pool, no pickling) on one
    :class:`Campaign` over the population this object already holds;
    a pool worker builds its own once per process from the config.
    Both write shards through :func:`_write_shard`, so the single- and
    multi-process paths share every byte of the serialization code
    they are compared on, and nothing either builds outlives
    :meth:`run`.
    """

    def __init__(self, config: Optional[CampaignConfig] = None,
                 workers: int = 1,
                 shard_dir: Optional[str] = None,
                 n_shards: Optional[int] = None,
                 obs: Optional[Observability] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config or CampaignConfig()
        self.workers = workers
        self.shard_dir = shard_dir
        self.obs = obs or get_default()
        # More shards than workers -> the pool balances dynamically
        # even though the activity law is heavy-tailed.
        self.n_shards = n_shards or max(1, workers) * 3
        self.population = Population(seed=self.config.seed + 1)

    def run(self) -> ShardedRunResult:
        shard_dir = self.shard_dir or tempfile.mkdtemp(
            prefix="mopeye-shards-")
        os.makedirs(shard_dir, exist_ok=True)
        # Clear stale shards: a previous run with more shards would
        # otherwise leave extra shard-*.jsonl files that directory-level
        # readers (iter_jsonl_shards, dataset_digest) pick up.
        for stale in list_shards(shard_dir):
            os.remove(stale)
        specs = plan_shards(self.population, self.config.scale,
                            self.n_shards)
        tasks = [(spec.index, spec.device_lo, spec.device_hi,
                  shard_path(shard_dir, spec.index)) for spec in specs]
        if self.workers == 1:
            campaign = Campaign(population=self.population,
                                config=self.config)
            outcomes = [_write_shard(campaign, *task) for task in tasks]
        else:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            with ctx.Pool(processes=self.workers,
                          initializer=_init_worker,
                          initargs=(asdict(self.config),)) as pool:
                outcomes = pool.map(_generate_shard, tasks)
        result = ShardedRunResult(shard_dir=shard_dir)
        by_index = {index: (count, sha, elapsed)
                    for index, count, sha, elapsed in outcomes}
        for spec, (_index, _lo, _hi, path) in zip(specs, tasks):
            count, sha, elapsed = by_index[spec.index]
            result.shards.append(ShardResult(
                spec=spec, path=path, records=count, sha256=sha))
            self.obs.inc("crowd.records_generated", count)
            self.obs.inc("crowd.shards_completed")
            self.obs.observe("crowd.shard_records", count)
            self.obs.observe("crowd.shard_elapsed_s", elapsed)
        return result
