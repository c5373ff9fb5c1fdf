"""Sharded, parallel generation of the full-scale campaign dataset.

The paper's §4.2 dataset is 5,252,758 records; generating it in one
process inside one in-memory store is both slow and RAM-hungry.  This
module fans the device population out across a ``multiprocessing``
worker pool.  Each worker regenerates its slice of devices from the
campaign seed alone and streams the records into a JSON-lines shard
file; the parent then merges shards by byte concatenation.

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
    merge_shards,
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
    merged_path: Optional[str] = None

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


def _generate_shard(task: Tuple[dict, int, int, int, str]
                    ) -> Tuple[int, int, str, float]:
    """Worker entry point: regenerate one device range from the seed
    and stream it to a shard file.  Rebuilds the campaign locally so
    the result never depends on inherited parent state (fork and spawn
    start methods behave identically).  The elapsed wall-clock seconds
    ride back for the parent's (volatile) throughput metrics."""
    config_kwargs, index, device_lo, device_hi, path = task
    campaign = Campaign(config=CampaignConfig(**config_kwargs))
    sha = hashlib.sha256()
    count = 0
    started = time.time()
    with open(path, "wb") as handle:
        for device in campaign.population.devices[device_lo:device_hi]:
            count += write_records(
                handle, campaign.device_records(device), sha)
    return index, count, sha.hexdigest(), time.time() - started


class ShardedCampaign:
    """Drive a :class:`Campaign` across a worker pool.

    ``workers=1`` runs inline (no pool, no pickling) and still writes
    shards, so the single- and multi-process paths share every byte of
    the serialization code they are compared on.
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

    def _tasks(self, shard_dir: str
               ) -> Tuple[List[Tuple[dict, int, int, int, str]],
                          List[ShardSpec]]:
        specs = plan_shards(self.population, self.config.scale,
                            self.n_shards)
        config_kwargs = asdict(self.config)
        return [(config_kwargs, spec.index, spec.device_lo,
                 spec.device_hi, shard_path(shard_dir, spec.index))
                for spec in specs], specs

    def run(self, merge_to: Optional[str] = None) -> ShardedRunResult:
        shard_dir = self.shard_dir or tempfile.mkdtemp(
            prefix="mopeye-shards-")
        os.makedirs(shard_dir, exist_ok=True)
        # Clear stale shards: a previous run with more shards would
        # otherwise leave extra shard-*.jsonl files that directory-level
        # readers (iter_jsonl_shards, dataset_digest) pick up.
        for stale in list_shards(shard_dir):
            os.remove(stale)
        tasks, specs = self._tasks(shard_dir)
        if self.workers == 1:
            outcomes = [_generate_shard(task) for task in tasks]
        else:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            with ctx.Pool(processes=self.workers) as pool:
                outcomes = pool.map(_generate_shard, tasks)
        result = ShardedRunResult(shard_dir=shard_dir)
        by_index = {index: (count, sha, elapsed)
                    for index, count, sha, elapsed in outcomes}
        for spec, task in zip(specs, tasks):
            count, sha, elapsed = by_index[spec.index]
            result.shards.append(ShardResult(
                spec=spec, path=task[4], records=count, sha256=sha))
            self.obs.inc("crowd.records_generated", count)
            self.obs.inc("crowd.shards_completed")
            self.obs.observe("crowd.shard_records", count)
            self.obs.observe("crowd.shard_elapsed_s", elapsed)
        if merge_to is not None:
            merge_shards(result.paths, merge_to)
            result.merged_path = merge_to
        return result
