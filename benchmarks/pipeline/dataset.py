"""Set-up: one generated campaign turned into every input a workload needs.

Everything here is a pure function of ``(seed, scale)``.  The benchmark
reads no record field other than ``device_id``, ``app_package`` and
``operator``; upload payloads come from ``record_to_line`` (the
uploader's serialiser), so a change to the record schema needs no edit
here, while a change to the wire codec needs a benchmark-only PR first.
"""

from __future__ import annotations

import bisect
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.backend.rollups import RollupStore
from repro.cluster.ring import HashRing
from repro.core.persist import iter_jsonl, record_to_line
from repro.core.records import MeasurementRecord
from repro.crowd import CampaignConfig, ShardedCampaign, plan_shards
from repro.obs import Observability

from benchmarks.pipeline.host import Host

#: Nominal campaign scale: all 2,351 devices, 33,423 records, about
#: 2.8 k upload batches.  The largest at which three set-ups and the
#: measured phases of a run fit the time the benchmark contract allows
#: (92 runs in 3420 s).
SCALE = 0.005
#: Records the seed-2016 campaign emits at scale 1.  Device activity is
#: heavy-tailed, so at one fixed scale the record count swings by a
#: quarter between seeds -- and every time and size with it.  Each
#: seed's campaign is therefore run at the scale where *its* population
#: emits ``scale * RECORDS_AT_SCALE_1`` records.
RECORDS_AT_SCALE_1 = 6_684_550
#: The uploader's batch size: at most this many records per payload.
BATCH_RECORDS = 50
#: Dashboard popularity: rank-r subject drawn with weight 1 / r**s.
ZIPF_S = 1.1
#: Share of panels that are per-app (the rest are per-operator).
APP_SHARE = 0.7
RING_NODES = 4

#: One upload: ``(device_id, batch_seq, payload, n_lines)``.
Batch = Tuple[str, int, bytes, int]
#: One dashboard query: ``("app" | "network", subject)``.
Panel = Tuple[str, str]


@dataclass
class Dataset:
    shard_paths: List[str]
    records: List[MeasurementRecord]
    #: Every record exactly once, devices interleaved round-robin.
    batches: List[Batch]
    #: The records each batch carries, in the same order.
    batch_records: List[List[MeasurementRecord]]
    #: Seconds each stage of the set-up took on the nominal host.
    generate_s: float
    decode_s: float
    encode_s: float
    shard_bytes: int

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.decode_s + self.encode_s

    @property
    def n(self) -> int:
        return len(self.records)


def build(seed: int, scale: float, directory: str,
          host: Host) -> Dataset:
    """Generate the campaign into ``directory`` and derive the upload
    batches from it.  The three stages are what ``setup_s`` and the
    ``crowd.*`` / ``core.persist.*`` layer metrics report."""
    with host.stretch(sampled=True) as generate:
        config = CampaignConfig(scale=campaign_scale(seed, scale),
                                seed=seed)
        run = ShardedCampaign(
            config, workers=1,
            shard_dir=os.path.join(directory, "shards"),
            obs=Observability()).run()
    with host.stretch(sampled=True) as decode:
        records = [record for path in run.paths
                   for record in iter_jsonl(path)]
    with host.stretch(sampled=True) as encode:
        batch_records = _round_robin(records)
        batches = [(chunk[0].device_id, seq,
                    "".join(record_to_line(record) + "\n"
                            for record in chunk).encode("utf-8"),
                    len(chunk))
                   for seq, chunk in batch_records]
    return Dataset(
        shard_paths=list(run.paths),
        records=records, batches=batches,
        batch_records=[chunk for _seq, chunk in batch_records],
        generate_s=generate.seconds, decode_s=decode.seconds,
        encode_s=encode.seconds,
        shard_bytes=sum(os.path.getsize(path) for path in run.paths))


def campaign_scale(seed: int, nominal: float) -> float:
    """The smallest campaign scale at which ``seed``'s population is
    planned to emit ``nominal * RECORDS_AT_SCALE_1`` records."""
    population = ShardedCampaign(
        CampaignConfig(scale=nominal, seed=seed)).population
    wanted = round(nominal * RECORDS_AT_SCALE_1)
    low, high = 0.0, 4.0 * nominal
    for _ in range(40):
        middle = (low + high) / 2.0
        if plan_shards(population, middle, 1)[0].expected_records \
                < wanted:
            low = middle
        else:
            high = middle
    return high


def _round_robin(records: List[MeasurementRecord]
                 ) -> List[Tuple[int, List[MeasurementRecord]]]:
    """``(batch_seq, records)`` chunks of at most ``BATCH_RECORDS``
    per device, devices interleaved: every device's batch 0, then
    every device's batch 1, ..."""
    per_device: Dict[str, List[MeasurementRecord]] = {}
    for record in records:
        per_device.setdefault(record.device_id, []).append(record)
    queues = [[owned[start:start + BATCH_RECORDS]
               for start in range(0, len(owned), BATCH_RECORDS)]
              for owned in per_device.values()]
    return [(seq, chunks[seq])
            for seq in range(max(map(len, queues)))
            for chunks in queues if seq < len(chunks)]


def reference(records: List[MeasurementRecord], host: Host
              ) -> Tuple[RollupStore, str, float, float]:
    """The answer every store state is checked against, and the
    isolated cost of the rollup layer: ``(store, digest, add_all
    seconds, digest seconds)``."""
    store = RollupStore()
    with host.stretch(sampled=True) as add:
        store.add_all(records)
    with host.stretch(sampled=True) as digesting:
        digest = store.digest()
    return store, digest, add.seconds, digesting.seconds


def panel_stream(records: List[MeasurementRecord], seed: int,
                 blocks: Sequence[int]) -> List[Panel]:
    """Panel queries, Zipf-distributed over apps and operators ranked
    by record volume.  Each of ``blocks`` contributes that many
    panels: ``APP_SHARE`` of them per-app, the subjects taken at
    evenly spaced quantiles of the Zipf law, the order shuffled by
    ``seed``.  A stratified sample, so that every seed asks for the
    same mix of ranks and two seeds differ in who holds a rank and
    when it is asked, not in how lucky the draw was; and every prefix
    that ends on a block boundary is itself such a sample."""
    apps: Dict[str, int] = {}
    operators: Dict[str, int] = {}
    for record in records:
        if record.app_package:
            apps[record.app_package] = \
                apps.get(record.app_package, 0) + 1
        operators[record.operator] = \
            operators.get(record.operator, 0) + 1
    ranked = {"app": _by_volume(apps),
              "network": _by_volume(operators)}
    cdfs = {kind: _zipf_cdf(len(names))
            for kind, names in ranked.items()}
    rng = random.Random(seed)
    stream: List[Panel] = []
    for size in blocks:
        n_app = round(size * APP_SHARE)
        block: List[Panel] = []
        for kind, count in (("app", n_app), ("network", size - n_app)):
            for index in range(count):
                rank = bisect.bisect_left(cdfs[kind],
                                          (index + 0.5) / count)
                block.append((kind, ranked[kind][rank]))
        rng.shuffle(block)
        stream.extend(block)
    return stream


def _by_volume(volume: Dict[str, int]) -> List[str]:
    return sorted(volume, key=lambda name: (-volume[name], name))


def _zipf_cdf(n: int) -> List[float]:
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, n + 1)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


def ring_split(dataset: Dataset, directory: str
               ) -> Tuple[List[str], List[int]]:
    """Shard the records over a ``RING_NODES``-node consistent-hash
    ring by device: one JSONL file per node plus its record count."""
    ring = HashRing(nodes=["node-%d" % i for i in range(RING_NODES)])
    owners = ring.nodes()
    paths = [os.path.join(directory, "%s.jsonl" % node)
             for node in owners]
    counts = [0] * len(owners)
    handles = [open(path, "w") for path in paths]
    try:
        home: Dict[str, int] = {}
        for record in dataset.records:
            index = home.get(record.device_id)
            if index is None:
                index = home[record.device_id] = owners.index(
                    ring.node_for(record.device_id))
            handles[index].write(record_to_line(record) + "\n")
            counts[index] += 1
    finally:
        for handle in handles:
            handle.close()
    return paths, counts
