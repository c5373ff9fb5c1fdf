"""MopEye: opportunistic per-app RTT measurement (the paper's core).

:class:`~repro.core.service.MopEyeService` wires the three threads of
Figure 4 -- TunReader, TunWriter, MainWorker -- plus the temporary
socket-connect threads, over the phone substrate.  Every design choice
the paper evaluates is a :class:`~repro.core.config.MopEyeConfig` knob,
so the ablation benches toggle exactly one mechanism at a time.
"""

from repro.core.config import MopEyeConfig
from repro.core.records import (
    FlowRecord,
    MeasurementKind,
    MeasurementRecord,
    MeasurementStore,
)
from repro.core.persist import (
    dataset_digest,
    iter_jsonl,
    iter_jsonl_shards,
    list_shards,
    load_csv,
    load_jsonl,
    merge_shards,
    save_csv,
    save_jsonl,
    save_jsonl_shards,
)
from repro.core.uploader import MeasurementUploader
from repro.core.mapping import (
    CacheMapper,
    EagerMapper,
    LazyMapper,
    MappingStats,
)
from repro.core.service import MopEyeService

__all__ = [
    "CacheMapper",
    "EagerMapper",
    "FlowRecord",
    "LazyMapper",
    "MappingStats",
    "MeasurementKind",
    "MeasurementUploader",
    "MeasurementRecord",
    "MeasurementStore",
    "MopEyeConfig",
    "MopEyeService",
    "dataset_digest",
    "iter_jsonl",
    "iter_jsonl_shards",
    "list_shards",
    "load_csv",
    "load_jsonl",
    "merge_shards",
    "save_csv",
    "save_jsonl",
    "save_jsonl_shards",
]
