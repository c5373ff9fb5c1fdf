"""The collection backend: ingest, rollups, detection, queries.

MopEye's server side turned ten months of uploads from 2,351 devices
into per-app/per-ISP findings; this package is that tier for the
simulated world.  Batches arrive through
:class:`~repro.backend.server.BackendServer` (or straight from dataset
shards via :func:`~repro.backend.ingest.ingest_shard_files`), are
validated and deduplicated by
:class:`~repro.backend.ingest.IngestPipeline`, aggregated into
windowed mergeable histograms
(:class:`~repro.backend.rollups.RollupStore`), scanned by the
:class:`~repro.backend.detector.OnlineDetector` for the section 4.2.2
case studies (the one diagnosis: the chaos oracles' ``diagnose_*``
read the same rollups), and served by :mod:`repro.backend.query`.

Determinism contract: rollup state is integer-only and merging is
commutative, so the rollup digest is byte-identical across ingest
worker counts and ``PYTHONHASHSEED`` values -- the same bar the
dataset digest meets.
"""

from repro.backend.detector import (
    ChatDomainDegradationRule,
    Diagnosis,
    Finding,
    IspRttAnomalyRule,
    OnlineDetector,
    diagnose_all,
    diagnose_app,
    diagnose_operator,
    isp_summary,
)
from repro.backend.ingest import (
    BatchOutcome,
    IngestLoadModel,
    IngestPipeline,
    TokenBucket,
    ingest_shard_files,
    parse_batch_lines,
)
from repro.backend.rollups import (
    MergeHist,
    RollupConfig,
    RollupStore,
)
from repro.backend.server import BackendServer

__all__ = [
    "BackendServer",
    "BatchOutcome",
    "ChatDomainDegradationRule",
    "Diagnosis",
    "Finding",
    "IngestLoadModel",
    "IngestPipeline",
    "IspRttAnomalyRule",
    "MergeHist",
    "OnlineDetector",
    "RollupConfig",
    "RollupStore",
    "TokenBucket",
    "diagnose_all",
    "diagnose_app",
    "diagnose_operator",
    "ingest_shard_files",
    "isp_summary",
    "parse_batch_lines",
]
