"""Compact cross-process transfer + commutative merge for rollups.

Shard-parallel ingest used to return one pickled :class:`RollupStore`
per worker (~5 MB each at bench scale) and merge them serially behind
a pool barrier -- the parent-side cost grew with worker count and the
"parallel" path lost to serial.  This module fixes the transfer and
the merge:

* :func:`pack_store` flattens a store into a handful of flat arrays
  (row keys, per-row count/overflow/bin-count, then every sparse bin
  as one (index, count) pair in two concatenated arrays).  Packing
  happens **in the worker**, so its cost parallelises; the pack
  pickles in milliseconds because it is a few large homogeneous
  buffers, not half a million tiny dict/int objects.
* :class:`MergeAccumulator` consumes packs in *arrival order* (merge
  is commutative over integer histogram state, so scheduling cannot
  perturb the digest).  Each ``add`` is cheap bookkeeping -- key->gid
  interning plus appending array slices -- and one :meth:`finalize`
  pass builds the merged store: concatenate all bin arrays, sort by
  ``(group, bin)`` composite key, and sum duplicates with
  ``np.add.reduceat``.  Parent-side merge cost is therefore one
  O(total bins log total bins) pass independent of worker count,
  instead of W full dict merges.

The arrays are numpy's, a hard dependency (``pyproject.toml``); there
is no second pack form.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.backend.rollups import (
    MergeHist,
    N_BINS,
    RollupConfig,
    RollupStore,
    _decode_key,
    _encode_key,
)

#: Composite-key stride: one more than the largest bin index, so
#: ``gid * _STRIDE + bin`` never collides across groups.
_STRIDE = N_BINS + 1


def pack_store(store: RollupStore) -> dict:
    """Flatten ``store`` for cheap pickling across a process boundary.

    The pack is ``{"records": int, "failure_records": int,
    "tables": {...}}``; each table is six parallel structures (key
    strings, int64 row arrays, int64 bin arrays).
    """
    packed_tables: Dict[str, object] = {}
    for name in RollupStore.TABLES:
        table = store.tables[name]
        keys: List[str] = []
        counts: List[int] = []
        overflows: List[int] = []
        nbins: List[int] = []
        bin_idx: List[int] = []
        bin_cnt: List[int] = []
        for key, hist in table.items():
            keys.append(_encode_key(key))
            counts.append(hist.count)
            overflows.append(hist.overflow)
            nbins.append(len(hist.bins))
            bin_idx.extend(hist.bins.keys())
            bin_cnt.extend(hist.bins.values())
        packed_tables[name] = {
            "keys": keys,
            "count": np.asarray(counts, dtype=np.int64),
            "overflow": np.asarray(overflows, dtype=np.int64),
            "nbins": np.asarray(nbins, dtype=np.int64),
            "idx": np.asarray(bin_idx, dtype=np.int64),
            "cnt": np.asarray(bin_cnt, dtype=np.int64),
        }
    return {
        "records": store.records,
        "failure_records": store.failure_records,
        "tables": packed_tables,
    }


class MergeAccumulator:
    """Merge packed stores as they arrive; one finalize pass builds
    the result.  Arrival order never affects the digest."""

    def __init__(self, config: Optional[RollupConfig] = None) -> None:
        self.config = config or RollupConfig()
        self.records = 0
        self.failure_records = 0
        self.packs = 0
        self._tables: Dict[str, dict] = {
            name: {"gids": {}, "keys": [], "count": [], "overflow": [],
                   "gid_parts": [], "idx_parts": [], "cnt_parts": []}
            for name in RollupStore.TABLES}

    # -- accumulation --------------------------------------------------

    def add(self, packed: dict) -> None:
        self.packs += 1
        self.records += int(packed["records"])
        self.failure_records += int(packed["failure_records"])
        tables = packed["tables"]
        for name in RollupStore.TABLES:
            part = tables[name]
            keys = part["keys"]
            if not keys:
                continue
            acc = self._tables[name]
            counts, overflows = acc["count"], acc["overflow"]
            part_count, part_over = part["count"], part["overflow"]
            row_gids = np.empty(len(keys), dtype=np.int64)
            for i, key in enumerate(keys):
                gid = self._intern(acc, key)
                row_gids[i] = gid
                counts[gid] += int(part_count[i])
                overflows[gid] += int(part_over[i])
            acc["gid_parts"].append(np.repeat(row_gids, part["nbins"]))
            acc["idx_parts"].append(part["idx"])
            acc["cnt_parts"].append(part["cnt"])

    def _intern(self, acc: dict, key: str) -> int:
        gid = acc["gids"].get(key)
        if gid is None:
            gid = acc["gids"][key] = len(acc["keys"])
            acc["keys"].append(key)
            acc["count"].append(0)
            acc["overflow"].append(0)
        return gid

    # -- finalize ------------------------------------------------------

    def finalize(self) -> RollupStore:
        store = RollupStore(config=self.config)
        store.records = self.records
        store.failure_records = self.failure_records
        for name in RollupStore.TABLES:
            acc = self._tables[name]
            if not acc["keys"]:
                continue
            table = store.tables[name]
            hists: List[MergeHist] = []
            for gid, key in enumerate(acc["keys"]):
                hist = MergeHist()
                hist.count = int(acc["count"][gid])
                hist.overflow = int(acc["overflow"][gid])
                table[_decode_key(key)] = hist
                hists.append(hist)
            self._fold_arrays(acc, hists)
        return store

    @staticmethod
    def _fold_arrays(acc: dict, hists: List[MergeHist]) -> None:
        composite = (np.concatenate(acc["gid_parts"]) * _STRIDE
                     + np.concatenate(acc["idx_parts"]))
        cnt = np.concatenate(acc["cnt_parts"])
        order = np.argsort(composite, kind="stable")
        composite = composite[order]
        cnt = cnt[order]
        unique, starts = np.unique(composite, return_index=True)
        sums = np.add.reduceat(cnt, starts)
        gids = unique // _STRIDE
        indices = unique % _STRIDE
        for j in range(len(unique)):
            hists[int(gids[j])].bins[int(indices[j])] = int(sums[j])


__all__ = ["MergeAccumulator", "pack_store"]
