"""The batch-identity map both the ingest pipeline and the store engine
write: ``(device_id, batch_seq) -> acked``, least recently used first.

It lives apart from :mod:`repro.backend.ingest` so that
:mod:`repro.store.engine` -- which persists and recovers the map --
can import it without importing the pipeline (which imports the
store's block codec).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

#: Batch identities ``(device_id, batch_seq)`` remembered for replay
#: absorption, oldest evicted first -- by the pipeline and by the
#: store engine, which persists and recovers the same map.
DEDUP_CAPACITY = 4096


def remember(dedup: "OrderedDict[Tuple[str, int], int]",
             key: Tuple[str, int], acked: int) -> None:
    """Record ``key``'s ACK count as the most recent identity, evicting
    the oldest past :data:`DEDUP_CAPACITY`."""
    dedup[key] = acked
    dedup.move_to_end(key)
    while len(dedup) > DEDUP_CAPACITY:
        dedup.popitem(last=False)


__all__ = ["DEDUP_CAPACITY", "remember"]
