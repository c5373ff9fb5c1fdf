"""Benchmark-side tracing of the layers' public entry points.

``Tracer.install()`` replaces each entry point listed in ``TARGETS``
with a wrapper that records one span -- name, start, end, parent,
operation id, region -- into a list held in memory; ``uninstall()``
puts the originals back, so the same process can time traced and
untraced passes side by side.  Nothing under ``src/`` knows about it.
Spans keep the wall clock's readings; self times are rescaled to the
nominal host by the timed stretch (see :mod:`.host`) they fall into.

Per-record functions (``RollupStore.add``, ``BlockCache.get``) are not
wrapped: their time is their caller's self time, and their counts come
from the program's own ``Observability`` registry.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Dict, Iterator, List, Optional

from benchmarks.pipeline.host import Stretch

#: ``(module, class or None, attribute, consume)``.  A name imported
#: into another module is patched where it is *called* from.  The span
#: name is ``<layer>.<attribute>`` with the layer spelt as the module
#: that defines the function.  ``consume`` drains a generator inside
#: the span, so the span covers the work and not just its creation.
TARGETS = [
    ("repro.backend.ingest", None, "parse_batch_lines", False),
    ("repro.backend.ingest", "IngestPipeline", "handle_batch", False),
    ("repro.backend.ingest", None, "ingest_shard_files", False),
    ("repro.backend.rollups", "RollupStore", "clone", False),
    ("repro.store.engine", "StoreEngine", "log_batch", False),
    ("repro.store.engine", "StoreEngine", "append_records", False),
    ("repro.store.engine", "StoreEngine", "bulk_load", False),
    ("repro.store.engine", "StoreEngine", "flush", False),
    ("repro.store.engine", "StoreEngine", "checkpoint", False),
    ("repro.store.engine", "StoreEngine", "compact", False),
    ("repro.store.engine", "StoreEngine", "recover", False),
    ("repro.store.wal", "WriteAheadLog", "commit", False),
    ("repro.store.engine", None, "write_segment", False),
    ("repro.store.engine", None, "write_checkpoint", False),
    ("repro.store.engine", None, "read_checkpoint", False),
    ("repro.store.segments", "SegmentReader", "get_many", False),
    ("repro.store.segments", "SegmentReader", "scan_prefixes", True),
    ("repro.serve.engine", "QueryEngine", "snapshot", False),
    ("repro.serve.engine", "ReadView", "app_panel", False),
    ("repro.serve.engine", "ReadView", "network_panel", False),
    ("repro.cluster.merge", None, "merge_stores", False),
]

#: Functions the engine imports by name are defined elsewhere.
_DEFINING_LAYER = {
    "write_segment": "store.segments",
    "write_checkpoint": "store.checkpoint",
    "read_checkpoint": "store.checkpoint",
}

#: Spans the harness opens itself around each timed region.
HARNESS = "bench.harness"

# Span fields, by position.  STRETCH is set on harness spans only.
NAME, START, END, PARENT, OP, REGION, STRETCH = range(7)


def span_name(module: str, attribute: str) -> str:
    layer = _DEFINING_LAYER.get(attribute,
                                module.split(".", 1)[1])
    return "%s.%s" % (layer, attribute)


class Tracer:
    """Span recorder.  Inert until :meth:`install`; ``op`` and
    ``region`` are stamped onto every span started while they hold."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self.region: Optional[int] = None
        self._stack: List[int] = []
        self._originals: List[tuple] = []

    # -- patching ------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            return
        for module_name, class_name, attribute, consume in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(
                span_name(module_name, attribute), original, consume))

    def uninstall(self) -> None:
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)
        self._originals = []

    def _wrap(self, name: str, function, consume: bool):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.op, self.region, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
                if consume:
                    result = iter(list(result))
                return result
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def timed(self, stretch: Stretch) -> Iterator[None]:
        """A harness span around the timed ``stretch`` of the current
        region.  What it does not hand to a wrapped entry point is the
        benchmark's own cost."""
        if not self.installed:
            yield
            return
        span = [HARNESS, 0.0, 0.0, -1, None, self.region, stretch]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    # -- analysis ------------------------------------------------------

    def _slowdowns(self) -> List[float]:
        """Span by span, how much slower than nominal the host ran:
        the figure of the timed stretch the span falls into."""
        slowdowns: List[float] = []
        for span in self.spans:
            # A parent starts, and so is listed, before its children.
            if span[PARENT] >= 0:
                slowdowns.append(slowdowns[span[PARENT]])
            else:
                slowdowns.append(span[STRETCH].slowdown
                                 if span[STRETCH] else 1.0)
        return slowdowns

    def self_times(self) -> Dict[Optional[int], Dict[str, float]]:
        """``{region: {span name: self seconds}}``: a span's duration
        minus the part its child spans cover, on the nominal host."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                children[span[PARENT]] += span[END] - span[START]
        out: Dict[Optional[int], Dict[str, float]] = {}
        for span, covered, slowdown in zip(self.spans, children,
                                           self._slowdowns()):
            names = out.setdefault(span[REGION], {})
            names[span[NAME]] = names.get(span[NAME], 0.0) \
                + (span[END] - span[START] - covered) / slowdown
        return out

    def durations_ms(self, name: str,
                     parent: Optional[str] = None) -> List[float]:
        """Every ``name`` span's duration on the nominal host,
        optionally only those whose parent span is ``parent``."""
        return [(span[END] - span[START]) * 1000.0 / slowdown
                for span, slowdown in zip(self.spans,
                                          self._slowdowns())
                if span[NAME] == name and (
                    parent is None or (
                        span[PARENT] >= 0 and
                        self.spans[span[PARENT]][NAME] == parent))]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span[NAME],
                    "start": span[START], "end": span[END],
                    "parent": span[PARENT] if span[PARENT] >= 0
                    else None,
                    "op": span[OP], "region": span[REGION]}) + "\n")
